"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Graph`` is a flat, topologically ordered list of nodes built through
its builder methods; node ids are plain list indices.  ``evaluate`` runs
the forward pass for a set of leaf bindings and keeps every value for one
backward pass, which consumes them; ``forward`` returns only the requested
nodes' values and frees each other value after its last use.  ``backward``
accumulates the gradient of a scalar node into every trainable leaf, and
``grad_check`` compares those gradients against central finite
differences, skipping parameters whose perturbation crosses an L1 or relu
kink.  The backward pass forms no gradient toward a node that no trainable
leaf reaches, and mirrors ``forward``'s last-use rule in reverse: it drops
each value, gradient and residual once it has been read for the last time.

The single ops are the ones the package's graphs build: ``add``, ``sub``,
``mul``, ``scalar_mul``, ``matmul``, ``transpose``, ``reshape``, ``relu``,
``layer_norm``, ``mean_abs`` and ``take``, plus ``concat``, which only a
test's live reference graph builds (see its docstring).

``layer_norm`` under ``evaluate`` keeps its normalized input and inverse
deviation as residuals, so its VJP does not recompute them.

Besides the single ops there are two fused ops.  ``rot6d`` decodes
continuous 6D rotation codes to rotation matrices by Gram-Schmidt and
raises `DegenerateRotationError`, naming itself and the first bad (row,
joint), on a column or remainder norm at or below 1e-8.  ``rigid_chain``
runs forward kinematics down a joint tree plus linear blend skinning, as
in SMPL, from local rotations and a rest mesh to posed vertices; it copies
the rotations to a contiguous array first, so a transposed view and a
contiguous array of the same values give the same bits.  Their shared
contract:
- only ``evaluate`` keeps the intermediates a fused op's VJP reads, on the
  values it returns (``Values.residuals``); ``forward`` keeps none of them;
- the forward and the hand-written VJP run the ufuncs, products and sums
  of the graph of single ops the op replaced, in that graph's order (its
  reverse sweep's order of accumulation, for the VJP), so values and
  gradients are bit-identical to it, signs of zeros included, not merely
  close.

The tape is rebuilt per training step; nothing here caches graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Node",
    "Graph",
    "GradientMap",
    "Values",
    "evaluate",
    "forward",
    "backward",
    "backward_from_values",
    "grad_check",
    "DiffcoreError",
    "ShapeMismatchError",
    "UnboundLeafError",
    "NonScalarLossError",
    "DegenerateRotationError",
]

# Maps leaf name -> gradient array shaped like the leaf binding.
GradientMap = dict

# Ops whose derivative jumps at zero input; grad_check watches their
# inputs for sign changes to detect finite-difference steps that
# straddle a kink.
_KINK_OPS = ("relu", "mean_abs")


class DiffcoreError(Exception):
    """Base class for graph construction and evaluation failures."""


class ShapeMismatchError(DiffcoreError):
    pass


class UnboundLeafError(DiffcoreError):
    pass


class NonScalarLossError(DiffcoreError):
    pass


class DegenerateRotationError(DiffcoreError, ValueError):
    """6D code whose two columns are too short or too parallel to orthonormalize.

    A rot6d node gives ``what`` failed and the first bad code's batch ``row``
    and ``joint``, so a caller that posed a slice of a batch can name the
    row in the whole.
    """

    def __init__(self, what: str, row: int | None = None, joint: int | None = None):
        super().__init__(what if row is None else f"{what} at (row {row}, joint {joint})")
        self.what, self.row, self.joint = what, row, joint


@dataclass
class Node:
    kind: str
    inputs: tuple
    attrs: dict


class Graph:
    """Topologically ordered op list with int node ids."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    def _add(self, kind: str, inputs=(), **attrs) -> int:
        for i in inputs:
            if not (0 <= i < len(self.nodes)):
                raise DiffcoreError(f"node input id {i} out of range for kind {kind!r}")
        self.nodes.append(Node(kind, tuple(inputs), attrs))
        return len(self.nodes) - 1

    # -- leaves and constants -------------------------------------------

    def leaf(self, name: str, trainable: bool = False) -> int:
        """Input bound at evaluate time through the bindings dict."""
        return self._add("leaf", (), name=name, trainable=trainable)

    def const(self, value) -> int:
        return self._add("const", (), value=np.asarray(value, dtype=np.float64))

    # -- primitives ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add("add", (a, b))

    def sub(self, a: int, b: int) -> int:
        return self._add("sub", (a, b))

    def mul(self, a: int, b: int) -> int:
        """Elementwise product with numpy broadcasting."""
        return self._add("mul", (a, b))

    def scalar_mul(self, a: int, c: float) -> int:
        return self._add("scalar_mul", (a,), c=float(c))

    def matmul(self, a: int, b: int) -> int:
        """Matrix product on the last two axes; leading axes broadcast."""
        return self._add("matmul", (a, b))

    def transpose(self, a: int) -> int:
        """Swap the last two axes."""
        return self._add("transpose", (a,))

    def reshape(self, a: int, shape) -> int:
        return self._add("reshape", (a,), shape=tuple(int(s) for s in shape))

    def concat(self, ids, axis: int) -> int:
        """Join along ``axis``. Only the tests' joint-by-joint reference of
        ``rigid_chain`` builds it; a recorded digest cannot stand in for that
        live reference, since the bits of ``rigid_chain``'s BLAS matmuls depend on the CPU."""
        if len(ids) < 1:
            raise DiffcoreError("concat needs at least one input")
        return self._add("concat", tuple(ids), axis=int(axis))

    def relu(self, a: int) -> int:
        return self._add("relu", (a,))

    def layer_norm(self, x: int, gain: int, bias: int, eps: float = 1e-5) -> int:
        """Normalize over the last axis, then scale and shift."""
        return self._add("layer_norm", (x, gain, bias), eps=float(eps))

    def mean_abs(self, a: int) -> int:
        """L1 reduction to a scalar: mean of absolute values."""
        return self._add("mean_abs", (a,))

    def take(self, a: int, index, axis: int) -> int:
        """Entries ``index`` along ``axis``: a slice, or a 1-D array of distinct ints >= 0."""
        if not isinstance(index, slice):
            index = np.asarray(index)
            if index.ndim != 1 or (index.size and index.dtype.kind not in "iu"):
                raise ShapeMismatchError(f"take index must be a slice or a 1-D int array, got {index!r}")
            index = index.astype(np.intp)
            if np.any(index < 0) or np.unique(index).size != index.size:
                raise ShapeMismatchError(f"take index must hold distinct non-negative ints, got {index}")
        return self._add("take", (a,), index=index, axis=int(axis))

    def rot6d(self, codes: int) -> int:
        """(B, J, 6) continuous rotation codes to (B, J, 3, 3) rotations, as one node.

        Column one is the normalized first triple, column two the Gram-Schmidt
        remainder of the second, column three their cross product. A column
        norm or remainder norm at or below 1e-8 raises `DegenerateRotationError`.
        """
        return self._add("rot6d", (codes,))

    def rigid_chain(self, rot: int, shaped: int, parents, skin_weights, joint_regressor) -> int:
        """Forward kinematics plus linear blend skinning, as one node.

        ``rot`` is (B, J, 3, 3) local rotations and ``shaped`` the (B, V, 3)
        rest mesh. Rest joints are ``joint_regressor @ shaped``; each joint's
        global rotation and translation compose down ``parents`` (root -1,
        ``parents[j] < j``), and each vertex moves by its ``skin_weights``
        blend of the joints' rigid motions. Returns the (B, V, 3) vertices.
        """
        parents = tuple(int(p) for p in parents)
        if not parents or parents[0] != -1 or any(not 0 <= p < j for j, p in enumerate(parents[1:], 1)):
            raise ShapeMismatchError(f"rigid_chain parents must be -1 then earlier joints, got {parents}")
        children: list = [[] for _ in parents]
        for j, p in enumerate(parents[1:], 1):
            children[p].append(j)
        return self._add(
            "rigid_chain",
            (rot, shaped),
            parents=parents,
            children=tuple(tuple(c) for c in children),
            skin_weights=np.asarray(skin_weights, dtype=np.float64),
            joint_regressor=np.asarray(joint_regressor, dtype=np.float64),
        )

    # -- introspection ----------------------------------------------------

    def trainable_leaves(self) -> list:
        """(node_id, name) for every trainable leaf, in graph order."""
        return [
            (i, n.attrs["name"])
            for i, n in enumerate(self.nodes)
            if n.kind == "leaf" and n.attrs["trainable"]
        ]

    def kink_input_ids(self) -> list:
        return [n.inputs[0] for n in self.nodes if n.kind in _KINK_OPS]


def _err(i: int, node: Node, msg: str) -> ShapeMismatchError:
    return ShapeMismatchError(f"node {i} ({node.kind}): {msg}")


def _check_broadcast(i, node, sa, sb):
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise _err(i, node, f"shapes {sa} and {sb} do not broadcast") from None


def _take_key(i: int, node: Node, shape: tuple) -> tuple:
    """Index tuple that applies a take node's selection to an array of ``shape``."""
    axis, index = node.attrs["axis"], node.attrs["index"]
    if not -len(shape) <= axis < len(shape):
        raise _err(i, node, f"axis {axis} out of range for shape {shape}")
    axis %= len(shape)
    if not isinstance(index, slice) and index.size and index.max() >= shape[axis]:
        raise _err(i, node, f"index {index.max()} out of range for axis {axis} of size {shape[axis]}")
    return (slice(None),) * axis + (index,)


# the cyclic rolls of a 3-vector whose products make the cross product
_ROLL1, _ROLL2 = np.array([1, 2, 0]), np.array([2, 0, 1])


def _check_norms(i: int, node: Node, norms: np.ndarray, what: str) -> None:
    bad = norms[..., 0] <= 1e-8
    if np.any(bad):
        row, joint = np.argwhere(bad)[0]
        raise DegenerateRotationError(f"node {i} ({node.kind}): {what} at or below 1e-8", int(row), int(joint))


def _rot6d(i: int, node: Node, codes: np.ndarray, keep: bool) -> tuple:
    """A rot6d node's rotations, and with ``keep`` what its VJP reads.

    The ufuncs are those of the graph of single ops it replaced (slices,
    products, keepdims sums, square roots, quotients, then the cross product
    from the two cyclic rolls), in that graph's order, so the rotations carry
    its bits. The remainder check also covers a short second column, since
    the remainder is never longer than that column. The columns are written
    into the one output array, so forward-only posing holds no more than the
    single-op graph did.
    """
    if codes.ndim != 3 or codes.shape[2] != 6:
        raise _err(i, node, f"codes must be (B, J, 6), got {codes.shape}")
    a1, a2 = codes[..., 0:3], codes[..., 3:6]
    n1 = np.sqrt(np.sum(a1 * a1, axis=-1, keepdims=True))
    _check_norms(i, node, n1, "first column norm")
    b1 = a1 / n1
    along = np.sum(b1 * a2, axis=-1, keepdims=True)
    resid = a2 - along * b1
    nr = np.sqrt(np.sum(resid * resid, axis=-1, keepdims=True))
    _check_norms(i, node, nr, "Gram-Schmidt remainder norm")
    b2 = resid / nr
    saved = [a1, a2, n1, b1, along, resid, nr, b2] if keep else None
    del n1, along, resid, nr  # unless saved, freed before the cross product
    rot = np.empty(codes.shape[:2] + (3, 3))
    rot[..., 0], rot[..., 1] = b1, b2
    np.subtract(b1[..., _ROLL1] * b2[..., _ROLL2], b1[..., _ROLL2] * b2[..., _ROLL1], out=rot[..., 2])
    return rot, saved


def _rot6d_vjp(g: np.ndarray, saved: list) -> np.ndarray:
    """Gradient of a rot6d node toward its codes.

    This replays the reverse sweep of the graph of single ops term by term,
    so the gradient carries its bits: each accumulator takes its terms in
    the reverse of the order the graph built the nodes that made them, a
    product's input read twice takes its term twice, and the two slices'
    zero-filled scatters add their zeros, which turns a -0.0 into +0.0.
    """
    a1, a2, n1, b1, along, resid, nr, b2 = saved
    batch, joints = a1.shape[:2]
    # the columns' gradients, split from one copy that takes their later terms in place
    g_cols = np.swapaxes(g, -1, -2).reshape(batch, joints, 9)
    g_b1, g_b2, g_b3 = g_cols[..., 0:3], g_cols[..., 3:6], g_cols[..., 6:9]
    # b3 = b1[roll1] * b2[roll2] - b1[roll2] * b2[roll1]; a roll's scatter is the other roll
    g_neg = -g_b3
    g_b2 += (g_neg * b1[..., _ROLL2])[..., _ROLL2]
    g_b1 += (g_neg * b2[..., _ROLL1])[..., _ROLL1]
    g_b2 += (g_b3 * b1[..., _ROLL1])[..., _ROLL1]
    g_b1 += (g_b3 * b2[..., _ROLL2])[..., _ROLL2]
    # b2 = resid / nr, nr = sqrt(sum(resid * resid))
    g_resid = g_b2 / nr
    g_nr = _unbroadcast(-g_b2 * resid / (nr * nr), nr.shape)
    g_sq = g_nr / (2.0 * nr)
    g_resid += g_sq * resid
    g_resid += g_sq * resid
    # resid = a2 - along * b1, along = sum(b1 * a2)
    g_a2 = g_resid
    g_prod = -g_resid
    g_along = _unbroadcast(g_prod * b1, along.shape)
    g_b1 += g_prod * along
    g_b1 += g_along * a2
    g_a2 += g_along * b1
    # b1 = a1 / n1, n1 = sqrt(sum(a1 * a1))
    g_a1 = g_b1 / n1
    g_n1 = _unbroadcast(-g_b1 * a1 / (n1 * n1), n1.shape)
    g_sq = g_n1 / (2.0 * n1)
    g_a1 += g_sq * a1
    g_a1 += g_sq * a1
    out = np.concatenate([g_a1, g_a2], axis=-1)
    out += 0.0
    return out


def _rigid_chain(i: int, node: Node, rot: np.ndarray, shaped: np.ndarray, keep: bool) -> tuple:
    """A rigid_chain node's vertices, and with ``keep`` what its VJP reads.

    Every product and sum is the one the joint-by-joint graph of single
    ops made, on operands of the same memory layout, so the vertices carry
    its bits: matmul results can depend on whether an operand is a
    transposed view.
    """
    parents = node.attrs["parents"]
    sw, jr = node.attrs["skin_weights"], node.attrs["joint_regressor"]
    joints = len(parents)
    if rot.ndim != 4 or rot.shape[1:] != (joints, 3, 3):
        raise _err(i, node, f"rotations must be (B, {joints}, 3, 3), got {rot.shape}")
    batch = rot.shape[0]
    if shaped.ndim != 3 or shaped.shape[0] != batch or shaped.shape[2] != 3:
        raise _err(i, node, f"rest mesh must be ({batch}, V, 3), got {shaped.shape}")
    nverts = shaped.shape[1]
    if sw.shape != (nverts, joints) or jr.shape != (joints, nverts):
        raise _err(
            i, node, f"skin weights {sw.shape} and regressor {jr.shape} do not fit {joints} joints, {nverts} vertices"
        )
    loc = np.ascontiguousarray(rot)
    rest = jr @ shaped
    rows = [rest[:, j : j + 1] for j in range(joints)]
    rots = np.empty_like(loc)
    rots[:, 0] = loc[:, 0]
    trans = [rows[0]] + [None] * (joints - 1)
    bones = [None] * joints
    for j in range(1, joints):
        p = parents[j]
        bones[j] = rows[j] - rows[p]
        trans[j] = trans[p] + bones[j] @ np.swapaxes(rots[:, p], -1, -2)
        rots[:, j] = rots[:, p] @ loc[:, j]
    rots_t = np.swapaxes(rots, -1, -2)
    shift = np.concatenate(trans, axis=1) - (rest[:, :, None, :] @ rots_t)[:, :, 0]
    rows_t = rots_t.reshape(batch, joints, 9)
    saved = [loc, rots, rest, bones] if keep else None
    # unless saved, each intermediate is freed before the next wide product
    del loc, rest, rots, rots_t, trans, rows, bones
    blended = (sw @ rows_t).reshape(batch, nverts, 3, 3)
    del rows_t
    verts = (shaped.reshape(batch, nverts, 1, 3) @ blended).reshape(batch, nverts, 3)
    if keep:
        saved.append(blended)
    del blended
    verts += sw @ shift
    return verts, saved


def _rigid_chain_vjp(
    node: Node, g: np.ndarray, shaped: np.ndarray, saved: list, want_rot: bool, want_shaped: bool
) -> tuple:
    """Gradients of a rigid_chain node toward (rot, shaped); None where not wanted.

    This replays the reverse sweep of the joint-by-joint graph, so the sums
    run in its order and the gradients carry its bits. Joints go from last
    to first; each accumulator takes its terms in the reverse of the order
    the graph built the nodes that made them:
    - the transposed global rotation of joint j: its shift term, its blend
      term, then its children's bone terms, highest child first;
    - the global rotation of joint p: each child's rotation term, highest
      child first, then the transpose of the above, added at its lowest
      child (a childless joint has the transpose alone);
    - the translation of joint p: its shift term, then its children's;
    - rest row j: its shift term, its children's bone terms, then its own.
      The root's translation and rest row are one accumulator.
    The rest mesh takes the skinning term first, then the rest joints'.
    """
    parents, children = node.attrs["parents"], node.attrs["children"]
    sw_t = np.swapaxes(node.attrs["skin_weights"], -1, -2)
    loc, rots, rest, bones, blended = saved
    batch, joints = loc.shape[:2]
    nverts = shaped.shape[1]
    g4 = g.reshape(batch, nverts, 1, 3)
    g_blend = np.swapaxes(shaped.reshape(batch, nverts, 1, 3), -1, -2) @ g4
    g_shift = sw_t @ g
    g_sm = -g_shift
    row_terms = (g_sm[:, :, None, :] @ rots)[:, :, 0]
    g_blend_t = (sw_t @ g_blend.reshape(batch, nverts, 9)).reshape(batch, joints, 3, 3)
    g_rots_t = rest[:, :, :, None] @ g_sm[:, :, None, :] + g_blend_t

    g_trans = [g_shift[:, j : j + 1] for j in range(joints)]
    g_row = [row_terms[:, j : j + 1] for j in range(joints)]
    g_row[0] = g_trans[0] + g_row[0]
    g_rot_t = [g_rots_t[:, j] for j in range(joints)]
    g_rot: list = [None if children[j] else np.swapaxes(g_rot_t[j], -1, -2) for j in range(joints)]

    g_loc: list = [None] * joints
    for c in range(joints - 1, 0, -1):
        p = parents[c]
        term = g_rot[c] @ np.swapaxes(loc[:, c], -1, -2)
        g_rot[p] = term if g_rot[p] is None else g_rot[p] + term
        if want_rot:
            g_loc[c] = np.swapaxes(rots[:, p], -1, -2) @ g_rot[c]
        if p:
            g_trans[p] = g_trans[p] + g_trans[c]
        else:
            g_row[0] = g_row[0] + g_trans[c]
        g_bone = g_trans[c] @ rots[:, p]
        g_rot_t[p] = g_rot_t[p] + np.swapaxes(bones[c], -1, -2) @ g_trans[c]
        if c == children[p][0]:
            g_rot[p] = g_rot[p] + np.swapaxes(g_rot_t[p], -1, -2)
        g_row[c] = g_row[c] + g_bone
        g_row[p] = g_row[p] + (-g_bone)

    grad_rot = grad_shaped = None
    if want_rot:
        g_loc[0] = g_rot[0]
        grad_rot = np.stack(g_loc, axis=1)
    if want_shaped:
        skin = (g4 @ np.swapaxes(blended, -1, -2)).reshape(batch, nverts, 3)
        jr_t = np.swapaxes(node.attrs["joint_regressor"], -1, -2)
        grad_shaped = skin + jr_t @ np.concatenate(g_row, axis=1)
    return grad_rot, grad_shaped


def _forward(i: int, node: Node, xs: list, bindings: dict, residuals=None) -> np.ndarray:
    """Node ``i``'s value; a fused node also files its VJP's inputs in ``residuals``."""
    kind = node.kind
    if kind == "leaf":
        name = node.attrs["name"]
        if name not in bindings:
            raise UnboundLeafError(f"node {i} (leaf): no binding for {name!r}")
        return np.asarray(bindings[name], dtype=np.float64)
    if kind == "const":
        return node.attrs["value"]
    if kind in ("add", "sub", "mul"):
        a, b = xs
        _check_broadcast(i, node, a.shape, b.shape)
        if kind == "add":
            return a + b
        if kind == "sub":
            return a - b
        return a * b
    if kind == "scalar_mul":
        return node.attrs["c"] * xs[0]
    if kind == "matmul":
        a, b = xs
        if a.ndim < 2 or b.ndim < 2:
            raise _err(i, node, f"operands must be at least 2-D, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise _err(i, node, f"inner dimensions differ: {a.shape} @ {b.shape}")
        _check_broadcast(i, node, a.shape[:-2], b.shape[:-2])
        return a @ b
    if kind == "transpose":
        if xs[0].ndim < 2:
            raise _err(i, node, "transpose needs at least 2 axes")
        return np.swapaxes(xs[0], -1, -2)
    if kind == "reshape":
        shape = node.attrs["shape"]
        x = xs[0]
        if int(np.prod(shape)) != x.size:
            raise _err(i, node, f"cannot reshape {x.shape} to {shape}")
        return x.reshape(shape)
    if kind == "concat":
        axis = node.attrs["axis"]
        ref = xs[0]
        for x in xs[1:]:
            if x.ndim != ref.ndim:
                raise _err(i, node, "rank mismatch between concat inputs")
            for d in range(ref.ndim):
                if d != (axis % ref.ndim) and x.shape[d] != ref.shape[d]:
                    raise _err(i, node, f"off-axis shape mismatch {x.shape} vs {ref.shape}")
        return np.concatenate(xs, axis=axis)
    if kind == "relu":
        return np.maximum(xs[0], 0.0)
    if kind == "layer_norm":
        x, gain, bias = xs
        if gain.ndim != 1 or bias.ndim != 1:
            raise _err(i, node, "gain and bias must be 1-D")
        if gain.shape[0] != x.shape[-1] or bias.shape[0] != x.shape[-1]:
            raise _err(i, node, f"gain/bias length must equal last dim {x.shape[-1]}")
        mu = x.mean(axis=-1, keepdims=True)
        var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + node.attrs["eps"])
        xhat = (x - mu) * inv
        if residuals is not None:
            residuals[i] = [xhat, inv]
        return xhat * gain + bias
    if kind == "mean_abs":
        return np.asarray(np.mean(np.abs(xs[0])))
    if kind == "take":
        return xs[0][_take_key(i, node, xs[0].shape)]
    if kind in ("rot6d", "rigid_chain"):
        if kind == "rot6d":
            out, saved = _rot6d(i, node, xs[0], keep=residuals is not None)
        else:
            out, saved = _rigid_chain(i, node, xs[0], xs[1], keep=residuals is not None)
        if residuals is not None:
            residuals[i] = saved
        return out
    raise DiffcoreError(f"node {i}: unknown kind {kind!r}")


class Values(list):
    """Every node's value, indexed by node id, from one `evaluate` call.

    ``residuals`` maps each fused or layer-norm node's id to the
    intermediates its VJP reads. They live here, with the values of the
    call that made them, and not on the graph, which `grad_check` evaluates
    many times. `backward_from_values` consumes both: it leaves the list
    and ``residuals`` empty.
    """

    def __init__(self) -> None:
        super().__init__()
        self.residuals: dict = {}


def evaluate(graph: Graph, bindings: dict) -> Values:
    """Forward pass; returns the value of every node, indexed by node id,
    with the residuals the VJPs read, for one `backward_from_values` call."""
    values = Values()
    for i, node in enumerate(graph.nodes):
        xs = [values[j] for j in node.inputs]
        values.append(_forward(i, node, xs, bindings, values.residuals))
    return values


def forward(graph: Graph, bindings: dict, outputs) -> list:
    """Forward pass with no backward to follow: the values of ``outputs`` only.

    Computes the same values as ``evaluate``, but drops each other node's
    value after its last consumer, so peak memory follows the widest cut of
    the graph rather than its whole length.
    """
    outputs = list(outputs)
    for o in outputs:
        if not 0 <= o < len(graph.nodes):
            raise DiffcoreError(f"output node id {o} out of range for a graph of {len(graph.nodes)} nodes")
    # last[j]: the last node that reads node j's value, or j itself if none does
    last = list(range(len(graph.nodes)))
    for i, node in enumerate(graph.nodes):
        for j in node.inputs:
            last[j] = i
    kept = set(outputs)
    values: list = [None] * len(graph.nodes)
    for i, node in enumerate(graph.nodes):
        values[i] = _forward(i, node, [values[j] for j in node.inputs], bindings)
        for j in (*node.inputs, i):
            if last[j] == i and j not in kept:
                values[j] = None
    return [values[o] for o in outputs]


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to the given pre-broadcast shape."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(d for d, s in enumerate(shape) if s == 1 and g.shape[d] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _accum(grads: list, idx: int, contrib: np.ndarray, shared: bool = False) -> None:
    """Add a VJP term to node ``idx``'s gradient, in place after the first term.
    A first term is kept even when it is the consumer's ``g`` or a view of it (`add`,
    `sub`, `transpose`, `reshape`, `concat`): the backward pass drops the consumer's
    own reference once its VJP has run, and nothing reads ``g`` after that.
    Only a ``shared`` term, one another input already took (`add`'s second), is copied."""
    if grads[idx] is None:
        grads[idx] = np.array(contrib, dtype=np.float64) if shared else np.asarray(contrib, dtype=np.float64)
    else:
        grads[idx] += contrib


def _backward_plan(graph: Graph) -> tuple:
    """Per node: does a trainable leaf reach it (only those take gradients),
    and which values the backward pass drops once it has passed the node.

    A value is dropped after its lowest-numbered reader, the last one the
    reverse sweep visits; a value nothing reads, and a trainable leaf's
    (whose gradient falls back to zeros shaped like it), at the node itself.
    """
    need: list = []
    owner: list = []  # the node whose step drops each value
    drops: list = []
    for i, node in enumerate(graph.nodes):
        trainable = node.kind == "leaf" and node.attrs["trainable"]
        need.append(trainable or any(need[j] for j in node.inputs))
        owner.append(i if trainable else None)
        drops.append([])
        for j in node.inputs:
            if owner[j] is None:
                owner[j] = i
                drops[i].append(j)
    for j, o in enumerate(owner):
        if o is None or o == j:
            drops[j].append(j)
    return need, drops


def _vjp(i: int, node: Node, g: np.ndarray, xs: list, saved, grads: list, need: list) -> None:
    """Accumulate node ``i``'s VJP terms, from its gradient ``g``, its inputs'
    values ``xs`` and its residuals ``saved``, into ``grads``. Its temporaries
    die when it returns, before the next node's VJP runs."""
    kind = node.kind
    # a single-input node takes a gradient only if its input needs one
    a, b = node.inputs[0], node.inputs[1] if len(node.inputs) > 1 else None
    if kind == "add":
        if need[a]:
            _accum(grads, a, _unbroadcast(g, xs[0].shape))
        if need[b]:
            _accum(grads, b, _unbroadcast(g, xs[1].shape), shared=True)
    elif kind == "sub":
        if need[a]:
            _accum(grads, a, _unbroadcast(g, xs[0].shape))
        if need[b]:
            _accum(grads, b, _unbroadcast(-g, xs[1].shape))
    elif kind == "mul":
        if need[a]:
            _accum(grads, a, _unbroadcast(g * xs[1], xs[0].shape))
        if need[b]:
            _accum(grads, b, _unbroadcast(g * xs[0], xs[1].shape))
    elif kind == "scalar_mul":
        _accum(grads, a, node.attrs["c"] * g)
    elif kind == "matmul":
        if need[a]:
            _accum(grads, a, _unbroadcast(g @ np.swapaxes(xs[1], -1, -2), xs[0].shape))
        if need[b]:
            _accum(grads, b, _unbroadcast(np.swapaxes(xs[0], -1, -2) @ g, xs[1].shape))
    elif kind == "transpose":
        _accum(grads, a, np.swapaxes(g, -1, -2))
    elif kind == "reshape":
        _accum(grads, a, g.reshape(xs[0].shape))
    elif kind == "concat":
        axis = node.attrs["axis"]
        sizes = np.cumsum([x.shape[axis] for x in xs])[:-1]
        for inp, piece in zip(node.inputs, np.split(g, sizes, axis=axis)):
            if need[inp]:
                _accum(grads, inp, piece)
    elif kind == "relu":
        _accum(grads, a, g * (xs[0] > 0.0))
    elif kind == "layer_norm":
        gain = xs[1]
        xhat, inv = saved
        if need[a]:
            dxhat = g * gain
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
            )
            _accum(grads, a, dx)
        if need[b]:
            _accum(grads, b, _unbroadcast(g * xhat, gain.shape))
        if need[node.inputs[2]]:
            _accum(grads, node.inputs[2], _unbroadcast(g, gain.shape))
    elif kind == "mean_abs":
        x = xs[0]
        # L1 subgradient at 0 is taken as 0.
        _accum(grads, a, float(g) * np.sign(x) / x.size)
    elif kind == "take":
        full = np.zeros_like(xs[0])
        full[_take_key(i, node, full.shape)] = g
        _accum(grads, a, full)
    elif kind == "rot6d":
        _accum(grads, a, _rot6d_vjp(g, saved))
    elif kind == "rigid_chain":
        grad_rot, grad_shaped = _rigid_chain_vjp(node, g, xs[1], saved, need[a], need[b])
        if need[a]:
            _accum(grads, a, grad_rot)
        if need[b]:
            _accum(grads, b, grad_shaped)
    else:
        raise DiffcoreError(f"node {i}: unknown kind {kind!r}")


def backward_from_values(graph: Graph, values: Values, loss_node: int) -> GradientMap:
    """Reverse pass over the values of one `evaluate` call; see backward().

    VJP terms toward nodes that no trainable leaf reaches (constants, and
    whatever is computed from constants alone) are never formed.

    The pass consumes ``values``, so its peak holds no buffer past its last
    read: a node's gradient is dropped once its VJP has run (a trainable
    leaf's is returned), a value once its lowest-numbered reader's VJP has
    run, and a fused or layer-norm node's residuals after its own VJP. On return
    ``values`` and its ``residuals`` are empty, so a read after the pass
    raises; a caller that needs an output reads it before.
    """
    loss = values[loss_node]
    if loss.size != 1:
        raise NonScalarLossError(
            f"loss node {loss_node} has shape {loss.shape}; a scalar is required"
        )
    need, drops = _backward_plan(graph)
    grads: list = [None] * len(graph.nodes)
    if need[loss_node]:
        grads[loss_node] = np.ones_like(loss)
    del loss
    # nodes past the loss take no gradient; the sweep passes them only to drop their values
    for i in range(len(graph.nodes) - 1, -1, -1):
        node, g = graph.nodes[i], grads[i]
        saved = values.residuals.pop(i, None)
        if node.kind == "leaf":
            if need[i] and g is None:
                grads[i] = np.zeros_like(values[i])
        elif g is not None:
            _vjp(i, node, g, [values[j] for j in node.inputs], saved, grads, need)
            grads[i] = None
        for j in drops[i]:
            values[j] = None
    values.clear()
    return {name: grads[idx] for idx, name in graph.trainable_leaves()}


def backward(graph: Graph, bindings: dict, loss_node: int) -> GradientMap:
    """Gradient of the scalar loss node w.r.t. every trainable leaf.

    Leaves that do not influence the loss map to zero arrays.
    """
    return backward_from_values(graph, evaluate(graph, bindings), loss_node)


def _kink_signs(values: list, kink_ids: list) -> list:
    return [np.sign(values[k]) for k in kink_ids]


def grad_check(graph: Graph, bindings: dict, loss_node: int, step: float = 1e-6) -> float:
    """Max relative error between backward() and central differences.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8).  A
    parameter entry is skipped when its perturbation flips the sign of
    any relu / mean_abs input element (the finite difference straddles a
    kink there and is meaningless), or when the loss difference is below
    1e-9 of the loss magnitude (the central difference is then buried in
    float64 rounding and carries no signal).  Returns 0.0 when every
    entry was skipped.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    local = {k: np.array(v, dtype=np.float64) for k, v in bindings.items()}
    base = evaluate(graph, local)
    if base[loss_node].size != 1:
        raise NonScalarLossError("grad_check needs a scalar loss node")
    analytic = backward_from_values(graph, base, loss_node)
    kink_ids = graph.kink_input_ids()

    worst = 0.0
    for _idx, name in graph.trainable_leaves():
        arr = local[name]
        flat = arr.reshape(-1)
        ana_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            vp = evaluate(graph, local)
            flat[i] = orig - step
            vm = evaluate(graph, local)
            flat[i] = orig
            crossed = any(
                np.any(sp != sm)
                for sp, sm in zip(_kink_signs(vp, kink_ids), _kink_signs(vm, kink_ids))
            )
            if crossed:
                continue
            lp = vp[loss_node].item()
            lm = vm[loss_node].item()
            if abs(lp - lm) < 1e-9 * max(abs(lp), abs(lm)):
                continue
            fd = (lp - lm) / (2.0 * step)
            an = float(ana_flat[i])
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            if rel > worst:
                worst = rel
    return worst
