"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Graph`` is a flat, topologically ordered list of nodes built through
its builder methods; node ids are plain list indices.  ``evaluate`` runs
the forward pass for a set of leaf bindings and keeps every value for a
backward pass; ``forward`` returns only the requested nodes' values and
frees each other value after its last use.  ``backward`` accumulates the
gradient of a scalar node into every trainable leaf, and ``grad_check``
compares those gradients against central finite differences, skipping
parameters whose perturbation crosses an L1 or relu kink.

The tape is rebuilt per training step; nothing here caches graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Node",
    "Graph",
    "GradientMap",
    "evaluate",
    "forward",
    "backward",
    "backward_from_values",
    "grad_check",
    "DiffcoreError",
    "ShapeMismatchError",
    "UnboundLeafError",
    "NonScalarLossError",
]

# Dense float64 row-major arrays are the only value type.
Tensor = np.ndarray

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

    def div(self, a: int, b: int) -> int:
        return self._add("div", (a, b))

    def scalar_mul(self, a: int, c: float) -> int:
        return self._add("scalar_mul", (a,), c=float(c))

    def matmul(self, a: int, b: int) -> int:
        """Matrix product on the last two axes; leading axes broadcast."""
        return self._add("matmul", (a, b))

    def transpose(self, a: int, axes=None) -> int:
        """Swap the last two axes, or permute by an explicit axes tuple."""
        return self._add("transpose", (a,), axes=None if axes is None else tuple(axes))

    def reshape(self, a: int, shape) -> int:
        return self._add("reshape", (a,), shape=tuple(int(s) for s in shape))

    def concat(self, ids, axis: int) -> int:
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

    def sum(self, a: int, axis=None, keepdims: bool = False) -> int:
        return self._add(
            "sum",
            (a,),
            axis=None if axis is None else axis,
            keepdims=bool(keepdims),
        )

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

    def sqrt(self, a: int) -> int:
        return self._add("sqrt", (a,))

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


def _forward(i: int, node: Node, xs: list, bindings: dict) -> np.ndarray:
    kind = node.kind
    if kind == "leaf":
        name = node.attrs["name"]
        if name not in bindings:
            raise UnboundLeafError(f"node {i} (leaf): no binding for {name!r}")
        return np.asarray(bindings[name], dtype=np.float64)
    if kind == "const":
        return node.attrs["value"]
    if kind in ("add", "sub", "mul", "div"):
        a, b = xs
        _check_broadcast(i, node, a.shape, b.shape)
        if kind == "add":
            return a + b
        if kind == "sub":
            return a - b
        if kind == "mul":
            return a * b
        return a / b
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
        axes = node.attrs["axes"]
        x = xs[0]
        if axes is None:
            if x.ndim < 2:
                raise _err(i, node, "default transpose needs at least 2 axes")
            return np.swapaxes(x, -1, -2)
        if sorted(axes) != list(range(x.ndim)):
            raise _err(i, node, f"axes {axes} is not a permutation of {x.ndim} dims")
        return np.transpose(x, axes)
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
        return (x - mu) * inv * gain + bias
    if kind == "mean_abs":
        return np.asarray(np.mean(np.abs(xs[0])))
    if kind == "sum":
        return np.asarray(np.sum(xs[0], axis=node.attrs["axis"], keepdims=node.attrs["keepdims"]))
    if kind == "take":
        return xs[0][_take_key(i, node, xs[0].shape)]
    if kind == "sqrt":
        return np.sqrt(xs[0])
    raise DiffcoreError(f"node {i}: unknown kind {kind!r}")


def evaluate(graph: Graph, bindings: dict) -> list:
    """Forward pass; returns the value of every node, indexed by node id."""
    values: list = []
    for i, node in enumerate(graph.nodes):
        xs = [values[j] for j in node.inputs]
        values.append(_forward(i, node, xs, bindings))
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


def _accum(grads: list, idx: int, contrib: np.ndarray) -> None:
    if grads[idx] is None:
        grads[idx] = np.array(contrib, dtype=np.float64)
    else:
        grads[idx] = grads[idx] + contrib


def backward_from_values(graph: Graph, values: list, loss_node: int) -> GradientMap:
    """Reverse pass over already-evaluated values; see backward()."""
    loss = values[loss_node]
    if loss.size != 1:
        raise NonScalarLossError(
            f"loss node {loss_node} has shape {loss.shape}; a scalar is required"
        )
    grads: list = [None] * len(graph.nodes)
    grads[loss_node] = np.ones_like(loss)
    for i in range(loss_node, -1, -1):
        g = grads[i]
        if g is None:
            continue
        node = graph.nodes[i]
        kind = node.kind
        if kind in ("leaf", "const"):
            continue
        xs = [values[j] for j in node.inputs]
        if kind == "add":
            _accum(grads, node.inputs[0], _unbroadcast(g, xs[0].shape))
            _accum(grads, node.inputs[1], _unbroadcast(g, xs[1].shape))
        elif kind == "sub":
            _accum(grads, node.inputs[0], _unbroadcast(g, xs[0].shape))
            _accum(grads, node.inputs[1], _unbroadcast(-g, xs[1].shape))
        elif kind == "mul":
            _accum(grads, node.inputs[0], _unbroadcast(g * xs[1], xs[0].shape))
            _accum(grads, node.inputs[1], _unbroadcast(g * xs[0], xs[1].shape))
        elif kind == "div":
            a, b = xs
            _accum(grads, node.inputs[0], _unbroadcast(g / b, a.shape))
            _accum(grads, node.inputs[1], _unbroadcast(-g * a / (b * b), b.shape))
        elif kind == "scalar_mul":
            _accum(grads, node.inputs[0], node.attrs["c"] * g)
        elif kind == "matmul":
            a, b = xs
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            _accum(grads, node.inputs[0], _unbroadcast(ga, a.shape))
            _accum(grads, node.inputs[1], _unbroadcast(gb, b.shape))
        elif kind == "transpose":
            axes = node.attrs["axes"]
            if axes is None:
                _accum(grads, node.inputs[0], np.swapaxes(g, -1, -2))
            else:
                _accum(grads, node.inputs[0], np.transpose(g, np.argsort(axes)))
        elif kind == "reshape":
            _accum(grads, node.inputs[0], g.reshape(xs[0].shape))
        elif kind == "concat":
            axis = node.attrs["axis"]
            sizes = np.cumsum([x.shape[axis] for x in xs])[:-1]
            for inp, piece in zip(node.inputs, np.split(g, sizes, axis=axis)):
                _accum(grads, inp, piece)
        elif kind == "relu":
            _accum(grads, node.inputs[0], g * (xs[0] > 0.0))
        elif kind == "layer_norm":
            x, gain, _bias = xs
            eps = node.attrs["eps"]
            mu = x.mean(axis=-1, keepdims=True)
            var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + eps)
            xhat = (x - mu) * inv
            dgain = _unbroadcast(g * xhat, gain.shape)
            dbias = _unbroadcast(g, gain.shape)
            dxhat = g * gain
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
            )
            _accum(grads, node.inputs[0], dx)
            _accum(grads, node.inputs[1], dgain)
            _accum(grads, node.inputs[2], dbias)
        elif kind == "mean_abs":
            x = xs[0]
            # L1 subgradient at 0 is taken as 0.
            _accum(grads, node.inputs[0], float(g) * np.sign(x) / x.size)
        elif kind == "sum":
            x = xs[0]
            axis = node.attrs["axis"]
            if axis is None:
                _accum(grads, node.inputs[0], np.broadcast_to(g, x.shape).copy())
            else:
                gg = g if node.attrs["keepdims"] else np.expand_dims(g, axis)
                _accum(grads, node.inputs[0], np.broadcast_to(gg, x.shape).copy())
        elif kind == "take":
            full = np.zeros_like(xs[0])
            full[_take_key(i, node, full.shape)] = g
            _accum(grads, node.inputs[0], full)
        elif kind == "sqrt":
            _accum(grads, node.inputs[0], g / (2.0 * values[i]))
        else:
            raise DiffcoreError(f"node {i}: unknown kind {kind!r}")

    out: GradientMap = {}
    for idx, name in graph.trainable_leaves():
        if grads[idx] is None:
            out[name] = np.zeros_like(values[idx])
        else:
            out[name] = grads[idx]
    return out


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
            lp = float(vp[loss_node])
            lm = float(vm[loss_node])
            if abs(lp - lm) < 1e-9 * max(abs(lp), abs(lm)):
                continue
            fd = (lp - lm) / (2.0 * step)
            an = float(ana_flat[i])
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            if rel > worst:
                worst = rel
    return worst
