"""Simplified parametric 3D body.

Pose comes in as one continuous 6D rotation code per joint, shape as 10
linear blend-shape coefficients. Posing runs the classic pipeline: shape
the rest mesh, regress rest joints, compose rigid transforms down the
joint tree, skin the vertices by linear blending, then regress the posed
joints from the skinned mesh (so joints and mesh always share a frame).
The root translation is pinned to the origin; every downstream error
measure is root-aligned, which makes global translation unobservable.

All positions are meters. Posing is written once, as the graph builder
`body_graph`, which appends it to a `diffcore.Graph` so gradients can flow
to pose, shape, and anything upstream of them; `body_forward_batch` builds
that graph on constant inputs and runs it forward only, for data generation
and evaluation. The 6D decoder, shape blending, the posed-joint regression
and projection are single-op nodes; forward kinematics and skinning are one
`diffcore` ``rigid_chain`` node with a hand-written VJP. That op takes its
rotations contiguous, keeps its VJP's intermediates only when `evaluate`
runs it (never under `forward`), and sums in the order of the joint-by-joint
graph it replaced, so poses and gradients kept their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Graph, forward

IDENTITY_ROT6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

THETA_SIZE = 144
BETA_SIZE = 10

class DegenerateRotationError(ValueError):
    """6D code whose two columns are too short or too parallel to orthonormalize."""


def _frozen_array(value, shape, what: str) -> np.ndarray:
    out = np.array(value, dtype=np.float64)
    if out.shape != tuple(shape):
        raise ValueError(f"{what}: expected shape {tuple(shape)}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what}: entries must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SmplParams:
    """One body configuration: 144 pose reals (24 x 6D codes) and 10 shape reals."""

    theta: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _frozen_array(self.theta, (THETA_SIZE,), "theta"))
        object.__setattr__(self, "beta", _frozen_array(self.beta, (BETA_SIZE,), "beta"))


@dataclass(frozen=True)
class CameraParams:
    """Weak-perspective camera: scale plus normalized-image translation."""

    s: float
    tx: float
    ty: float

    def __post_init__(self) -> None:
        for name in ("s", "tx", "ty"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"CameraParams.{name} must be finite")


@dataclass(frozen=True)
class BodyModel:
    """Immutable template body.

    ``parents`` uses -1 for the root's missing parent and satisfies
    parents[j] < j, so the joints are already in topological order.
    """

    template_vertices: np.ndarray
    template_joints: np.ndarray
    parents: tuple
    skin_weights: np.ndarray
    shape_dirs: np.ndarray
    joint_regressor: np.ndarray

    def __post_init__(self) -> None:
        parents = tuple(int(p) for p in self.parents)
        joints = len(parents)
        if joints < 2:
            raise ValueError("BodyModel: need at least 2 joints")
        if parents[0] != -1:
            raise ValueError("BodyModel: parents[0] must be -1 (the root)")
        for j, p in enumerate(parents[1:], start=1):
            if not 0 <= p < j:
                raise ValueError(f"BodyModel: parents[{j}] = {p} must satisfy 0 <= parent < {j}")
        object.__setattr__(self, "parents", parents)
        verts = np.asarray(self.template_vertices)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"BodyModel: template_vertices must be (V, 3), got {verts.shape}")
        nverts = verts.shape[0]
        for name, shape in (
            ("template_vertices", (nverts, 3)),
            ("template_joints", (joints, 3)),
            ("skin_weights", (nverts, joints)),
            ("shape_dirs", (nverts, 3, BETA_SIZE)),
            ("joint_regressor", (joints, nverts)),
        ):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), shape, f"BodyModel.{name}"))
        for name in ("skin_weights", "joint_regressor"):
            mat = getattr(self, name)
            if np.any(mat < 0):
                raise ValueError(f"BodyModel.{name}: entries must be nonnegative")
            sums = mat.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-9:
                raise ValueError(f"BodyModel.{name}: rows must sum to 1 within 1e-9")

    @property
    def joint_count(self) -> int:
        return len(self.parents)

    @property
    def vertex_count(self) -> int:
        return self.template_vertices.shape[0]

def identity_pose(joints: int) -> np.ndarray:
    """Pose vector holding every joint at its rest rotation."""
    return np.tile(IDENTITY_ROT6D, joints)


def rot6d_batch(codes) -> np.ndarray:
    """Map (..., 6) continuous rotation codes to (..., 3, 3) rotation matrices.

    Column one is the normalized first triple, column two the Gram-Schmidt
    remainder of the second, column three their cross product, so the result
    is orthonormal with determinant +1 and invariant to rescaling the input.
    """
    c = np.asarray(codes, dtype=np.float64)
    if c.shape[-1] != 6:
        raise ValueError(f"rot6d: last axis must have size 6, got {c.shape}")
    a1 = c[..., :3]
    a2 = c[..., 3:]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    n2 = np.linalg.norm(a2, axis=-1, keepdims=True)
    if np.any(n1 <= 1e-8) or np.any(n2 <= 1e-8):
        raise DegenerateRotationError("rot6d: column norm at or below 1e-8")
    b1 = a1 / n1
    resid = a2 - (b1 * a2).sum(axis=-1, keepdims=True) * b1
    nr = np.linalg.norm(resid, axis=-1, keepdims=True)
    if np.any(nr <= 1e-8):
        raise DegenerateRotationError("rot6d: columns are nearly parallel")
    b2 = resid / nr
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def rotmat_to_rot6d(rots) -> np.ndarray:
    """Inverse embedding: keep the first two columns, flattened to (..., 6)."""
    r = np.asarray(rots, dtype=np.float64)
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"rotmat_to_rot6d: expected (..., 3, 3), got {r.shape}")
    return np.concatenate([r[..., :, 0], r[..., :, 1]], axis=-1)


def body_forward_batch(model: BodyModel, thetas, betas) -> tuple[np.ndarray, np.ndarray]:
    """Pose a batch: (B, 6J) pose codes and (B, 10) shapes to vertices and joints.

    Returns (vertices (B, V, 3), joints (B, J, 3)); joints are regressed from
    the skinned mesh, not taken from the kinematic transforms.
    """
    th = np.asarray(thetas, dtype=np.float64)
    be = np.asarray(betas, dtype=np.float64)
    joints = model.joint_count
    if th.ndim != 2 or th.shape[1] != 6 * joints:
        raise ValueError(f"body_forward_batch: pose must be (B, {6 * joints}), got {th.shape}")
    if be.shape != (th.shape[0], BETA_SIZE):
        raise ValueError(f"body_forward_batch: shape must be ({th.shape[0]}, {BETA_SIZE}), got {be.shape}")
    nb = th.shape[0]
    # the graph divides by the code norms unchecked; this raises on a degenerate code
    rot6d_batch(th.reshape(nb, joints, 6))
    g = Graph()
    return tuple(forward(g, {}, body_graph(g, model, g.const(th), g.const(be), nb)))


def project_weak_perspective(camera: CameraParams, points) -> np.ndarray:
    """(s*x + tx, s*y + ty) per point of a (..., 3) array; depth is discarded."""
    p = np.asarray(points, dtype=np.float64)
    if p.ndim < 1 or p.shape[-1] != 3:
        raise ValueError(f"project_weak_perspective: expected (..., 3), got {p.shape}")
    return camera.s * p[..., :2] + np.array([camera.tx, camera.ty])


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-12:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(points - (a + t[:, None] * ab), axis=1)


def _soft_rows(sq_dists: np.ndarray, sigma: float) -> np.ndarray:
    # subtract the row minimum before exponentiating so sharp sigmas
    # saturate to one-hot rows instead of underflowing to all zeros
    z = (sq_dists - sq_dists.min(axis=1, keepdims=True)) / (sigma * sigma)
    w = np.exp(-z)
    return w / w.sum(axis=1, keepdims=True)


def build_toy_body(seed: int, joints: int = 24, vertices: int = 120) -> BodyModel:
    """Deterministic stand-in body generated from a seed.

    The skeleton is a spine chain with limb chains hanging off it. The first
    ``joints`` vertices sit exactly on the joints; the rest scatter around
    the bones. Skin weights fall off with distance to each bone, and the
    joint regressor is a distance softmax over vertices, sharpened until it
    reproduces the skeleton to better than 5 cm (the on-joint vertices
    guarantee this converges). The stored template_joints are exactly
    joint_regressor @ template_vertices, so the identity pose round-trips.
    """
    if joints < 2:
        raise ValueError(f"build_toy_body: need at least 2 joints, got {joints}")
    if vertices < joints:
        raise ValueError(f"build_toy_body: need vertices >= joints, got {vertices} < {joints}")
    rng = np.random.default_rng(seed)

    spine = max(1, min(joints - 1, joints // 4))
    limbs = min(4, joints - 1 - spine)
    parents = [-1]
    for j in range(1, spine + 1):
        parents.append(j - 1)
    tips = [int(rng.integers(0, spine + 1)) for _ in range(max(limbs, 1))]
    for j in range(spine + 1, joints):
        limb = (j - spine - 1) % max(limbs, 1)
        parents.append(tips[limb])
        tips[limb] = j

    joint_pos = np.zeros((joints, 3))
    for j in range(1, joints):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        joint_pos[j] = joint_pos[parents[j]] + direction * rng.uniform(0.1, 0.35)

    verts = np.empty((vertices, 3))
    verts[:joints] = joint_pos
    for v in range(joints, vertices):
        j = 1 + (v - joints) % (joints - 1)
        u = rng.uniform(0.0, 1.0)
        base = (1.0 - u) * joint_pos[parents[j]] + u * joint_pos[j]
        verts[v] = base + rng.normal(scale=0.02, size=3)

    bone_d = np.empty((vertices, joints))
    bone_d[:, 0] = np.linalg.norm(verts - joint_pos[0], axis=1)
    for j in range(1, joints):
        bone_d[:, j] = _segment_distances(verts, joint_pos[parents[j]], joint_pos[j])
    skin_weights = _soft_rows(bone_d**2, 0.06)

    joint_d2 = ((verts[None, :, :] - joint_pos[:, None, :]) ** 2).sum(axis=2)
    sigma = 0.08
    for _ in range(40):
        regressor = _soft_rows(joint_d2, sigma)
        err = np.linalg.norm(regressor @ verts - joint_pos, axis=1).max()
        if err < 0.05:
            break
        sigma *= 0.5
    else:
        raise RuntimeError("build_toy_body: joint regressor failed to sharpen")

    return BodyModel(
        template_vertices=verts,
        template_joints=regressor @ verts,
        parents=tuple(parents),
        skin_weights=skin_weights,
        shape_dirs=np.clip(rng.normal(scale=0.01, size=(vertices, 3, BETA_SIZE)), -0.03, 0.03),
        joint_regressor=regressor,
    )


def scale_body(model: BodyModel, factor: float) -> BodyModel:
    """Uniformly resize a body; all posed geometry scales by exactly ``factor``.

    Skinning is linear in the rest geometry, so scaling template vertices,
    template joints, and shape displacements is equivalent to scaling every
    output; weights, parents, and the regressor are unchanged.
    """
    if factor <= 0.0:
        raise ValueError(f"scale_body: factor must be positive, got {factor}")
    return BodyModel(
        template_vertices=model.template_vertices * factor,
        template_joints=model.template_joints * factor,
        parents=model.parents,
        skin_weights=model.skin_weights,
        shape_dirs=model.shape_dirs * factor,
        joint_regressor=model.joint_regressor,
    )


def body_graph(g: Graph, model: BodyModel, theta_node: int, beta_node: int, batch: int) -> tuple[int, int]:
    """Append the posing pipeline to ``g``.

    ``theta_node`` must evaluate to (batch, 6J) and ``beta_node`` to
    (batch, 10). Returns node ids for the skinned vertices (batch, V, 3)
    and the regressed joints (batch, J, 3).
    """
    joints = model.joint_count
    nverts = model.vertex_count
    theta3 = g.reshape(theta_node, (batch, joints, 6))
    rot = _rot6d_graph(g, theta3, batch, joints)

    sd = g.const(model.shape_dirs.reshape(nverts * 3, BETA_SIZE).T)
    shaped = g.add(
        g.const(model.template_vertices),
        g.reshape(g.matmul(beta_node, sd), (batch, nverts, 3)),
    )
    verts = g.rigid_chain(rot, shaped, model.parents, model.skin_weights, model.joint_regressor)
    out_joints = g.matmul(g.const(model.joint_regressor), verts)
    return verts, out_joints


def _rot6d_graph(g: Graph, theta3: int, batch: int, joints: int) -> int:
    """(batch, J, 6) codes to (batch, J, 3, 3) rotations, same math as rot6d_batch."""
    a1 = g.take(theta3, slice(0, 3), -1)
    a2 = g.take(theta3, slice(3, 6), -1)

    def normalize(v: int) -> int:
        return g.div(v, g.sqrt(g.sum(g.mul(v, v), axis=-1, keepdims=True)))

    b1 = normalize(a1)
    along = g.sum(g.mul(b1, a2), axis=-1, keepdims=True)
    b2 = normalize(g.sub(a2, g.mul(along, b1)))
    # cross product from the two cyclic rolls of the last axis
    roll1, roll2 = [1, 2, 0], [2, 0, 1]
    b3 = g.sub(
        g.mul(g.take(b1, roll1, -1), g.take(b2, roll2, -1)),
        g.mul(g.take(b1, roll2, -1), g.take(b2, roll1, -1)),
    )
    stacked = g.concat([b1, b2, b3], axis=-1)
    return g.transpose(g.reshape(stacked, (batch, joints, 3, 3)))


def project_graph(g: Graph, camera_node: int, points_node: int, batch: int) -> int:
    """Weak-perspective projection in graph form.

    ``camera_node`` is (batch, 3) as (s, tx, ty); ``points_node`` is
    (batch, N, 3). Returns (batch, N, 2).
    """
    xy = g.take(points_node, slice(0, 2), -1)
    s = g.reshape(g.take(camera_node, slice(0, 1), -1), (batch, 1, 1))
    t = g.reshape(g.take(camera_node, slice(1, 3), -1), (batch, 1, 2))
    return g.add(g.mul(xy, s), t)
