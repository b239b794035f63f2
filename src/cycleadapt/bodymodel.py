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
and evaluation. The 6D decoder is one `diffcore` ``rot6d`` node, and forward
kinematics and skinning are one ``rigid_chain`` node, each with a
hand-written VJP; shape blending, the posed-joint regression and projection
are single-op nodes. The two fused ops keep their VJP's intermediates only
when `evaluate` runs them (never under `forward`), and compute in the order
of the single-op graphs they replaced, so poses and gradients kept their
bits. A degenerate pose code is refused by the ``rot6d`` node itself
(`diffcore.DegenerateRotationError`), in posing and in training alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Graph, forward

IDENTITY_ROT6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

THETA_SIZE = 144
BETA_SIZE = 10


def _frozen_array(value, shape, what: str) -> np.ndarray:
    out = np.array(value, dtype=np.float64)
    if out.shape != tuple(shape):
        raise ValueError(f"{what}: expected shape {tuple(shape)}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what}: entries must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BodyModel:
    """Immutable template body.

    ``parents`` uses -1 for the root's missing parent and satisfies
    parents[j] < j, so the joints are already in topological order.
    """

    template_vertices: np.ndarray
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


def rotmat_to_rot6d(rots) -> np.ndarray:
    """Inverse embedding: keep the first two columns, flattened to (..., 6)."""
    r = np.asarray(rots, dtype=np.float64)
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"rotmat_to_rot6d: expected (..., 3, 3), got {r.shape}")
    return np.concatenate([r[..., :, 0], r[..., :, 1]], axis=-1)


def body_forward_batch(model: BodyModel, thetas, betas) -> tuple[np.ndarray, np.ndarray]:
    """Pose a batch: (B, 6J) pose codes and (B, 10) shapes to vertices and joints.

    Returns (vertices (B, V, 3), joints (B, J, 3)); joints are regressed from
    the skinned mesh, not taken from the kinematic transforms. A degenerate
    pose code raises `DegenerateRotationError` from the graph's rot6d node.

    A frame's bits do not depend on the batch it is posed in, except in a
    one-row batch: its 2-D products go through BLAS's gemv, which rounds
    differently from gemm. So `benchmark.pose_blocks` never poses a
    one-frame block of a longer video.
    """
    th = np.asarray(thetas, dtype=np.float64)
    be = np.asarray(betas, dtype=np.float64)
    joints = model.joint_count
    if th.ndim != 2 or th.shape[1] != 6 * joints:
        raise ValueError(f"body_forward_batch: pose must be (B, {6 * joints}), got {th.shape}")
    if be.shape != (th.shape[0], BETA_SIZE):
        raise ValueError(f"body_forward_batch: shape must be ({th.shape[0]}, {BETA_SIZE}), got {be.shape}")
    g = Graph()
    return tuple(forward(g, {}, body_graph(g, model, g.const(th), g.const(be), th.shape[0])))


def project_weak_perspective(camera, points) -> np.ndarray:
    """(s*x + tx, s*y + ty) per point of a (..., 3) array for the camera
    (s, tx, ty); depth is discarded."""
    cam = np.asarray(camera, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if cam.shape != (3,) or p.ndim < 1 or p.shape[-1] != 3:
        raise ValueError(f"project_weak_perspective: needs a (3,) camera, (..., 3) points, got {cam.shape}, {p.shape}")
    return cam[0] * p[..., :2] + cam[1:]


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
    guarantee this converges). The identity pose with zero shape puts the
    joints at joint_regressor @ template_vertices.
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
        parents=tuple(parents),
        skin_weights=skin_weights,
        shape_dirs=np.clip(rng.normal(scale=0.01, size=(vertices, 3, BETA_SIZE)), -0.03, 0.03),
        joint_regressor=regressor,
    )


def scale_body(model: BodyModel, factor: float) -> BodyModel:
    """Uniformly resize a body; all posed geometry scales by exactly ``factor``.

    Skinning is linear in the rest geometry, so scaling template vertices
    and shape displacements is equivalent to scaling every output; weights,
    parents, and the regressor are unchanged.
    """
    if factor <= 0.0:
        raise ValueError(f"scale_body: factor must be positive, got {factor}")
    return BodyModel(
        template_vertices=model.template_vertices * factor,
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
    rot = g.rot6d(g.reshape(theta_node, (batch, joints, 6)))

    sd = g.const(model.shape_dirs.reshape(nverts * 3, BETA_SIZE).T)
    shaped = g.add(
        g.const(model.template_vertices),
        g.reshape(g.matmul(beta_node, sd), (batch, nverts, 3)),
    )
    verts = g.rigid_chain(rot, shaped, model.parents, model.skin_weights, model.joint_regressor)
    out_joints = g.matmul(g.const(model.joint_regressor), verts)
    return verts, out_joints


def project_graph(g: Graph, camera_node: int, points_node: int, batch: int) -> int:
    """Weak-perspective projection in graph form.

    ``camera_node`` is (batch, 3) as (s, tx, ty); ``points_node`` is
    (batch, N, 3). Returns (batch, N, 2).
    """
    xy = g.take(points_node, slice(0, 2), -1)
    s = g.reshape(g.take(camera_node, slice(0, 1), -1), (batch, 1, 1))
    t = g.reshape(g.take(camera_node, slice(1, 3), -1), (batch, 1, 2))
    return g.add(g.mul(xy, s), t)
