"""Pose and mesh error metrics for sequences of 3D bodies.

All positions come in as meters; every metric reports millimeters.
Joint arrays are (frames, joints, 3), with joint 0 the root that MPJPE and
MPVPE align at, and vertex arrays (frames, vertices, 3).
Everything here is a pure function, safe to call from any thread: no
metric writes to its inputs.  Each squares and sums its differences in a
temporary it owns, the same ufuncs in the same order as
``np.linalg.norm(p - g, axis=-1)`` on fresh arrays, so the bits are those of
that form, at two (frames, points, 3) temporaries instead of four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MM_PER_M = 1000.0
ACCEL_MIN_FRAMES = 3  # one second finite difference


class DegenerateGeometryError(ValueError):
    """Raised when a point cloud has no spatial extent to align against."""


@dataclass(frozen=True)
class MetricReport:
    """Summary errors for one predicted sequence, all in millimeters.

    ``accel`` is mm per frame squared.  Each value must be >= 0.  No order
    between ``pa_mpjpe`` and ``mpjpe`` is enforced: the similarity fit
    minimizes the summed squared joint error, which root alignment bounds,
    but not the mean distance, so one badly placed joint can leave
    ``pa_mpjpe`` above ``mpjpe``.
    """

    mpjpe: float
    pa_mpjpe: float
    mpvpe: float
    accel: float

    def __post_init__(self) -> None:
        for name in ("mpjpe", "pa_mpjpe", "mpvpe", "accel"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"MetricReport.{name} must be >= 0")


def _as_pair(pred, gt, what: str) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"{what}: prediction shape {p.shape} != ground truth shape {g.shape}")
    if p.ndim != 3 or p.shape[-1] != 3:
        raise ValueError(f"{what}: expected (frames, points, 3) arrays, got {p.shape}")
    return p, g


def _norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of ``d``, a temporary this squares in place.

    The same sum of squares and square root as ``np.linalg.norm(d, axis=-1)``,
    so the same bits, without its (frames, points, 3) square.
    """
    d *= d
    return np.sqrt(np.add.reduce(d, axis=-1))


def mpjpe(pred_joints, gt_joints) -> float:
    """Mean per joint position error in mm after per-frame alignment at joint 0, the root."""
    p, g = _as_pair(pred_joints, gt_joints, "mpjpe")
    d = p - p[:, :1]
    d -= g - g[:, :1]
    return float(_norms(d).mean() * MM_PER_M)


def procrustes_align(pred, gt) -> tuple:
    """Best similarity transform taking ``pred`` onto ``gt``, per frame.

    Takes two (F, J, 3) stacks. Returns (scale, rotation, translation) as
    (F,), (F, 3, 3) and (F, 3) arrays minimizing
    ``sum_j ||s R p_j + t - g_j||^2`` in closed form, all frames solved by
    one batched SVD of the cross covariance, with the weakest direction
    flipped when needed so that det(rotation) = +1 (a proper rotation, never
    a reflection).
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape or p.ndim != 3 or p.shape[-1] != 3 or p.shape[-2] < 3:
        raise ValueError(f"procrustes_align: need two matching (F, J >= 3, 3) arrays, got {p.shape} and {g.shape}")
    n = p.shape[1]
    mu_p = p.mean(axis=1)
    mu_g = g.mean(axis=1)
    pc = p - mu_p[:, None]
    gc = g - mu_g[:, None]
    var_p = (pc**2).reshape(p.shape[0], -1).sum(axis=1) / n
    coincident = np.flatnonzero(var_p < 1e-18)
    if coincident.size:
        raise DegenerateGeometryError(
            f"procrustes_align: prediction points are coincident in frame {coincident[0]}"
        )
    cov = np.swapaxes(gc, 1, 2) @ pc / n
    u, d, vt = np.linalg.svd(cov)
    flip = np.ones_like(d)
    flip[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
    rot = (u * flip[:, None, :]) @ vt
    scale = (d * flip).sum(axis=1) / var_p
    trans = mu_g - ((scale[:, None, None] * rot) @ mu_p[:, :, None])[:, :, 0]
    return scale, rot, trans


def pa_mpjpe(pred_joints, gt_joints) -> float:
    """Mean joint error in mm after an optimal per-frame similarity fit."""
    p, g = _as_pair(pred_joints, gt_joints, "pa_mpjpe")
    scale, rot, trans = procrustes_align(p, g)
    d = scale[:, None, None] * p @ np.swapaxes(rot, 1, 2)
    d += trans[:, None, :]
    d -= g
    return float(_norms(d).mean(axis=1).mean() * MM_PER_M)


def vertex_errors(pred_mesh, gt_mesh, pred_root, gt_root) -> np.ndarray:
    """Distance of each vertex from its ground truth in meters, root-aligned
    like mpjpe: a (frames, vertices) array.

    Meshes carry no root vertex, so the per-frame root positions are taken
    from the joint sets and passed in as (frames, 3) arrays. Each frame's
    row depends on that frame alone, so a caller may fill one array block
    of frames by block.
    """
    p, g = _as_pair(pred_mesh, gt_mesh, "vertex_errors")
    pr = np.asarray(pred_root, dtype=np.float64)
    gr = np.asarray(gt_root, dtype=np.float64)
    if pr.shape != (p.shape[0], 3) or gr.shape != (g.shape[0], 3):
        raise ValueError(f"vertex_errors: roots must be (frames, 3), got {pr.shape} and {gr.shape}")
    d = p - pr[:, None, :]
    d -= g - gr[:, None, :]
    return _norms(d)


def mpvpe(errors) -> float:
    """Mean per vertex position error in mm: the mean of a sequence's
    (frames, vertices) `vertex_errors`."""
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError(f"mpvpe: expected (frames, vertices) errors, got {e.shape}")
    return float(e.mean() * MM_PER_M)


def _second_difference(x: np.ndarray) -> np.ndarray:
    """``(x[2:] - 2.0 * x[1:-1]) + x[:-2]`` in one new array."""
    d = 2.0 * x[1:-1]
    np.subtract(x[2:], d, out=d)
    d += x[:-2]
    return d


def accel_error(pred_joints, gt_joints) -> float:
    """Mean difference of second finite differences, in mm per frame squared.

    Acceleration at frame t is x[t+1] - 2 x[t] + x[t-1], so any trajectory
    component affine in t drops out.
    """
    p, g = _as_pair(pred_joints, gt_joints, "accel_error")
    if p.shape[0] < ACCEL_MIN_FRAMES:
        raise ValueError(f"accel_error: need at least {ACCEL_MIN_FRAMES} frames, got {p.shape[0]}")
    d = _second_difference(p)
    d -= _second_difference(g)
    return float(_norms(d).mean() * MM_PER_M)


def evaluate_sequence(pred_joints, gt_joints, errors) -> MetricReport:
    """All four metrics for one sequence, packed into a MetricReport.

    ``errors`` are the sequence's (frames, vertices) `vertex_errors`, whose
    mean is the MPVPE; the joint metrics take the joints whole. A
    prediction whose joints or vertex errors are not finite raises
    DegenerateGeometryError naming the first such frame.
    """
    pj = np.asarray(pred_joints, dtype=np.float64)
    gj = np.asarray(gt_joints, dtype=np.float64)
    ve = np.asarray(errors, dtype=np.float64)
    if ve.ndim != 2 or ve.shape[0] != pj.shape[0]:
        raise ValueError(f"evaluate_sequence: {pj.shape} joints but {ve.shape} vertex errors")
    bad = ~np.isfinite(pj).all(axis=tuple(range(1, pj.ndim))) | ~np.isfinite(ve).all(axis=1)
    if bad.any():
        raise DegenerateGeometryError(
            f"evaluate_sequence: predicted joints or vertices are not finite in frame {np.argmax(bad)}"
        )
    return MetricReport(
        mpjpe=mpjpe(pj, gj),
        pa_mpjpe=pa_mpjpe(pj, gj),
        mpvpe=mpvpe(ve),
        accel=accel_error(pj, gj),
    )
