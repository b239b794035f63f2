import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rot6d_batch

from cycleadapt.metrics import (
    DegenerateGeometryError,
    MetricReport,
    accel_error,
    evaluate_sequence,
    mpjpe,
    mpvpe,
    pa_mpjpe,
    procrustes_align,
    vertex_errors,
)


def _quat_to_rot(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _random_rotation(rng):
    return _quat_to_rot(rng.normal(size=4))


def _horn_similarity(pred, gt):
    """Independent similarity solver: Horn's quaternion eigendecomposition.

    Maximizes the correlation trace over unit quaternions (so only proper
    rotations are reachable), then solves scale and translation in closed
    form for that rotation.  Shares no code path with the SVD solver.
    """
    mu_p = pred.mean(axis=0)
    mu_g = gt.mean(axis=0)
    pc = pred - mu_p
    gc = gt - mu_g
    s = pc.T @ gc
    sxx, sxy, sxz = s[0]
    syx, syy, syz = s[1]
    szx, szy, szz = s[2]
    n_mat = np.array(
        [
            [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
            [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
            [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
            [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
        ]
    )
    _, vecs = np.linalg.eigh(n_mat)
    rot = _quat_to_rot(vecs[:, -1])
    scale = float((gc * (pc @ rot.T)).sum() / (pc**2).sum())
    trans = mu_g - scale * rot @ mu_p
    return scale, rot, trans


def _similarity_sse(scale, rot, trans, pred, gt):
    return float(((scale * pred @ rot.T + trans - gt) ** 2).sum())


def test_mpjpe_identical_is_zero():
    rng = np.random.default_rng(0)
    joints = rng.normal(size=(5, 24, 3))
    assert mpjpe(joints, joints) == 0.0


def test_mpjpe_ignores_global_translation():
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(4, 24, 3))
    pred = gt + np.array([10.0, 0.0, 0.0])
    assert mpjpe(pred, gt) < 1e-9


def test_mpjpe_hand_case():
    # root matches exactly; the two other joints are off by 3 mm and 4 mm
    gt = np.zeros((1, 3, 3))
    gt[0, 1] = [0.5, 0.0, 0.0]
    gt[0, 2] = [0.0, 0.5, 0.0]
    pred = gt.copy()
    pred[0, 1] += [0.003, 0.0, 0.0]
    pred[0, 2] += [0.0, 0.004, 0.0]
    assert abs(mpjpe(pred, gt) - 7.0 / 3.0) < 1e-9


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        mpjpe(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)))
    with pytest.raises(ValueError, match="procrustes_align"):
        procrustes_align(np.eye(3), np.eye(3))  # one frame, not a stack


def test_procrustes_identity():
    rng = np.random.default_rng(2)
    cloud = rng.normal(size=(10, 3))
    (s,), (rot,), (t,) = procrustes_align(cloud[None], cloud[None])
    assert abs(s - 1.0) < 1e-9
    assert np.abs(rot - np.eye(3)).max() < 1e-9
    assert np.abs(t).max() < 1e-9


def test_procrustes_recovers_known_similarity():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(8, 3))
    rot0 = _random_rotation(rng)
    t0 = np.array([0.3, -1.2, 0.7])
    gt = 2.0 * pred @ rot0.T + t0
    (s,), (rot,), (t,) = procrustes_align(pred[None], gt[None])
    assert abs(s - 2.0) < 1e-9
    assert np.abs(rot - rot0).max() < 1e-9
    assert np.abs(t - t0).max() < 1e-9


def test_procrustes_rejects_coincident_points():
    pred = np.ones((5, 3))
    gt = np.arange(15, dtype=float).reshape(5, 3)
    with pytest.raises(DegenerateGeometryError):
        procrustes_align(pred[None], gt[None])


@pytest.mark.parametrize("seed", [0, 1])
def test_procrustes_beats_random_search(seed):
    # optimality oracle: no randomly sampled similarity transform may beat
    # the closed form on its own objective
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(4, 3))
    gt = rng.normal(size=(4, 3))
    (s,), (rot,), (t,) = procrustes_align(pred[None], gt[None])
    closed = _similarity_sse(s, rot, t, pred, gt)
    best = np.inf
    for _ in range(10):
        q = rng.normal(size=(100_000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q.T
        rots = np.empty((100_000, 3, 3))
        rots[:, 0, 0] = 1 - 2 * (y * y + z * z)
        rots[:, 0, 1] = 2 * (x * y - w * z)
        rots[:, 0, 2] = 2 * (x * z + w * y)
        rots[:, 1, 0] = 2 * (x * y + w * z)
        rots[:, 1, 1] = 1 - 2 * (x * x + z * z)
        rots[:, 1, 2] = 2 * (y * z - w * x)
        rots[:, 2, 0] = 2 * (x * z - w * y)
        rots[:, 2, 1] = 2 * (y * z + w * x)
        rots[:, 2, 2] = 1 - 2 * (x * x + y * y)
        scales = np.exp(rng.uniform(-1.5, 1.5, size=100_000))
        trans = rng.normal(size=(100_000, 3))
        aligned = scales[:, None, None] * (pred @ np.swapaxes(rots, 1, 2))
        aligned += trans[:, None, :]
        sse = ((aligned - gt) ** 2).sum(axis=(1, 2))
        best = min(best, float(sse.min()))
    assert closed <= best + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_procrustes_matches_quaternion_solver(seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(8, 3))
    gt = rng.normal(size=(8, 3))
    (s_a,), (rot_a,), (t_a,) = procrustes_align(pred[None], gt[None])
    s_b, rot_b, t_b = _horn_similarity(pred, gt)
    assert abs(s_a - s_b) < 1e-9
    assert np.abs(rot_a - rot_b).max() < 1e-9
    assert np.abs(t_a - t_b).max() < 1e-9


def test_pa_mpjpe_zero_for_similarity_transformed_copy():
    rng = np.random.default_rng(4)
    gt = rng.normal(size=(3, 12, 3))
    rot0 = _random_rotation(rng)
    pred = 0.5 * gt @ rot0.T + np.array([1.0, 2.0, 3.0])
    assert pa_mpjpe(pred, gt) < 1e-9


def test_pa_mpjpe_invariant_to_prediction_similarity():
    rng = np.random.default_rng(5)
    gt = rng.normal(size=(3, 12, 3))
    pred = gt + rng.normal(scale=0.05, size=gt.shape)
    rot0 = _random_rotation(rng)
    warped = 1.7 * pred @ rot0.T + np.array([-2.0, 0.4, 9.0])
    assert abs(pa_mpjpe(warped, gt) - pa_mpjpe(pred, gt)) < 1e-9


SPREAD_POINTS = st.integers(3, 12).flatmap(
    lambda joints: st.lists(st.floats(-1, 1), min_size=3 * joints, max_size=3 * joints)
).map(lambda xs: np.reshape(xs, (-1, 3))).filter(
    lambda p: np.linalg.svd(p - p.mean(axis=0), compute_uv=False)[1] > 0.05  # not on one line
)
SHIFTS = st.lists(st.floats(-5, 5), min_size=3, max_size=3).map(np.array)
CODES = st.lists(st.floats(-1, 1), min_size=6, max_size=6).map(np.array).filter(
    lambda c: np.linalg.norm(np.cross(c[:3], c[3:])) > 0.1
)


@settings(max_examples=200, deadline=None)
@given(points=SPREAD_POINTS, code=CODES, scale=st.floats(0.1, 10), shift=SHIFTS)
def test_a_similarity_transformed_copy_aligns_to_zero_pa_mpjpe(points, code, scale, shift):
    moved = scale * points @ rot6d_batch(code).T + shift
    assert pa_mpjpe(points[None], moved[None]) < 1e-6
    assert pa_mpjpe(moved[None], points[None]) < 1e-6


@settings(max_examples=200, deadline=None)
@given(pred=SPREAD_POINTS, data=st.data(), pred_shift=SHIFTS, gt_shift=SHIFTS)
def test_a_rigid_shift_of_either_input_leaves_pa_mpjpe_unchanged(pred, data, pred_shift, gt_shift):
    gt = np.reshape(data.draw(st.lists(st.floats(-1, 1), min_size=pred.size, max_size=pred.size)), pred.shape)
    base = pa_mpjpe(pred[None], gt[None])
    for moved_pred, moved_gt in ((pred + pred_shift, gt), (pred, gt + gt_shift), (pred + pred_shift, gt + gt_shift)):
        assert abs(pa_mpjpe(moved_pred[None], moved_gt[None]) - base) < 1e-9



@pytest.mark.parametrize("seed", range(10))
def test_pa_mpjpe_never_exceeds_mpjpe(seed):
    rng = np.random.default_rng(seed)
    gt = rng.normal(size=(4, 24, 3))
    pred = gt + rng.normal(scale=0.1, size=gt.shape)
    assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9


def test_procrustes_stack_matches_per_frame_solves():
    rng = np.random.default_rng(6)
    gt = rng.normal(size=(9, 24, 3))
    pred = gt + rng.normal(scale=0.1, size=gt.shape)
    pred[4] = -pred[4]  # a reflected frame needs the determinant flip
    scales, rots, trans = procrustes_align(pred, gt)
    assert scales.shape == (9,) and rots.shape == (9, 3, 3) and trans.shape == (9, 3)
    errors = []
    for i in range(9):
        (s,), (rot,), (t,) = procrustes_align(pred[i : i + 1], gt[i : i + 1])
        assert s == scales[i] and np.array_equal(rot, rots[i]) and np.array_equal(t, trans[i])
        assert np.linalg.det(rot) > 0
        s_ref, rot_ref, t_ref = _horn_similarity(pred[i], gt[i])
        errors.append(np.linalg.norm(s_ref * pred[i] @ rot_ref.T + t_ref - gt[i], axis=-1).mean())
    assert abs(pa_mpjpe(pred, gt) - 1000.0 * np.mean(errors)) < 1e-9


def test_procrustes_stack_names_the_coincident_frame():
    rng = np.random.default_rng(7)
    gt = rng.normal(size=(5, 6, 3))
    pred = gt.copy()
    pred[3] = 1.0
    with pytest.raises(DegenerateGeometryError, match="frame 3"):
        procrustes_align(pred, gt)


def test_mpvpe_identical_is_zero():
    rng = np.random.default_rng(7)
    mesh = rng.normal(size=(3, 120, 3))
    roots = rng.normal(size=(3, 3))
    assert mpvpe(vertex_errors(mesh, mesh, roots, roots)) == 0.0


def test_mpvpe_offset_matching_root_cancels():
    rng = np.random.default_rng(8)
    gt = rng.normal(size=(2, 50, 3))
    gt_roots = rng.normal(size=(2, 3))
    offset = np.array([0.4, -0.1, 2.0])
    assert mpvpe(vertex_errors(gt + offset, gt, gt_roots + offset, gt_roots)) < 1e-9


def test_mpvpe_single_vertex_hand_case():
    gt = np.zeros((1, 120, 3))
    pred = gt.copy()
    pred[0, 17, 0] = 0.005
    roots = np.zeros((1, 3))
    assert abs(mpvpe(vertex_errors(pred, gt, roots, roots)) - 5.0 / 120.0) < 1e-12


def test_accel_identical_is_zero():
    rng = np.random.default_rng(9)
    joints = rng.normal(size=(6, 4, 3))
    assert accel_error(joints, joints) == 0.0


def test_accel_hand_case():
    # 1D motion: pred positions (0, 1, 4) mm, gt (0, 1, 2) mm
    pred = np.zeros((3, 1, 3))
    gt = np.zeros((3, 1, 3))
    pred[:, 0, 2] = [0.0, 0.001, 0.004]
    gt[:, 0, 2] = [0.0, 0.001, 0.002]
    assert abs(accel_error(pred, gt) - 2.0) < 1e-9


def test_accel_ignores_affine_drift():
    rng = np.random.default_rng(10)
    gt = rng.normal(size=(8, 4, 3))
    t = np.arange(8, dtype=float)[:, None, None]
    drift = 0.3 * t + 1.1
    assert accel_error(gt + drift, gt) < 1e-9


def test_accel_requires_three_frames():
    with pytest.raises(ValueError):
        accel_error(np.zeros((2, 4, 3)), np.zeros((2, 4, 3)))


def test_frame_permutation_changes_accel_but_not_mpjpe():
    rng = np.random.default_rng(11)
    gt = np.cumsum(rng.normal(scale=0.02, size=(12, 6, 3)), axis=0)
    pred = gt + np.cumsum(rng.normal(scale=0.01, size=gt.shape), axis=0)
    perm = rng.permutation(12)
    assert abs(mpjpe(pred[perm], gt[perm]) - mpjpe(pred, gt)) < 1e-12
    assert abs(accel_error(pred[perm], gt[perm]) - accel_error(pred, gt)) > 1e-6


def test_metric_report_rejects_negative_values():
    with pytest.raises(ValueError):
        MetricReport(mpjpe=1.0, pa_mpjpe=0.5, mpvpe=-0.1, accel=0.0)
    MetricReport(mpjpe=0.0, pa_mpjpe=0.0, mpvpe=0.0, accel=0.0)  # a perfect prediction is accepted


def test_a_sequence_with_pa_mpjpe_above_mpjpe_evaluates():
    """One joint 0.2 m off: root alignment leaves the error on that joint,
    the similarity fit spreads it over all 24, so the mean rises."""
    gt = 0.3 * np.random.default_rng(0).normal(size=(3, 24, 3))
    pred = gt.copy()
    pred[:, 5, 0] += 0.2
    rep = evaluate_sequence(pred, gt, vertex_errors(gt, gt, pred[:, 0], gt[:, 0]))
    assert abs(rep.mpjpe - 200.0 / 24) < 1e-9
    assert abs(rep.pa_mpjpe - 18.95) < 0.01


@settings(max_examples=300, deadline=None)
@given(pred=SPREAD_POINTS, data=st.data())
def test_the_similarity_fit_never_raises_the_summed_squared_error_of_root_alignment(pred, data):
    """The true bound behind PA-MPJPE: root alignment is one of the transforms
    the fit searches, so it bounds the fit's sum of squares. The ground truth
    is the prediction moved by small errors, with outliers among them."""
    errors = st.floats(-0.01, 0.01) | st.floats(-1, 1)
    gt = pred + np.reshape(data.draw(st.lists(errors, min_size=pred.size, max_size=pred.size)), pred.shape)
    scale, rot, trans = procrustes_align(pred[None], gt[None])
    fit = _similarity_sse(scale[0], rot[0], trans[0], pred, gt)
    root = float((((pred - pred[0]) - (gt - gt[0])) ** 2).sum())
    assert fit <= root * (1 + 1e-9) + 1e-12


def test_evaluate_sequence_matches_parts():
    rng = np.random.default_rng(12)
    gt_j = rng.normal(size=(5, 24, 3))
    pred_j = gt_j + rng.normal(scale=0.05, size=gt_j.shape)
    gt_v = rng.normal(size=(5, 40, 3))
    pred_v = gt_v + rng.normal(scale=0.05, size=gt_v.shape)
    errors = vertex_errors(pred_v, gt_v, pred_j[:, 0], gt_j[:, 0])
    rep = evaluate_sequence(pred_j, gt_j, errors)
    assert rep.mpjpe == mpjpe(pred_j, gt_j)
    assert rep.pa_mpjpe == pa_mpjpe(pred_j, gt_j)
    assert rep.mpvpe == mpvpe(errors)
    assert rep.accel == accel_error(pred_j, gt_j)


@pytest.mark.parametrize("points", ["joints", "vertices"])
def test_evaluate_sequence_names_first_non_finite_frame(points):
    rng = np.random.default_rng(13)
    gt_j = rng.normal(size=(6, 24, 3))
    gt_v = rng.normal(size=(6, 40, 3))
    pred = {"joints": gt_j + 0.01, "vertices": gt_v + 0.01}
    pred[points][4, 2, 1] = np.nan
    pred[points][2, 0, 0] = np.inf
    with pytest.raises(DegenerateGeometryError, match="not finite in frame 2$"):
        evaluate_sequence(pred["joints"], gt_j, vertex_errors(pred["vertices"], gt_v, pred["joints"][:, 0], gt_j[:, 0]))


def _norm_form_metrics(pj, gj, pv, gv) -> tuple:
    """Each metric written with ``np.linalg.norm`` on fresh arrays, the plain
    form that the package's in-place temporaries must match bit for bit."""
    p, g = pj - pj[:, :1], gj - gj[:, :1]
    mpjpe_mm = float(np.linalg.norm(p - g, axis=-1).mean() * 1000.0)
    scale, rot, trans = procrustes_align(pj, gj)
    aligned = scale[:, None, None] * pj @ np.swapaxes(rot, 1, 2) + trans[:, None, :]
    pa_mm = float(np.linalg.norm(aligned - gj, axis=-1).mean(axis=1).mean() * 1000.0)
    p, g = pv - pj[:, None, 0], gv - gj[:, None, 0]
    mpvpe_mm = float(np.linalg.norm(p - g, axis=-1).mean() * 1000.0)
    ap = pj[2:] - 2.0 * pj[1:-1] + pj[:-2]
    ag = gj[2:] - 2.0 * gj[1:-1] + gj[:-2]
    accel = float(np.linalg.norm(ap - ag, axis=-1).mean() * 1000.0)
    return mpjpe_mm, pa_mm, mpvpe_mm, accel


@settings(max_examples=200, deadline=None)
@given(
    frames=st.integers(3, 64),
    joints=st.integers(3, 40),
    vertices=st.integers(3, 40),
    log_scale=st.floats(-3, 3),
    same=st.integers(0, 63),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_metric_gives_the_bits_of_its_norm_form(frames, joints, vertices, log_scale, same, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    gj = scale * rng.normal(size=(frames, joints, 3))
    pj = gj + 0.1 * scale * rng.normal(size=gj.shape)
    gv = scale * rng.normal(size=(frames, vertices, 3))
    pv = gv + 0.1 * scale * rng.normal(size=gv.shape)
    same %= frames
    pj[same], pv[same] = gj[same], gv[same]
    inputs = (pj, gj, pv, gv)
    before = [a.tobytes() for a in inputs]
    got = (
        mpjpe(pj, gj),
        pa_mpjpe(pj, gj),
        mpvpe(vertex_errors(pv, gv, pj[:, 0], gj[:, 0])),
        accel_error(pj, gj),
    )
    assert got == _norm_form_metrics(pj, gj, pv, gv)
    assert [a.tobytes() for a in inputs] == before


def test_scoring_500_frames_keeps_no_whole_video_temporaries():
    """Each metric squares and sums in a temporary it owns, so scoring 500
    frames of 120 vertices peaks under 4.0 MB; the norm form took about 6.7 MB."""
    rng = np.random.default_rng(14)
    gt_j = rng.normal(size=(500, 24, 3))
    gt_v = rng.normal(size=(500, 120, 3))
    pred_j = gt_j + rng.normal(scale=0.05, size=gt_j.shape)
    pred_v = gt_v + rng.normal(scale=0.05, size=gt_v.shape)
    def score(frames):
        errors = vertex_errors(pred_v[frames], gt_v[frames], pred_j[frames, 0], gt_j[frames, 0])
        return evaluate_sequence(pred_j[frames], gt_j[frames], errors)

    score(slice(4))
    tracemalloc.start()
    try:
        score(slice(None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0e6
