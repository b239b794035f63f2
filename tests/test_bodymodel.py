import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DEGENERATE_CODES, project_batch, rot6d_batch, weighted_sum, whole_batch_pose

from cycleadapt.bodymodel import (
    BETA_SIZE,
    BodyModel,
    body_forward_batch,
    POSE_FRAMES,
    body_graph,
    build_toy_body,
    frame_blocks,
    identity_pose,
    project_graph,
    project_weak_perspective,
    rotmat_to_rot6d,
    scale_body,
)
from cycleadapt.diffcore import DegenerateRotationError, Graph, backward_from_values, evaluate, forward, grad_check


def _two_joint_chain():
    # root at origin, child at x=0.5, one extra vertex at the bone tip x=1
    verts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
    regressor = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    weights = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return BodyModel(
        template_vertices=verts,
        parents=(-1, 0),
        skin_weights=weights,
        shape_dirs=np.zeros((3, 3, 10)),
        joint_regressor=regressor,
    )


ROT_Z_90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _shaped_rest_mesh(model, beta):
    """Reference: template + shape_dirs . beta, in plain numpy."""
    return model.template_vertices + np.einsum("vck,...k->...vc", model.shape_dirs, np.asarray(beta))


def _numpy_body_forward(model, thetas, betas):
    """Reference posing in plain numpy: forward kinematics joint by joint, then
    linear blend skinning, then joints regressed from the skinned mesh."""
    nb, joints = thetas.shape[0], model.joint_count
    rots = rot6d_batch(thetas.reshape(nb, joints, 6))
    shaped = _shaped_rest_mesh(model, betas)
    rest = np.einsum("jv,bvc->bjc", model.joint_regressor, shaped)
    glob_rot = np.empty((nb, joints, 3, 3))
    glob_t = np.empty((nb, joints, 3))
    glob_rot[:, 0] = rots[:, 0]
    glob_t[:, 0] = rest[:, 0]
    for j in range(1, joints):
        p = model.parents[j]
        glob_rot[:, j] = glob_rot[:, p] @ rots[:, j]
        glob_t[:, j] = glob_t[:, p] + np.einsum("bxy,by->bx", glob_rot[:, p], rest[:, j] - rest[:, p])
    blended = np.einsum("vj,bjxy->bvxy", model.skin_weights, glob_rot)
    shift = glob_t - np.einsum("bjxy,bjy->bjx", glob_rot, rest)
    verts = np.einsum("bvxy,bvy->bvx", blended, shaped)
    verts += np.einsum("vj,bjx->bvx", model.skin_weights, shift)
    return verts, np.einsum("jv,bvc->bjc", model.joint_regressor, verts)


def _node_by_node_body_graph(g, model, theta_node, beta_node, batch):
    """Reference: body_graph as it was before the rigid_chain op, with forward
    kinematics and skinning spelled out one single-op node at a time (a pick,
    a transpose, a 3x3 matmul per joint). The rigid_chain op must reproduce
    its values and its gradients bit for bit. It decodes with the rot6d node,
    whose bits `test_rot6d_node_matches_the_single_op_decoder_bit_for_bit` pins."""
    joints = model.joint_count
    nverts = model.vertex_count
    rot = g.rot6d(g.reshape(theta_node, (batch, joints, 6)))

    sd = g.const(model.shape_dirs.reshape(nverts * 3, BETA_SIZE).T)
    shaped = g.add(
        g.const(model.template_vertices),
        g.reshape(g.matmul(beta_node, sd), (batch, nverts, 3)),
    )
    rest = g.matmul(g.const(model.joint_regressor), shaped)

    rot9 = g.reshape(rot, (batch, joints, 9))
    loc_rot = [g.reshape(g.take(rot9, [j], 1), (batch, 3, 3)) for j in range(joints)]
    rest_row = [g.take(rest, [j], 1) for j in range(joints)]

    glob_rot: list = [None] * joints
    glob_t: list = [None] * joints
    glob_rot[0] = loc_rot[0]
    glob_t[0] = rest_row[0]
    rot_t: dict = {}

    def transposed(j: int) -> int:
        if j not in rot_t:
            rot_t[j] = g.transpose(glob_rot[j])
        return rot_t[j]

    for j in range(1, joints):
        p = model.parents[j]
        bone = g.sub(rest_row[j], rest_row[p])
        glob_t[j] = g.add(glob_t[p], g.matmul(bone, transposed(p)))
        glob_rot[j] = g.matmul(glob_rot[p], loc_rot[j])

    rows_t = [g.reshape(transposed(j), (batch, 1, 9)) for j in range(joints)]
    blended = g.reshape(
        g.matmul(g.const(model.skin_weights), g.concat(rows_t, axis=1)),
        (batch, nverts, 3, 3),
    )
    shift = [g.sub(glob_t[j], g.matmul(rest_row[j], transposed(j))) for j in range(joints)]
    offs = g.matmul(g.const(model.skin_weights), g.concat(shift, axis=1))
    moved = g.reshape(
        g.matmul(g.reshape(shaped, (batch, nverts, 1, 3)), blended),
        (batch, nverts, 3),
    )
    verts = g.add(moved, offs)
    out_joints = g.matmul(g.const(model.joint_regressor), verts)
    return verts, out_joints


def _pose_and_grads(pose_graph, model, thetas, betas):
    """Vertices, joints, and the theta and beta gradients of an L1 joint loss."""
    g = Graph()
    th = g.leaf("theta", trainable=True)
    be = g.leaf("beta", trainable=True)
    verts_node, joints_node = pose_graph(g, model, th, be, thetas.shape[0])
    loss = g.mean_abs(g.sub(joints_node, g.const(0.05)))
    values = evaluate(g, {"theta": thetas, "beta": betas})
    verts, joints = values[verts_node], values[joints_node]  # the backward pass consumes the values
    grads = backward_from_values(g, values, loss)
    return verts, joints, grads["theta"], grads["beta"]


def _assert_matches_node_by_node(model, thetas, betas):
    want = _pose_and_grads(_node_by_node_body_graph, model, thetas, betas)
    got = _pose_and_grads(body_graph, model, thetas, betas)
    for name, a, b in zip(("vertices", "joints", "theta grad", "beta grad"), got, want):
        assert np.array_equal(a, b), f"{name} differ by up to {np.abs(a - b).max()}"


def decode_rot6d(codes) -> np.ndarray:
    """(..., 6) codes to (..., 3, 3) rotations through one `Graph.rot6d` node."""
    c = np.asarray(codes, dtype=np.float64)
    g = Graph()
    node = g.rot6d(g.const(c.reshape(-1, 1, 6)))
    return forward(g, {}, [node])[0].reshape(*c.shape[:-1], 3, 3)


def test_rot6d_identity_code():
    assert np.array_equal(decode_rot6d([1, 0, 0, 0, 1, 0]), np.eye(3))


def test_rot6d_is_scale_invariant():
    assert np.array_equal(decode_rot6d([2, 0, 0, 0, 3, 0]), np.eye(3))


def test_rot6d_random_code_is_orthonormal():
    rng = np.random.default_rng(0)
    rot = decode_rot6d(rng.normal(size=6))
    assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(rot) - 1.0) < 1e-9


WELL_POSED_CODES = st.lists(st.floats(-10, 10), min_size=6, max_size=6).map(np.array).filter(
    lambda c: min(np.linalg.norm(c[:3]), np.linalg.norm(c[3:])) > 1e-3
    and np.linalg.norm(np.cross(c[:3], c[3:])) > 1e-3 * np.linalg.norm(c[:3]) * np.linalg.norm(c[3:])
)


@settings(max_examples=300, deadline=None)
@given(code=WELL_POSED_CODES, first=st.floats(1e-3, 1e3), second=st.floats(1e-3, 1e3))
def test_rot6d_gives_a_proper_rotation_that_ignores_column_scale(code, first, second):
    rot = decode_rot6d(code)
    assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(rot) - 1.0) < 1e-12
    rescaled = decode_rot6d(np.concatenate([first * code[:3], second * code[3:]]))
    assert np.abs(rescaled - rot).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_rot6d_node_matches_the_numpy_decoder(batch, joints, data):
    codes = np.array([data.draw(WELL_POSED_CODES) for _ in range(batch * joints)]).reshape(batch, joints, 6)
    g = Graph()
    node = g.rot6d(g.const(codes))
    rot = forward(g, {}, [node])[0]
    assert rot.shape == (batch, joints, 3, 3)
    assert np.abs(rot - rot6d_batch(codes)).max() < 1e-12


RECORD = Path(__file__).with_name("rot6d_single_op_digests.json")


def _rot6d_case(seed):
    """Codes of batch 1-6, joints 1-5 and scale 0.01-100 with signed-zero
    entries, and incoming gradients with signed zeros, whole joints of them
    included."""
    rng = np.random.default_rng(seed)
    batch, joints = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    codes = rng.normal(size=(batch, joints, 6)) * rng.uniform(0.01, 100.0)
    zero = rng.random(codes.shape) < 0.2
    codes[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    codes[..., 0] += 1.0  # a first column away from zero
    codes[..., 4] += 2.0  # a second column off its span
    weights = rng.normal(size=(batch, joints, 3, 3))
    zero = rng.random(weights.shape) < 0.3
    zero[rng.random((batch, joints)) < 0.3] = True  # joints whose whole gradient is signed zeros
    weights[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    return codes, weights


def test_rot6d_node_matches_the_single_op_decoder_bit_for_bit():
    """Values and gradients to the byte, signs of zeros included, against the
    digests of the 24-node single-op decoder the node replaced (the record
    names its commit). Only elementwise ops and length-3 sums run here, no
    BLAS, so the bytes do not depend on the machine."""
    record = json.loads(RECORD.read_text())
    assert len(record["cases"]) >= 64
    for seed, want in enumerate(record["cases"]):
        codes, weights = _rot6d_case(seed)
        g = Graph()
        leaf = g.leaf("codes", trainable=True)
        rot = g.rot6d(leaf)
        loss = weighted_sum(g, rot, weights)
        values = evaluate(g, {"codes": codes})
        rots = values[rot]
        grad = backward_from_values(g, values, loss)["codes"]
        got = hashlib.sha256(rots.tobytes() + grad.tobytes()).hexdigest()
        assert got == want, f"case {seed} (codes {codes.shape}) differs from the record"


def test_rot6d_rejects_degenerate_codes():
    """Through `evaluate` and `forward`, naming the node and the first bad (row, joint)."""
    for code, what in zip(DEGENERATE_CODES, ["first column norm", "Gram-Schmidt remainder norm"]):
        codes = np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], (3, 4, 1))
        codes[2, 1] = codes[2, 3] = code
        g = Graph()
        node = g.rot6d(g.leaf("codes"))
        expected = rf"node {node} \(rot6d\): {what} at or below 1e-8 at \(row 2, joint 1\)"
        with pytest.raises(DegenerateRotationError, match=expected):
            evaluate(g, {"codes": codes})
        with pytest.raises(DegenerateRotationError, match=expected):
            forward(g, {"codes": codes}, [node])


def test_rot6d_rejects_a_short_second_column():
    g = Graph()
    node = g.rot6d(g.const([[[1.0, 2.0, 0.0, 1e-9, 0.0, 0.0]]]))
    with pytest.raises(DegenerateRotationError, match="remainder norm"):
        forward(g, {}, [node])


@pytest.mark.parametrize("code", DEGENERATE_CODES)
def test_body_forward_batch_rejects_a_degenerate_row(code):
    model = build_toy_body(2, joints=4, vertices=10)
    thetas = np.tile(identity_pose(4), (3, 1))
    thetas[1, 12:18] = code
    with pytest.raises(DegenerateRotationError, match=r"\(rot6d\).*\(row 1, joint 2\)"):
        body_forward_batch(model, thetas, np.zeros((3, 10)))


def test_rot6d_round_trip_through_matrix():
    rng = np.random.default_rng(1)
    codes = rng.normal(size=(5, 7, 6))
    rots = decode_rot6d(codes)
    again = decode_rot6d(rotmat_to_rot6d(rots))
    assert np.abs(rots - again).max() < 1e-12


def test_identity_pose_reproduces_template():
    model = build_toy_body(42, joints=24, vertices=120)
    verts, joints = body_forward_batch(model, identity_pose(24)[None], np.zeros((1, 10)))
    assert np.abs(verts[0] - model.template_vertices).max() < 1e-12
    assert np.abs(joints[0] - model.joint_regressor @ model.template_vertices).max() < 1e-12


def test_two_joint_chain_child_rotation():
    model = _two_joint_chain()
    theta = np.concatenate([identity_pose(1), rotmat_to_rot6d(ROT_Z_90)])
    verts, joints = body_forward_batch(model, theta[None], np.zeros((1, 10)))
    # bone tip swings around the child joint: Rz90 @ (1,0,0 - 0.5,0,0) + (0.5,0,0)
    assert np.abs(verts[0, 2] - [0.5, 0.5, 0.0]).max() < 1e-12
    assert np.abs(joints[0, 1] - [0.5, 0.0, 0.0]).max() < 1e-12


def test_two_joint_chain_root_rotation():
    model = _two_joint_chain()
    theta = np.concatenate([rotmat_to_rot6d(ROT_Z_90), identity_pose(1)])
    verts, joints = body_forward_batch(model, theta[None], np.zeros((1, 10)))
    assert np.abs(joints[0, 1] - [0.0, 0.5, 0.0]).max() < 1e-12
    assert np.abs(verts[0, 2] - [0.0, 1.0, 0.0]).max() < 1e-12


def test_one_hot_weights_move_vertices_rigidly():
    base = build_toy_body(3, joints=5, vertices=20)
    one_hot = np.zeros_like(base.skin_weights)
    one_hot[np.arange(20), base.skin_weights.argmax(axis=1)] = 1.0
    regressor = np.zeros((5, 20))
    regressor[np.arange(5), np.arange(5)] = 1.0
    model = dataclasses.replace(base, skin_weights=one_hot, joint_regressor=regressor)

    rng = np.random.default_rng(4)
    theta = rng.normal(size=(1, 30))
    verts, joints = body_forward_batch(model, theta, np.zeros((1, 10)))
    rest_joints = model.joint_regressor @ model.template_vertices
    assigned = one_hot.argmax(axis=1)
    posed = np.linalg.norm(verts[0] - joints[0, assigned], axis=1)
    rest = np.linalg.norm(model.template_vertices - rest_joints[assigned], axis=1)
    assert np.abs(posed - rest).max() < 1e-9


def test_root_rotation_preserves_pairwise_joint_distances():
    model = build_toy_body(5, joints=8, vertices=30)
    rng = np.random.default_rng(6)
    theta = rng.normal(size=48)
    extra = rot6d_batch(rng.normal(size=6))
    rotated = theta.copy()
    rotated[:6] = rotmat_to_rot6d(extra @ rot6d_batch(theta[:6]))
    _, j_a = body_forward_batch(model, theta[None], np.zeros((1, 10)))
    _, j_b = body_forward_batch(model, rotated[None], np.zeros((1, 10)))
    dist_a = np.linalg.norm(j_a[0][:, None] - j_a[0][None], axis=-1)
    dist_b = np.linalg.norm(j_b[0][:, None] - j_b[0][None], axis=-1)
    assert np.abs(dist_a - dist_b).max() < 1e-9


def test_shape_blending_is_linear():
    """At the rest pose the posed mesh is the shaped rest mesh, linear in beta."""
    model = build_toy_body(7, joints=6, vertices=25)
    rng = np.random.default_rng(8)
    b1 = rng.normal(size=10)
    b2 = rng.normal(size=10)
    betas = np.stack([np.zeros(10), b1 + b2, b1, b2])
    zero, both, one, two = body_forward_batch(model, np.tile(identity_pose(6), (4, 1)), betas)[0]
    assert np.abs((both - zero) - ((one - zero) + (two - zero))).max() < 1e-9
    assert np.abs(np.stack([zero, both, one, two]) - _shaped_rest_mesh(model, betas)).max() < 1e-12


def test_body_graph_matches_numpy_forward():
    model = build_toy_body(1, joints=6, vertices=16)
    rng = np.random.default_rng(2)
    thetas = identity_pose(6)[None] + 0.3 * rng.normal(size=(3, 36))
    betas = rng.normal(size=(3, 10))

    g = Graph()
    th = g.leaf("theta")
    be = g.leaf("beta")
    verts_node, joints_node = body_graph(g, model, th, be, batch=3)
    values = evaluate(g, {"theta": thetas, "beta": betas})
    verts, joints = _numpy_body_forward(model, thetas, betas)
    assert np.abs(values[verts_node] - verts).max() < 1e-12
    assert np.abs(values[joints_node] - joints).max() < 1e-12
    for got, want in zip(body_forward_batch(model, thetas, betas), (verts, joints)):
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("batch", [1, 32, 129])
@pytest.mark.parametrize("seed,joints,scale", [(0, 2, 1.0), (1, 8, 1.0), (2, 15, 1.7), (3, 24, 1.0), (4, 24, 0.6)])
def test_body_graph_matches_node_by_node_graph_bit_for_bit(seed, joints, scale, batch):
    model = build_toy_body(seed, joints=joints, vertices=joints + 30)
    if scale != 1.0:
        model = scale_body(model, scale)
    rng = np.random.default_rng(seed + 100 * batch)
    thetas = identity_pose(joints)[None] + 0.4 * rng.normal(size=(batch, 6 * joints))
    _assert_matches_node_by_node(model, thetas, rng.normal(size=(batch, 10)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(2, 24), st.integers(1, 4))
def test_body_graph_matches_node_by_node_graph_on_random_bodies(seed, joints, batch):
    model = build_toy_body(seed, joints=joints, vertices=joints + 8)
    rng = np.random.default_rng(seed)
    thetas = identity_pose(joints)[None] + 0.5 * rng.normal(size=(batch, 6 * joints))
    _assert_matches_node_by_node(model, thetas, rng.normal(size=(batch, 10)))


def test_rigid_chain_gives_the_same_bits_for_contiguous_and_transposed_rotations():
    model = build_toy_body(6, joints=9, vertices=30)
    rng = np.random.default_rng(12)
    rots = rot6d_batch(rng.normal(size=(4, 9, 6)))
    as_view = np.swapaxes(np.ascontiguousarray(np.swapaxes(rots, -1, -2)), -1, -2)
    assert not as_view.flags.c_contiguous and np.array_equal(as_view, rots)
    shaped = model.template_vertices + 0.01 * rng.normal(size=(4, 30, 3))

    def run(rot):
        g = Graph()
        r = g.leaf("rot", trainable=True)
        s = g.leaf("shaped", trainable=True)
        verts = g.rigid_chain(r, s, model.parents, model.skin_weights, model.joint_regressor)
        loss = g.mean_abs(g.sub(verts, g.const(0.1)))
        values = evaluate(g, {"rot": rot, "shaped": shaped})
        out = values[verts]
        grads = backward_from_values(g, values, loss)
        return out, grads["rot"], grads["shaped"]

    for a, b in zip(run(rots), run(as_view)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 129, 500])
def test_forward_only_posing_gives_the_evaluate_paths_bytes(batch):
    """Forward-only posing keeps no VJP residuals and evaluate keeps the whole
    blend; on batches around the 64-row block edges their bytes agree."""
    model = build_toy_body(2, joints=24, vertices=120)
    rng = np.random.default_rng(batch)
    thetas = identity_pose(24)[None] + 0.3 * rng.normal(size=(batch, 144))
    betas = rng.normal(size=(batch, 10))
    verts, joints = body_forward_batch(model, thetas, betas)
    g = Graph()
    nodes = body_graph(g, model, g.const(thetas), g.const(betas), batch)
    values = evaluate(g, {})
    assert verts.tobytes() == values[nodes[0]].tobytes()
    assert joints.tobytes() == values[nodes[1]].tobytes()


BLOCKED_BODY = build_toy_body(2, joints=24, vertices=120)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.integers(1, 300),
        st.integers(1, 8).flatmap(lambda k: st.sampled_from([POSE_FRAMES * k - 1, POSE_FRAMES * k + 1])),
    ),
    st.data(),
)
def test_blocked_posing_gives_whole_batch_posings_bytes(frames, data):
    """body_forward_batch poses in frame blocks; its vertices and joints are
    those of one posing graph over the whole batch, byte for byte, and a
    degenerate code is named by its row in the whole batch."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    thetas = identity_pose(24)[None] + 0.3 * rng.normal(size=(frames, 144))
    betas = rng.normal(size=(frames, 10))
    blocks = frame_blocks(frames)
    sizes = [rows.stop - rows.start for rows in blocks]
    assert blocks[0].start == 0 and blocks[-1].stop == frames and max(sizes) <= POSE_FRAMES
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:])) and (frames == 1 or min(sizes) > 1)
    whole = whole_batch_pose(BLOCKED_BODY, thetas, betas)
    for got, want in zip(body_forward_batch(BLOCKED_BODY, thetas, betas), whole):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    row, joint = data.draw(st.integers(0, frames - 1), label="row"), data.draw(st.integers(0, 23), label="joint")
    thetas[row, 6 * joint : 6 * joint + 6] = data.draw(st.sampled_from(DEGENERATE_CODES), label="code")
    with pytest.raises(DegenerateRotationError) as blocked:
        body_forward_batch(BLOCKED_BODY, thetas, betas)
    with pytest.raises(DegenerateRotationError) as at_once:
        whole_batch_pose(BLOCKED_BODY, thetas, betas)
    assert (blocked.value.row, blocked.value.joint) == (row, joint)
    assert str(blocked.value) == str(at_once.value)


def test_posing_500_frames_keeps_no_intermediates():
    """body_forward_batch runs forward only, so the chain's VJP inputs are
    never kept, and the chain skins 64 rows at a time, so no whole-batch
    blend exists: the peak stays under 6.5 MB, where the whole-batch blend
    took about 8.4 MB."""
    model = build_toy_body(0, joints=24, vertices=120)
    rng = np.random.default_rng(13)
    thetas = identity_pose(24)[None] + 0.2 * rng.normal(size=(500, 144))
    betas = rng.normal(size=(500, 10))
    body_forward_batch(model, thetas[:2], betas[:2])
    tracemalloc.start()
    try:
        body_forward_batch(model, thetas, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5e6


def test_body_graph_gradients_match_finite_differences():
    model = build_toy_body(9, joints=4, vertices=10)
    rng = np.random.default_rng(3)
    theta = identity_pose(4)[None] + 0.05 * rng.normal(size=(1, 24))
    beta = 0.3 * rng.normal(size=(1, 10))

    g = Graph()
    th = g.leaf("theta", trainable=True)
    be = g.leaf("beta", trainable=True)
    verts_node, _ = body_graph(g, model, th, be, batch=1)
    loss = g.mean_abs(verts_node)
    worst = grad_check(g, {"theta": theta, "beta": beta}, loss, step=1e-5)
    assert worst < 1e-4


def test_project_weak_perspective_hand_cases():
    identity_cam = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(project_weak_perspective(identity_cam, [[1.0, 2.0, 5.0]]), [[1.0, 2.0]])
    cam = np.array([2.0, 3.0, 4.0])  # (s, tx, ty)
    assert np.array_equal(project_weak_perspective(cam, [[1.0, 2.0, 5.0]]), [[5.0, 8.0]])
    with pytest.raises(ValueError, match=r"\(3,\) camera"):
        project_weak_perspective([2.0, 3.0], [[1.0, 2.0, 5.0]])


def test_projection_scales_linearly_without_translation():
    rng = np.random.default_rng(10)
    points = rng.normal(size=(100, 3))
    cam = np.array([1.7, 0.0, 0.0])
    lhs = project_weak_perspective(cam, 2.5 * points)
    rhs = 2.5 * project_weak_perspective(cam, points)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_project_graph_matches_numpy():
    rng = np.random.default_rng(11)
    cams = np.column_stack([rng.uniform(0.5, 2.0, size=4), rng.normal(size=(4, 2))])
    points = rng.normal(size=(4, 9, 3))
    g = Graph()
    k = g.leaf("camera")
    p = g.leaf("points")
    out = project_graph(g, k, p, batch=4)
    values = evaluate(g, {"camera": cams, "points": points})
    assert np.abs(values[out] - project_batch(cams, points)).max() < 1e-12


def test_build_toy_body_is_deterministic():
    a = build_toy_body(42, joints=24, vertices=120)
    b = build_toy_body(42, joints=24, vertices=120)
    assert a.parents == b.parents
    for name in ("template_vertices", "skin_weights", "shape_dirs", "joint_regressor"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_build_toy_body_invariants():
    model = build_toy_body(0, joints=24, vertices=120)
    assert np.abs(model.skin_weights.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(model.joint_regressor.sum(axis=1) - 1.0).max() <= 1e-9
    regressed = model.joint_regressor @ model.template_vertices
    assert np.linalg.norm(regressed - model.template_vertices[:24], axis=1).max() < 0.05  # on-joint vertices
    assert np.abs(model.shape_dirs).max() <= 0.03


def test_build_toy_body_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_toy_body(0, joints=1, vertices=10)
    with pytest.raises(ValueError):
        build_toy_body(0, joints=8, vertices=7)


def test_body_model_rejects_broken_tree():
    verts = np.zeros((3, 3))
    regressor = np.full((2, 3), 1.0 / 3.0)
    weights = np.full((3, 2), 0.5)
    with pytest.raises(ValueError):
        BodyModel(
            template_vertices=verts,
            parents=(-1, 2),
            skin_weights=weights,
            shape_dirs=np.zeros((3, 3, 10)),
            joint_regressor=regressor,
        )


def test_body_model_rejects_unnormalized_weights():
    verts = np.zeros((3, 3))
    regressor = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        BodyModel(
            template_vertices=verts,
            parents=(-1, 0),
            skin_weights=np.full((3, 2), 0.7),
            shape_dirs=np.zeros((3, 3, 10)),
            joint_regressor=regressor,
        )
