"""Unit tests for the reverse-mode autodiff core."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import weighted_sum

from cycleadapt.diffcore import (
    DiffcoreError,
    Graph,
    NonScalarLossError,
    ShapeMismatchError,
    UnboundLeafError,
    backward,
    backward_from_values,
    evaluate,
    forward,
    grad_check,
)


def _scalarize(g, node):
    """Reduce an arbitrary node to a scalar so it can serve as a loss."""
    return g.mean_abs(g.add(node, g.const(0.1)))


def test_evaluate_simple_expression():
    g = Graph()
    x = g.leaf("x")
    y = g.scalar_mul(g.add(x, x), 1.5)
    vals = evaluate(g, {"x": np.array([2.0])})
    assert vals[y] == pytest.approx([6.0])


def test_evaluate_deterministic_bit_identical():
    rng = np.random.default_rng(0)
    g = Graph()
    x = g.leaf("x", trainable=True)
    w = g.leaf("w", trainable=True)
    out = g.relu(g.matmul(x, w))
    loss = g.mean_abs(out)
    b = {"x": rng.normal(size=(4, 5)), "w": rng.normal(size=(5, 3))}
    v1 = evaluate(g, b)[loss]
    v2 = evaluate(g, b)[loss]
    assert v1.tobytes() == v2.tobytes()


def test_unbound_leaf_raises():
    g = Graph()
    x = g.leaf("x")
    g.relu(x)
    with pytest.raises(UnboundLeafError):
        evaluate(g, {})


def test_shape_mismatch_names_offending_node():
    g = Graph()
    a = g.leaf("a")
    b = g.leaf("b")
    node = g.matmul(a, b)
    with pytest.raises(ShapeMismatchError) as exc:
        evaluate(g, {"a": np.ones((2, 3)), "b": np.ones((4, 2))})
    assert f"node {node}" in str(exc.value)


def test_non_scalar_loss_rejected():
    g = Graph()
    x = g.leaf("x", trainable=True)
    y = g.relu(x)
    with pytest.raises(NonScalarLossError):
        backward(g, {"x": np.ones(3)}, y)


def test_layer_norm_constant_vector_is_zero():
    # Constant input has zero variance; eps keeps the output finite at 0.
    g = Graph()
    x = g.leaf("x")
    gain = g.const(np.ones(4))
    bias = g.const(np.zeros(4))
    y = g.layer_norm(x, gain, bias, eps=1e-5)
    vals = evaluate(g, {"x": np.full(4, 5.0)})
    np.testing.assert_allclose(vals[y], np.zeros(4), atol=1e-12)


def test_layer_norm_vjp_from_its_residuals_gives_the_recomputing_vjps_bytes():
    """Under `evaluate` a layer norm keeps its normalized input and inverse
    deviation; the VJP that reads them must give the bytes of the one that
    recomputed both, on a denoiser-sized (144, 49) input."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(144, 49)) * 3.0 + 1.0
    gain, bias, target = 1 + 0.1 * rng.normal(size=49), 0.1 * rng.normal(size=49), rng.normal(size=(144, 49))
    g = Graph()
    xs = [g.leaf(name, trainable=True) for name in ("x", "gain", "bias")]
    out = g.layer_norm(*xs, eps=1e-5)
    loss = g.mean_abs(g.sub(out, g.const(target)))
    values = evaluate(g, {"x": x, "gain": gain, "bias": bias})
    y = values[out]
    got = backward_from_values(g, values, loss)

    # the recomputing forward and VJP, with the loss's gradient toward the norm
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    assert y.tobytes() == ((x - mu) * inv * gain + bias).tobytes()
    up = 1.0 * np.sign(y - target) / y.size
    xhat = (x - mu) * inv
    dxhat = up * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    want = {"x": dx, "gain": (up * xhat).sum(axis=0), "bias": up.sum(axis=0)}
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_backward_consumes_its_values_and_residuals():
    """After the reverse pass the values and every residual are gone, those
    of fused nodes that took no gradient and of nodes past the loss included,
    and a read raises rather than returning a stale or missing value. A
    trainable leaf read only past the loss still gets zeros shaped like it."""
    rng = np.random.default_rng(22)
    g = Graph()
    codes = g.leaf("codes", trainable=True)
    rot = g.reshape(g.rot6d(codes), (2, 27))
    fixed = g.rot6d(g.const(rng.normal(size=(2, 3, 6))))  # no trainable leaf reaches it
    normed = g.layer_norm(rot, g.leaf("gain", trainable=True), g.leaf("bias"))
    loss = g.mean_abs(g.add(normed, g.reshape(fixed, (2, 27))))
    g.relu(g.add(normed, g.leaf("idle", trainable=True)))  # past the loss
    bindings = {
        "codes": rng.normal(size=(2, 3, 6)),
        "gain": 1 + 0.1 * rng.normal(size=27),
        "bias": np.zeros(27),
        "idle": np.ones((2, 27)),
    }
    values = evaluate(g, bindings)
    assert len(values.residuals) == 3
    got = backward_from_values(g, values, loss)
    assert len(values) == 0 and values.residuals == {}
    with pytest.raises(IndexError):
        values[loss]
    assert sorted(got) == ["codes", "gain", "idle"]
    assert np.array_equal(got["idle"], np.zeros((2, 27)))
    assert grad_check(g, bindings, loss) < 1e-6


def test_three_layer_perceptron_matches_central_differences():
    rng = np.random.default_rng(0)
    g = Graph()
    x = g.const(rng.normal(size=(3, 6)))
    names = {}
    h = x
    dims = [6, 5, 4, 2]
    for i in range(3):
        w = g.leaf(f"w{i}", trainable=True)
        b = g.leaf(f"b{i}", trainable=True)
        names[f"w{i}"] = rng.normal(size=(dims[i], dims[i + 1])) / np.sqrt(dims[i])
        names[f"b{i}"] = rng.normal(size=(dims[i + 1],)) * 0.1
        h = g.add(g.matmul(h, w), b)
        if i < 2:
            h = g.relu(h)
    loss = g.mean_abs(h)
    assert grad_check(g, names, loss, step=1e-6) < 1e-4


def test_grad_check_takes_a_one_by_one_loss():
    """backward takes any size-1 loss, so grad_check reads one of shape (1, 1) too."""
    g = Graph()
    x = g.leaf("x", trainable=True)
    loss = g.matmul(g.reshape(x, (1, 3)), g.const([[0.5], [-2.0], [3.0]]))
    bindings = {"x": np.array([1.0, 2.0, -1.0])}
    assert evaluate(g, bindings)[loss].shape == (1, 1)
    assert np.array_equal(backward(g, bindings, loss)["x"], [0.5, -2.0, 3.0])
    assert grad_check(g, bindings, loss) < 1e-8


def test_mean_abs_all_zero_residuals_skips_kinks():
    # Every residual sits exactly on the L1 kink, so every finite
    # difference straddles it and every parameter entry is skipped.
    g = Graph()
    x = g.leaf("x", trainable=True)
    t = g.const(np.array([1.0, -2.0, 0.5]))
    loss = g.mean_abs(g.sub(x, t))
    assert grad_check(g, {"x": np.array([1.0, -2.0, 0.5])}, loss) == 0.0


def test_transpose_twice_is_identity_for_values_and_gradients():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(4, 5))

    g1 = Graph()
    x1 = g1.leaf("x", trainable=True)
    loss1 = g1.mean_abs(g1.transpose(g1.transpose(x1)))
    g2 = Graph()
    x2 = g2.leaf("x", trainable=True)
    loss2 = g2.mean_abs(x2)

    v1 = evaluate(g1, {"x": arr})
    v2 = evaluate(g2, {"x": arr})
    np.testing.assert_array_equal(v1[loss1], v2[loss2])
    g1g = backward(g1, {"x": arr}, loss1)["x"]
    g2g = backward(g2, {"x": arr}, loss2)["x"]
    np.testing.assert_array_equal(g1g, g2g)


def test_unreachable_leaf_gets_zero_gradient():
    g = Graph()
    x = g.leaf("x", trainable=True)
    z = g.leaf("unused", trainable=True)
    g.relu(z)  # present in the graph but not on the loss path
    loss = g.mean_abs(x)
    grads = backward(g, {"x": np.array([1.0, -1.0]), "unused": np.ones(4)}, loss)
    np.testing.assert_array_equal(grads["unused"], np.zeros(4))


def test_gradient_accumulates_over_fanout():
    g = Graph()
    x = g.leaf("x", trainable=True)
    y = g.add(x, x)
    loss = weighted_sum(g, y, np.ones(2))
    grads = backward(g, {"x": np.array([2.0, 3.0])}, loss)
    np.testing.assert_allclose(grads["x"], [2.0, 2.0])


def _primitive_cases(rng):
    """One small random graph per primitive; returns (graph, bindings, loss)."""
    cases = []

    def new(name, shape, scale=1.0):
        return rng.normal(size=shape) * scale

    # add / sub / mul with broadcasting
    for kind in ("add", "sub", "mul"):
        g = Graph()
        a = g.leaf("a", trainable=True)
        b = g.leaf("b", trainable=True)
        loss = _scalarize(g, getattr(g, kind)(a, b))
        cases.append((g, {"a": new("a", (2, 4)), "b": new("b", (4,))}, loss))

    g = Graph()
    a = g.leaf("a", trainable=True)
    loss = _scalarize(g, g.scalar_mul(a, -1.7))
    cases.append((g, {"a": new("a", (3, 2))}, loss))

    g = Graph()
    a = g.leaf("a", trainable=True)
    b = g.leaf("b", trainable=True)
    loss = _scalarize(g, g.matmul(a, b))
    cases.append((g, {"a": new("a", (2, 3, 4)), "b": new("b", (4, 2))}, loss))

    g = Graph()
    a = g.leaf("a", trainable=True)
    loss = _scalarize(g, g.transpose(a))
    cases.append((g, {"a": new("a", (2, 3, 4))}, loss))

    g = Graph()
    a = g.leaf("a", trainable=True)
    loss = _scalarize(g, g.reshape(a, (6, 2)))
    cases.append((g, {"a": new("a", (3, 4))}, loss))

    g = Graph()
    a = g.leaf("a", trainable=True)
    b = g.leaf("b", trainable=True)
    loss = _scalarize(g, g.concat([a, b], axis=1))
    cases.append((g, {"a": new("a", (2, 3)), "b": new("b", (2, 2))}, loss))

    g = Graph()
    a = g.leaf("a", trainable=True)
    loss = _scalarize(g, g.relu(a))
    cases.append((g, {"a": new("a", (3, 5))}, loss))

    g = Graph()
    a = g.leaf("a", trainable=True)
    gain = g.leaf("gain", trainable=True)
    bias = g.leaf("bias", trainable=True)
    loss = _scalarize(g, g.layer_norm(a, gain, bias))
    cases.append(
        (g, {"a": new("a", (3, 6)), "gain": 1 + 0.1 * new("g", (6,)), "bias": 0.1 * new("b", (6,))}, loss)
    )

    g = Graph()
    a = g.leaf("a", trainable=True)
    loss = g.mean_abs(a)
    cases.append((g, {"a": new("a", (4, 3))}, loss))

    # take: a row mask's rows, a slice of the last axis, a permutation
    mask = rng.random(5) < 0.5
    mask[0] = True  # never empty
    for index, axis in ((np.flatnonzero(mask), 0), (slice(1, 3), -1), ([2, 0, 1], 1)):
        g = Graph()
        a = g.leaf("a", trainable=True)
        loss = _scalarize(g, g.take(a, index, axis))
        cases.append((g, {"a": new("a", (5, 3))}, loss))

    # rot6d: codes whose columns are well away from degenerate
    g = Graph()
    a = g.leaf("a", trainable=True)
    loss = _scalarize(g, g.rot6d(a))
    cases.append((g, {"a": new("a", (2, 3, 6)) + np.array([2.0, 0.0, 0.0, 0.0, 2.0, 0.0])}, loss))

    # rigid_chain: a 5-joint tree, weights and regressor rows that sum to one
    parents = (-1, 0, 1, 0, 3)
    weights = rng.random((7, 5)) + 0.1
    regressor = rng.random((5, 7)) + 0.1
    g = Graph()
    rot = g.leaf("rot", trainable=True)
    shaped = g.leaf("shaped", trainable=True)
    weights /= weights.sum(axis=1, keepdims=True)
    regressor /= regressor.sum(axis=1, keepdims=True)
    verts = g.rigid_chain(rot, shaped, parents, weights, regressor)
    loss = _scalarize(g, verts)
    cases.append((g, {"rot": new("rot", (2, 5, 3, 3)), "shaped": new("shaped", (2, 7, 3))}, loss))

    return cases


@pytest.mark.parametrize("seed", range(10))
def test_every_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for g, bindings, loss in _primitive_cases(rng):
        assert grad_check(g, bindings, loss, step=1e-6) < 1e-4


def test_forward_values_finite_on_finite_inputs():
    """evaluate gives finite values, and forward gives evaluate's bit for bit."""
    rng = np.random.default_rng(7)
    for g, bindings, loss in _primitive_cases(rng):
        vals = evaluate(g, bindings)
        for v in vals:
            assert np.all(np.isfinite(v))
        every = range(len(g.nodes))
        for got, want in zip(forward(g, bindings, every), vals, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        (only,) = forward(g, bindings, [loss])
        assert only.tobytes() == vals[loss].tobytes()


def _peak_bytes(run, graph) -> int:
    tracemalloc.start()
    try:
        run(graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_frees_values_that_evaluate_keeps():
    """Along a chain of elementwise nodes over a 1 MB array, forward's peak
    memory stays flat while evaluate's grows by one array per node."""
    x = np.ones(1 << 17)
    mb = x.nbytes

    def chain(length: int) -> Graph:
        g = Graph()
        node = g.leaf("x")
        for _ in range(length):
            node = g.scalar_mul(node, 1.0)
        return g

    def run_forward(g):
        forward(g, {"x": x}, [len(g.nodes) - 1])

    def run_evaluate(g):
        evaluate(g, {"x": x})

    short, long = chain(4), chain(16)
    assert _peak_bytes(run_forward, long) < _peak_bytes(run_forward, short) + mb // 2
    assert _peak_bytes(run_forward, long) < 3 * mb
    assert _peak_bytes(run_evaluate, long) > _peak_bytes(run_evaluate, short) + 10 * mb


def test_backward_forms_no_gradient_toward_a_constant():
    """matmul(const A, leaf W): the VJP toward A would be an array the size
    of A. Nothing trainable lies behind A, so it is never formed."""
    a = np.ones((2000, 2000))
    g = Graph()
    w = g.leaf("w", trainable=True)
    loss = g.mean_abs(g.matmul(g.const(a), w))
    bindings = {"w": np.ones((2000, 1))}
    tracemalloc.start()
    try:
        grads = backward(g, bindings, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(grads["w"], np.ones((2000, 1)), rtol=1e-12)
    assert peak < a.nbytes // 4


def test_pruned_backward_keeps_trainable_gradients_and_zero_fills_unreached_leaves():
    rng = np.random.default_rng(5)
    x, w, bias = rng.normal(size=(4, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)
    g = Graph()
    xn = g.leaf("x")
    h = g.relu(g.add(g.matmul(xn, g.leaf("w", trainable=True)), g.const(bias)))
    g.leaf("idle", trainable=True)
    loss = g.mean_abs(g.concat([h, g.scalar_mul(xn, 2.0)], axis=1))
    grads = backward(g, {"x": x, "w": w, "idle": np.ones(2)}, loss)
    pre = x @ w + bias
    np.testing.assert_allclose(grads["w"], x.T @ ((pre > 0) / 32.0), rtol=1e-12)
    np.testing.assert_array_equal(grads["idle"], np.zeros(2))


def test_rigid_chain_keeps_residuals_per_evaluate_call():
    """Residuals ride on each evaluate call's values, not on the graph, so
    re-evaluating with other bindings leaves earlier values' VJP intact."""
    rng = np.random.default_rng(9)
    g = Graph()
    rot = g.leaf("rot", trainable=True)
    shaped = g.leaf("shaped", trainable=True)
    weights = np.full((4, 3), 1.0 / 3.0)
    regressor = np.full((3, 4), 0.25)
    loss = _scalarize(g, g.rigid_chain(rot, shaped, (-1, 0, 1), weights, regressor))
    first = {"rot": rng.normal(size=(2, 3, 3, 3)), "shaped": rng.normal(size=(2, 4, 3))}
    second = {"rot": rng.normal(size=(2, 3, 3, 3)), "shaped": rng.normal(size=(2, 4, 3))}
    values = evaluate(g, first)
    assert set(values.residuals) == {len(g.nodes) - 4}
    want = backward(g, first, loss)
    evaluate(g, second)
    got = backward_from_values(g, values, loss)
    for name in ("rot", "shaped"):
        assert got[name].tobytes() == want[name].tobytes()


@pytest.mark.parametrize("parents", [(0, 0), (-1, 1)])  # no root; a joint that is its own parent
def test_rigid_chain_rejects_a_broken_tree(parents):
    g = Graph()
    with pytest.raises(ShapeMismatchError, match="rigid_chain parents"):
        g.rigid_chain(g.leaf("rot"), g.leaf("shaped"), parents, np.full((4, 2), 0.5), np.full((2, 4), 0.25))


@pytest.mark.parametrize("rot_shape,shaped_shape", [((1, 3, 3, 3), (1, 4, 3)), ((1, 2, 3, 3), (2, 4, 3))])
def test_rigid_chain_names_itself_on_mismatched_shapes(rot_shape, shaped_shape):
    g = Graph()
    node = g.rigid_chain(g.leaf("rot"), g.leaf("shaped"), (-1, 0), np.full((4, 2), 0.5), np.full((2, 4), 0.25))
    with pytest.raises(ShapeMismatchError, match=f"node {node} \\(rigid_chain\\)"):
        evaluate(g, {"rot": np.ones(rot_shape), "shaped": np.ones(shaped_shape)})


def test_forward_rejects_unknown_output_node():
    g = Graph()
    g.relu(g.leaf("x"))
    with pytest.raises(DiffcoreError, match="output node id 2"):
        forward(g, {"x": np.ones(2)}, [2])


def test_mask_select_gradient_scatters_rows():
    """Selecting a row mask's rows with take sends zero gradient to the others."""
    g = Graph()
    a = g.leaf("a", trainable=True)
    mask = np.array([True, False, True])
    loss = weighted_sum(g, g.take(a, np.flatnonzero(mask), 0), np.ones((2, 2)))
    grads = backward(g, {"a": np.ones((3, 2))}, loss)
    np.testing.assert_array_equal(grads["a"], [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("index", [[0, 2, 0], [[0, 1]], [-1, 0], [0.0, 1.0], np.array([True, False])])
def test_take_rejects_bad_index_at_build(index):
    g = Graph()
    a = g.leaf("a")
    with pytest.raises(ShapeMismatchError, match="take index"):
        g.take(a, index, 0)


def test_take_out_of_range_names_node():
    g = Graph()
    a = g.leaf("a")
    node = g.take(a, [0, 3], 1)
    with pytest.raises(ShapeMismatchError, match=f"node {node} \\(take\\).*index 3 out of range"):
        evaluate(g, {"a": np.ones((2, 3))})
    g2 = Graph()
    bad_axis = g2.take(g2.leaf("a"), slice(0, 1), 2)
    with pytest.raises(ShapeMismatchError, match=f"node {bad_axis} \\(take\\).*axis 2"):
        evaluate(g2, {"a": np.ones((2, 3))})


@st.composite
def _take_case(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    size = shape[axis]
    if draw(st.booleans()):
        start = draw(st.integers(0, size))
        index = slice(start, draw(st.integers(start, size)))
    else:
        index = draw(st.permutations(range(size)))[: draw(st.integers(0, size))]
    seed = draw(st.integers(0, 2**32 - 1))
    return shape, axis, index, seed


@settings(max_examples=200, deadline=None)
@given(_take_case())
def test_take_matches_numpy_and_its_vjp_is_the_adjoint(case):
    shape, axis, index, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    g = Graph()
    leaf = g.leaf("x", trainable=True)
    out = g.take(leaf, index, axis)
    picked = evaluate(g, {"x": x})[out]
    positions = np.arange(shape[axis])[index] if isinstance(index, slice) else np.asarray(index, dtype=int)
    np.testing.assert_array_equal(picked, np.take(x, positions, axis=axis))
    # <take(x), y> == <x, vjp(y)>, with the VJP read off a linear loss sum(take(x) * y)
    y = rng.normal(size=picked.shape)
    loss = weighted_sum(g, out, y)
    vjp = backward(g, {"x": x}, loss)["x"]
    assert vjp.shape == x.shape
    assert np.isclose(np.sum(picked * y), np.sum(x * vjp), rtol=1e-12, atol=1e-12)


def _alias_cases():
    """Graphs whose backward passes one gradient, or views of it, to several
    accumulators; each comes with its gradients worked out by hand."""
    rng = np.random.default_rng(11)
    x, y, w, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    cases = {}

    g = Graph()
    a = g.leaf("x", trainable=True)
    cases["add(x, x)"] = (g, weighted_sum(g, g.add(a, a), w), {"x": 2.0 * w})

    g = Graph()
    a = g.leaf("x", trainable=True)
    loss = g.add(weighted_sum(g, g.sub(a, a), w), weighted_sum(g, a, v))
    cases["sub(x, x)"] = (g, loss, {"x": v})

    g = Graph()
    a = g.leaf("x", trainable=True)
    chain = g.reshape(g.transpose(g.reshape(a, (2, 6))), (4, 3))
    expected = w.reshape(6, 2).T.reshape(3, 4)
    cases["reshape-transpose-reshape"] = (g, weighted_sum(g, chain, w.reshape(4, 3)), {"x": expected})

    g = Graph()
    a = g.leaf("x", trainable=True)
    both = np.concatenate([w, v])
    cases["concat(x, x)"] = (g, weighted_sum(g, g.concat([a, a], axis=0), both), {"x": w + v})

    g = Graph()
    a = g.leaf("x", trainable=True)
    loss = g.add(weighted_sum(g, g.take(a, [0, 2], 0), w[:2]), weighted_sum(g, g.take(a, [2, 1], 0), v[:2]))
    expected = np.zeros((3, 4))
    expected[[0, 2]] += w[:2]
    expected[[2, 1]] += v[:2]
    cases["two takes of x"] = (g, loss, {"x": expected})

    # add hands its one gradient to x and to y, and x takes a second term
    # later: an uncopied first term would add that term into y's gradient
    g = Graph()
    a, b = g.leaf("x", trainable=True), g.leaf("y", trainable=True)
    scaled = weighted_sum(g, a, v)  # built first, so the backward pass reaches it after the add
    loss = g.add(weighted_sum(g, g.add(a, b), w), scaled)
    cases["add(x, y), then x again"] = (g, loss, {"x": w + v, "y": w})
    return cases, {"x": x, "y": y}


@pytest.mark.parametrize("name", list(_alias_cases()[0]))
def test_gradients_passed_to_several_inputs_are_right_and_unaliased(name):
    cases, inputs = _alias_cases()
    g, loss, expected = cases[name]
    bindings = {k: inputs[k] for k in expected}
    values = evaluate(g, bindings)
    forward_values = list(values)  # the backward pass empties ``values``
    grads = backward_from_values(g, values, loss)
    assert sorted(grads) == sorted(expected)
    for leaf, want in expected.items():
        np.testing.assert_allclose(grads[leaf], want, rtol=1e-13, atol=1e-15)
    assert grad_check(g, bindings, loss) < 1e-6
    arrays = list(grads.values())
    for i, first in enumerate(arrays):
        for second in arrays[i + 1:]:
            assert not np.shares_memory(first, second)
        for value in forward_values:
            assert not np.shares_memory(first, value)


SRC = Path(__file__).resolve().parent.parent / "src" / "cycleadapt"
# builders no src/ module calls, each kept for a live test reference
TEST_ONLY_BUILDERS = {
    # tests/test_bodymodel.py::_node_by_node_body_graph stacks per-joint rows
    # with it to pin rigid_chain bit for bit; a recorded digest cannot stand
    # in, since rigid_chain's matmuls run through BLAS kernels whose bits
    # depend on the CPU
    "concat",
}


def _graph_builders() -> set:
    """Public Graph methods that add a node."""
    tree = ast.parse((SRC / "diffcore.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Graph"]
    return {
        f.name
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
        and not f.name.startswith("_")
        and any(isinstance(c, ast.Attribute) and c.attr == "_add" for c in ast.walk(f))
    }


def _builders_called_in_src() -> set:
    """Methods called on a name that a src/ function binds to Graph() or annotates as Graph."""
    called = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            graphs = {
                a.arg
                for a in fn.args.args + fn.args.kwonlyargs
                if isinstance(a.annotation, ast.Name) and a.annotation.id == "Graph"
            }
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if isinstance(node.value.func, ast.Name) and node.value.func.id == "Graph":
                        graphs.update(t.id for t in node.targets if isinstance(t, ast.Name))
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if isinstance(node.func.value, ast.Name) and node.func.value.id in graphs:
                        called.add(node.func.attr)
    return called


def test_every_graph_builder_is_called_from_src():
    """No op stays in Graph only for tests, apart from the listed references."""
    builders = _graph_builders()
    assert {"leaf", "matmul", "rot6d", "rigid_chain"} <= builders
    assert TEST_ONLY_BUILDERS <= builders
    unused = builders - _builders_called_in_src()
    assert unused == TEST_ONLY_BUILDERS, f"Graph builders no src/ module calls: {sorted(unused - TEST_ONLY_BUILDERS)}"
