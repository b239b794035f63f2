import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleadapt.benchmark import HMR_CONFIG
from cycleadapt.hmrnet import hmr_init
from cycleadapt.optim import InvariantError, OptState, adam_init, adam_step, check_loss, cosine_lr


def _reference_adam(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The functional Adam update, fresh arrays throughout: the bits `adam_step`
    must reproduce. Returns (params, m, v, step)."""
    step += 1
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    new_p, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        new_m[name] = beta1 * m[name] + (1.0 - beta1) * g
        new_v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        new_p[name] = p - lr * (new_m[name] / c1) / (np.sqrt(new_v[name] / c2) + eps)
    return new_p, new_m, new_v, step


def _bits(arrays: dict) -> dict:
    return {name: (np.shape(a), np.asarray(a).tobytes()) for name, a in arrays.items()}


def test_cosine_endpoints():
    assert cosine_lr(0, 100, 5e-5, 1e-6) == 5e-5
    assert cosine_lr(100, 100, 5e-5, 1e-6) == pytest.approx(1e-6, abs=1e-20)
    assert cosine_lr(0, 1, 5e-5, 1e-6) == 5e-5 and cosine_lr(1, 1, 5e-5, 1e-6) == pytest.approx(1e-6, abs=1e-20)  # a one-step schedule
    assert all(cosine_lr(s, 10, 3e-5, 3e-5) == 3e-5 for s in range(11))  # lr_start == lr_end: constant


def test_cosine_midpoint_value():
    assert cosine_lr(50, 100, 5e-5, 1e-6) == pytest.approx(2.55e-5, abs=1e-15)


def test_cosine_is_monotone_decreasing():
    values = [cosine_lr(s, 200, 5e-5, 1e-6) for s in range(201)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_cosine_range_errors():
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 5e-5, 1e-6)
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 5e-5, 1e-6)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 5e-5, 1e-6)
    with pytest.raises(ValueError):
        cosine_lr(0, 10, lr_start=1e-6, lr_end=5e-5)


def test_adam_first_step_magnitude():
    # bias correction makes the first update equal lr * g / (|g| + eps')
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -3.0])}
    w0 = params["w"].copy()
    state = adam_init(params)
    adam_step(params, dict(grads), state, lr=0.1)
    expected = w0 - 0.1 * np.sign(grads["w"]) * (
        np.abs(grads["w"]) * (1.0 - 0.9) / (1.0 - 0.9)
    ) / (np.sqrt(np.abs(grads["w"]) ** 2 * (1.0 - 0.999) / (1.0 - 0.999)) + 1e-8)
    assert np.abs(params["w"] - expected).max() < 1e-12
    assert state.step == 1


def test_adam_zero_gradient_keeps_parameter():
    params = {"w": np.full((3, 2), 4.0)}
    w0 = params["w"].copy()
    state = adam_init(params)
    adam_step(params, {"w": np.zeros((3, 2))}, state, lr=0.5)
    assert np.array_equal(params["w"], w0)


@pytest.mark.parametrize(
    "grad_b, match",
    [(None, "no gradient for b$"), (0.0, r"gradient for b has shape \(\), parameter \(2,\)$")],
    ids=["missing", "0-d"],
)
def test_adam_step_refuses_a_missing_or_0d_gradient_before_any_change(grad_b, match):
    """A misspelled or missing name is not a zero update, nor is a 0-d
    gradient broadcast: either raises, naming the parameter, and leaves
    ``params``, ``grads`` and ``state`` as they were."""
    params = {"w": np.ones(4), "b": np.ones(2)}
    arrays, p = dict(params), _bits(params)
    state = adam_init(params)
    grads = {"w": np.ones(4)} if grad_b is None else {"w": np.ones(4), "b": grad_b}
    given = dict(grads)
    with pytest.raises(ValueError, match=match):
        adam_step(params, grads, state, lr=0.1)
    assert grads == given
    assert list(params) == list(arrays) and all(params[k] is arrays[k] for k in arrays)
    assert _bits(params) == p
    assert state.step == 0 and _bits(state.m) == _bits(adam_init(params).m) == _bits(state.v)


def test_adam_is_deterministic():
    rng = np.random.default_rng(0)
    params = {"w": rng.normal(size=(4, 3))}
    runs = []
    for _ in range(2):
        p = dict(params)
        state = adam_init(p)
        for t in range(5):
            g = {"w": np.sin(p["w"] + t)}
            adam_step(p, g, state, lr=0.01)
        runs.append(p["w"])
    assert np.array_equal(runs[0], runs[1])


def test_adam_shape_mismatch_raises():
    params = {"w": np.ones(4)}
    state = adam_init(params)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, {"w": np.ones(5)}, state, lr=0.1)


def test_adam_descends_a_quadratic():
    params = {"x": np.array([5.0])}
    state = adam_init(params)
    for _ in range(400):
        adam_step(params, {"x": 2.0 * params["x"]}, state, lr=0.05)
    assert abs(params["x"][0]) < 0.05


def test_state_persists_across_calls():
    params = {"x": np.array([1.0])}
    state = adam_init(params)
    adam_step(params, {"x": np.array([1.0])}, state, lr=0.1)
    adam_step(params, {"x": np.array([1.0])}, state, lr=0.1)
    assert state.step == 2
    assert isinstance(state, OptState)
    assert state.m["x"].shape == (1,)


def test_cosine_matches_formula_at_arbitrary_step():
    step, total = 37, 120
    expected = 1e-6 + 0.5 * (5e-5 - 1e-6) * (1.0 + math.cos(math.pi * step / total))
    assert cosine_lr(step, total, 5e-5, 1e-6) == expected


@st.composite
def _adam_runs(draw):
    """Parameter shapes (a 0-d one included), a step count, lr, and per step
    and parameter the decade of the gradient's scale."""
    shapes = draw(st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple), min_size=1, max_size=4))
    steps = draw(st.integers(1, 30))
    scales = draw(st.lists(st.lists(st.integers(-6, 2), min_size=len(shapes), max_size=len(shapes)),
                           min_size=steps, max_size=steps))
    lr = draw(st.floats(1e-6, 1.0))
    return shapes, scales, lr, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_adam_runs())
def test_adam_step_matches_the_functional_update_bit_for_bit(run):
    shapes, scales, lr, seed = run
    rng = np.random.default_rng(seed)
    params = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
    state = adam_init(params)
    ref_p, ref_m, ref_v, ref_step = dict(params), adam_init(params).m, adam_init(params).v, 0
    for row in scales:
        grads = {name: rng.normal(size=p.shape) * 10.0**decade for (name, p), decade in zip(params.items(), row)}
        adam_step(params, dict(grads), state, lr)
        ref_p, ref_m, ref_v, ref_step = _reference_adam(ref_p, grads, ref_m, ref_v, ref_step, lr)
        assert _bits(params) == _bits(ref_p)
        assert _bits(state.m) == _bits(ref_m)
        assert _bits(state.v) == _bits(ref_v)
        assert state.step == ref_step


@pytest.mark.parametrize("case", ["2.5 blocks", "fortran order"])
def test_blocked_adam_matches_the_functional_update_bit_for_bit(case):
    """Each parameter is updated in row blocks of 2**14 elements (64 rows of
    256 here): a 160-row parameter is two blocks and a half, its moments
    views of a Fortran-ordered array in one case."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=(160, 256))
    params = {"w": np.asfortranarray(w) if case == "fortran order" else w, "b": rng.normal(size=256)}
    state = adam_init(params)
    ref_p, ref_m, ref_v, ref_step = dict(params), adam_init(params).m, adam_init(params).v, 0
    for _ in range(4):
        grads = {"w": rng.normal(size=(160, 256)), "b": rng.normal(size=256)}
        adam_step(params, dict(grads), state, lr=0.01)
        ref_p, ref_m, ref_v, ref_step = _reference_adam(ref_p, grads, ref_m, ref_v, ref_step, 0.01)
        assert _bits(params) == _bits(ref_p)
        assert _bits(state.m) == _bits(ref_m)
        assert _bits(state.v) == _bits(ref_v)
    assert params["w"].flags.f_contiguous == (case == "fortran order")


def test_an_adam_step_on_the_standard_regressor_allocates_one_w0_and_one_block():
    """The step's temporaries are block-sized, so beside the gradients it
    holds the new parameter being built (w0, 1 MB, is the largest) and one
    block of 2**14 elements; whole-parameter quotients took about 2.1 MB."""
    tracemalloc.start()
    try:
        params = hmr_init(HMR_CONFIG, 0)
        state = adam_init(params)
        rng = np.random.default_rng(0)
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        adam_step(params, dict(grads), state, lr=1e-3)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        adam_step(params, dict(grads), state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = np.dtype(np.float64).itemsize << 14
    slack = 8 << 10  # the views, slices and dict entries of one step
    assert peak - held <= params["w0"].nbytes + block + slack, f"peak {peak - held} B over what the step started with"


def test_adam_step_never_writes_into_an_array_it_was_given():
    # the acceptance sweep and `ablate` hand one pretrained pair to several
    # runs, and each training loop steps a shallow copy of it
    rng = np.random.default_rng(3)
    params = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)}
    state = adam_init(params)
    given = []  # each step's parameter arrays, with their bytes
    for _ in range(3):
        old = dict(params)
        given.append((old, _bits(old)))
        grads = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)}
        given_grads = dict(grads)  # adam_step empties the dict it is given
        grad_bits = _bits(given_grads)
        assert adam_step(params, grads, state, lr=0.1) is None
        assert grads == {}
        assert list(params) == list(old)
        assert _bits(given_grads) == grad_bits
        for name, new in params.items():
            assert not np.shares_memory(new, old[name])
            assert not np.shares_memory(new, state.m[name]) and not np.shares_memory(new, state.v[name])
            assert not np.shares_memory(new, given_grads[name])
        for arrays, bits in given:
            assert _bits(arrays) == bits


def test_adam_step_with_a_rejected_gradient_leaves_the_state_untouched():
    rng = np.random.default_rng(4)
    params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
    state = adam_init(params)
    for _ in range(2):
        adam_step(params, {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}, state, lr=0.1)
    step, m, v = state.step, _bits(state.m), _bits(state.v)
    arrays, p = dict(params), _bits(params)
    grads = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=3)}
    given = dict(grads)
    with pytest.raises(ValueError, match="gradient for b has shape"):
        adam_step(params, grads, state, lr=0.1)
    assert list(grads) == list(given) and all(grads[k] is given[k] for k in given)
    assert list(params) == list(arrays) and all(params[k] is arrays[k] for k in arrays)
    assert _bits(params) == p
    assert state.step == step
    assert _bits(state.m) == m
    assert _bits(state.v) == v


def test_check_loss_names_the_net_and_its_completed_updates():
    state = adam_init({"w": np.zeros(2)})
    check_loss(np.float64(0.5), "regressor", state)  # finite: nothing happens
    state.step = 5
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvariantError) as info:
            check_loss(np.float64(value), "denoiser", state)
        assert str(info.value) == f"denoiser loss is {value} (Adam updates completed: 5)"
