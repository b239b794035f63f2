import numpy as np
import pytest

from cycleadapt import adapt
from cycleadapt.adapt import ResultStore
from cycleadapt.diffcore import Graph, backward, evaluate, grad_check
from cycleadapt.mdnet import (
    MdConfig,
    gaussian_filter_baseline,
    md_forward,
    md_forward_graph,
    md_init,
    md_loss_graph,
    md_param_shapes,
    md_pretrain,
    sample_mask,
)
from cycleadapt.mdnet import _check_mask
from cycleadapt.optim import InvariantError, adam_init

TINY = MdConfig(window=5, blocks=1)


def _toy_motions(pop_seed, phase_seed, count, length):
    """Sinusoids with population-fixed amplitude/frequency/offset per dim.

    Each motion differs only by a global phase, so a modest training set
    covers the family and held-out motions are genuinely in-distribution.
    """
    pop = np.random.default_rng(pop_seed)
    amps = pop.uniform(0.2, 0.5, size=144)
    freqs = pop.uniform(0.2, 0.45, size=144)
    offsets = pop.uniform(0.0, 2.0 * np.pi, size=144)
    rng = np.random.default_rng(phase_seed)
    t = np.arange(length)[:, None]
    return [
        amps * np.sin(2.0 * np.pi * freqs * t + offsets + rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(count)
    ]


def test_config_defaults_and_validation():
    config = MdConfig()
    assert (config.window, config.pose_dim, config.blocks) == (49, 144, 4)
    with pytest.raises(ValueError):
        MdConfig(window=0)
    with pytest.raises(TypeError):
        MdConfig(pose_dim=100)  # the pose width is a constant, not a setting
    with pytest.raises(ValueError):
        MdConfig(blocks=0)


def test_parameter_count_matches_formula():
    config = MdConfig()
    by_formula = 2 * (144 * 144 + 144) + 4 * (49 * 49 + 49 + 2 * 49)
    assert by_formula == 51952
    assert sum(np.prod(shape) for _, shape in md_param_shapes(config)) == by_formula
    params = md_init(config, 0)
    assert sum(p.size for p in params.values()) == by_formula


def test_init_is_deterministic():
    a = md_init(TINY, 9)
    b = md_init(TINY, 9)
    c = md_init(TINY, 10)
    for name in a:
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[name], c[name]) for name in a)
    assert np.array_equal(a["ln_g0"], np.ones(5))
    assert np.array_equal(a["b_in"], np.zeros(144))


def test_forward_preserves_shape():
    rng = np.random.default_rng(0)
    params = md_init(TINY, 0)
    out = md_forward(params, rng.normal(size=(5, 144)))
    assert out.shape == (5, 144)
    assert np.all(np.isfinite(out))
    one = MdConfig(window=1, blocks=1)
    assert md_forward(md_init(one, 0), rng.normal(size=(1, 144))).shape == (1, 144)


def test_masked_rows_cannot_leak(monkeypatch):
    """The denoiser's training step feeds the network zeros at masked rows."""
    seen = []
    build = adapt.md_forward_graph

    def md_forward_graph(g, config, theta_node):
        seen.append(g.nodes[theta_node].attrs["value"])
        return build(g, config, theta_node)

    monkeypatch.setattr(adapt, "md_forward_graph", md_forward_graph)
    rng = np.random.default_rng(2)
    params = md_init(TINY, 2)
    x = rng.normal(size=(5, 144))
    mask = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    garbled = x.copy()
    garbled[0] = 1e9
    garbled[2] = -3.0
    for window in (x, garbled):
        adapt.md_step(ResultStore(5), np.arange(5), window, mask, TINY, params, adam_init(params), 1e-4)
    assert len(seen) == 2  # one training graph per step; the write-back builds its own
    for net_input in seen:
        assert not net_input[mask == 1.0].any()
        assert np.array_equal(net_input[mask == 0.0], x[mask == 0.0])


def test_forward_is_time_permutation_sensitive():
    rng = np.random.default_rng(3)
    params = md_init(TINY, 3)
    x = rng.normal(size=(5, 144))
    rolled = np.roll(x, 1, axis=0)
    assert np.abs(md_forward(params, rolled) - md_forward(params, x)).max() > 1e-6


def test_forward_rejects_bad_shapes():
    params = md_init(TINY, 4)
    with pytest.raises(ValueError):
        md_forward(params, np.zeros((5, 10)))
    with pytest.raises(ValueError):
        md_forward(params, np.zeros((6, 144)))
    with pytest.raises(ValueError):
        md_forward(params, np.zeros(144))


def _reference_forward(params, x, config):
    """The documented architecture in plain numpy: pose FC, time blocks with layer norm, pose FC."""
    z = (x @ params["w_in"] + params["b_in"]).T
    for i in range(config.blocks):
        z = z @ params[f"w_t{i}"] + params[f"b_t{i}"]
        mu = z.mean(axis=-1, keepdims=True)
        var = np.mean((z - mu) ** 2, axis=-1, keepdims=True)
        z = (z - mu) * (1.0 / np.sqrt(var + 1e-5)) * params[f"ln_g{i}"] + params[f"ln_b{i}"]
    return z.T @ params["w_out"] + params["b_out"]


def test_graph_forward_matches_numpy():
    rng = np.random.default_rng(5)
    for config in (TINY, MdConfig(window=4, blocks=2)):
        params = md_init(config, 5)
        for name in params:
            if name.startswith(("b_", "ln_")):
                params[name] = params[name] + 0.5 * rng.normal(size=params[name].shape)
        x = rng.normal(size=(config.window, 144))
        g = Graph()
        out = md_forward_graph(g, config, g.const(x))
        reference = _reference_forward(params, x, config)
        assert np.array_equal(evaluate(g, params)[out], reference)
        assert np.array_equal(md_forward(params, x), reference)


def test_sample_mask_counts():
    rng = np.random.default_rng(0)
    mask = sample_mask(49, rng)
    assert mask.shape == (49,) and set(np.unique(mask)) <= {0.0, 1.0}
    assert mask.sum() == 25
    assert np.array_equal(sample_mask(1, rng), [1.0])
    for t in range(1, 201):
        assert sample_mask(t, rng).sum() == (t + 1) // 2
    with pytest.raises(ValueError):
        sample_mask(0, rng)


def test_sample_mask_is_uniform():
    rng = np.random.default_rng(123)
    counts = np.zeros(49)
    draws = 10_000
    for _ in range(draws):
        counts += sample_mask(49, rng)
    freq = counts / draws
    assert np.abs(freq - 25.0 / 49.0).max() < 0.02


def test_sample_mask_determinism():
    a = sample_mask(33, np.random.default_rng(7))
    b = sample_mask(33, np.random.default_rng(7))
    assert np.array_equal(a, b)


def md_selfsup_loss(theta_out, theta_in, mask) -> float:
    """Reference for `md_loss_graph`: (1/T) sum_t m_t * mean_h |out - in|."""
    out = np.asarray(theta_out, dtype=np.float64)
    inp = np.asarray(theta_in, dtype=np.float64)
    if out.shape != inp.shape or out.ndim != 2:
        raise ValueError(f"md_selfsup_loss: shapes {out.shape} vs {inp.shape}")
    m = _check_mask(mask, out.shape[0])
    per_row = np.abs(out - inp).mean(axis=1)
    return float((m * per_row).sum() / out.shape[0])


def test_selfsup_loss_zero_mask():
    rng = np.random.default_rng(6)
    out = rng.normal(size=(5, 144))
    inp = rng.normal(size=(5, 144))
    assert md_selfsup_loss(out, inp, np.zeros(5)) == 0.0


def test_selfsup_loss_hand_case():
    out = np.zeros((2, 144))
    inp = np.zeros((2, 144))
    out[0] = 0.4
    out[1] = 77.0
    loss = md_selfsup_loss(out, inp, np.array([1.0, 0.0]))
    assert abs(loss - 0.2) < 1e-15


def test_selfsup_loss_shape_errors():
    with pytest.raises(ValueError):
        md_selfsup_loss(np.zeros((3, 4)), np.zeros((4, 4)), np.zeros(3))
    with pytest.raises(ValueError):
        md_selfsup_loss(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros(2))


def test_loss_graph_matches_numpy():
    rng = np.random.default_rng(8)
    out_vals = rng.normal(size=(7, 144))
    target = rng.normal(size=(7, 144))
    mask = np.array([1.0, 0, 1, 0, 0, 1, 1])
    g = Graph()
    loss = md_loss_graph(g, g.const(out_vals), target, mask)
    got = float(evaluate(g, {})[loss])
    assert abs(got - md_selfsup_loss(out_vals, target, mask)) < 1e-15
    g2 = Graph()
    zero = md_loss_graph(g2, g2.const(out_vals), target, np.zeros(7))
    assert float(evaluate(g2, {})[zero]) == 0.0


def test_loss_graph_rejects_a_bad_mask():
    g = Graph()
    out = g.const(np.zeros((5, 144)))
    with pytest.raises(ValueError, match="does not match window 5"):
        md_loss_graph(g, out, np.zeros((5, 144)), np.zeros(4))
    with pytest.raises(ValueError, match="0 or 1"):
        md_loss_graph(g, out, np.zeros((5, 144)), np.full(5, 0.5))


def test_loss_gradient_zero_on_unmasked_rows():
    rng = np.random.default_rng(9)
    out_vals = rng.normal(size=(5, 144))
    target = rng.normal(size=(5, 144))
    mask = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    g = Graph()
    out_leaf = g.leaf("out", trainable=True)
    loss = md_loss_graph(g, out_leaf, target, mask)
    grads = backward(g, {"out": out_vals}, loss)
    assert np.array_equal(grads["out"][mask == 0.0], np.zeros((3, 144)))
    assert np.all(np.abs(grads["out"][mask == 1.0]) > 0)
    assert grad_check(g, {"out": out_vals}, loss, step=1e-6) < 1e-4


def test_network_grad_check_through_input():
    rng = np.random.default_rng(11)
    for config in (MdConfig(window=3, blocks=2), MdConfig(window=3, blocks=1)):
        params = md_init(config, 11)
        noisy = rng.normal(size=(3, 144))
        target = rng.normal(size=(3, 144))
        g = Graph()
        inp = g.leaf("inp", trainable=True)
        out = md_forward_graph(g, config, inp)
        for node in g.nodes:
            if node.kind == "leaf" and node.attrs["name"] != "inp":
                node.attrs["trainable"] = False  # hold the parameters; check the input gradient only
        assert [name for _, name in g.trainable_leaves()] == ["inp"]
        loss = md_loss_graph(g, out, target, np.array([1.0, 0.0, 1.0]))
        assert grad_check(g, {**params, "inp": noisy}, loss, step=1e-5) < 1e-4


def test_pretrain_curve_decreases_without_noise():
    config = MdConfig(window=8, blocks=1)
    motions = _toy_motions(0, 50, 40, 24)
    wins = 0
    for seed in range(10):
        params = md_init(config, seed)
        _, curve = md_pretrain(config, params, motions, sigma=0.0, steps=120, lr=3e-4, seed=seed)
        errs = [e for _, e in curve]
        assert len(errs) >= 5
        if all(b < a for a, b in zip(errs, errs[1:])):
            wins += 1
    assert wins >= 9


def test_pretrain_beats_identity_on_held_out():
    config = MdConfig(window=8, blocks=1)
    sigma = 0.1
    for seed in range(5):
        train = _toy_motions(1, 100 + seed, 40, 24)
        held = _toy_motions(1, 200 + seed, 4, 24)
        params, _ = md_pretrain(config, md_init(config, seed), train, sigma=sigma, steps=1000, lr=2e-3, seed=seed)
        rng = np.random.default_rng(300 + seed)
        net_err = []
        id_err = []
        for motion in held:
            clean = motion[:8]
            noisy = clean + sigma * rng.normal(size=clean.shape)
            net_err.append(np.abs(md_forward(params, noisy) - clean).mean())
            id_err.append(np.abs(noisy - clean).mean())
        assert float(np.mean(net_err)) < float(np.mean(id_err))


def test_pretrain_is_deterministic():
    config = MdConfig(window=6, blocks=1)
    motions = _toy_motions(2, 60, 3, 12)
    a_params, a_curve = md_pretrain(config, md_init(config, 0), motions, sigma=0.01, steps=5, seed=4)
    b_params, b_curve = md_pretrain(config, md_init(config, 0), motions, sigma=0.01, steps=5, seed=4)
    assert a_curve == b_curve
    for name in a_params:
        assert np.array_equal(a_params[name], b_params[name])


def test_pretrain_rejects_bad_inputs():
    config = MdConfig(window=6, blocks=1)
    params = md_init(config, 0)
    with pytest.raises(ValueError, match="no motions"):
        md_pretrain(config, params, [])
    with pytest.raises(ValueError, match="shorter"):
        md_pretrain(config, params, [np.zeros((3, 144))])
    with pytest.raises(ValueError, match="sigma"):
        md_pretrain(config, params, [np.zeros((6, 144))], sigma=-0.1)


def test_pretrain_stops_on_a_non_finite_loss():
    """One NaN in the only window makes the first step's loss NaN; pre-training
    raises instead of returning NaN weights."""
    config = MdConfig(window=5, blocks=1)
    motion = _toy_motions(1, 5, 3, 12)[0].copy()
    motion[2, 7] = np.nan
    with pytest.raises(InvariantError, match=r"denoiser loss is nan \(Adam updates completed: 0\)"):
        md_pretrain(config, md_init(config, 0), [motion], sigma=0.01, steps=3)


def test_gaussian_filter_keeps_constants():
    x = np.tile([1.5, -2.0, 0.25, 9.0], (9, 1))
    assert np.abs(gaussian_filter_baseline(x, 2.0) - x).max() < 1e-12


def test_gaussian_filter_impulse_center():
    offsets = np.arange(-3, 4)
    kernel = np.exp(-0.5 * offsets.astype(float) ** 2)
    kernel /= kernel.sum()
    x = np.zeros((11, 2))
    x[5, 0] = 1.0
    out = gaussian_filter_baseline(x, 1.0)
    assert abs(out[5, 0] - kernel[3]) < 1e-12
    assert abs(out[4, 0] - kernel[2]) < 1e-12


def test_gaussian_filter_preserves_linear_ramp_interior():
    x = np.arange(30.0)[:, None] * np.array([1.0, -0.5])
    out = gaussian_filter_baseline(x, 1.5)
    radius = int(np.ceil(4.5))
    assert np.abs(out[radius:-radius] - x[radius:-radius]).max() < 1e-9
    assert np.abs(out[0] - x[0]).max() > 1e-3


def test_gaussian_filter_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_filter_baseline(np.zeros((5, 2)), 0.0)
    with pytest.raises(ValueError):
        gaussian_filter_baseline(np.zeros(5), 1.0)
