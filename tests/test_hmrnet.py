import numpy as np
import pytest

from cycleadapt.bodymodel import body_forward_batch, build_toy_body, identity_pose
from cycleadapt.diffcore import Graph, backward, evaluate, grad_check
from cycleadapt.hmrnet import (
    OUTPUT_SIZE,
    HmrConfig,
    hmr_forward,
    hmr_forward_graph,
    hmr_init,
    hmr_loss_graph,
    hmr_param_shapes,
    keypoint_weights,
)

SMALL = HmrConfig(feature_dim=5, hidden_dim=6, num_hidden_layers=2)


def project_batch(cameras, points) -> np.ndarray:
    """Reference weak perspective: (B, 3) cameras against (B, N, 3) points."""
    k = np.asarray(cameras, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    return k[:, :1, None] * p[:, :, :2] + k[:, None, 1:]


def _loss_value(model, config, params, features, keypoints, **kw):
    g = Graph()
    feat = g.const(np.asarray(features, dtype=np.float64))
    theta, beta, cam = hmr_forward_graph(g, config, feat)
    loss = hmr_loss_graph(g, model, theta, beta, cam, len(features), keypoints, **kw)
    return float(evaluate(g, params)[loss])


def _l2d_oracle(model, params, features, keypoints, unweighted=False):
    theta, beta, cam = hmr_forward(params, features)
    _, joints = body_forward_batch(model, theta, beta)
    proj = project_batch(cam, joints)
    weights, targets = keypoint_weights(keypoints, unweighted=unweighted)
    per_joint = np.abs(proj - targets).mean(axis=2)
    return float((weights * per_joint).sum(axis=1).mean())


def test_config_defaults():
    config = HmrConfig()
    assert (config.feature_dim, config.hidden_dim, config.num_hidden_layers) == (512, 256, 3)


@pytest.mark.parametrize("field", ["feature_dim", "hidden_dim", "num_hidden_layers"])
def test_config_rejects_nonpositive(field):
    kwargs = {"feature_dim": 8, "hidden_dim": 8, "num_hidden_layers": 1, field: 0}
    with pytest.raises(ValueError):
        HmrConfig(**kwargs)


def test_param_shapes_chain_widths():
    shapes = dict(hmr_param_shapes(SMALL))
    assert shapes["w0"] == (5, 6)
    assert shapes["w1"] == (6, 6)
    assert shapes["b1"] == (6,)
    assert shapes["w_out"] == (6, OUTPUT_SIZE)
    assert shapes["b_out"] == (OUTPUT_SIZE,)
    assert [name for name, _ in hmr_param_shapes(SMALL)] == ["w0", "b0", "w1", "b1", "w_out", "b_out"]


def test_init_is_deterministic():
    a = hmr_init(SMALL, 7)
    b = hmr_init(SMALL, 7)
    c = hmr_init(SMALL, 8)
    assert set(a) == {name for name, _ in hmr_param_shapes(SMALL)}
    for name in a:
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[name], c[name]) for name in a if name != "b_out")


def test_zero_feature_gives_rest_pose_and_unit_camera():
    params = hmr_init(SMALL, 3)
    theta, beta, cam = hmr_forward(params, np.zeros((4, 5)))
    assert np.array_equal(theta, np.tile(identity_pose(24), (4, 1)))
    assert np.array_equal(beta, np.zeros((4, 10)))
    assert np.array_equal(cam, np.tile([1.0, 0.0, 0.0], (4, 1)))


def test_forward_shapes_and_finiteness():
    rng = np.random.default_rng(11)
    params = hmr_init(SMALL, 11)
    theta, beta, cam = hmr_forward(params, rng.normal(size=(9, 5)))
    assert theta.shape == (9, 144) and beta.shape == (9, 10) and cam.shape == (9, 3)
    for out in (theta, beta, cam):
        assert np.all(np.isfinite(out))


def test_single_row_matches_batch():
    rng = np.random.default_rng(4)
    params = hmr_init(SMALL, 4)
    features = rng.normal(size=(32, 5))
    theta, beta, cam = hmr_forward(params, features)
    for i in (0, 13, 31):
        t1, b1, c1 = hmr_forward(params, features[i : i + 1])
        assert np.abs(t1[0] - theta[i]).max() <= 1e-12
        assert np.abs(b1[0] - beta[i]).max() <= 1e-12
        assert np.abs(c1[0] - cam[i]).max() <= 1e-12


def test_forward_rejects_width_mismatch():
    params = hmr_init(SMALL, 0)
    with pytest.raises(ValueError, match="width"):
        hmr_forward(params, np.zeros((2, 7)))
    with pytest.raises(ValueError):
        hmr_forward(params, np.zeros(5))


def _reference_forward(params, x):
    """The documented architecture in plain numpy: relu MLP, then a 144/10/3 split."""
    h = x
    for i in range(SMALL.num_hidden_layers):
        h = np.maximum(h @ params[f"w{i}"] + params[f"b{i}"], 0.0)
    out = h @ params["w_out"] + params["b_out"]
    return out[:, :144], out[:, 144:154], out[:, 154:]


def test_graph_forward_matches_numpy():
    rng = np.random.default_rng(21)
    params = hmr_init(SMALL, 21)
    params["b0"] = params["b0"] + rng.normal(size=params["b0"].shape)
    features = rng.normal(size=(6, 5))
    g = Graph()
    nodes = hmr_forward_graph(g, SMALL, g.const(features))
    values = evaluate(g, params)
    for node, got, want in zip(nodes, hmr_forward(params, features), _reference_forward(params, features)):
        assert np.array_equal(values[node], want)
        assert np.array_equal(got, want)


def test_forward_graph_grad_check():
    rng = np.random.default_rng(31)
    params = hmr_init(SMALL, 31)
    params["b0"] = params["b0"] + 0.3 * rng.normal(size=params["b0"].shape)
    params["b1"] = params["b1"] + 0.3 * rng.normal(size=params["b1"].shape)
    g = Graph()
    theta, beta, cam = hmr_forward_graph(g, SMALL, g.const(rng.normal(size=(2, 5))))
    loss = g.add(g.add(g.mean_abs(theta), g.mean_abs(beta)), g.mean_abs(cam))
    assert grad_check(g, params, loss, step=1e-5) < 1e-4


def _loss_setup(seed, batch=3, joints=24, conf=None):
    rng = np.random.default_rng(seed)
    model = build_toy_body(seed, joints=joints, vertices=30)
    params = hmr_init(SMALL, seed)
    features = 0.3 * rng.normal(size=(batch, 5))
    kp = 0.5 * rng.normal(size=(batch, joints, 3))
    kp[:, :, 2] = rng.uniform(0.2, 1.0, size=(batch, joints)) if conf is None else conf
    return model, params, features, kp


def test_loss_zero_when_targets_match_outputs():
    model, params, features, kp = _loss_setup(9)
    theta, beta, cam = hmr_forward(params, features)
    _, joints = body_forward_batch(model, theta, beta)
    kp[:, :, :2] = project_batch(cam, joints)
    kp[:, :, 2] = 1.0
    loss = _loss_value(model, SMALL, params, features, kp, pseudo_theta=theta, pseudo_beta=beta)
    assert loss < 1e-12


def test_loss_parameter_term_arithmetic():
    model, params, features, kp = _loss_setup(10, conf=0.0)
    theta, beta, _ = hmr_forward(params, features)
    loss = _loss_value(
        model, SMALL, params, features, kp, pseudo_theta=theta - 2.0, pseudo_beta=beta + 1.0
    )
    assert abs(loss - 2.001) < 1e-12


def test_loss_matches_reprojection_oracle():
    model, params, features, kp = _loss_setup(12)
    pseudo_theta = hmr_forward(params, features)[0] + 0.5
    loss = _loss_value(model, SMALL, params, features, kp, pseudo_theta=pseudo_theta, pseudo_beta=np.zeros((3, 10)))
    beta = hmr_forward(params, features)[1]
    expected = 0.5 + 0.001 * np.abs(beta).mean() + _l2d_oracle(model, params, features, kp)
    assert abs(loss - expected) < 1e-9


def test_row_mask_pull_equals_pull_on_selected_rows_alone():
    model, params, features, kp = _loss_setup(13, batch=5, conf=0.0)
    theta, beta, _ = hmr_forward(params, features)
    rng = np.random.default_rng(13)
    pseudo_theta = theta + rng.normal(size=theta.shape)
    pseudo_beta = beta + rng.normal(size=beta.shape)
    rows = np.array([True, False, True, True, False])
    masked = _loss_value(
        model, SMALL, params, features, kp, pseudo_theta=pseudo_theta, pseudo_beta=pseudo_beta, rows=rows
    )
    alone = _loss_value(
        model, SMALL, params, features[rows], kp[rows],
        pseudo_theta=pseudo_theta[rows], pseudo_beta=pseudo_beta[rows],
    )
    expected = np.abs(theta - pseudo_theta)[rows].mean() + 0.001 * np.abs(beta - pseudo_beta)[rows].mean()
    assert abs(masked - alone) < 1e-12
    assert abs(masked - expected) < 1e-12
    none = _loss_value(
        model, SMALL, params, features, kp, pseudo_theta=pseudo_theta, pseudo_beta=pseudo_beta,
        rows=np.zeros(5, dtype=bool),
    )
    assert none == _loss_value(model, SMALL, params, features, kp) == 0.0


def test_row_mask_pull_sends_no_gradient_to_unselected_rows():
    model, _, _, kp = _loss_setup(17, batch=4)
    rng = np.random.default_rng(17)
    bindings = {
        "theta": np.tile(identity_pose(24), (4, 1)) + 0.1 * rng.normal(size=(4, 144)),
        "beta": 0.1 * rng.normal(size=(4, 10)),
        "cam": np.tile([1.0, 0.0, 0.0], (4, 1)),
    }
    rows = np.array([False, True, False, True])

    def grads(**pull):
        g = Graph()
        theta, beta, cam = (g.leaf(name, trainable=True) for name in ("theta", "beta", "cam"))
        loss = hmr_loss_graph(g, model, theta, beta, cam, 4, kp, **pull)
        return backward(g, bindings, loss)

    plain = grads()
    pulled = grads(pseudo_theta=np.zeros((4, 144)), pseudo_beta=np.zeros((4, 10)), rows=rows)
    for name in ("theta", "beta"):
        assert np.array_equal(pulled[name][~rows], plain[name][~rows])
        assert np.all(np.any(pulled[name][rows] != plain[name][rows], axis=1))


def test_zero_confidence_coordinates_cannot_leak():
    model, params, features, kp = _loss_setup(14)
    kp[:, ::3, 2] = 0.0
    garbled = kp.copy()
    garbled[:, ::3, :2] = 1e9
    garbled[0, 0, :2] = np.nan
    clean = _loss_value(model, SMALL, params, features, kp)
    dirty = _loss_value(model, SMALL, params, features, garbled)
    assert clean == dirty


def test_all_zero_confidence_skips_reprojection_term():
    model, params, features, kp = _loss_setup(15, conf=0.0)
    kp[:, :, :2] = 1e6
    theta, beta, _ = hmr_forward(params, features)
    pseudo_theta, pseudo_beta = theta + 1.5, beta - 2.0
    loss = _loss_value(model, SMALL, params, features, kp, pseudo_theta=pseudo_theta, pseudo_beta=pseudo_beta)
    expected = np.abs(theta - pseudo_theta).mean() + 0.001 * np.abs(beta - pseudo_beta).mean()
    assert abs(loss - expected) < 1e-12


def test_unweighted_flag_uses_indicator_weights():
    model, params, features, kp = _loss_setup(16)
    kp[:, :, 2] = np.linspace(0.05, 1.0, kp.shape[1])
    kp[:, 1, 2] = 0.0
    flat = kp.copy()
    flat[:, :, 2] = (kp[:, :, 2] > 0).astype(float)
    unweighted = _loss_value(model, SMALL, params, features, kp, unweighted=True)
    reference = _loss_value(model, SMALL, params, features, flat)
    weighted = _loss_value(model, SMALL, params, features, kp)
    assert unweighted == reference
    assert abs(unweighted - weighted) > 1e-9


def test_loss_nonnegative_over_seeds():
    for seed in range(6):
        model, params, features, kp = _loss_setup(seed)
        rng = np.random.default_rng(seed + 100)
        loss = _loss_value(
            model, SMALL, params, features, kp,
            pseudo_theta=rng.normal(size=(3, 144)), pseudo_beta=rng.normal(size=(3, 10)),
        )
        assert loss >= 0.0


def test_negative_gamma_rejected():
    model, params, features, kp = _loss_setup(17)
    with pytest.raises(ValueError, match="gamma"):
        _loss_value(model, SMALL, params, features, kp, gamma=-0.1)


def test_loss_grad_check_end_to_end():
    config = HmrConfig(feature_dim=4, hidden_dim=6, num_hidden_layers=1)
    rng = np.random.default_rng(23)
    model = build_toy_body(23, joints=24, vertices=24)
    params = hmr_init(config, 23)
    params["b0"] = params["b0"] + 0.3 * rng.normal(size=params["b0"].shape)
    features = 0.3 * rng.normal(size=(1, 4))
    kp = 0.5 * rng.normal(size=(1, 24, 3))
    kp[:, :, 2] = rng.uniform(0.3, 1.0, size=(1, 24))
    kp[:, 5:9, 2] = 0.0
    g = Graph()
    theta, beta, cam = hmr_forward_graph(g, config, g.const(features))
    loss = hmr_loss_graph(
        g, model, theta, beta, cam, 1, kp,
        pseudo_theta=identity_pose(24)[None] + 0.2, pseudo_beta=0.3 * np.ones((1, 10)),
    )
    assert grad_check(g, params, loss, step=1e-5) < 1e-4


def test_keypoint_weights_normalization():
    kp = np.zeros((2, 4, 3))
    kp[0, :, 2] = [0.5, 0.5, 1.0, 0.0]
    kp[0, :, 0] = [1.0, 2.0, 3.0, 4.0]
    weights, targets = keypoint_weights(kp)
    assert np.allclose(weights[0], [0.25, 0.25, 0.5, 0.0])
    assert np.array_equal(weights[1], np.zeros(4))
    assert targets[0, 3, 0] == 0.0 and targets[0, 2, 0] == 3.0
    with pytest.raises(ValueError, match="confidence"):
        keypoint_weights(np.full((1, 2, 3), 1.5))

