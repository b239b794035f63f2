"""Per-frame regressor from a feature vector to body and camera parameters.

A small fully-connected relu network stands in for the usual image backbone:
features (F) -> hidden (H) x num_hidden_layers -> 157 outputs split as 144
pose reals, 10 shape reals, and 3 camera reals. The final bias is set so a
zero feature yields the rest pose with a unit camera, which keeps early
adaptation steps in the valid region of the 6D rotation decoder.

The network is written once, as the graph builder `hmr_forward_graph`;
`hmr_forward` builds that graph and runs it forward only.

The adaptation loss combines an L1 pull toward stored pseudo-ground-truth
parameters with a confidence-weighted L1 reprojection error against 2D
keypoints; both use mean reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodymodel import BETA_SIZE, THETA_SIZE, BodyModel, body_graph, identity_pose, project_graph
from .diffcore import Graph, forward

CAMERA_SIZE = 3
OUTPUT_SIZE = THETA_SIZE + BETA_SIZE + CAMERA_SIZE


@dataclass(frozen=True)
class HmrConfig:
    feature_dim: int = 512
    hidden_dim: int = 256
    num_hidden_layers: int = 3

    def __post_init__(self) -> None:
        for name in ("feature_dim", "hidden_dim", "num_hidden_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"HmrConfig.{name} must be positive")


def hmr_param_shapes(config: HmrConfig) -> list:
    """(name, shape) pairs in declaration (and serialization) order."""
    shapes = []
    width = config.feature_dim
    for i in range(config.num_hidden_layers):
        shapes.append((f"w{i}", (width, config.hidden_dim)))
        shapes.append((f"b{i}", (config.hidden_dim,)))
        width = config.hidden_dim
    shapes.append(("w_out", (width, OUTPUT_SIZE)))
    shapes.append(("b_out", (OUTPUT_SIZE,)))
    return shapes


def hmr_init(config: HmrConfig, seed: int) -> dict:
    """Seeded init: weights scaled by fan-in**-0.5, rest-pose output bias."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in hmr_param_shapes(config):
        if name.startswith("w"):
            params[name] = rng.normal(size=shape) / np.sqrt(shape[0])
        else:
            params[name] = np.zeros(shape)
    params["b_out"] = np.concatenate([identity_pose(THETA_SIZE // 6), np.zeros(BETA_SIZE), [1.0, 0.0, 0.0]])
    return params


def _layer_count(params: dict) -> int:
    return sum(1 for name in params if name.startswith("w") and name[1:].isdigit())


def hmr_forward(params: dict, features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch forward pass: (B, F) features to (B, 144), (B, 10), (B, 3)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"hmr_forward: features must be (B, F), got {x.shape}")
    width, hidden = params["w0"].shape
    if x.shape[1] != width:
        raise ValueError(f"hmr_forward: feature width {x.shape[1]} != network input width {width}")
    config = HmrConfig(feature_dim=width, hidden_dim=hidden, num_hidden_layers=_layer_count(params))
    g = Graph()
    return tuple(forward(g, params, hmr_forward_graph(g, config, g.const(x))))


def hmr_forward_graph(g: Graph, config: HmrConfig, feature_node: int) -> tuple[int, int, int]:
    """Append the network to ``g`` with one trainable leaf per parameter.

    Leaf names equal the parameter-dict keys, so an `hmr_init` dict binds
    directly. Returns node ids for (theta, beta, camera).
    """
    h = feature_node
    for i in range(config.num_hidden_layers):
        w = g.leaf(f"w{i}", trainable=True)
        b = g.leaf(f"b{i}", trainable=True)
        h = g.relu(g.add(g.matmul(h, w), b))
    out = g.add(g.matmul(h, g.leaf("w_out", trainable=True)), g.leaf("b_out", trainable=True))
    theta = g.take(out, slice(0, THETA_SIZE), -1)
    beta = g.take(out, slice(THETA_SIZE, THETA_SIZE + BETA_SIZE), -1)
    camera = g.take(out, slice(OUTPUT_SIZE - CAMERA_SIZE, OUTPUT_SIZE), -1)
    return theta, beta, camera


def keypoint_weights(keypoints) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame normalized confidence weights and sanitized (x, y) targets.

    Weights sum to 1 per frame (or are all zero when no keypoint has
    confidence); coordinates at zero-confidence slots are zeroed so that
    whatever garbage they held can never reach the loss.
    """
    kp = np.asarray(keypoints, dtype=np.float64)
    if kp.ndim != 3 or kp.shape[2] != 3:
        raise ValueError(f"keypoint_weights: expected (B, J, 3), got {kp.shape}")
    conf = kp[:, :, 2]
    if np.any(conf < 0) or np.any(conf > 1):
        raise ValueError("keypoint_weights: confidences must lie in [0, 1]")
    sums = conf.sum(axis=1, keepdims=True)
    weights = np.divide(conf, sums, out=np.zeros_like(conf), where=sums > 0)
    targets = np.where(conf[:, :, None] > 0, kp[:, :, :2], 0.0)
    return weights, targets


def hmr_loss_graph(
    g: Graph,
    model: BodyModel,
    theta_node: int,
    beta_node: int,
    camera_node: int,
    batch: int,
    keypoints,
    pseudo_theta=None,
    pseudo_beta=None,
    gamma: float = 0.001,
    rows=None,
) -> int:
    """Scalar adaptation loss node: L1 pseudo-parameter term + weighted L1 reprojection.

    The parameter term is dropped when no pseudo targets are given. A
    boolean ``rows`` mask over the batch restricts it to the rows set there,
    and drops it when none is set. The reprojection term is exactly zero
    when every confidence is zero.
    """
    if gamma < 0:
        raise ValueError(f"hmr_loss_graph: gamma must be >= 0, got {gamma}")
    weights, targets = keypoint_weights(keypoints)
    n_joints = weights.shape[1]
    if n_joints != model.joint_count:
        raise ValueError(f"hmr_loss_graph: {n_joints} keypoints for a {model.joint_count}-joint body")

    if np.all(weights == 0.0):
        loss_2d = g.const(np.float64(0.0))
    else:
        _, joints = body_graph(g, model, theta_node, beta_node, batch)
        projected = project_graph(g, camera_node, joints, batch)
        residual = g.sub(projected, g.const(targets))
        weighted = g.mul(residual, g.const(weights[:, :, None]))
        loss_2d = g.scalar_mul(g.mean_abs(weighted), float(n_joints))

    if pseudo_theta is None or (rows is not None and not np.any(rows)):
        return loss_2d

    def pull(node: int, target) -> int:
        target = np.asarray(target, dtype=np.float64)
        if rows is not None:
            node, target = g.take(node, np.flatnonzero(rows), 0), target[np.asarray(rows, dtype=bool)]
        return g.mean_abs(g.sub(node, g.const(target)))

    loss_theta = pull(theta_node, pseudo_theta)
    loss_beta = g.scalar_mul(pull(beta_node, pseudo_beta), gamma)
    return g.add(g.add(loss_theta, loss_beta), loss_2d)
