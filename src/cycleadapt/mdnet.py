"""Masked motion denoiser over windows of consecutive pose vectors.

A window of T pose vectors forms a (T, 144) matrix. The network mixes first
across the pose axis, then across the time axis through a stack of blocks
(fully connected over time followed by a layer norm along time), then across
the pose axis again:

    FC(H -> H) -> transpose -> [FC(T -> T) + layer-norm] x M -> transpose -> FC(H -> H)

There are no activations between layers; setting ``ramp`` in the config
inserts a relu after each block for experiments. Self-supervision zeroes a
random half of the rows and asks the network to reproduce the original rows
at the masked positions (L1, per-row mean). Pre-training instead corrupts
every row with Gaussian noise and supervises the full output against the
clean window.

The network is written once, as the graph builder `md_forward_graph`;
`md_forward` builds that graph and runs it forward only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodymodel import THETA_SIZE
from . import diffcore
from .diffcore import Graph, forward
from .optim import InvariantError, adam_init, adam_step

LN_EPS = 1e-5


@dataclass(frozen=True)
class MdConfig:
    window: int = 49
    pose_dim: int = THETA_SIZE
    blocks: int = 4
    ramp: bool = False

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"MdConfig.window must be >= 1, got {self.window}")
        if self.pose_dim != THETA_SIZE:
            raise ValueError(f"MdConfig.pose_dim must be {THETA_SIZE}, got {self.pose_dim}")
        if self.blocks < 1:
            raise ValueError(f"MdConfig.blocks must be >= 1, got {self.blocks}")


def md_param_shapes(config: MdConfig) -> list:
    """(name, shape) pairs in declaration (and serialization) order."""
    t, h = config.window, config.pose_dim
    shapes = [("w_in", (h, h)), ("b_in", (h,))]
    for i in range(config.blocks):
        shapes += [(f"w_t{i}", (t, t)), (f"b_t{i}", (t,)), (f"ln_g{i}", (t,)), (f"ln_b{i}", (t,))]
    shapes += [("w_out", (h, h)), ("b_out", (h,))]
    return shapes


def md_init(config: MdConfig, seed: int) -> dict:
    """Seeded init: weights scaled by fan-in**-0.5, unit norm gains, zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in md_param_shapes(config):
        if name.startswith("w"):
            params[name] = rng.normal(size=shape) / np.sqrt(shape[0])
        elif name.startswith("ln_g"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    return params


def sample_mask(window: int, rng: np.random.Generator) -> np.ndarray:
    """0/1 vector with exactly ceil(window / 2) ones, positions uniform."""
    if window < 1:
        raise ValueError(f"sample_mask: window must be >= 1, got {window}")
    mask = np.zeros(window)
    mask[rng.choice(window, size=(window + 1) // 2, replace=False)] = 1.0
    return mask


def _check_mask(mask, window: int) -> np.ndarray:
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != (window,):
        raise ValueError(f"mask shape {m.shape} does not match window {window}")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    return m


def _block_count(params: dict) -> int:
    return sum(1 for name in params if name.startswith("w_t"))


def md_forward(params: dict, theta, mask=None, ramp: bool = False) -> np.ndarray:
    """Denoise one window; masked rows (if any) are zeroed before the network."""
    x = np.asarray(theta, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params["w_in"].shape[0]:
        raise ValueError(f"md_forward: expected (T, {params['w_in'].shape[0]}), got {x.shape}")
    window = params["w_t0"].shape[0]
    if x.shape[0] != window:
        raise ValueError(f"md_forward: window length {x.shape[0]} != configured {window}")
    if mask is not None:
        m = _check_mask(mask, window)
        x = np.where(m[:, None] > 0, 0.0, x)
    g = Graph()
    out = md_forward_graph(g, MdConfig(window=window, blocks=_block_count(params), ramp=ramp), g.const(x))
    return forward(g, params, [out])[0]


def md_forward_graph(g: Graph, config: MdConfig, theta_node: int) -> int:
    """Append the denoiser to ``g``; leaf names equal the parameter-dict keys.

    ``theta_node`` must evaluate to (window, pose_dim), already masked if the
    caller wants masking (the zeroing is data preparation, not a network op).
    """
    h = g.add(g.matmul(theta_node, g.leaf("w_in", trainable=True)), g.leaf("b_in", trainable=True))
    z = g.transpose(h)
    for i in range(config.blocks):
        z = g.add(g.matmul(z, g.leaf(f"w_t{i}", trainable=True)), g.leaf(f"b_t{i}", trainable=True))
        z = g.layer_norm(z, g.leaf(f"ln_g{i}", trainable=True), g.leaf(f"ln_b{i}", trainable=True), eps=LN_EPS)
        if config.ramp:
            z = g.relu(z)
    y = g.transpose(z)
    return g.add(g.matmul(y, g.leaf("w_out", trainable=True)), g.leaf("b_out", trainable=True))


def md_loss_graph(g: Graph, out_node: int, target, mask) -> int:
    """Masked reconstruction error against a constant target window:
    (1/T) sum_t m_t * mean_h |out - target|.

    Targets are the original rows, not the zeroed ones the network saw.
    """
    tgt = np.asarray(target, dtype=np.float64)
    m = _check_mask(mask, tgt.shape[0])
    picked = int(m.sum())
    if picked == 0:
        return g.const(np.float64(0.0))
    masked_diff = g.take(g.sub(out_node, g.const(tgt)), np.flatnonzero(m), 0)
    return g.scalar_mul(g.mean_abs(masked_diff), picked / tgt.shape[0])


def md_pretrain(
    config: MdConfig,
    params: dict,
    motions: list,
    sigma: float = 0.01,
    steps: int = 200,
    lr: float = 1e-3,
    seed: int = 0,
) -> tuple[dict, list]:
    """Denoising pre-training on clean motions.

    Each step corrupts one random window with N(0, sigma^2) noise and takes
    an Adam step on the unmasked full-window L1 against the clean window; a
    loss that is not finite raises `InvariantError`.
    Returns (params, curve) where curve holds (step, eval error) pairs for
    about six checkpoints, starting with the untrained network; the eval
    error is the denoising L1 on a fixed set of windows with fixed noise.
    """
    if sigma < 0:
        raise ValueError(f"md_pretrain: sigma must be >= 0, got {sigma}")
    if not motions:
        raise ValueError("md_pretrain: no motions given")
    t = config.window
    mats = []
    for k, motion in enumerate(motions):
        arr = np.asarray(motion, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != config.pose_dim:
            raise ValueError(f"md_pretrain: motion {k} has shape {arr.shape}")
        if arr.shape[0] < t:
            raise ValueError(f"md_pretrain: motion {k} is shorter than one window ({arr.shape[0]} < {t})")
        mats.append(arr)

    rng = np.random.default_rng(seed)
    eval_windows = []
    for k in range(min(8, 2 * len(mats))):
        arr = mats[k % len(mats)]
        start = int(rng.integers(arr.shape[0] - t + 1))
        eval_windows.append(arr[start : start + t])
    eval_noise = [sigma * rng.normal(size=(t, config.pose_dim)) for _ in eval_windows]

    def eval_error(p: dict) -> float:
        errs = [
            np.abs(md_forward(p, win + noise, ramp=config.ramp) - win).mean()
            for win, noise in zip(eval_windows, eval_noise)
        ]
        return float(np.mean(errs))

    params = dict(params)
    state = adam_init(params)
    every = max(1, -(-steps // 5))
    curve = [(0, eval_error(params))]
    for step in range(steps):
        arr = mats[int(rng.integers(len(mats)))]
        start = int(rng.integers(arr.shape[0] - t + 1))
        clean = arr[start : start + t]
        noisy = clean + sigma * rng.normal(size=clean.shape)
        g = Graph()
        out = md_forward_graph(g, config, g.const(noisy))
        loss = g.mean_abs(g.sub(out, g.const(clean)))
        # `diffcore.backward`, split to check the loss; called through the module
        # so that perfbench's probes time these calls as the denoiser's
        values = diffcore.evaluate(g, params)
        if not np.isfinite(values[loss]):
            raise InvariantError(f"denoiser loss is {float(values[loss])} at pre-training step {step + 1}")
        grads = diffcore.backward_from_values(g, values, loss)
        params = adam_step(params, grads, state, lr)
        if (step + 1) % every == 0 or step == steps - 1:
            curve.append((step + 1, eval_error(params)))
    return params, curve


def gaussian_filter_baseline(theta, std_frames: float) -> np.ndarray:
    """Per-dimension temporal Gaussian smoothing with edge replication."""
    if std_frames <= 0:
        raise ValueError(f"gaussian_filter_baseline: std_frames must be > 0, got {std_frames}")
    x = np.asarray(theta, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"gaussian_filter_baseline: expected (T, H), got {x.shape}")
    radius = int(np.ceil(3.0 * std_frames))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / std_frames) ** 2)
    kernel = kernel / kernel.sum()
    rows = x.shape[0]
    padded = np.concatenate([np.repeat(x[:1], radius, axis=0), x, np.repeat(x[-1:], radius, axis=0)])
    out = np.zeros_like(x)
    for i, weight in enumerate(kernel):
        out += weight * padded[i : i + rows]
    return out
