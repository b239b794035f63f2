"""Adam, the cosine learning-rate schedule and the error every training loop
raises when its loss stops being finite.

Parameter sets are plain dicts of float64 arrays. `adam_step` is functional
over the parameters (returns a fresh dict) but advances the moment state in
place, so one `OptState` can persist across many stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvariantError(RuntimeError):
    """A training-loop precondition or store contract was violated, or a loss
    was not finite."""


@dataclass
class OptState:
    """Per-parameter first/second Adam moments plus the step counter."""

    m: dict
    v: dict
    step: int = 0


def adam_init(params: dict) -> OptState:
    return OptState(
        m={name: np.zeros_like(value) for name, value in params.items()},
        v={name: np.zeros_like(value) for name, value in params.items()},
    )


def adam_step(
    params: dict,
    grads: dict,
    state: OptState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict:
    """One bias-corrected Adam update; missing gradients count as zero."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    out = {}
    for name, p in params.items():
        g = np.asarray(grads.get(name, 0.0), dtype=np.float64)
        if g.shape != () and g.shape != p.shape:
            raise ValueError(f"adam_step: gradient for {name} has shape {g.shape}, parameter {p.shape}")
        m = state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        v = state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        out[name] = p - lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return out


def cosine_lr(step: int, total_steps: int, lr_start: float = 5e-5, lr_end: float = 1e-6) -> float:
    """Cosine annealing from lr_start at step 0 down to lr_end at total_steps."""
    if total_steps < 1:
        raise ValueError(f"cosine_lr: total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if lr_start < lr_end:
        raise ValueError("cosine_lr: lr_start must be >= lr_end")
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * step / total_steps))
