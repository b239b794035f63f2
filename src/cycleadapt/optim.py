"""Adam, the cosine learning-rate schedule and the loss guard every training
loop runs before it updates a net.

Parameter sets are plain dicts of float64 arrays. `adam_step` updates the
dict it is given: it computes each parameter's new value as a fresh array
and puts it under that parameter's name, one at a time, so the old and the
new parameter set never exist side by side. It never writes into a
parameter array, so an array handed out earlier keeps its values; a loop
that must leave its caller's dict untouched steps a shallow copy of it. The
moment arrays of `OptState` are updated in place, so one state persists
across many stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Adam's moment decays and denominator floor, the defaults of Kingma & Ba
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class InvariantError(RuntimeError):
    """A training-loop precondition or store contract was violated, or a loss
    was not finite."""


@dataclass
class OptState:
    """Per-parameter first/second Adam moments plus the step counter; `adam_step`
    writes the moments in place and counts its completed updates in ``step``."""

    m: dict
    v: dict
    step: int = 0


def adam_init(params: dict) -> OptState:
    return OptState(
        m={name: np.zeros_like(value) for name, value in params.items()},
        v={name: np.zeros_like(value) for name, value in params.items()},
    )


def check_loss(value, net: str, state: OptState) -> None:
    """Raise `InvariantError` unless the loss is finite, naming the net and
    how many Adam updates ``state`` had completed."""
    if not np.isfinite(value):
        raise InvariantError(f"{net} loss is {float(value)} (Adam updates completed: {state.step})")


def adam_step(params: dict, grads: dict, state: OptState, lr: float) -> None:
    """One bias-corrected Adam update of ``params``; missing gradients count as
    zero. Each entry is replaced by a fresh array, and no array passed in is
    written. A gradient of the wrong shape raises before ``params`` or
    ``state`` changes."""
    checked = {}
    for name, p in params.items():
        g = np.asarray(grads.get(name, 0.0), dtype=np.float64)
        if g.shape != () and g.shape != p.shape:
            raise ValueError(f"adam_step: gradient for {name} has shape {g.shape}, parameter {p.shape}")
        checked[name] = g, state.m[name], state.v[name]
    state.step += 1
    c1, c2 = 1.0 - BETA1**state.step, 1.0 - BETA2**state.step
    for name, (g, m, v) in checked.items():
        # beta * m + (1 - beta) * g and p - lr * (m / c1) / (sqrt(v / c2) + eps), op for op
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        den = np.divide(v, c2, out=np.empty_like(v))
        np.sqrt(den, out=den)
        den += EPS
        upd = np.divide(m, c1, out=np.empty_like(m))
        upd *= lr
        upd /= den
        params[name] = np.subtract(params[name], upd, out=upd)


def cosine_lr(step: int, total_steps: int, lr_start: float = 5e-5, lr_end: float = 1e-6) -> float:
    """Cosine annealing from lr_start at step 0 down to lr_end at total_steps."""
    if total_steps < 1:
        raise ValueError(f"cosine_lr: total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if lr_start < lr_end:
        raise ValueError("cosine_lr: lr_start must be >= lr_end")
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * step / total_steps))
