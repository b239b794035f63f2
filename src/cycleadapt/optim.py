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

Each parameter is updated in blocks of rows, slices along axis 0 of at most
2**14 elements, which are views whatever the array's memory layout. Every
op is elementwise, so the bits are those of the whole-array update, while a
step's temporaries are block-sized: beside the gradients it holds the new
parameter array it is filling and one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Adam's moment decays and denominator floor, the defaults of Kingma & Ba
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# adam_step updates each parameter in row blocks of at most this many
# elements (128 KB), so its temporaries are block-sized, not parameter-sized
_ADAM_BLOCK = 1 << 14


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


def _row_blocks(shape: tuple) -> list:
    """Index keys of the slices along axis 0 that `adam_step` updates one at a
    time: at most _ADAM_BLOCK elements each, or one row where a row is longer.
    A 0-d parameter is one block."""
    if not shape:
        return [...]
    rows = max(1, _ADAM_BLOCK // max(1, math.prod(shape[1:])))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


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
        p, new = params[name], np.empty_like(m)
        for key in _row_blocks(p.shape):
            _adam_block(p[key], g[key] if g.shape else g, m[key], v[key], new[key], lr, c1, c2)
        params[name] = new


def _adam_block(p, g, m, v, out, lr: float, c1: float, c2: float) -> None:
    """One block of an Adam update: ``m`` and ``v`` in place, the new
    parameter into ``out``. The ops are those of beta * m + (1 - beta) * g
    and p - lr * (m / c1) / (sqrt(v / c2) + eps), and all are elementwise,
    so any block gets the whole array's bits; one block-sized temporary is
    alive at a time."""
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    t = np.multiply(g, g, out=np.empty_like(v))
    t *= 1.0 - BETA2
    v += t
    den = np.divide(v, c2, out=t)
    np.sqrt(den, out=den)
    den += EPS
    np.divide(m, c1, out=out)
    out *= lr
    out /= den
    np.subtract(p, out, out=out)


def cosine_lr(step: int, total_steps: int, lr_start: float, lr_end: float) -> float:
    """Cosine annealing from lr_start at step 0 down to lr_end at total_steps."""
    if total_steps < 1:
        raise ValueError(f"cosine_lr: total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if lr_start < lr_end:
        raise ValueError("cosine_lr: lr_start must be >= lr_end")
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * step / total_steps))
