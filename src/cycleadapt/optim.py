"""Adam, the cosine learning-rate schedule and the loss guard every training
loop runs before it updates a net.

Parameter sets are plain dicts of float64 arrays. `adam_step` updates the
dict it is given, one parameter at a time, and writes only into arrays it
made itself: `OptState.made` records the array it last put under each name.
Where the dict still holds that array it is updated in place; anything else
there, such as the caller's own array on a loop's first update, is replaced
by a fresh array, which is recorded and updated in place from then on. So an
array passed in keeps its values, and a loop that must leave its caller's
dict untouched steps a shallow copy of it, allocating a parameter-sized
array only on its first update of each name. The moment arrays of
`OptState` are updated in place too, so one state persists across many
stages.

`adam_step` consumes the gradient dict it is given: it empties the dict once
every shape has passed, updates the smallest parameter first, and drops
each gradient once its parameter is updated. So where a step makes the
largest parameter's new array, it is built beside its own gradient alone.

A parameter larger than 2**14 elements is updated in blocks of rows, slices
along axis 0 of at most that many elements, which are views whatever the
array's memory layout. Every op is elementwise, so the bits are those of the
whole-array update, while a step's temporaries are block-sized: beside the
gradients still to use it holds two blocks, and a fresh parameter array only
where it makes one. A smaller parameter is one block, updated on its whole
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    writes the moments in place and counts its completed updates in ``step``.
    ``made`` maps each parameter name to the array `adam_step` last put under
    it, the one array of that name it may write into."""

    m: dict
    v: dict
    step: int = 0
    made: dict = field(default_factory=dict)


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
    time for a parameter of more than _ADAM_BLOCK elements: at most that many
    each, or one row where a row is longer."""
    rows = max(1, _ADAM_BLOCK // math.prod(shape[1:]))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


def adam_step(params: dict, grads: dict, state: OptState, lr: float) -> None:
    """One bias-corrected Adam update of ``params``, with one gradient of its
    shape per parameter. An entry that is the array ``state.made`` records
    for its name is updated in place; any other is replaced by a fresh
    array, which ``state.made`` then records. So no array passed in is
    written, nor any other array `adam_step` did not make. A missing
    gradient or one of the wrong shape raises before ``params``, ``grads``
    or ``state`` changes; otherwise ``grads`` is left empty, each gradient
    dropped once its parameter is updated, smallest parameter first."""
    checked = {}
    for name, p in params.items():
        if name not in grads:
            raise ValueError(f"adam_step: no gradient for {name}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient for {name} has shape {g.shape}, parameter {p.shape}")
        checked[name] = g, state.m[name], state.v[name]
    grads.clear()
    state.step += 1
    c1, c2 = 1.0 - BETA1**state.step, 1.0 - BETA2**state.step
    for name in sorted(checked, key=lambda name: params[name].size):
        (g, m, v), p = checked.pop(name), params[name]
        new = p if state.made.get(name) is p else np.empty_like(m)
        if p.size <= _ADAM_BLOCK:
            _adam_block(p, g, m, v, new, lr, c1, c2)
        else:
            for key in _row_blocks(p.shape):
                _adam_block(p[key], g[key], m[key], v[key], new[key], lr, c1, c2)
        params[name] = state.made[name] = new


def _adam_block(p, g, m, v, out, lr: float, c1: float, c2: float) -> None:
    """One block of an Adam update: ``m`` and ``v`` in place, the new
    parameter into ``out``, which may be ``p`` itself. The ops are those of
    beta * m + (1 - beta) * g and p - lr * (m / c1) / (sqrt(v / c2) + eps),
    and all are elementwise, so any block gets the whole array's bits; ``p``
    is read only by the last op, and at most two block-sized temporaries
    are alive at a time."""
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    t = np.multiply(g, g, out=np.empty_like(v))
    t *= 1.0 - BETA2
    v += t
    den = np.divide(v, c2, out=t)
    np.sqrt(den, out=den)
    den += EPS
    delta = m / c1
    delta *= lr
    delta /= den
    np.subtract(p, delta, out=out)


def cosine_lr(step: int, total_steps: int, lr_start: float, lr_end: float) -> float:
    """Cosine annealing from lr_start at step 0 down to lr_end at total_steps."""
    if total_steps < 1:
        raise ValueError(f"cosine_lr: total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if lr_start < lr_end:
        raise ValueError("cosine_lr: lr_start must be >= lr_end")
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * step / total_steps))
