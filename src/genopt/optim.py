"""Base optimizer direction rules and post-processing transforms.

Each rule maps a raw gradient to an update direction; the caller owns the
learning rate and applies ``w - eta * direction``. Keeping the direction
separate from the step size is what lets a single scalar line search serve
every optimizer here.

A state's buffers are one (dim,) vector, or with ``rows`` a (K, dim)
block holding K independent runs of one rule, one row per run. Each rule
checks its gradient and parameters against that buffer shape and for
finiteness, then runs its core (``_sgd_rule``, ``_adamw_rule``), which
the step loops call directly on values they have already checked. No
rule writes to its operands. Every rule is elementwise (clipping is per
row), so row k carries the bits the same rule gives run k on its own
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import (Array, DimensionMismatchError, check_finite,
                   check_setting, norm, operands)


@dataclass
class SgdState:
    """Momentum SGD with coupled weight decay (decay added to the gradient)."""

    dim: int
    momentum: float = 0.0
    weight_decay: float = 0.0
    rows: Optional[int] = None
    velocity: Array = field(init=False)

    def __post_init__(self):
        check_setting("problem.", "d", self.dim, "dim")
        for key in ("momentum", "weight_decay"):
            check_setting("optimizer.", key, getattr(self, key))
        self.velocity = np.zeros(_shape(self))

    def keep(self, rows) -> None:
        """Keep only the given rows of a block state."""
        self.velocity = self.velocity[rows]
        self.rows = len(self.velocity)


@dataclass
class AdamWState:
    """Adam moments with decoupled weight decay."""

    dim: int
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    rows: Optional[int] = None
    step_count: int = field(default=0, init=False)
    m: Array = field(init=False)
    v: Array = field(init=False)

    def __post_init__(self):
        check_setting("problem.", "d", self.dim, "dim")
        for key in ("beta1", "beta2", "weight_decay", "epsilon"):
            check_setting("optimizer.", key, getattr(self, key))
        self.m = np.zeros(_shape(self))
        self.v = np.zeros(_shape(self))

    def keep(self, rows) -> None:
        """Keep only the given rows of a block state."""
        self.m, self.v = self.m[rows], self.v[rows]
        self.rows = len(self.m)


def _shape(state):
    # a state's buffer shape: one vector, or a (rows, dim) block
    return (state.dim,) if state.rows is None else (state.rows, state.dim)


def _operands(state, raw_grad, w):
    # a rule's gradient and parameters: the state's buffer shape, all finite
    g, w = operands(raw_grad, w, shape=_shape(state))
    return check_finite(g, "gradient"), check_finite(w, "parameter")


def sgd_direction(state: SgdState, raw_grad: Array, w: Array) -> Array:
    """Advance the velocity buffer and return the update direction.

    Mutates ``state.velocity`` in place; the returned array is a copy, so
    callers may scale it freely.
    """
    return _sgd_rule(state, *_operands(state, raw_grad, w))


def _sgd_rule(state: SgdState, g: Array, w: Array) -> Array:
    # sgd_direction on checked operands: float64 arrays of the state's
    # buffer shape, all finite
    effective = g + state.weight_decay * w
    state.velocity *= state.momentum
    state.velocity += effective
    return state.velocity.copy()


def adamw_direction(state: AdamWState, raw_grad: Array, w: Array) -> Array:
    """One Adam moment update with bias correction, decay applied to w directly."""
    return _adamw_rule(state, *_operands(state, raw_grad, w))


def _adamw_rule(state: AdamWState, g: Array, w: Array) -> Array:
    # adamw_direction on checked operands, as for _sgd_rule
    state.step_count += 1
    t = state.step_count
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    direction = m_hat / (np.sqrt(v_hat) + state.epsilon)
    if state.weight_decay:
        direction = direction + state.weight_decay * w
    return direction


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class SignSgd:
    pass


@dataclass(frozen=True)
class ClipToNorm:
    max_norm: float

    def __post_init__(self):
        check_setting("post.", "max_norm", self.max_norm)


@dataclass(frozen=True)
class Mask:
    mask: tuple

    def __init__(self, mask):
        arr = np.asarray(mask, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("mask must be 1-D")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "mask", tuple(arr.tolist()))


PostProcessor = Union[Identity, SignSgd, ClipToNorm, Mask]


def post_process(pp: PostProcessor, g: Array) -> Array:
    """Apply a direction transform to a vector or to each row of a block.
    sign(0) is 0; clipping a zero vector returns it unchanged rather than
    dividing by its norm."""
    g = np.asarray(g, dtype=np.float64)
    if isinstance(pp, Identity):
        return g.copy()
    if isinstance(pp, SignSgd):
        return np.sign(g)
    if isinstance(pp, ClipToNorm):
        if g.ndim == 2:
            return np.array([post_process(pp, row) for row in g]
                            ).reshape(g.shape)
        g_norm = norm(g)
        if g_norm == 0.0:
            return g.copy()
        return g * min(pp.max_norm / g_norm, 1.0)
    if isinstance(pp, Mask):
        m = np.asarray(pp.mask)
        if m.shape != g.shape[-1:]:
            raise DimensionMismatchError(
                f"mask has shape {m.shape}, direction has shape {g.shape}"
            )
        return g * m
    raise TypeError(f"unsupported post-processor: {pp!r}")


def apply_step(w: Array, eta: float, direction: Array) -> Array:
    """Return w - eta * direction as a fresh array."""
    w, d = operands(w, direction)
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    out = w - eta * d
    return check_finite(out, "stepped parameters")
