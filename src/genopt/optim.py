"""Base optimizer direction rules and post-processing transforms.

Each rule maps a raw gradient to an update direction; the caller owns the
learning rate and applies ``w - eta * direction``. Keeping the direction
separate from the step size is what lets a single scalar line search serve
every optimizer here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .core import (
    Array,
    DimensionMismatchError,
    as_param_vector,
    check_finite,
    norm,
)


@dataclass
class SgdState:
    """Momentum SGD with coupled weight decay (decay added to the gradient)."""

    dim: int
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: Array = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.velocity = np.zeros(self.dim)


@dataclass
class AdamWState:
    """Adam moments with decoupled weight decay."""

    dim: int
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = field(default=0, init=False)
    m: Array = field(init=False)
    v: Array = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must be in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must be in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)


def sgd_direction(state: SgdState, raw_grad: Array, w: Array) -> Array:
    """Advance the velocity buffer and return the update direction.

    Mutates ``state.velocity`` in place; the returned array is a copy, so
    callers may scale it freely.
    """
    g = as_param_vector(raw_grad, dim=state.dim)
    w = as_param_vector(w, dim=state.dim)
    effective = g + state.weight_decay * w
    state.velocity *= state.momentum
    state.velocity += effective
    return state.velocity.copy()


def adamw_direction(state: AdamWState, raw_grad: Array, w: Array) -> Array:
    """One Adam moment update with bias correction, decay applied to w directly."""
    g = as_param_vector(raw_grad, dim=state.dim)
    w = as_param_vector(w, dim=state.dim)
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
        if self.max_norm <= 0:
            raise ValueError("max_norm must be > 0")


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
    """Apply a direction transform. sign(0) is 0; clipping a zero vector
    returns it unchanged rather than dividing by its norm."""
    g = np.asarray(g, dtype=np.float64)
    if isinstance(pp, Identity):
        return g.copy()
    if isinstance(pp, SignSgd):
        return np.sign(g)
    if isinstance(pp, ClipToNorm):
        g_norm = norm(g)
        if g_norm == 0.0:
            return g.copy()
        return g * min(pp.max_norm / g_norm, 1.0)
    if isinstance(pp, Mask):
        m = np.asarray(pp.mask)
        if m.shape != g.shape:
            raise DimensionMismatchError(
                f"mask has shape {m.shape}, direction has shape {g.shape}"
            )
        return g * m
    raise TypeError(f"unsupported post-processor: {pp!r}")


def apply_step(w: Array, eta: float, direction: Array) -> Array:
    """Return w - eta * direction as a fresh array."""
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    if w.shape != d.shape:
        raise DimensionMismatchError(
            f"parameter shape {w.shape} != direction shape {d.shape}"
        )
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    out = w - eta * d
    return check_finite(out, "stepped parameters")
