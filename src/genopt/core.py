"""Shared primitives: parameter vectors, the settings table, the objective
contract, batch selection, and per-iteration records.

Parameter vectors are plain 1-D float64 numpy arrays treated as immutable
values: every public operation returns a fresh array and validates that the
result is finite. Non-finite values raise ``NonFiniteError`` at the operation
boundary instead of propagating NaN into downstream state.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

Array = np.ndarray


class NonFiniteError(ValueError):
    """An operation produced or received NaN/Inf."""


class DimensionMismatchError(ValueError):
    """Vector dimensions disagree."""


def all_finite(arr):
    """The truth value of ``np.all(np.isfinite(arr))`` for any array-like.

    Counting the finite entries skips the reduction machinery of
    ``np.all``, which dominates the cost of a check on a short vector.
    """
    f = np.isfinite(arr)
    return np.count_nonzero(f) == f.size


def norm(v: Array) -> float:
    """Euclidean norm of a 1-D float64 array: the bits of ``np.linalg.norm``.

    numpy computes the 2-norm of a float vector as ``sqrt(v . v)``; calling
    the dot product directly skips the wrapper's dispatch. Overflow of the
    squared sum gives inf, and a NaN entry gives NaN, as in numpy.
    """
    return math.sqrt(float(v.dot(v)))


def as_param_vector(values, dim: Optional[int] = None) -> Array:
    """Validate ``values`` as a finite 1-D float64 vector and return a copy."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise DimensionMismatchError(
            f"parameter vector must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("parameter vector must have at least one entry")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(
            f"expected dimension {dim}, got {arr.size}"
        )
    if not all_finite(arr):
        raise NonFiniteError("parameter vector contains NaN or Inf")
    return arr


def operands(first, *rest, shape: Optional[tuple] = None) -> List[Array]:
    """The operands of a public entry as float64 arrays, without a copy of
    one that already is; ``DimensionMismatchError`` unless they share one
    shape, ``shape`` when given."""
    arr = np.asarray(first, dtype=np.float64)
    want = arr.shape if shape is None else shape
    arrs = [arr]
    for value in rest:  # each array is checked before the next converts
        if arr.shape != want:
            break
        arr = np.asarray(value, dtype=np.float64)
        arrs.append(arr)
    if arr.shape != want:
        raise DimensionMismatchError(
            f"expected operands of shape {want}, got {arr.shape}")
    return arrs


def finite_array(arr: Array) -> bool:
    """``all_finite`` for a float64 array, in one call on a vector.

    A sum of squares is finite only when every entry is: an Inf entry
    makes it Inf and a NaN makes it NaN. So a finite ``arr . arr`` proves
    a vector finite; one that overflows or is NaN, and a block, get the
    entrywise check. A sum that overflows is reported under numpy's error
    state like any other overflow (the step loops ignore it).
    """
    return (arr.ndim == 1 and math.isfinite(arr.dot(arr))) or all_finite(arr)


def check_finite(arr: Array, what: str) -> Array:
    if not finite_array(arr):
        raise NonFiniteError(f"{what} contains NaN or Inf")
    return arr


# ---------------------------------------------------------------------------
# settings

def _is_num(x) -> bool:
    # a real number, numpy scalars included, and never a bool
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool))


def _is_finite_num(x) -> bool:
    try:
        return _is_num(x) and math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1", False)
_SEED = (lambda v: _is_int(v) and v >= 0, "a non-negative integer", False)
_UNIT = (lambda v: _is_num(v) and 0.0 <= v < 1.0, "in [0, 1)", True)
_AT_LEAST_0 = (lambda v: _is_finite_num(v) and v >= 0,
               "a finite number >= 0", True)
_ABOVE_0 = (lambda v: _is_finite_num(v) and v > 0, "a finite number > 0", True)

# config section -> setting -> (test, requirement, takes_float_hint), in
# check order; "" is the experiment root. A library argument that is also
# a setting checks through the same entry (``check_setting``).
# takes_float_hint marks the numbers a config may have written as a string
# that YAML 1.1 does not read as a float.
SETTINGS = {
    "problem.": dict(seed=_SEED, n=(lambda v: _is_int(v) and v >= 2,
                                    "an integer >= 2", False),
                     d=_COUNT, l2_penalty=_AT_LEAST_0),
    "optimizer.": dict(momentum=_UNIT, beta1=_UNIT, beta2=_UNIT,
                       weight_decay=_AT_LEAST_0, epsilon=_ABOVE_0),
    "post.": dict(max_norm=_ABOVE_0),
    "gen.": dict(
        eta0=(lambda v: v == "auto" or _ABOVE_0[0](v),
              "a positive finite number or 'auto'", True),
        gamma=_UNIT, phi=_COUNT,
        probe_points=(lambda v: _is_int(v) and v in (3, 5), "3 or 5", False),
        r2_threshold=(lambda v: _is_num(v) and 0.0 < v <= 1.0, "in (0, 1]",
                      True),
        decay=(lambda v: isinstance(v, bool), "a boolean", False),
        estimator=(lambda v: v in ("fit", "hvp"), "'fit' or 'hvp'", False)),
    "": dict(iterations=_COUNT, seed=_SEED, log_every=_COUNT,
             eta=(_ABOVE_0[0], "a positive finite number", True),
             batch_size=_COUNT),
}


def check_setting(section: str, key: str, value, name: Optional[str] = None):
    """Raise ``ValueError("<name> must be <requirement>")`` unless ``value``
    passes the rule of ``SETTINGS[section][key]``; ``name`` defaults to
    ``key``."""
    test, requirement, _ = SETTINGS[section][key]
    if not test(value):
        raise ValueError(f"{name or key} must be {requirement}")


# ---------------------------------------------------------------------------
# batch selection

@dataclass(frozen=True)
class FullData:
    """Evaluate on the entire dataset."""


@dataclass(frozen=True)
class SyntheticNoise:
    """Seeded uniform draw of ``batch_size`` samples without replacement.

    The drawn indices are sorted, so the same seed always yields the same
    evaluation bits, and batch_size == n reproduces the full dataset exactly.
    """

    seed: int
    batch_size: int

    def __post_init__(self):
        check_setting("problem.", "seed", self.seed)
        check_setting("", "batch_size", self.batch_size)


BatchSelector = Union[FullData, SyntheticNoise]

FULL_DATA = FullData()

# The mini-batches of the command running now, as (child seeds, indices):
# harness._step_batch's child seeds of each (seed, block of steps), and
# the sorted row indices of each (selector seed, batch size, n) draw. A
# draw is a pure function of its key, so runs that share one change no
# bit. None outside ``batch_stream``, so a lone run draws its own batches.
_BATCH_STREAM: ContextVar[Optional[Tuple[dict, dict]]] = ContextVar(
    "batch_stream", default=None)


@contextlib.contextmanager
def batch_stream():
    """Draw each mini-batch once across the runs made inside; leaving
    drops the draws. The stream keeps child seeds and row indices (8
    bytes per batch row), never the rows."""
    token = _BATCH_STREAM.set(({}, {}))
    try:
        yield
    finally:
        _BATCH_STREAM.reset(token)


# ---------------------------------------------------------------------------
# objective contract

class Objective:
    """Evaluation interface implemented by every problem.

    ``loss`` and ``grad`` must be deterministic functions of ``(w, batch)``.
    ``loss_grad`` returns both from one evaluation; the default calls
    ``loss`` then ``grad``, and an override must return the same bits.
    ``loss_grad_rows`` evaluates a (K, dim) block of parameter rows at
    once: row k of its losses and gradients carries the bits of
    ``loss_grad(ws[k], batch)``, and without ``grad`` its losses carry
    those of ``loss``. The default loops ``loss_grad`` (or ``loss``) over
    the rows; an override must return the same bits.
    ``hvp(w, v, batch)`` returns ``hessian(w, batch) @ v`` on the same
    batch rows; the default multiplies the two, and an override (the
    logistic problem's never forms the Hessian) must return the same
    values up to rounding.
    No evaluation changes a later result, so implementations are safe for
    concurrent evaluation; a cache (the logistic problem keeps its last
    mini-batch draw and its last forward pass) is allowed on that
    condition. ``batch`` is ignored by
    deterministic objectives.
    """

    dim: int = 0
    # known global minimizer, when the problem has one in closed form
    known_minimizer: Optional[Array] = None
    default_start: Optional[Array] = None

    def loss(self, w: Array, batch: BatchSelector = FULL_DATA) -> float:
        raise NotImplementedError

    def grad(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        raise NotImplementedError

    def loss_grad(self, w: Array, batch: BatchSelector = FULL_DATA
                  ) -> Tuple[float, Array]:
        return float(self.loss(w, batch)), self.grad(w, batch)

    def loss_grad_rows(self, ws: Array, batch: BatchSelector = FULL_DATA,
                       grad: bool = True) -> Tuple[Array, Optional[Array]]:
        if not grad:
            return np.array([float(self.loss(w, batch)) for w in ws]), None
        pairs = [self.loss_grad(w, batch) for w in ws]
        return (np.array([float(loss) for loss, _ in pairs]),
                np.array([g for _, g in pairs], dtype=np.float64))

    def hessian(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        raise NotImplementedError("objective has no exact hessian")

    def hvp(self, w: Array, v: Array, batch: BatchSelector = FULL_DATA) -> Array:
        w, v = operands(w, v)
        return self.hessian(w, batch) @ v


# ---------------------------------------------------------------------------
# iteration record

@dataclass(frozen=True, slots=True)
class StepRecord:
    """One logged optimization step.

    ``eta_candidate`` is the raw fitted ratio b*/a* whenever a fit was
    attempted and produced one (accepted or not); ``fit_accepted`` tells
    whether it passed the guards and moved eta. A run keeps its logged
    steps packed and builds these records when they are read.
    """

    step: int
    loss: float
    eta: float
    grad_norm: float
    eta_candidate: Optional[float] = None
    fit_accepted: bool = False
    fit_r2: Optional[float] = None
