"""Shared primitives: parameter vectors, the objective contract, batch
selection, and per-iteration records.

Parameter vectors are plain 1-D float64 numpy arrays treated as immutable
values: every public operation returns a fresh array and validates that the
result is finite. Non-finite values raise ``NonFiniteError`` at the operation
boundary instead of propagating NaN into downstream state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

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
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("parameter vector must be 1-D with at least one entry")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(
            f"expected dimension {dim}, got {arr.size}"
        )
    if not all_finite(arr):
        raise NonFiniteError("parameter vector contains NaN or Inf")
    return arr


def check_finite(arr: Array, what: str) -> Array:
    if not all_finite(arr):
        raise NonFiniteError(f"{what} contains NaN or Inf")
    return arr


# ---------------------------------------------------------------------------
# batch selection

@dataclass(frozen=True)
class FullData:
    """Evaluate on the entire dataset."""


@dataclass(frozen=True)
class IndexSet:
    """Explicit, duplicate-free sample indices."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("IndexSet may not be empty")
        if len(set(idx)) != len(idx):
            raise ValueError("IndexSet indices must be duplicate-free")
        if any(i < 0 for i in idx):
            raise ValueError("IndexSet indices must be non-negative")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class SyntheticNoise:
    """Seeded uniform draw of ``batch_size`` samples without replacement.

    The drawn indices are sorted, so the same seed always yields the same
    evaluation bits, and batch_size == n reproduces the full dataset exactly.
    """

    seed: int
    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


BatchSelector = Union[FullData, IndexSet, SyntheticNoise]

FULL_DATA = FullData()


# ---------------------------------------------------------------------------
# objective contract

class Objective:
    """Evaluation interface implemented by every problem.

    ``loss`` and ``grad`` must be deterministic functions of ``(w, batch)``.
    ``loss_grad`` returns both from one evaluation; the default calls
    ``loss`` then ``grad``, and an override must return the same bits.
    No evaluation changes a later result, so implementations are safe for
    concurrent evaluation; a cache (the logistic problem keeps its last
    mini-batch) is allowed on that condition. ``batch`` is ignored by
    deterministic objectives.
    """

    dim: int = 0
    has_exact_hessian: bool = False
    has_hvp: bool = False
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

    def hessian(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        raise NotImplementedError("objective has no exact hessian")

    def hvp(self, w: Array, v: Array, batch: BatchSelector = FULL_DATA) -> Array:
        if self.has_exact_hessian:
            return self.hessian(w, batch) @ v
        raise NotImplementedError("objective has no hessian-vector product")


# ---------------------------------------------------------------------------
# iteration record

@dataclass(frozen=True)
class StepRecord:
    """One logged optimization step.

    ``eta_candidate`` is the raw fitted ratio b*/a* whenever a fit was
    attempted and produced one (accepted or not); ``fit_accepted`` tells
    whether it passed the guards and moved eta.
    """

    step: int
    loss: float
    eta: float
    grad_norm: float
    eta_candidate: Optional[float] = None
    fit_accepted: bool = False
    fit_r2: Optional[float] = None
