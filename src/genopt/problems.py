"""Benchmark objectives with analytic gradients and Hessians.

Two fixed 2-D test functions (a banana-shaped valley and a three-term
least-squares surface), a general SPD quadratic family on which the local
quadratic model is exact, and a seeded logistic-regression problem for
mini-batch studies.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import kernels
from .core import (
    _BATCH_STREAM,
    Array,
    BatchSelector,
    FULL_DATA,
    FullData,
    DimensionMismatchError,
    Objective,
    SyntheticNoise,
    as_param_vector,
    check_setting,
    finite_array,
    operands,
)


class RosenbrockProblem(Objective):
    """f(x1, x2) = 100*(x2 - x1^2)^2 + (1 - x1)^2, minimum at (1, 1)."""

    dim = 2

    def __init__(self):
        self.known_minimizer = np.array([1.0, 1.0])
        self.default_start = np.array([-1.5, 2.0])

    def loss(self, w: Array, batch: BatchSelector = FULL_DATA) -> float:
        x1, x2 = _unpack2(w)
        return float(kernels.rosenbrock_loss(x1, x2))

    def grad(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        x1, x2 = _unpack2(w)
        g1, g2 = kernels.rosenbrock_grad(x1, x2)
        return np.array([g1, g2])

    def loss_grad(self, w: Array, batch: BatchSelector = FULL_DATA):
        x1, x2 = _unpack2(w)
        return _surface_loss_grad(kernels.rosenbrock_loss,
                                  kernels.rosenbrock_grad, x1, x2)

    def loss_grad_rows(self, ws: Array, batch: BatchSelector = FULL_DATA,
                       grad: bool = True):
        x1, x2 = _columns2(ws)
        if not grad:
            return kernels.rosenbrock_loss(x1, x2), None
        return _surface_loss_grad(kernels.rosenbrock_loss,
                                  kernels.rosenbrock_grad, x1, x2)

    def hessian(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        x1, x2 = _unpack2(w)
        h11, h12, h22 = kernels.rosenbrock_hess(x1, x2)
        return np.array([[h11, h12], [h12, h22]])


class BealeProblem(Objective):
    """Sum of three squared residuals (1.5 - x1 + x1*x2^k terms), minimum (3, 0.5)."""

    dim = 2

    def __init__(self):
        self.known_minimizer = np.array([3.0, 0.5])
        self.default_start = np.array([-2.0, -2.0])

    def loss(self, w: Array, batch: BatchSelector = FULL_DATA) -> float:
        x1, x2 = _unpack2(w)
        return float(kernels.beale_loss(x1, x2))

    def grad(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        x1, x2 = _unpack2(w)
        g1, g2 = kernels.beale_grad(x1, x2)
        return np.array([g1, g2])

    def loss_grad(self, w: Array, batch: BatchSelector = FULL_DATA):
        x1, x2 = _unpack2(w)
        return _surface_loss_grad(kernels.beale_loss,
                                  kernels.beale_grad, x1, x2)

    def loss_grad_rows(self, ws: Array, batch: BatchSelector = FULL_DATA,
                       grad: bool = True):
        x1, x2 = _columns2(ws)
        if not grad:
            return kernels.beale_loss(x1, x2), None
        return _surface_loss_grad(kernels.beale_loss,
                                  kernels.beale_grad, x1, x2)

    def hessian(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        x1, x2 = _unpack2(w)
        h11, h12, h22 = kernels.beale_hess(x1, x2)
        return np.array([[h11, h12], [h12, h22]])


class QuadraticProblem(Objective):
    """loss = 0.5 * (w - offset)^T A (w - offset) with symmetric positive-definite A."""

    def __init__(self, matrix_a, offset=None):
        a = np.array(matrix_a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix_a must be square")
        scale = float(np.max(np.abs(a))) or 1.0
        if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
            raise ValueError("matrix_a must be symmetric")
        a = 0.5 * (a + a.T)  # make symmetry exact to the bit
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise ValueError("matrix_a must be positive definite") from None
        self.dim = a.shape[0]
        self.matrix_a = a
        if offset is None:
            offset = np.zeros(self.dim)
        self.offset = as_param_vector(offset, dim=self.dim)
        self.known_minimizer = self.offset.copy()
        self.default_start = self.offset + 1.0

    def loss(self, w: Array, batch: BatchSelector = FULL_DATA) -> float:
        r = as_param_vector(w, dim=self.dim) - self.offset
        return 0.5 * float(r @ (self.matrix_a @ r))

    def grad(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        r = as_param_vector(w, dim=self.dim) - self.offset
        return self.matrix_a @ r

    def hessian(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        return self.matrix_a.copy()


class LogisticRegressionProblem(Objective):
    """Mean binary cross-entropy plus 0.5 * l2_penalty * ||w||^2.

    Labels are 0/1. Mini-batches select rows of the feature matrix; see
    ``SyntheticNoise`` for the seeded sampling contract. The rows of the
    last ``SyntheticNoise`` draw are kept, so repeated evaluations on one
    batch draw it once, and inside ``core.batch_stream`` the indices of
    every draw are kept until the stream closes, so later runs on the same
    batches take their rows without drawing. The last forward pass of
    ``loss``, ``grad`` or ``loss_grad`` is kept too, so a later one at the
    same bits of ``w`` on the same batch (a step that lands on its probe
    point) computes only what that pass lacks.
    """

    def __init__(self, features, labels, l2_penalty: float = 0.0):
        # copies of the caller's arrays, so changing them later changes no
        # loss
        self._take(np.array(features, dtype=np.float64), np.array(labels),
                   l2_penalty)

    def _take(self, x: Array, y: Array, l2_penalty: float) -> None:
        # set up on float64 features x and labels y as they are, without a
        # copy of either
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must match the number of feature rows")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be binary (0/1)")
        check_setting("problem.", "l2_penalty", l2_penalty)
        self.features = x
        self.labels = y.astype(np.int64, copy=False)
        self.l2_penalty = float(l2_penalty)
        self.n_samples = x.shape[0]
        self.dim = x.shape[1]
        self.default_start = np.zeros(self.dim)
        self._y64 = self.labels.astype(np.float64)
        # (selector, x, y) of the last SyntheticNoise draw, replaced as one
        # tuple so a concurrent reader never sees a mixed set
        self._noise_memo = None
        # ((w bytes, selector), (loss, z, e)) of the last forward pass,
        # replaced as one tuple likewise
        self._pass_memo = None

    def _resolve(self, batch: BatchSelector) -> Tuple[Array, Array]:
        if isinstance(batch, FullData):
            return self.features, self._y64
        if isinstance(batch, SyntheticNoise):
            memo = self._noise_memo
            if memo is not None and (memo[0] is batch or memo[0] == batch):
                return memo[1], memo[2]
            if batch.batch_size > self.n_samples:
                raise ValueError(
                    f"batch_size {batch.batch_size} exceeds dataset size "
                    f"{self.n_samples}"
                )
            idx = _draw(batch, self.n_samples)
            memo = (batch, self.features.take(idx, axis=0),
                    self._y64.take(idx))
            self._noise_memo = memo
            return memo[1], memo[2]
        raise TypeError(f"unsupported batch selector: {batch!r}")

    def _evaluate(self, kernel, w: Array, batch: BatchSelector):
        # kernel(x, y, w, l2, kept) on the batch rows and the checked w,
        # handing it the kept pass when that was made at the same bits of w
        # on the same batch. A pass that misses drops the kept one before it
        # runs, so the peak holds one pass, and is kept in its place.
        x, y = self._resolve(batch)
        if not (type(w) is np.ndarray and w.dtype == np.float64
                and w.shape == (self.dim,) and w.flags.c_contiguous
                and finite_array(w)):
            # a list, another dtype or layout, or a w as_param_vector
            # rejects; a checked float64 vector is taken as it is
            w = as_param_vector(w, dim=self.dim)
        key = (w.tobytes(), batch)
        memo = self._pass_memo
        if memo is not None and memo[0] == key:
            kept = [memo[1]]
        else:
            # the local name too, which would keep the pass alive
            memo = self._pass_memo = None
            kept = []
        out = kernel(x, y, w, self.l2_penalty, kept)
        self._pass_memo = (key, kept[0])
        return out

    def loss(self, w: Array, batch: BatchSelector = FULL_DATA) -> float:
        return float(self._evaluate(kernels.logreg_loss, w, batch))

    def grad(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        _, g = self._evaluate(kernels.logreg_loss_grad, w, batch)
        return np.asarray(g)

    def loss_grad(self, w: Array, batch: BatchSelector = FULL_DATA):
        loss, g = self._evaluate(kernels.logreg_loss_grad, w, batch)
        return float(loss), np.asarray(g)

    def hessian(self, w: Array, batch: BatchSelector = FULL_DATA) -> Array:
        x, _ = self._resolve(batch)
        w = as_param_vector(w, dim=self.dim)
        self._pass_memo = None  # the curvature makes a pass of its own
        return kernels.logreg_hessian(x, w, self.l2_penalty)

    def hvp(self, w: Array, v: Array, batch: BatchSelector = FULL_DATA) -> Array:
        x, _ = self._resolve(batch)
        w, v = operands(as_param_vector(w, dim=self.dim), v)
        self._pass_memo = None
        return kernels.logreg_hvp(x, w, self.l2_penalty, v)


def _draw(batch: SyntheticNoise, n: int) -> Array:
    # the sorted indices of a draw from n rows, drawn once per (seed,
    # batch size, n) while a batch stream is open; nothing writes into them
    stream = _BATCH_STREAM.get()
    if stream is not None:
        key = (batch.seed, batch.batch_size, n)
        idx = stream[1].get(key)
        if idx is not None:
            return idx
    rng = np.random.default_rng(batch.seed)
    idx = rng.choice(n, size=batch.batch_size, replace=False, shuffle=False)
    idx.sort()
    if stream is not None:
        stream[1][key] = idx
    return idx


def _unpack2(w) -> Tuple[float, float]:
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (2,):
        raise DimensionMismatchError(f"expected shape (2,), got {arr.shape}")
    return float(arr[0]), float(arr[1])


def _columns2(ws) -> Tuple[Array, Array]:
    arr = np.asarray(ws, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionMismatchError(f"expected shape (K, 2), got {arr.shape}")
    return arr[:, 0], arr[:, 1]


def _surface_loss_grad(loss, grad, x1, x2):
    # one evaluation of a 2-D surface's kernels, on a vector's two entries
    # (floats) or a block's two columns; the kernels use only + - *, so
    # each column entry carries the bits of the float evaluation
    g1, g2 = grad(x1, x2)
    return loss(x1, x2), np.array([g1, g2]).T


def generate_dataset(seed: int, n: int, d: int,
                     l2_penalty: float = 0.0) -> LogisticRegressionProblem:
    """Seeded synthetic dataset: standard-normal features, a planted linear
    separator drawn from the same seed, and labels flipped with probability
    0.05. The same seed reproduces the dataset bit for bit.
    """
    for key, value in (("seed", seed), ("n", n), ("d", d)):
        check_setting("problem.", key, value)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = (x @ w_true > 0).astype(np.int64)
    flip = rng.random(n) < 0.05
    y = np.where(flip, 1 - y, y)
    # the problem takes the arrays just drawn, so the features are never
    # held twice
    problem = LogisticRegressionProblem.__new__(LogisticRegressionProblem)
    problem._take(x, y, l2_penalty)
    return problem

