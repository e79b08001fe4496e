"""Shared fixtures and numerical oracles for the test suite."""

import numpy as np
import pytest

import genopt
from genopt import harness, kernels
from genopt.core import FULL_DATA, Objective


@pytest.fixture(autouse=True)
def fresh_dataset_memo():
    """Start every test with no logreg dataset built in the process, so no
    test depends on which dataset an earlier one left in the memo."""
    harness._logreg_dataset.cache_clear()


@pytest.fixture
def margin_passes(monkeypatch):
    """The number of logistic forward passes (``kernels._margins`` calls)
    made while the test runs."""
    passes = [0]
    inner = kernels._margins

    def counting(*args):
        passes[0] += 1
        return inner(*args)

    monkeypatch.setattr(kernels, "_margins", counting)
    return passes


def fd_gradient(obj, w, h=1e-6, batch=FULL_DATA):
    """Central-difference gradient, independent of the analytic path."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (obj.loss(w + e, batch) - obj.loss(w - e, batch)) / (2.0 * h)
    return g


def fd_hessian(obj, w, h=1e-5, batch=FULL_DATA):
    """Central-difference Hessian built from analytic gradients."""
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros_like(w)
        e[i] = h
        hess[:, i] = (obj.grad(w + e, batch) - obj.grad(w - e, batch)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


class CountingObjective(Objective):
    """Wraps another objective and counts loss/grad evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.known_minimizer = inner.known_minimizer
        self.default_start = inner.default_start
        self.loss_calls = 0
        self.grad_calls = 0

    def loss(self, w, batch=FULL_DATA):
        self.loss_calls += 1
        return self.inner.loss(w, batch)

    def grad(self, w, batch=FULL_DATA):
        self.grad_calls += 1
        return self.inner.grad(w, batch)

    def hessian(self, w, batch=FULL_DATA):
        return self.inner.hessian(w, batch)


class Cubic1D(Objective):
    """L(w) = w^3 on a single coordinate, with exact derivatives.

    Along the gradient direction the loss slice has a nonzero third
    derivative, which is exactly what the probe-spacing error tests need.
    """

    dim = 1

    def loss(self, w, batch=FULL_DATA):
        return float(w[0] ** 3)

    def grad(self, w, batch=FULL_DATA):
        return np.array([3.0 * w[0] ** 2])

    def hessian(self, w, batch=FULL_DATA):
        return np.array([[6.0 * w[0]]])


class Concave1D(Objective):
    """L(w) = -0.5 w^2: every gradient ray sees negative curvature."""

    dim = 1

    def loss(self, w, batch=FULL_DATA):
        return float(-0.5 * w[0] ** 2)

    def grad(self, w, batch=FULL_DATA):
        return np.array([-float(w[0])])

    def hessian(self, w, batch=FULL_DATA):
        return np.array([[-1.0]])


def random_spd_problem(rng, max_dim=10):
    """Random well-conditioned SPD quadratic with a random offset."""
    d = int(rng.integers(2, max_dim + 1))
    m = rng.standard_normal((d, d))
    a = m @ m.T + d * np.eye(d)
    offset = rng.standard_normal(d)
    return genopt.QuadraticProblem(a, offset=offset)

