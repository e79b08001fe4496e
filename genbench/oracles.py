"""Reference computations for the benchmark's output checks.

Everything here is numpy and plain Python, written from the mathematical
definitions; nothing imports genopt. The checks compare the program's
outputs with these values, never with a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# a fixed-rate run counts as diverged once a loss exceeds this or is not
# finite; it is the documented DIVERGENCE_LOSS of the harness
DIVERGENCE_LOSS = 1e12

# baseline tuning grid as documented: {1, 2, 5} x 10^-k for k = 5 .. 0
LR_GRID = tuple(m * 10.0 ** -k for k in range(5, -1, -1) for m in (1.0, 2.0, 5.0))


# ---------------------------------------------------------------------------
# logistic regression

def logreg_dataset(seed: int, n: int, d: int):
    """The documented synthetic dataset: standard-normal features, a planted
    separator from the same generator, labels flipped with probability 0.05.
    Returns (features, labels as float64)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = (x @ w_true > 0).astype(np.float64)
    flip = rng.random(n) < 0.05
    return x, np.where(flip, 1.0 - y, y)


def logreg_loss(x, y, w) -> float:
    """Mean binary cross-entropy of the linear model w."""
    z = x @ w
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def logreg_optimum(x, y, max_iter: int = 50):
    """Newton's method from w = 0 to the unregularised optimum.

    Returns (w*, L(w*)). The flipped labels make the data non-separable, so
    the optimum is finite and Newton converges in a handful of steps.
    """
    n, d = x.shape
    w = np.zeros(d)
    for _ in range(max_iter):
        z = x @ w
        p = 0.5 * (1.0 + np.tanh(0.5 * z))
        g = x.T @ (p - y) / n
        if float(np.linalg.norm(g)) <= 1e-13:
            return w, logreg_loss(x, y, w)
        h = (x * (p * (1.0 - p))[:, None]).T @ x / n
        w = w - np.linalg.solve(h, g)
    raise RuntimeError("Newton solve for the logistic optimum did not converge")


# ---------------------------------------------------------------------------
# 2-D test surfaces

def rosenbrock(w) -> float:
    x1, x2 = float(w[0]), float(w[1])
    return 100.0 * (x2 - x1 * x1) ** 2 + (1.0 - x1) ** 2


def rosenbrock_grad(w):
    x1, x2 = float(w[0]), float(w[1])
    return np.array([-400.0 * x1 * (x2 - x1 * x1) - 2.0 * (1.0 - x1),
                     200.0 * (x2 - x1 * x1)])


def _beale_terms(x1, x2):
    # residuals c_k - x1 * (1 - x2^k) and their partial derivatives
    out = []
    for k, c in ((1, 1.5), (2, 2.25), (3, 2.625)):
        r = c - x1 * (1.0 - x2 ** k)
        out.append((r, x2 ** k - 1.0, k * x1 * x2 ** (k - 1)))
    return out


def beale(w) -> float:
    return sum(r * r for r, _, _ in _beale_terms(float(w[0]), float(w[1])))


def beale_grad(w):
    terms = _beale_terms(float(w[0]), float(w[1]))
    return np.array([sum(2.0 * r * a for r, a, _ in terms),
                     sum(2.0 * r * b for r, _, b in terms)])


# name -> (loss, gradient, documented start, analytic minimizer)
SURFACES = {
    "rosenbrock": (rosenbrock, rosenbrock_grad, (-1.5, 2.0), (1.0, 1.0)),
    "beale": (beale, beale_grad, (-2.0, -2.0), (3.0, 0.5)),
}


def fixed_rate_losses(surface: str, optimizer: str, eta: float,
                      iterations: int, start=None):
    """Plain gradient descent or Adam at a constant rate.

    Returns (post-step losses, status): status is "diverged" as soon as a
    loss or an iterate is not finite or a loss exceeds DIVERGENCE_LOSS, and
    the loss list then ends at that step. Adam uses the documented defaults
    (beta1 0.9, beta2 0.999, epsilon 1e-8) with bias correction.
    """
    f, grad, default_start, _ = SURFACES[surface]
    w = np.array(default_start if start is None else start, dtype=np.float64)
    m = np.zeros(2)
    v = np.zeros(2)
    b1, b2, eps = 0.9, 0.999, 1e-8
    losses = []
    with np.errstate(all="ignore"):
        for t in range(1, iterations + 1):
            try:
                g = grad(w)
            except OverflowError:
                return losses, "diverged"
            if optimizer == "sgd":
                d = g
            elif optimizer == "adamw":
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                d = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            else:
                raise ValueError(f"no reference loop for optimizer {optimizer!r}")
            w = w - eta * d
            if not np.all(np.isfinite(w)):
                return losses, "diverged"
            try:
                loss = f(w)
            except OverflowError:
                return losses, "diverged"
            losses.append(loss)
            if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
                return losses, "diverged"
    return losses, "ok"
