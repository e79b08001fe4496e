"""Hot evaluation kernels in plain python/numpy.

The 2-D surfaces work on python floats; the logistic-regression kernels
are vectorized numpy. ``problems`` calls every kernel through this module
(``kernels.<name>``), so one attribute per kernel decides what runs.
"""

import numpy as np


# ---------------------------------------------------------------------------
# scalar 2-D kernels on plain python floats

def rosenbrock_loss(x1: float, x2: float) -> float:
    r = x2 - x1 * x1
    return 100.0 * r * r + (1.0 - x1) * (1.0 - x1)


def rosenbrock_grad(x1: float, x2: float):
    r = x2 - x1 * x1
    return -400.0 * x1 * r - 2.0 * (1.0 - x1), 200.0 * r


def rosenbrock_hess(x1: float, x2: float):
    # returns (h11, h12, h22); h21 == h12 by symmetry
    return 1200.0 * x1 * x1 - 400.0 * x2 + 2.0, -400.0 * x1, 200.0


def beale_loss(x1: float, x2: float) -> float:
    r1 = 1.5 - x1 + x1 * x2
    r2 = 2.25 - x1 + x1 * x2 * x2
    r3 = 2.625 - x1 + x1 * x2 * x2 * x2
    return r1 * r1 + r2 * r2 + r3 * r3


def beale_grad(x1: float, x2: float):
    y = x2
    r1 = 1.5 - x1 + x1 * y
    r2 = 2.25 - x1 + x1 * y * y
    r3 = 2.625 - x1 + x1 * y * y * y
    g1 = 2.0 * (r1 * (y - 1.0) + r2 * (y * y - 1.0) + r3 * (y * y * y - 1.0))
    g2 = 2.0 * (r1 * x1 + r2 * 2.0 * x1 * y + r3 * 3.0 * x1 * y * y)
    return g1, g2


def beale_hess(x1: float, x2: float):
    y = x2
    r1 = 1.5 - x1 + x1 * y
    r2 = 2.25 - x1 + x1 * y * y
    r3 = 2.625 - x1 + x1 * y * y * y
    a1 = y - 1.0
    a2 = y * y - 1.0
    a3 = y * y * y - 1.0
    b1 = x1
    b2 = 2.0 * x1 * y
    b3 = 3.0 * x1 * y * y
    h11 = 2.0 * (a1 * a1 + a2 * a2 + a3 * a3)
    # cross second derivatives of the residuals: 1, 2y, 3y^2
    h12 = 2.0 * (a1 * b1 + a2 * b2 + a3 * b3 + r1 + r2 * 2.0 * y + r3 * 3.0 * y * y)
    # d2/dy2 of the residuals: 0, 2*x1, 6*x1*y
    h22 = 2.0 * (b1 * b1 + b2 * b2 + b3 * b3 + r2 * 2.0 * x1 + r3 * 6.0 * x1 * y)
    return h11, h12, h22


# ---------------------------------------------------------------------------
# logistic regression, vectorized
#
# Both kernels share one pass over the margins z = x @ w. With
# e = exp(-|z|) in (0, 1], softplus(z) = log(1 + exp(z)) is
# max(z, 0) + log1p(e) and sigmoid(z) is 1 / (1 + e) for z > 0 and
# e / (1 + e) otherwise. exp never sees a positive argument, so neither
# form can overflow at any finite margin.

def _forward(x, y, w, l2):
    # (loss, z, e): the loss plus the margins and exp(-|z|) the gradient reuses
    z = x @ w
    e = np.exp(-np.abs(z))
    softplus = np.maximum(z, 0.0) + np.log1p(e)
    loss = float(np.mean(softplus - y * z)) + 0.5 * l2 * float(w @ w)
    return loss, z, e


def logreg_loss(x, y, w, l2):
    return _forward(x, y, w, l2)[0]


def logreg_loss_grad(x, y, w, l2):
    loss, z, e = _forward(x, y, w, l2)
    p = np.where(z > 0.0, 1.0, e) / (1.0 + e)
    g = x.T @ (p - y) / x.shape[0] + l2 * w
    return loss, g


# genbench's kernel_path() reports "numpy" when logreg_loss is this alias
logreg_loss_py = logreg_loss
