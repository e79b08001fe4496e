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
# Every logistic kernel starts from one pass over the margins z = x @ w
# (``_margins``). With e = exp(-|z|) in [0, 1], softplus(z) =
# log(1 + exp(z)) is max(z, 0) + log1p(e), sigmoid(z) is 1 / (1 + e) for
# z > 0 and e / (1 + e) otherwise, and its derivative
# sigmoid(z) * (1 - sigmoid(z)) is e / (1 + e)^2 on both sides. exp never
# sees a positive argument, so no form can overflow at any finite margin,
# and the derivative stays positive until e underflows near |z| = 745.
# The gradient takes the sigmoid's numerator as max(e, [z > 0]): e <= 1,
# so that is exactly 1.0 where z > 0 and e elsewhere, nan included,
# without the branch of a select, which mispredicts on margins of random
# sign. Work arrays are updated in place (never x, y, w, v or z) in the
# operand order of (max(z, 0) + log1p(e)) - y * z, so every rounding is
# the plain expression's.
#
# ``logreg_loss`` and ``logreg_loss_grad`` take an optional ``kept`` list:
# an empty one receives the call's forward pass (loss, z, e), and one that
# holds the pass of the same operands hands it in, so the call computes
# only what the pass lacks. No kernel writes into a kept pass's arrays.

def _margins(x, w):
    # (z, e): the margins x @ w and exp(-|z|) in an array of its own
    z = x @ w
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return z, e


def _forward(x, y, w, l2, kept):
    # (loss, z, e): the loss plus the margins and exp(-|z|) the gradient
    # reuses; the pass a ``kept`` list holds, as it is
    if kept:
        return kept[0]
    z, e = _margins(x, w)
    t = np.maximum(z, 0.0)
    u = np.log1p(e)
    # softplus into u, then t = softplus - y * z; not t += u, which on a
    # one-element array returns u's nan where t + u returns t's
    np.add(t, u, out=u)
    np.multiply(y, z, out=t)
    np.subtract(u, t, out=t)
    # the pairwise sum and one rounded division of np.mean
    loss = float(np.add.reduce(t)) / t.size + 0.5 * l2 * float(w.dot(w))
    if kept is not None:
        kept.append((loss, z, e))
    return loss, z, e


def _curvature(x, w):
    # sigmoid'(x @ w) per row, e / (1 + e)^2, in e's array
    e = _margins(x, w)[1]
    t = e + 1.0
    t *= t
    e /= t
    return e


def logreg_loss(x, y, w, l2, kept=None):
    return _forward(x, y, w, l2, kept)[0]


def logreg_loss_grad(x, y, w, l2, kept=None):
    loss, z, e = _forward(x, y, w, l2, kept)
    p = (z > 0.0).astype(np.float64)
    np.maximum(e, p, out=p)
    # 1 + e in an array of its own: e may belong to a kept pass
    p /= e + 1.0
    p -= y
    g = x.T @ p / x.shape[0] + l2 * w
    return loss, g


def logreg_hvp(x, w, l2, v):
    # the Hessian times v, x.T @ (s * (x @ v)) / n + l2 * v, without
    # forming the Hessian or an n x d temporary
    s = _curvature(x, w)
    s *= x @ v
    return x.T @ s / x.shape[0] + l2 * v


def logreg_hessian(x, w, l2):
    s = _curvature(x, w)
    h = (x * s[:, None]).T @ x / x.shape[0]
    h += l2 * np.eye(x.shape[1])
    return h


# genbench's kernel_path() reports "numpy" when logreg_loss is this alias
logreg_loss_py = logreg_loss
