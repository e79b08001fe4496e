"""The numpy kernels: the bound path genbench reports, stability at
extreme margins, and gradients against finite differences."""

import numpy as np
import pytest

from genopt import kernels


def test_logreg_loss_is_the_numpy_alias():
    # genbench's kernel_path() reports "numpy" only through this identity
    assert kernels.logreg_loss is kernels.logreg_loss_py


def test_logreg_stable_at_extreme_margins():
    # |x.w| around 700 overflows a naive exp; the kernel must stay finite
    x = np.array([[700.0], [-700.0]])
    y = np.array([1.0, 0.0])
    w = np.array([1.0])
    val = kernels.logreg_loss(x, y, w, 0.0)
    assert np.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-12)
    w_bad = np.array([-1.0])
    val_bad = kernels.logreg_loss(x, y, w_bad, 0.0)
    assert np.isfinite(val_bad)
    assert val_bad == pytest.approx(700.0, rel=1e-6)


def test_logreg_grad_matches_fd():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((32, 3))
    y = (rng.random(32) < 0.5).astype(np.float64)
    w = rng.standard_normal(3)
    h = 1e-6
    _, g = kernels.logreg_loss_grad(x, y, w, 0.0)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (kernels.logreg_loss(x, y, w + e, 0.0)
              - kernels.logreg_loss(x, y, w - e, 0.0)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
