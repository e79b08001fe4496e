"""The numpy kernels: the bound path genbench reports, stability at
extreme margins, gradients against finite differences, bit equality with
the plain numpy expressions, and inputs left untouched."""

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


# reference forms the fused kernels replaced: libm softplus through
# np.logaddexp and the two-branch sigmoid over boolean masks

def _ref_loss(x, y, w, l2):
    z = x @ w
    ce = np.logaddexp(0.0, z) - y * z
    return float(np.mean(ce)) + 0.5 * l2 * float(w @ w)


def _ref_sigmoid(z):
    p = np.empty_like(z)
    pos = z > 0.0
    p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p[~pos] = ez / (1.0 + ez)
    return p


def _ref_grad(x, y, w, l2):
    z = x @ w
    return x.T @ (_ref_sigmoid(z) - y) / x.shape[0] + l2 * w


def _margins():
    mags = np.logspace(-5, np.log10(800.0), 401)
    return np.concatenate([-mags[::-1], [-0.0, 0.0], mags,
                           np.linspace(-30.0, 30.0, 601)])


def test_logreg_softplus_and_sigmoid_per_margin():
    # one row x = 1 with w = z and label 0: the loss is softplus(z) and the
    # gradient sigmoid(z), so each shows undiluted. The softplus may sit a
    # few ulp off libm's (numpy's SIMD exp); the sigmoid must not move.
    x = np.array([[1.0]])
    y = np.array([0.0])
    for z in _margins():
        w = np.array([z])
        loss, g = kernels.logreg_loss_grad(x, y, w, 0.0)
        ref = _ref_loss(x, y, w, 0.0)
        assert abs(loss - ref) <= 4 * np.spacing(ref), z
        assert np.array_equal(g, _ref_sigmoid(np.array([z]))), z
        assert kernels.logreg_loss(x, y, w, 0.0) == loss


def test_logreg_kernels_against_reference_forms():
    rng = np.random.default_rng(23)
    z = _margins()
    cases = [(z[:, None], np.array([1.0])),
             (rng.standard_normal((512, 4)), rng.standard_normal(4)),
             (rng.standard_normal((512, 4)) * 60.0, rng.standard_normal(4))]
    for x, w in cases:
        y = (rng.random(x.shape[0]) < 0.5).astype(np.float64)
        for l2 in (0.0, 0.1):
            loss, g = kernels.logreg_loss_grad(x, y, w, l2)
            # the gradient's sigmoid is the reference's, bit for bit
            assert np.array_equal(g, _ref_grad(x, y, w, l2))
            ref = _ref_loss(x, y, w, l2)
            assert abs(loss - ref) <= 8 * np.spacing(ref)
            # both kernels share one forward pass: the same loss bits
            assert kernels.logreg_loss(x, y, w, l2) == loss


# the plain expressions the kernels must reproduce bit for bit: the
# np.where sigmoid numerator, np.mean, and a fresh array per operation

def _plain_loss_grad(x, y, w, l2):
    z = x @ w
    e = np.exp(-np.abs(z))
    softplus = np.maximum(z, 0.0) + np.log1p(e)
    loss = float(np.mean(softplus - y * z)) + 0.5 * l2 * float(w @ w)
    p = np.where(z > 0.0, 1.0, e) / (1.0 + e)
    return loss, x.T @ (p - y) / x.shape[0] + l2 * w


def _bits(value):
    return np.float64(value).tobytes()


def _bit_cases():
    # (x, y, w): every margin of _margins() plus +-inf and nan, each alone
    # in a one-row batch and all together, then random batches with |w|
    # from 1e-6 to 1e3
    rng = np.random.default_rng(31)
    z = np.concatenate([_margins(), [np.inf, -np.inf, np.nan]])
    for zi in z:
        yield np.array([[zi]]), np.array([0.0]), np.array([1.0])
        yield np.array([[zi]]), np.array([1.0]), np.array([1.0])
    yield z[:, None], (rng.random(z.size) < 0.5).astype(np.float64), \
        np.array([1.0])
    for n in (1, 7, 256, 16384):
        for _ in range(5):
            d = int(rng.integers(1, 9))
            x = rng.standard_normal((n, d))
            y = (rng.random(n) < 0.5).astype(np.float64)
            w = rng.standard_normal(d) * 10.0 ** rng.uniform(-6.0, 3.0)
            yield x, y, w


# inf and nan margins are among the inputs of the two tests below
_nonfinite_margins = pytest.mark.filterwarnings(
    "ignore:invalid value:RuntimeWarning")


@_nonfinite_margins
def test_logreg_kernels_bit_equal_to_plain_expressions():
    for x, y, w in _bit_cases():
        for l2 in (0.0, 0.1):
            want_loss, want_g = _plain_loss_grad(x, y, w, l2)
            loss, g = kernels.logreg_loss_grad(x, y, w, l2)
            assert _bits(loss) == _bits(want_loss), (x.shape, w)
            assert g.tobytes() == want_g.tobytes(), (x.shape, w)
            assert _bits(kernels.logreg_loss(x, y, w, l2)) == _bits(want_loss)


@_nonfinite_margins
def test_logreg_kernels_leave_their_inputs_alone():
    for x, y, w in _bit_cases():
        before = [a.tobytes() for a in (x, y, w)]
        for kernel in (kernels.logreg_loss, kernels.logreg_loss_grad):
            kernel(x, y, w, 0.1)
            assert [a.tobytes() for a in (x, y, w)] == before, kernel
