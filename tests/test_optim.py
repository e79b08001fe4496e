"""Base optimizer states, direction rules, gradient post-processors."""

import numpy as np
import pytest

from genopt.core import DimensionMismatchError, NonFiniteError
from genopt.optim import (
    AdamWState,
    ClipToNorm,
    Identity,
    Mask,
    SgdState,
    SignSgd,
    adamw_direction,
    apply_step,
    post_process,
    sgd_direction,
)


def test_sgd_state_validation():
    s = SgdState(dim=3)
    np.testing.assert_array_equal(s.velocity, np.zeros(3))
    with pytest.raises(ValueError):
        SgdState(dim=0)
    with pytest.raises(ValueError):
        SgdState(dim=2, momentum=1.0)
    with pytest.raises(ValueError):
        SgdState(dim=2, momentum=-0.1)
    with pytest.raises(ValueError):
        SgdState(dim=2, weight_decay=-1.0)
    with pytest.raises(ValueError):
        SgdState(dim=2, weight_decay=float("nan"))


def test_sgd_plain_returns_gradient_copy():
    s = SgdState(dim=2)
    g = np.array([1.0, -2.0])
    d = sgd_direction(s, g, np.zeros(2))
    np.testing.assert_array_equal(d, g)
    d[0] = 99.0
    assert s.velocity[0] != 99.0


def test_sgd_momentum_two_step_recursion():
    s = SgdState(dim=2, momentum=0.9)
    w = np.zeros(2)
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 1.0])
    d1 = sgd_direction(s, g1, w)
    np.testing.assert_array_equal(d1, g1)
    d2 = sgd_direction(s, g2, w)
    np.testing.assert_allclose(d2, 0.9 * g1 + g2, rtol=1e-15)


def test_sgd_weight_decay_enters_before_momentum():
    s = SgdState(dim=2, momentum=0.5, weight_decay=0.1)
    w = np.array([10.0, -10.0])
    g = np.array([1.0, 1.0])
    d = sgd_direction(s, g, w)
    np.testing.assert_allclose(d, g + 0.1 * w, rtol=1e-15)


def test_adamw_state_validation():
    AdamWState(dim=1)
    with pytest.raises(ValueError):
        AdamWState(dim=1, beta1=1.0)
    with pytest.raises(ValueError):
        AdamWState(dim=1, beta2=-0.1)
    with pytest.raises(ValueError):
        AdamWState(dim=1, epsilon=0.0)
    with pytest.raises(ValueError):
        AdamWState(dim=1, weight_decay=-0.5)
    with pytest.raises(ValueError):
        AdamWState(dim=1, epsilon=float("nan"))
    with pytest.raises(ValueError):
        AdamWState(dim=1, weight_decay=float("nan"))


def test_adamw_first_step_closed_form():
    # with bias correction the first direction is g / (|g| + eps) elementwise
    st = AdamWState(dim=3, epsilon=1e-8)
    g = np.array([0.5, -2.0, 0.0])
    d = adamw_direction(st, g, np.zeros(3))
    expect = g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(d, expect, rtol=1e-12)
    assert st.step_count == 1


def test_adamw_matches_reference_loop():
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    st = AdamWState(dim=4, beta1=beta1, beta2=beta2, epsilon=eps)
    rng = np.random.default_rng(15)
    m = np.zeros(4)
    v = np.zeros(4)
    w = rng.standard_normal(4)
    for t in range(1, 12):
        g = rng.standard_normal(4)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        expect = mhat / (np.sqrt(vhat) + eps)
        got = adamw_direction(st, g, w)
        np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_adamw_decoupled_weight_decay():
    st = AdamWState(dim=2, weight_decay=0.01)
    st2 = AdamWState(dim=2)
    g = np.array([1.0, -1.0])
    w = np.array([3.0, 5.0])
    d_wd = adamw_direction(st, g, w)
    d_plain = adamw_direction(st2, g, w)
    np.testing.assert_allclose(d_wd, d_plain + 0.01 * w, rtol=1e-12)


# ---------------------------------------------------------------------------
# blocks: K runs of one rule as (K, dim) rows, each with a run's own bits


@pytest.mark.parametrize("make, rule", [
    (lambda rows: SgdState(3, momentum=0.9, weight_decay=0.01, rows=rows),
     sgd_direction),
    (lambda rows: AdamWState(3, beta1=0.5, beta2=0.9, epsilon=1e-6,
                             weight_decay=0.1, rows=rows), adamw_direction),
])
@pytest.mark.parametrize("pp", [None, Identity(), SignSgd(),
                                ClipToNorm(max_norm=0.7), Mask([1, 0, 1])])
def test_block_rows_match_separate_runs(make, rule, pp):
    rng = np.random.default_rng(6)
    k, steps = 5, 6
    gs = rng.standard_normal((steps, k, 3)) * np.array([1e-3, 1.0, 1e3])
    gs[:, 0] = 0.0  # a zero row clips to itself
    ws = rng.standard_normal((steps, k, 3))
    block, runs = make(k), [make(None) for _ in range(k)]
    for g, w in zip(gs, ws):
        d = rule(block, g, w)
        if pp is not None:
            d = post_process(pp, d)
        for i, run in enumerate(runs):
            want = rule(run, g[i], w[i])
            if pp is not None:
                want = post_process(pp, want)
            assert d[i].tobytes() == want.tobytes()


def test_block_keep_drops_rows():
    s, a = SgdState(2, momentum=0.5, rows=4), AdamWState(2, rows=4)
    g = np.arange(8.0).reshape(4, 2)
    sgd_direction(s, g, np.zeros((4, 2)))
    adamw_direction(a, g, np.zeros((4, 2)))
    for state in (s, a):
        state.keep(np.array([0, 2]))
        assert state.rows == 2
    np.testing.assert_array_equal(s.velocity, g[[0, 2]])
    assert a.m.shape == a.v.shape == (2, 2)
    d = sgd_direction(s, np.ones((2, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(d, 0.5 * g[[0, 2]] + 1.0)


def test_block_shape_and_finite_checks():
    # one check for vector and block states: the operands must have the
    # state's buffer shape and be finite
    for rows in (None, 3):
        for state, rule in ((SgdState(2, rows=rows), sgd_direction),
                            (AdamWState(2, rows=rows), adamw_direction)):
            good = np.zeros(2 if rows is None else (3, 2))
            wrong = [np.zeros(3), np.zeros((2, 2))]
            if rows is not None:
                wrong.append(np.zeros(2))
            for bad in wrong:
                with pytest.raises(DimensionMismatchError):
                    rule(state, bad, good)
                with pytest.raises(DimensionMismatchError):
                    rule(state, good, bad)
            nan = good.copy()
            nan.flat[1] = np.nan
            with pytest.raises(NonFiniteError):
                rule(state, nan, good)
            with pytest.raises(NonFiniteError):
                rule(state, good, nan)
    with pytest.raises(DimensionMismatchError):
        post_process(Mask([1, 0, 1]), np.zeros((4, 2)))


def test_post_process_identity_and_sign():
    g = np.array([3.0, -0.5, 0.0])
    out = post_process(Identity(), g)
    np.testing.assert_array_equal(out, g)
    assert out is not g
    np.testing.assert_array_equal(post_process(SignSgd(), g), [1.0, -1.0, 0.0])


def test_post_process_clip():
    g = np.array([3.0, 4.0])  # norm 5
    clipped = post_process(ClipToNorm(max_norm=1.0), g)
    assert np.linalg.norm(clipped) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(clipped, g / 5.0, rtol=1e-12)
    small = np.array([0.1, 0.0])
    np.testing.assert_array_equal(post_process(ClipToNorm(max_norm=1.0), small), small)
    zero = np.zeros(2)
    np.testing.assert_array_equal(post_process(ClipToNorm(max_norm=1.0), zero), zero)
    with pytest.raises(ValueError):
        ClipToNorm(max_norm=0.0)
    with pytest.raises(ValueError):
        ClipToNorm(max_norm=float("nan"))


def test_post_process_mask():
    m = Mask([1.0, 0.0, 1.0])
    g = np.array([2.0, 3.0, -1.0])
    np.testing.assert_array_equal(post_process(m, g), [2.0, 0.0, -1.0])
    with pytest.raises(DimensionMismatchError):
        post_process(m, np.zeros(2))
    with pytest.raises(ValueError):
        Mask([0.5, 1.0])


def test_apply_step_basic_and_checks():
    w = np.array([1.0, 2.0])
    d = np.array([0.5, -0.5])
    np.testing.assert_allclose(apply_step(w, 2.0, d), [0.0, 3.0], rtol=1e-15)
    with pytest.raises(DimensionMismatchError):
        apply_step(w, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        apply_step(w, float("nan"), d)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            apply_step(np.array([1e308]), 1.0, np.array([-1e308]))


def test_apply_step_finite_result_whose_dot_overflows_is_returned():
    # w . w is inf here, though every entry is finite
    w = np.array([1e200, -1e200])
    with np.errstate(over="ignore"):
        out = apply_step(w, 1.0, np.array([0.0, 1.0]))
    assert out.tobytes() == np.array([1e200, -1e200 - 1.0]).tobytes()
    assert apply_step(np.array([[1e200, 1.0]]), 0.5,
                      np.array([[0.0, 2.0]])).tolist() == [[1e200, 0.0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(2,), (1, 2)])
def test_apply_step_nonfinite_result_raises(bad, shape):
    d = np.zeros(shape)
    d.flat[1] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            apply_step(np.zeros(shape), 1.0, d)
    # the entry that blows up may sit next to one whose square overflows
    d.flat[0] = 1e200
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteError):
            apply_step(np.zeros(shape), 1.0, d)
