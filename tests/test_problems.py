"""Test objectives: analytic derivatives against finite-difference oracles,
documented minimizers, batching semantics, and the synthetic dataset."""

import tracemalloc

import numpy as np
import pytest

from conftest import fd_gradient, fd_hessian
from genopt.core import (FULL_DATA, DimensionMismatchError, NonFiniteError,
                         SyntheticNoise)
from genopt.problems import (
    BealeProblem,
    LogisticRegressionProblem,
    QuadraticProblem,
    RosenbrockProblem,
    generate_dataset,
)


# ---------------------------------------------------------------------------
# Rosenbrock and Beale


def test_rosenbrock_documented_points():
    p = RosenbrockProblem()
    assert p.dim == 2
    np.testing.assert_array_equal(p.known_minimizer, [1.0, 1.0])
    np.testing.assert_array_equal(p.default_start, [-1.5, 2.0])
    assert p.loss(np.array([1.0, 1.0])) == 0.0
    np.testing.assert_array_equal(p.grad(np.array([1.0, 1.0])), [0.0, 0.0])


def test_beale_documented_points():
    p = BealeProblem()
    np.testing.assert_array_equal(p.known_minimizer, [3.0, 0.5])
    np.testing.assert_array_equal(p.default_start, [-2.0, -2.0])
    assert p.loss(np.array([3.0, 0.5])) == 0.0
    np.testing.assert_allclose(p.grad(np.array([3.0, 0.5])), [0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("make", [RosenbrockProblem, BealeProblem])
def test_testfunction_derivatives_match_fd(make):
    p = make()
    rng = np.random.default_rng(42)
    for _ in range(30):
        w = rng.uniform(-3.0, 3.0, size=2)
        g = p.grad(w)
        scale = 1.0 + np.linalg.norm(g)
        np.testing.assert_allclose(g, fd_gradient(p, w), rtol=1e-5, atol=1e-5 * scale)
        h = p.hessian(w)
        np.testing.assert_allclose(h, h.T, rtol=0, atol=0)
        np.testing.assert_allclose(
            h, fd_hessian(p, w), rtol=1e-5, atol=1e-4 * (1.0 + np.abs(h).max())
        )


@pytest.mark.parametrize("make", [RosenbrockProblem, BealeProblem])
def test_gradient_vanishes_only_near_minimum(make):
    # Scan a 100x100 grid over [-5, 5]^2: tiny gradients must only show up
    # next to the documented minimizer.
    p = make()
    xs = np.linspace(-5.0, 5.0, 100)
    for x in xs:
        for y in xs:
            w = np.array([x, y])
            if np.linalg.norm(p.grad(w)) < 1e-10:
                assert np.linalg.norm(w - p.known_minimizer) < 0.2


def test_hvp_via_exact_hessian():
    rng = np.random.default_rng(0)
    for p in (RosenbrockProblem(), BealeProblem()):
        for _ in range(10):
            w = rng.uniform(-2.0, 2.0, size=2)
            v = rng.standard_normal(2)
            np.testing.assert_allclose(p.hvp(w, v), p.hessian(w) @ v, rtol=1e-14)


# ---------------------------------------------------------------------------
# Quadratic


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticProblem(np.zeros((2, 3)))
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        QuadraticProblem(asym)
    indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        QuadraticProblem(indefinite)
    with pytest.raises(ValueError):
        QuadraticProblem(np.eye(2), offset=np.zeros(3))


def test_quadratic_small_asymmetry_is_symmetrized():
    a = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
    p = QuadraticProblem(a)
    np.testing.assert_array_equal(p.matrix_a, p.matrix_a.T)


def test_quadratic_loss_grad_hessian():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((4, 4))
    a = m @ m.T + 4.0 * np.eye(4)
    offset = rng.standard_normal(4)
    p = QuadraticProblem(a, offset=offset)
    np.testing.assert_array_equal(p.known_minimizer, offset)
    np.testing.assert_array_equal(p.default_start, offset + 1.0)
    for _ in range(20):
        w = rng.standard_normal(4)
        r = w - offset
        assert p.loss(w) == pytest.approx(0.5 * r @ a @ r, rel=1e-14)
        np.testing.assert_allclose(p.grad(w), a @ r, rtol=1e-14)
        np.testing.assert_array_equal(p.hessian(w), p.matrix_a)


def test_quadratic_diagonal_values():
    p = QuadraticProblem(np.diag([2.0, 8.0]))
    w = np.array([1.0, 1.0])
    assert p.loss(w) == 5.0
    np.testing.assert_array_equal(p.grad(w), [2.0, 8.0])
    np.testing.assert_array_equal(p.hessian(w), np.diag([2.0, 8.0]))


def test_quadratic_taylor_identity_is_exact():
    # For a quadratic the second-order expansion is the function itself, so
    # L(w - eta*g) - L(w) + eta*<G,g> - eta^2/2 <g,Hg> must vanish to rounding.
    rng = np.random.default_rng(101)
    for _ in range(100):
        d = int(rng.integers(2, 8))
        m = rng.standard_normal((d, d))
        a = m @ m.T + d * np.eye(d)
        p = QuadraticProblem(a, offset=rng.standard_normal(d))
        w = rng.standard_normal(d)
        g = rng.standard_normal(d)
        eta = float(rng.uniform(0.01, 1.0))
        lhs = p.loss(w - eta * g) - p.loss(w)
        rhs = -eta * np.dot(p.grad(w), g) + 0.5 * eta**2 * (g @ a @ g)
        scale = max(1.0, abs(p.loss(w)))
        assert abs(lhs - rhs) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Logistic regression


def _tiny_logreg(n=64, d=3, seed=2, l2=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(np.int64)
    return LogisticRegressionProblem(x, y, l2_penalty=l2)


def test_logreg_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        LogisticRegressionProblem(x, np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        LogisticRegressionProblem(x, np.zeros(3))
    with pytest.raises(ValueError):
        LogisticRegressionProblem(x, np.zeros(4), l2_penalty=-0.1)
    with pytest.raises(ValueError):
        LogisticRegressionProblem(x, np.zeros(4), l2_penalty=float("nan"))


def test_logreg_loss_at_zero_is_log2():
    p = _tiny_logreg()
    assert p.loss(np.zeros(p.dim)) == pytest.approx(np.log(2.0), rel=1e-12)


def test_logreg_derivatives_match_fd():
    for l2 in (0.0, 0.05):
        p = _tiny_logreg(l2=l2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = rng.standard_normal(p.dim)
            np.testing.assert_allclose(
                p.grad(w), fd_gradient(p, w), rtol=1e-6, atol=1e-8
            )
            np.testing.assert_allclose(
                p.hessian(w), fd_hessian(p, w), rtol=1e-5, atol=1e-7
            )
            l, g = p.loss_grad(w)
            assert l == pytest.approx(p.loss(w), rel=1e-15)
            np.testing.assert_allclose(g, p.grad(w), rtol=1e-15)


def test_logreg_convexity_property():
    p = _tiny_logreg(n=128, d=4)
    rng = np.random.default_rng(77)
    for _ in range(200):
        w1 = rng.standard_normal(4) * 2.0
        w2 = rng.standard_normal(4) * 2.0
        lam = float(rng.random())
        mid = p.loss(lam * w1 + (1.0 - lam) * w2)
        assert mid <= lam * p.loss(w1) + (1.0 - lam) * p.loss(w2) + 1e-12


def test_logreg_synthetic_noise_batches():
    p = _tiny_logreg(n=32, d=2)
    w = np.array([0.1, 0.7])
    b = SyntheticNoise(seed=12, batch_size=8)
    # deterministic in the batch seed
    assert p.loss(w, b) == p.loss(w, SyntheticNoise(seed=12, batch_size=8))
    assert p.loss(w, b) != p.loss(w, SyntheticNoise(seed=13, batch_size=8))
    # drawing every sample reduces to the full-data loss
    full = SyntheticNoise(seed=99, batch_size=32)
    assert p.loss(w, full) == p.loss(w, FULL_DATA)
    with pytest.raises(ValueError):
        p.loss(w, SyntheticNoise(seed=0, batch_size=33))


def test_logreg_noise_memo_never_changes_a_result():
    # the problem keeps its last SyntheticNoise draw; interleaving batches
    # on one problem gives the bits a fresh problem gives for each
    p = _tiny_logreg(n=32, d=2, l2=0.1)
    w = np.array([0.3, -0.5])
    batches = [SyntheticNoise(seed=s, batch_size=8) for s in (4, 5, 4, 4, 6, 5)]
    for b in batches:
        fresh = _tiny_logreg(n=32, d=2, l2=0.1)
        assert p.loss(w, b) == fresh.loss(w, b)
        np.testing.assert_array_equal(p.grad(w, b), fresh.grad(w, b))
        np.testing.assert_array_equal(p.hessian(w, b), fresh.hessian(w, b))


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("batch", [FULL_DATA,
                                   SyntheticNoise(seed=5, batch_size=16)])
def test_logreg_reuses_its_last_pass_at_the_same_point(margin_passes, batch):
    # loss and loss_grad after a loss at the same (w, batch) take its pass:
    # no new pass, the bits of a fresh problem, and the kept arrays intact
    p = _tiny_logreg(n=64, d=3, l2=0.1)
    w = np.array([0.3, -0.5, 2.0])
    loss = p.loss(w, batch)
    kept = p._pass_memo[1][1:]
    before = [a.tobytes() for a in kept]
    assert margin_passes[0] == 1
    want_loss = _tiny_logreg(n=64, d=3, l2=0.1).loss(w, batch)
    want_l, want_g = _tiny_logreg(n=64, d=3, l2=0.1).loss_grad(w, batch)
    margin_passes[0] = 0
    assert _bits(loss) == _bits(want_loss)
    # a list and a fresh copy carry the same bits of w
    assert _bits(p.loss(list(w), batch)) == _bits(want_loss)
    got_l, got_g = p.loss_grad(w.copy(), batch)
    assert _bits(got_l) == _bits(want_l) and got_g.tobytes() == want_g.tobytes()
    assert p.grad(w, batch).tobytes() == want_g.tobytes()
    assert _bits(p.loss(w, batch)) == _bits(want_loss)
    assert margin_passes[0] == 0
    assert [a.tobytes() for a in kept] == before


def test_logreg_recomputes_at_another_point_or_batch(margin_passes):
    p = _tiny_logreg(n=64, d=3, l2=0.1)
    w = np.array([0.3, -0.5, 2.0])
    b = SyntheticNoise(seed=5, batch_size=16)
    p.loss(w, b)
    others = [(np.nextafter(w, 1.0), b),
              (w, SyntheticNoise(seed=6, batch_size=16)),
              (w, SyntheticNoise(seed=5, batch_size=17)),
              (w, FULL_DATA),
              (np.array([0.3, -0.5, -2.0]), FULL_DATA)]
    for k, (w2, b2) in enumerate(others, start=2):
        fresh = _tiny_logreg(n=64, d=3, l2=0.1)
        got_l, got_g = p.loss_grad(w2, b2)
        want_l, want_g = fresh.loss_grad(w2, b2)
        assert _bits(got_l) == _bits(want_l) and got_g.tobytes() == want_g.tobytes()
        # one pass for p, one for the fresh problem
        assert margin_passes[0] == 2 * k - 1


@pytest.mark.parametrize("evaluate, vectors", [("loss", 3), ("loss_grad", 3),
                                              ("hvp", 1)])
def test_logreg_drops_its_kept_pass_before_a_new_one(evaluate, vectors):
    # a pass at another point, or the hvp's curvature pass, frees the kept
    # margins (two n-vectors) before it allocates its own: four n-vectors
    # at the peak of a forward pass, two in the hvp
    n, d = 65536, 8
    p = generate_dataset(seed=1, n=n, d=d)
    rng = np.random.default_rng(3)
    w, v = rng.standard_normal(d), rng.standard_normal(d)
    args = (w, v) if evaluate == "hvp" else (v,)
    tracemalloc.start()
    try:
        p.loss(w)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        getattr(p, evaluate)(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < vectors * 8 * n


_LOGREG_ENTRIES = {
    "loss": lambda p, w: p.loss(w), "grad": lambda p, w: p.grad(w),
    "loss_grad": lambda p, w: p.loss_grad(w),
    "hessian": lambda p, w: p.hessian(w),
    "hvp": lambda p, w: p.hvp(w, np.ones(p.dim))}


def _logreg8():
    return generate_dataset(seed=1, n=64, d=8, l2_penalty=0.01)


@pytest.mark.parametrize("entry", _LOGREG_ENTRIES)
def test_logreg_checks_w_one_way(entry):
    # every entry takes w's values, not its layout, and rejects a w of
    # another shape or with a NaN or Inf entry
    # (a w whose w . w rounds differently when strided; each call on a
    # problem of its own, so none reuses another's kept pass)
    call = _LOGREG_ENTRIES[entry]
    strided = np.random.default_rng(8).standard_normal((8, 3))[:, 1]
    assert not strided.flags.c_contiguous
    want = call(_logreg8(), strided.copy())
    np.testing.assert_equal(call(_logreg8(), strided), want)
    np.testing.assert_equal(call(_logreg8(), list(strided)), want)
    p = _logreg8()
    for wrong in (np.zeros(7), np.zeros((1, 8))):
        with pytest.raises(DimensionMismatchError):
            call(p, wrong)
    for bad in (np.nan, np.inf):
        w = strided.copy()
        w[2] = bad
        with pytest.raises(NonFiniteError):
            call(p, w)


# ---------------------------------------------------------------------------
# logistic curvature: the matrix-free hvp and the Hessian share sigmoid'


def _logreg_hvp_cases():
    # (problem, batch, w, v) on the full batch and one mini-batch, margins
    # from near 0 to saturated
    rng = np.random.default_rng(8)
    for l2 in (0.0, 0.1):
        p = _tiny_logreg(n=64, d=3, l2=l2)
        for batch in (FULL_DATA, SyntheticNoise(seed=5, batch_size=16)):
            for scale in (0.1, 1.0, 10.0):
                yield (p, batch, rng.standard_normal(3) * scale,
                       rng.standard_normal(3))


def test_logreg_hvp_is_the_hessian_times_v():
    for p, batch, w, v in _logreg_hvp_cases():
        hv = p.hvp(w, v, batch)
        want = p.hessian(w, batch) @ v
        assert np.linalg.norm(hv - want) <= 1e-14 * np.linalg.norm(want)


def test_logreg_hvp_matches_a_central_difference_of_the_gradient():
    h = 1e-5
    for p, batch, w, v in _logreg_hvp_cases():
        hv = p.hvp(w, v, batch)
        fd = (p.loss_grad(w + h * v, batch)[1]
              - p.loss_grad(w - h * v, batch)[1]) / (2.0 * h)
        np.testing.assert_allclose(hv, fd, rtol=1e-6,
                                   atol=1e-6 * np.linalg.norm(hv))


def test_logreg_curvature_stays_positive_at_saturated_margins():
    # one row x = 1 with w = z: the Hessian and the hvp along 1 are
    # sigmoid'(z) itself, e / (1 + e)^2 with e = exp(-|z|). Past
    # |z| = 37 the (1 + e)^2 rounds to 1, so it is exp(-|z|); a sigmoid
    # that rounds to 1.0 there would give exactly 0
    p = LogisticRegressionProblem(np.array([[1.0]]), np.array([0]))
    mags = np.concatenate([np.logspace(-5, np.log10(700.0), 201), [700.0]])
    for z in np.concatenate([-mags, mags]):
        w = np.array([z])
        s = p.hessian(w)[0, 0]
        assert p.hvp(w, np.ones(1))[0] == s, z
        assert 0.0 < s <= 0.25, z
        if abs(z) > 37.0:
            assert s == pytest.approx(np.exp(-abs(z)), rel=1e-15), z


def test_logreg_hvp_keeps_no_n_by_d_temporary():
    # one hvp allocates a few n-vectors, never the n x d product the
    # dense Hessian builds
    n, d = 65536, 8
    p = generate_dataset(seed=1, n=n, d=d)
    rng = np.random.default_rng(3)
    w, v = rng.standard_normal(d), rng.standard_normal(d)
    p.hvp(w, v)
    tracemalloc.start()
    try:
        p.hvp(w, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * n


# ---------------------------------------------------------------------------
# loss_grad: one evaluation, the bits of loss and grad


@pytest.mark.parametrize("make", [
    RosenbrockProblem,
    BealeProblem,
    lambda: QuadraticProblem([[4.0, 1.0], [1.0, 3.0]], offset=[2.0, -1.0]),
    lambda: _tiny_logreg(l2=0.1),
])
def test_loss_grad_matches_loss_and_grad_bits(make):
    p = make()
    rng = np.random.default_rng(31)
    batches = [FULL_DATA]
    if isinstance(p, LogisticRegressionProblem):
        batches.append(SyntheticNoise(seed=8, batch_size=16))
    for _ in range(20):
        w = rng.uniform(-3.0, 3.0, size=p.dim)
        for b in batches:
            loss, g = p.loss_grad(w, b)
            assert type(loss) is float and loss == p.loss(w, b)
            np.testing.assert_array_equal(g, p.grad(w, b))


@pytest.mark.parametrize("make", [
    RosenbrockProblem,
    BealeProblem,
    lambda: QuadraticProblem([[4.0, 1.0], [1.0, 3.0]], offset=[2.0, -1.0]),
    lambda: _tiny_logreg(l2=0.1),
])
def test_loss_grad_rows_match_loss_grad_bits(make):
    # row k of a block evaluation carries the bits of loss_grad (or loss)
    # at row k, overflowed rows included
    p = make()
    rng = np.random.default_rng(32)
    ws = rng.uniform(-3.0, 3.0, size=(9, p.dim))
    ws[-2:] *= np.array([1e150, 1e300])[:, None]
    batches = [FULL_DATA]
    if isinstance(p, LogisticRegressionProblem):
        batches.append(SyntheticNoise(seed=8, batch_size=16))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in batches:
            losses, gs = p.loss_grad_rows(ws, b)
            only, none = p.loss_grad_rows(ws, b, grad=False)
            pairs = [p.loss_grad(w, b) for w in ws]
            assert losses.shape == (9,) and gs.shape == (9, p.dim)
            assert none is None
            want = np.array([loss for loss, _ in pairs])
            assert losses.tobytes() == want.tobytes() == only.tobytes()
            assert gs.tobytes() == np.array([g for _, g in pairs]).tobytes()


def test_surface_rows_need_two_columns():
    with pytest.raises(ValueError):
        RosenbrockProblem().loss_grad_rows(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        BealeProblem().loss_grad_rows(np.zeros(2))


# ---------------------------------------------------------------------------
# Synthetic dataset generation


def test_generate_dataset_shapes_and_determinism():
    a = generate_dataset(seed=5, n=200, d=4)
    b = generate_dataset(seed=5, n=200, d=4)
    assert a.features.shape == (200, 4)
    assert a.labels.shape == (200,)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_dataset(seed=6, n=200, d=4)
    assert not np.array_equal(a.features, c.features)


def test_logreg_keeps_copies_of_the_callers_arrays():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((32, 3))
    y = (rng.random(32) < 0.5).astype(np.int64)
    p = LogisticRegressionProblem(x, y, l2_penalty=0.1)
    w = np.array([0.3, -0.2, 0.5])
    before = (p.loss(w), p.grad(w).tobytes())
    x[:] = 7.0
    y[:] = 1 - y
    assert (p.loss(w), p.grad(w).tobytes()) == before


def test_generate_dataset_holds_its_features_once():
    # the problem takes the drawn arrays, so building it never holds a
    # second copy of the feature matrix
    n, d = 16384, 8
    generate_dataset(seed=1, n=64, d=d)
    tracemalloc.start()
    try:
        p = generate_dataset(seed=1, n=n, d=d)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.features.dtype == np.float64 and p.labels.dtype == np.int64
    assert peak - kept < p.features.nbytes / 2


def test_generate_dataset_labels_and_flips():
    ds = generate_dataset(seed=3, n=5000, d=6)
    assert set(np.unique(ds.labels)) <= {0, 1}
    # about 5% of labels are flipped off the separating hyperplane; with the
    # flip the empirical error rate should sit near that mark
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5000, 6))
    w_true = rng.standard_normal(6)
    clean = (x @ w_true > 0).astype(np.int64)
    np.testing.assert_array_equal(x, ds.features)
    flip_rate = np.mean(clean != ds.labels)
    assert 0.03 < flip_rate < 0.07


def test_generate_dataset_validation():
    with pytest.raises(ValueError):
        generate_dataset(seed=0, n=1, d=2)
    with pytest.raises(ValueError):
        generate_dataset(seed=0, n=10, d=0)


def test_generate_dataset_l2_passthrough():
    ds = generate_dataset(seed=1, n=50, d=2, l2_penalty=0.5)
    w = np.ones(2)
    ds0 = generate_dataset(seed=1, n=50, d=2)
    assert ds.loss(w) == pytest.approx(ds0.loss(w) + 0.25 * 2.0, rel=1e-12)


@pytest.mark.parametrize("labels", [
    np.array([0, 1, 1, 0]),
    np.array([0.0, 1.0, 1.0, 0.0]),
    np.array([False, True, True, False]),
])
def test_logreg_accepts_binary_labels(labels):
    p = LogisticRegressionProblem(np.zeros((4, 2)), labels)
    assert p.labels.dtype == np.int64
    np.testing.assert_array_equal(p.labels, [0, 1, 1, 0])


@pytest.mark.parametrize("labels", [
    np.array([0, 1, 2, 0]),
    np.array([0, 1, -1, 0]),
    np.array([0.0, 1.0, 0.5, 0.0]),
    np.array([0.0, 1.0, np.nan, 0.0]),
    np.array(["0", "1", "1", "0"]),
    np.array([0, 1, None, 0], dtype=object),
])
def test_logreg_rejects_non_binary_labels(labels):
    with pytest.raises(ValueError, match="labels must be binary"):
        LogisticRegressionProblem(np.zeros((4, 2)), labels)
