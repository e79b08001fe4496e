"""Probe evaluation, quadratic curve fitting, guard logic, and the
adaptive learning-rate controller."""

import warnings

import numpy as np
import pytest

from conftest import Concave1D, CountingObjective, Cubic1D, random_spd_problem
from reference import fd5_eta, lqa3_eta
from genopt.core import (
    FULL_DATA,
    DimensionMismatchError,
    NonFiniteError,
    Objective,
)
from genopt.gen import (
    CLAMP_FACTOR,
    ETA0_GRID,
    REJECTED,
    GenController,
    NonFiniteProbeLoss,
    QuadraticFit,
    auto_search_eta0,
    exact_eta_hvp,
    fit_quadratic,
    gen_update,
    probe_losses,
    smooth,
)
from genopt.problems import QuadraticProblem


def _unit_quadratic():
    # L(w) = 0.5 w^2 in one dimension
    return QuadraticProblem(np.array([[1.0]]))


# ---------------------------------------------------------------------------
# probe_losses


def test_probe_losses_three_point_values():
    p = _unit_quadratic()
    probes = probe_losses(p, np.array([1.0]), np.array([1.0]), 0.5)
    assert probes == [(-0.5, 1.125), (0.0, 0.5), (0.5, 0.125)]


def test_probe_losses_five_point_grid():
    p = _unit_quadratic()
    probes = probe_losses(p, np.array([1.0]), np.array([1.0]), 0.25, points=5)
    etas = [e for e, _ in probes]
    assert etas == [-0.5, -0.25, 0.0, 0.25, 0.5]
    for e, l in probes:
        assert l == p.loss(np.array([1.0 - e]))


def test_probe_losses_reuses_center_loss():
    counting = CountingObjective(_unit_quadratic())
    w = np.array([1.0])
    d = np.array([1.0])
    probe_losses(counting, w, d, 0.5, l_zero=0.5)
    assert counting.loss_calls == 2  # only the shifted points
    counting.loss_calls = 0
    probe_losses(counting, w, d, 0.5)
    assert counting.loss_calls == 3


def test_probe_losses_validation():
    p = _unit_quadratic()
    w = np.array([1.0])
    d = np.array([1.0])
    with pytest.raises(ValueError):
        probe_losses(p, w, d, 0.5, points=4)
    for points in (3.0, 5.0):
        with pytest.raises(ValueError):
            probe_losses(p, w, d, 0.5, points=points)
    assert len(probe_losses(p, w, d, 0.5, points=np.int64(3))) == 3
    with pytest.raises(ValueError):
        probe_losses(p, w, d, 0.0)
    with pytest.raises(ValueError):
        probe_losses(p, w, d, -1.0)
    with pytest.raises(ValueError):
        probe_losses(p, w, d, float("inf"))


class _BlowsUp(Objective):
    dim = 1

    def loss(self, w, batch=FULL_DATA):
        return float("nan") if w[0] != 1.0 else 0.5

    def grad(self, w, batch=FULL_DATA):
        return np.zeros(1)


def test_probe_losses_nonfinite_raises_fit_rejection_error():
    with pytest.raises(NonFiniteProbeLoss):
        probe_losses(_BlowsUp(), np.array([1.0]), np.array([1.0]), 0.5)
    # a point that overflows is rejected before the objective sees it
    # (the quadratic's own check would raise a plain NonFiniteError)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteProbeLoss):
            probe_losses(_unit_quadratic(), np.array([1e308]),
                         np.array([-1e308]), 1.0, l_zero=1.0)
    # and that error is a NonFiniteError subtype so callers can treat both
    assert issubclass(NonFiniteProbeLoss, NonFiniteError)


def test_probe_losses_offset_past_the_float_range_is_a_blown_up_probe():
    # 2 * 1e308 is inf: the outer probes of a 5-point set have no point
    counting = CountingObjective(_unit_quadratic())
    with pytest.raises(NonFiniteProbeLoss):
        probe_losses(counting, np.array([1.0]), np.array([1e-300]), 1e308,
                     points=5)
    assert counting.loss_calls == 0
    # the same rate with 3 points stays inside the range
    assert len(probe_losses(counting, np.array([1.0]), np.array([1e-300]),
                            1e308)) == 3
    # no point is formed from an infinite offset, whose product with a
    # zero direction entry would be NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteProbeLoss):
            probe_losses(counting, np.array([1.0]), np.array([0.0]), 1e308,
                         points=5)


def test_probe_losses_shape_mismatch():
    p = _unit_quadratic()
    with pytest.raises(DimensionMismatchError):
        probe_losses(p, np.array([1.0]), np.array([1.0, 2.0]), 0.5)


def test_probe_losses_zero_direction_is_flat():
    p = _unit_quadratic()
    probes = probe_losses(p, np.array([2.0]), np.array([0.0]), 0.5)
    assert all(l == 2.0 for _, l in probes)


# ---------------------------------------------------------------------------
# fit_quadratic


def test_fit_quadratic_worked_example():
    fit = fit_quadratic([(-0.5, 1.125), (0.0, 0.5), (0.5, 0.125)])
    assert fit.curvature == 1.0
    assert fit.slope == 1.0
    assert fit.r2 == 1.0
    assert fit.eta_candidate == 1.0


def test_fit_quadratic_recovers_known_coefficients():
    # exact model data y = a*eta^2/2 - b*eta over five points
    a_true, b_true = 3.0, 0.75
    l0 = 2.0
    probes = []
    for e in (-0.2, -0.1, 0.0, 0.1, 0.2):
        probes.append((e, l0 + 0.5 * a_true * e * e - b_true * e))
    fit = fit_quadratic(probes)
    assert fit.curvature == pytest.approx(a_true, rel=1e-12)
    assert fit.slope == pytest.approx(b_true, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.eta_candidate == pytest.approx(b_true / a_true, rel=1e-12)


def test_fit_quadratic_matches_analytic_on_random_quadratics():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = random_spd_problem(rng)
        w = p.default_start + rng.standard_normal(p.dim)
        g = p.grad(w)
        if np.linalg.norm(g) < 1e-8:
            continue
        probes = probe_losses(p, w, g, 0.37)
        fit = fit_quadratic(probes)
        expect = float(np.dot(g, g) / (g @ p.matrix_a @ g))
        assert fit.eta_candidate == pytest.approx(expect, rel=1e-10)


def test_fit_quadratic_structural_errors():
    with pytest.raises(ValueError):
        fit_quadratic([(-0.1, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        fit_quadratic([(0.1, 1.0), (0.1, 2.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        fit_quadratic([(-0.1, 1.0), (0.1, 1.0), (0.2, 1.0)])  # no eta = 0
    with pytest.raises(ValueError):
        fit_quadratic([(-0.1, float("nan")), (0.0, 1.0), (0.1, 1.0)])


def test_fit_quadratic_flat_pattern_fails_guards():
    fit = fit_quadratic([(-0.1, 2.0), (0.0, 2.0), (0.1, 2.0)])
    assert fit.curvature == 0.0
    assert fit.slope == 0.0
    assert fit.r2 == 0.0


def test_fit_quadratic_overflow_is_rejected_not_raised():
    fit = fit_quadratic([(-1e200, 1.0), (0.0, 0.5), (1e200, 1.0)])
    assert fit is REJECTED


def test_fit_quadratic_three_point_r2_is_one():
    # two informative points, two unknowns: interpolation, so r2 is
    # pinned at 1 and carries no lack-of-fit signal
    fit = fit_quadratic([(-0.2, 5.0), (0.0, 1.0), (0.2, 4.0)])
    assert fit.r2 == 1.0


def test_fit_quadratic_five_point_r2_detects_cubic():
    probes = []
    for e in (-0.4, -0.2, 0.0, 0.2, 0.4):
        probes.append((e, 0.5 * 2.0 * e * e - 1.0 * e + 5.0 * e**3))
    fit = fit_quadratic(probes)
    assert fit.r2 < 1.0


def test_quadratic_fit_candidate_requires_curvature():
    assert QuadraticFit(curvature=2.0, slope=1.0, r2=1.0).eta_candidate == 0.5
    assert REJECTED.curvature == 0.0 and REJECTED.slope == 0.0


# ---------------------------------------------------------------------------
# closed-form variants


def test_lqa3_worked_examples():
    # same parabola as the probe example, arguments in ascent convention
    assert lqa3_eta(0.125, 0.5, 1.125, 0.5) == 1.0
    # concave triple: the formula happily returns a negative step and
    # leaves rejecting it to the caller
    assert lqa3_eta(4.0, 1.0, 2.0, 1.0) == -0.25
    assert lqa3_eta(1.0, 1.0, 1.0, 0.5) is None


def test_lqa3_matches_fit_on_symmetric_probes():
    rng = np.random.default_rng(33)
    for _ in range(500):
        h = float(10.0 ** rng.uniform(-3, 0))
        a, b, c = rng.standard_normal(3)
        fit = fit_quadratic([(-h, a), (0.0, b), (h, c)])
        if abs(fit.curvature) < 1e-9:
            continue
        lqa = lqa3_eta(c, b, a, h)
        assert lqa == pytest.approx(fit.eta_candidate, rel=1e-12)


def test_fd5_exact_on_quadratic_data():
    p = _unit_quadratic()
    w = np.array([2.0])
    g = p.grad(w)
    probes = probe_losses(p, w, g, 0.125, points=5)
    losses = [l for _, l in probes]
    # probes are in descent order; fd5 wants ascent order
    eta = fd5_eta(losses[4], losses[3], losses[2], losses[1], losses[0], 0.125)
    # g^T g / g^T H g = 1 for the identity-Hessian quadratic
    assert eta == pytest.approx(1.0, rel=1e-12)
    assert fd5_eta(1.0, 1.0, 1.0, 1.0, 1.0, 0.5) is None


def test_fd5_beats_lqa3_on_cubic():
    obj = Cubic1D()
    w = np.array([1.0])
    g = obj.grad(w)
    exact = exact_eta_hvp(obj, w, g, g)
    h = 0.01
    p3 = probe_losses(obj, w, g, h)
    l3 = [l for _, l in p3]
    e3 = lqa3_eta(l3[2], l3[1], l3[0], h)
    p5 = probe_losses(obj, w, g, h, points=5)
    l5 = [l for _, l in p5]
    e5 = fd5_eta(l5[4], l5[3], l5[2], l5[1], l5[0], h)
    assert abs(e5 - exact) < abs(e3 - exact) / 10.0


def test_smooth_bit_level_value():
    assert smooth(0.1, 0.2, 0.9) == 0.11000000000000001
    assert smooth(0.5, 1.5, 0.0) == 1.5
    assert smooth(0.5, 1.5, 0.5) == 1.0


# ---------------------------------------------------------------------------
# controller


def test_controller_validation():
    GenController(eta=0.1)
    with pytest.raises(ValueError):
        GenController(eta=0.0)
    with pytest.raises(ValueError):
        GenController(eta=0.1, gamma=1.0)
    with pytest.raises(ValueError):
        GenController(eta=0.1, phi=0)
    with pytest.raises(ValueError):
        GenController(eta=0.1, probe_points=4)
    with pytest.raises(ValueError):
        GenController(eta=0.1, probe_points=3.0)
    GenController(eta=0.1, probe_points=np.int64(5))
    with pytest.raises(ValueError):
        GenController(eta=0.1, r2_threshold=0.0)
    with pytest.raises(ValueError):
        GenController(eta=0.1, r2_threshold=1.5)
    with pytest.raises(ValueError):
        GenController(eta=0.1, horizon=0)
    GenController(eta=0.1, estimator="hvp")
    with pytest.raises(ValueError):
        GenController(eta=0.1, estimator="magic")


def test_controller_counters_follow_each_estimate():
    with pytest.raises(TypeError):
        GenController(eta=0.1, step=3)  # the step counter is not an input
    ctrl = GenController(eta=0.05, phi=1, gamma=0.0)
    with pytest.raises(AttributeError):
        ctrl.fits_rejected = 0
    w = np.array([1.0])
    rejected = 0
    for obj in (Concave1D(), _unit_quadratic(), Concave1D(), _BlowsUp()):
        _, rec = gen_update(ctrl, obj, w, obj.grad(w), l_zero=0.5)
        rejected += not rec.fit_accepted
        assert ctrl.fits_rejected == rejected
        assert ctrl.fits_accepted + ctrl.fits_rejected == ctrl.fit_attempts
    assert (ctrl.step, ctrl.fit_attempts, rejected) == (4, 4, 3)


def test_gen_update_lazy_schedule():
    p = _unit_quadratic()
    counting = CountingObjective(p)
    ctrl = GenController(eta=0.1, phi=4, gamma=0.0)
    w = np.array([1.0])
    for t in range(1, 13):
        g = counting.grad(w)
        before = counting.loss_calls
        _, rec = gen_update(ctrl, counting, w, g)
        probes_used = counting.loss_calls - before
        if t % 4 == 0:
            assert probes_used == 3  # center + two shifted
            assert rec.eta_candidate is not None
        else:
            assert probes_used == 0  # off schedule: no evaluation
            assert rec.eta_candidate is None
    assert ctrl.fit_attempts == 3
    assert ctrl.fits_accepted == 3


def test_gen_update_accepts_on_convex_slice():
    p = QuadraticProblem(np.diag([2.0, 8.0]))
    ctrl = GenController(eta=0.1, phi=1, gamma=0.0)
    w = np.array([1.0, 1.0])
    g = p.grad(w)
    eta, rec = gen_update(ctrl, p, w, g)
    expect = float(np.dot(g, g) / (g @ p.matrix_a @ g))
    assert rec.fit_accepted
    assert eta == pytest.approx(expect, rel=1e-12)
    assert rec.fit_r2 == 1.0


def test_gen_update_rejects_concave_and_keeps_eta_bits():
    obj = Concave1D()
    ctrl = GenController(eta=0.05, phi=1, gamma=0.0)
    w = np.array([1.0])
    g = obj.grad(w)
    eta_before = ctrl.eta
    eta, rec = gen_update(ctrl, obj, w, g)
    assert not rec.fit_accepted
    assert eta == eta_before  # bit-identical, no drift on rejection
    assert ctrl.fits_rejected == 1
    assert rec.eta_candidate is not None and rec.eta_candidate < 0


def test_gen_update_rejects_uphill_slope():
    p = _unit_quadratic()
    ctrl = GenController(eta=0.1, phi=1, gamma=0.0)
    w = np.array([1.0])
    d = -p.grad(w)  # points away from the minimum
    eta, rec = gen_update(ctrl, p, w, d)
    assert not rec.fit_accepted
    assert eta == 0.1


def test_gen_update_rejects_a_zero_slope():
    # d is orthogonal to the gradient of this bowl, so the symmetric probes
    # fit an exact parabola (r2 1.0) whose slope is exactly 0: the slope
    # guard is strict, and the candidate 0.0 must not move eta
    p = QuadraticProblem([[1.0, 0.0], [0.0, 1.0]])
    ctrl = GenController(eta=0.5, phi=1)
    eta, rec = gen_update(ctrl, p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert eta == 0.5 and ctrl.eta == 0.5
    assert (rec.eta_candidate, rec.fit_accepted, rec.fit_r2) == (0.0, False,
                                                                 1.0)
    assert ctrl.fits_rejected == 1


def test_gen_update_rejects_nonfinite_probe():
    obj = _BlowsUp()
    ctrl = GenController(eta=0.5, phi=1)
    eta, rec = gen_update(ctrl, obj, np.array([1.0]), np.array([1.0]),
                          l_zero=0.5)
    assert not rec.fit_accepted
    assert eta == 0.5
    assert ctrl.fits_rejected == 1


def test_gen_update_r2_guard_strict():
    # quartic contamination keeps five-point r2 below 1; a threshold of 1
    # must reject (the comparison is strict)
    class Quartic(Objective):
        dim = 1

        def loss(self, w, batch=FULL_DATA):
            return float(0.5 * w[0] ** 2 + 0.05 * w[0] ** 4)

        def grad(self, w, batch=FULL_DATA):
            return np.array([w[0] + 0.2 * w[0] ** 3])

    obj = Quartic()
    w = np.array([1.0])
    g = obj.grad(w)
    strict = GenController(eta=0.3, phi=1, probe_points=5, r2_threshold=1.0)
    eta, rec = gen_update(strict, obj, w, g)
    assert rec.fit_r2 is not None and rec.fit_r2 < 1.0
    assert not rec.fit_accepted and eta == 0.3
    loose = GenController(eta=0.3, phi=1, probe_points=5, r2_threshold=0.9)
    eta2, rec2 = gen_update(loose, obj, w, g)
    assert rec2.fit_accepted and eta2 != 0.3


def test_gen_update_smoothing():
    p = _unit_quadratic()
    ctrl = GenController(eta=0.1, phi=1, gamma=0.9)
    w = np.array([1.0])
    g = p.grad(w)
    eta, _ = gen_update(ctrl, p, w, g)
    # candidate is 1.0 here, clamped to 10 * 0.1 = 1.0, then smoothed
    assert eta == pytest.approx(smooth(0.1, 1.0, 0.9), rel=0)


def test_gen_update_clamp():
    # candidate far above the working rate gets pinned to the clamp edge
    p = QuadraticProblem(np.array([[1e-4]]))  # eta* = 1e4 along g
    ctrl = GenController(eta=1.0, phi=1, gamma=0.0)
    w = np.array([1.0])
    g = p.grad(w)
    eta, rec = gen_update(ctrl, p, w, g)
    assert rec.fit_accepted
    assert eta == CLAMP_FACTOR * 1.0
    # and symmetrically from below
    p2 = QuadraticProblem(np.array([[1e4]]))  # eta* = 1e-4
    ctrl2 = GenController(eta=1.0, phi=1, gamma=0.0)
    eta2, _ = gen_update(ctrl2, p2, w, p2.grad(w))
    assert eta2 == 1.0 / CLAMP_FACTOR


def test_gen_update_decay_schedule():
    p = _unit_quadratic()
    ctrl = GenController(eta=0.5, phi=1, gamma=0.0, horizon=10)
    w = np.array([1.0])
    g = p.grad(w)
    eta, _ = gen_update(ctrl, p, w, g)
    # candidate 1.0 scaled by (1 - 1/10), well inside the clamp window
    assert eta == pytest.approx(0.9, rel=1e-15)
    # run the controller to the horizon: the factor floors at zero and the
    # clamp keeps eta positive
    for _ in range(20):
        eta, _ = gen_update(ctrl, p, np.array([1.0]), g)
    assert eta > 0.0


def test_gen_update_uses_supplied_center_loss():
    p = _unit_quadratic()
    counting = CountingObjective(p)
    ctrl = GenController(eta=0.1, phi=1, gamma=0.0)
    gen_update(ctrl, counting, np.array([1.0]), np.array([1.0]), l_zero=0.5)
    assert counting.loss_calls == 2


def test_gen_update_fit_checks_the_direction_shape():
    p = _unit_quadratic()
    ctrl = GenController(eta=0.1, phi=1)
    with pytest.raises(DimensionMismatchError):
        gen_update(ctrl, p, np.array([1.0]), np.array([1.0, 2.0]))


def test_gen_update_hvp_needs_the_raw_gradient():
    p = _unit_quadratic()
    w = np.array([1.0])
    ctrl = GenController(eta=0.1, phi=1, estimator="hvp")
    with pytest.raises(ValueError):
        gen_update(ctrl, p, w, p.grad(w))
    assert ctrl.step == 0
    eta, rec = gen_update(ctrl, p, w, p.grad(w), raw_grad=p.grad(w))
    assert rec.fit_accepted and rec.fit_r2 is None


# ---------------------------------------------------------------------------
# exact curvature route


def test_exact_eta_hvp_on_quadratic():
    rng = np.random.default_rng(8)
    for _ in range(30):
        p = random_spd_problem(rng)
        w = rng.standard_normal(p.dim)
        g = p.grad(w)
        expect = float(np.dot(g, g) / (g @ p.matrix_a @ g))
        got = exact_eta_hvp(p, w, g, g)
        assert got == pytest.approx(expect, rel=1e-14)


def test_exact_eta_hvp_degenerate_cases():
    p = _unit_quadratic()
    w = np.array([1.0])
    assert exact_eta_hvp(p, w, np.array([1.0]), np.zeros(1)) is None
    obj = Concave1D()
    g = obj.grad(np.array([1.0]))
    assert exact_eta_hvp(obj, np.array([1.0]), g, g) is None
    with pytest.raises(ValueError):
        exact_eta_hvp(p, w, np.ones(2), np.ones(1))


def test_exact_eta_hvp_newton_direction_gives_unit_step():
    rng = np.random.default_rng(55)
    for _ in range(20):
        p = random_spd_problem(rng)
        w = rng.standard_normal(p.dim)
        g = p.grad(w)
        d = np.linalg.solve(p.matrix_a, g)
        eta = exact_eta_hvp(p, w, g, d)
        assert eta == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# starting-rate search


def test_auto_search_grid_shape():
    assert len(ETA0_GRID) == 9
    assert ETA0_GRID[0] == 1e-6
    assert ETA0_GRID[-1] == 100.0


def test_auto_search_picks_exact_minimizer():
    # L(w - eta g) along g from w = (1, 0) on the identity quadratic is
    # minimized exactly at eta = 1, which sits on the grid
    p = QuadraticProblem(np.eye(2))
    w = np.array([1.0, 0.0])
    assert auto_search_eta0(p, w, p.grad(w)) == 1.0


def test_auto_search_flat_objective_warns_and_returns_smallest(caplog):
    class Flat(Objective):
        dim = 1

        def loss(self, w, batch=FULL_DATA):
            return 7.0

        def grad(self, w, batch=FULL_DATA):
            return np.ones(1)

    with caplog.at_level("WARNING", logger="genopt.gen"):
        eta = auto_search_eta0(Flat(), np.zeros(1), np.ones(1))
    assert eta == 1e-6
    assert any("no improving step" in m for m in caplog.messages)


def test_auto_search_all_nonfinite_raises():
    class Abyss(Objective):
        dim = 1

        def loss(self, w, batch=FULL_DATA):
            return float("inf") if w[0] != 0.0 else 1.0

        def grad(self, w, batch=FULL_DATA):
            return np.ones(1)

    with pytest.raises(ValueError):
        auto_search_eta0(Abyss(), np.zeros(1), np.ones(1))
