"""Property tests: controller invariants under arbitrary probe data and
curvature, the step loop's lean cores against the public functions they
serve, and the step-loop check helpers against the numpy calls they
replace."""

import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from genopt.core import (  # noqa: E402
    FULL_DATA,
    Objective,
    all_finite,
    finite_array,
    norm,
)
from genopt.gen import (  # noqa: E402
    CLAMP_FACTOR,
    NO_ESTIMATE,
    REJECTED,
    Estimate,
    GenController,
    NonFiniteProbeLoss,
    _estimate,
    fit_quadratic,
    gen_update,
    probe_losses,
)
from genopt.optim import (  # noqa: E402
    AdamWState,
    SgdState,
    _adamw_rule,
    _sgd_rule,
    adamw_direction,
    sgd_direction,
)

PROPS = settings(max_examples=100, deadline=None)

# overflow to inf is among the inputs these properties are about
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")

finite = st.floats(allow_nan=False, allow_infinity=False)
any_float = st.floats(allow_nan=True, allow_infinity=True)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ---------------------------------------------------------------------------
# fit_quadratic


@st.composite
def probe_sets(draw):
    n = draw(st.sampled_from((3, 5)))
    etas = draw(st.lists(finite.filter(lambda e: e != 0.0), min_size=n - 1,
                         max_size=n - 1, unique=True))
    etas.append(0.0)
    losses = draw(st.lists(finite, min_size=n, max_size=n))
    return list(zip(draw(st.permutations(etas)), losses))


@PROPS
@given(probe_sets())
@example([(-1.0, 1e200), (0.0, 0.0), (1.0, 1e200)])
@example([(-2.0, 1e200), (-1.0, 0.0), (0.0, 0.0), (1.0, 1e200), (2.0, 0.0)])
def test_fit_quadratic_never_raises_on_finite_probes(probes):
    fit = fit_quadratic(probes)
    assert fit is REJECTED or (math.isfinite(fit.curvature)
                               and math.isfinite(fit.slope))


# ---------------------------------------------------------------------------
# gen_update


class _ScriptedLosses(Objective):
    """Returns the scripted losses in call order, whatever the point."""

    dim = 1

    def __init__(self, losses):
        self.losses = list(losses)

    def loss(self, w, batch=None):
        return self.losses.pop(0)


class _Parabola(Objective):
    """0.5 * curvature * (w - center)^2; overflows to inf, never raises."""

    dim = 1

    def __init__(self, curvature, center):
        self.curvature = curvature
        self.center = center

    def loss(self, w, batch=None):
        r = float(w[0]) - self.center
        return 0.5 * self.curvature * r * r


class _Curvature1D(Objective):
    """Flat loss with an arbitrary exact Hessian, for the hvp estimator."""

    dim = 1

    def __init__(self, curvature):
        self.curvature = curvature

    def loss(self, w, batch=None):
        return 0.0

    def hessian(self, w, batch=None):
        return np.array([[self.curvature]])


# (estimator, objective, l_zero, raw gradient, direction): arbitrary probe
# losses with any l_zero, or a descent direction on a convex parabola,
# whose exact fits reach the accept branch and the clamp; for the hvp
# estimator any curvature, gradient and direction
moderate = st.floats(min_value=1e-2, max_value=1e2)
scripted = st.tuples(
    st.just("fit"),
    st.lists(any_float, min_size=4, max_size=4).map(_ScriptedLosses),
    any_float, st.none(), st.floats(min_value=-1e300, max_value=1e300))
parabolas = st.builds(
    lambda a, m, d: ("fit", _Parabola(a, m), None, None, -d),
    moderate, moderate, moderate)
curvatures = st.tuples(
    st.just("hvp"), st.one_of(any_float, moderate).map(_Curvature1D),
    st.one_of(st.none(), any_float), any_float, any_float)


@PROPS
@given(
    eta=st.one_of(st.floats(min_value=1e-300, max_value=1e300),
                  st.floats(min_value=1e-4, max_value=1e4)),
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    points=st.sampled_from((3, 5)),
    r2_threshold=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    decay=st.booleans(),
    case=st.one_of(scripted, parabolas, curvatures),
)
@example(eta=0.01, gamma=0.0, points=3, r2_threshold=0.99, decay=False,
         case=("hvp", _Curvature1D(1.0), None, 1.0, 1.0))
def test_gen_update_keeps_eta_positive_finite_and_clamped(
        eta, gamma, points, r2_threshold, decay, case):
    estimator, obj, l_zero, g, d = case
    ctrl = GenController(eta=eta, gamma=gamma, phi=1, probe_points=points,
                         r2_threshold=r2_threshold,
                         horizon=3 if decay else None, estimator=estimator)
    raw_grad = None if g is None else np.array([g])
    new_eta, rec = gen_update(ctrl, obj, np.array([0.0]), np.array([d]),
                              l_zero=l_zero, raw_grad=raw_grad)
    assert new_eta == ctrl.eta
    assert new_eta > 0 and math.isfinite(new_eta)
    if rec.fit_accepted:
        assert eta / CLAMP_FACTOR <= new_eta <= eta * CLAMP_FACTOR
    else:
        assert _bits(new_eta) == _bits(eta)


@PROPS
@given(eta=st.floats(min_value=1e-300, max_value=1e300),
       l_zero=any_float, phi=st.integers(min_value=2, max_value=50))
def test_gen_update_off_schedule_leaves_eta_bits(eta, l_zero, phi):
    ctrl = GenController(eta=eta, phi=phi)
    new_eta, rec = gen_update(ctrl, _ScriptedLosses([]), np.array([0.0]),
                              np.array([1.0]), l_zero=l_zero)
    assert _bits(new_eta) == _bits(eta)
    assert not rec.fit_accepted and rec.eta_candidate is None


# ---------------------------------------------------------------------------
# the step loop's cores against the public functions


class _Cubic(Objective):
    """c0 + c1 x + c2 x^2 + c3 x^3 in the entry sum x; overflows to inf or
    nan, never raises."""

    dim = 2

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def loss(self, w, batch=None):
        x = float(w[0]) + float(w[1])
        c0, c1, c2, c3 = self.coeffs
        return c0 + x * (c1 + x * (c2 + x * c3))


def _estimate_bits(e):
    return (None if e.eta_candidate is None else _bits(e.eta_candidate),
            e.fit_accepted,
            None if e.fit_r2 is None else _bits(e.fit_r2))


# the whole range, and the moderate values whose fits get accepted
magnitudes = st.one_of(st.floats(min_value=1e-300, max_value=1e300),
                       st.floats(min_value=1e-2, max_value=1e2))
signed = st.builds(lambda m, s: m * s, magnitudes, st.sampled_from((-1, 1)))


@PROPS
@given(eta=magnitudes, points=st.sampled_from((3, 5)),
       w=st.lists(signed, min_size=2, max_size=2),
       d=st.lists(signed, min_size=2, max_size=2),
       coeffs=st.lists(signed, min_size=4, max_size=4),
       l_zero=st.one_of(st.none(), signed),
       r2_threshold=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(eta=1e308, points=5, w=[1.0, 0.0], d=[1e-300, 0.0],
         coeffs=[0.0, 0.0, 1.0, 0.0], l_zero=None, r2_threshold=0.99)
@example(eta=0.5, points=3, w=[1.0, 0.0], d=[1.0, 0.0],
         coeffs=[0.0, 0.0, 0.5, 0.0], l_zero=0.5, r2_threshold=0.99)
@example(eta=0.5, points=5, w=[1.0, 0.0], d=[1.0, 0.0],
         coeffs=[0.0, -1.0, 1.0, 5.0], l_zero=None, r2_threshold=0.5)
def test_estimate_matches_fit_of_probe_losses(eta, points, w, d, coeffs,
                                              l_zero, r2_threshold):
    # _estimate's probe and fit cores give the candidate, r2 and verdict
    # of the public functions, bit for bit
    obj, w, d = _Cubic(coeffs), np.array(w), np.array(d)
    ctrl = GenController(eta=eta, probe_points=points,
                         r2_threshold=r2_threshold)
    with np.errstate(all="ignore"):
        got = _estimate(ctrl, obj, w, None, d, FULL_DATA, l_zero)
        try:
            fit = fit_quadratic(probe_losses(obj, w, d, eta, points=points,
                                             l_zero=l_zero))
        except NonFiniteProbeLoss:
            want = NO_ESTIMATE
        else:
            candidate = fit.eta_candidate if fit.curvature != 0.0 else None
            want = Estimate(candidate,
                            (fit.curvature > 0.0 and fit.slope > 0.0
                             and fit.r2 > r2_threshold
                             and math.isfinite(candidate)), fit.r2)
    assert _estimate_bits(got) == _estimate_bits(want)


RULES = [(SgdState, sgd_direction, _sgd_rule),
         (AdamWState, adamw_direction, _adamw_rule)]


@st.composite
def rule_cases(draw):
    make, public, core = draw(st.sampled_from(RULES))
    if make is SgdState:
        settings_ = {"momentum": draw(st.floats(0.0, 0.99)),
                     "weight_decay": draw(st.floats(0.0, 10.0))}
    else:
        settings_ = {"beta1": draw(st.floats(0.0, 0.99)),
                     "beta2": draw(st.floats(0.0, 0.999)),
                     "epsilon": draw(st.floats(1e-12, 1.0)),
                     "weight_decay": draw(st.floats(0.0, 10.0))}
    dim = draw(st.integers(1, 4))
    rows = draw(st.one_of(st.none(), st.integers(1, 4)))
    shape = (dim,) if rows is None else (rows, dim)
    steps = [(draw(hnp.arrays(np.float64, shape, elements=finite)),
              draw(hnp.arrays(np.float64, shape, elements=finite)))
             for _ in range(draw(st.integers(1, 4)))]
    return make, public, core, dim, rows, settings_, steps


@PROPS
@given(rule_cases())
def test_rule_cores_match_public_rules(case):
    make, public, core, dim, rows, settings_, steps = case
    a = make(dim, rows=rows, **settings_)
    b = make(dim, rows=rows, **settings_)
    with np.errstate(all="ignore"):
        for g, w in steps:
            assert public(a, g, w).tobytes() == core(b, g, w).tobytes()
    for name in ("velocity", "m", "v", "step_count"):
        if hasattr(a, name):
            assert (np.asarray(getattr(a, name)).tobytes()
                    == np.asarray(getattr(b, name)).tobytes())


# ---------------------------------------------------------------------------
# core.all_finite and core.norm

EDGE = [0.0, -0.0, 1.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308,
        math.nan, math.inf, -math.inf]

float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
    elements=st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True, width=64))


@PROPS
@given(float_arrays)
def test_all_finite_matches_numpy(arr):
    assert all_finite(arr) == bool(np.all(np.isfinite(arr)))


@PROPS
@given(float_arrays)
@example(np.array([1e200, 1e200]))      # the square sum overflows
@example(np.array([1e200, math.nan]))
@example(np.array([math.inf, -math.inf]))
@example(np.array([[1e200], [math.inf]]))
def test_finite_array_matches_all_finite(arr):
    with np.errstate(over="ignore"):
        assert finite_array(arr) == all_finite(arr)


@pytest.mark.parametrize("value", [
    [], [1.0, 2.0], [1.0, math.nan], [math.inf], [-math.inf, 0.0], 3.0,
    math.nan, np.float64(math.inf), np.array(1e308), np.array(math.nan),
    np.empty((0, 3)), np.array([[1.0, 2.0], [3.0, math.inf]]),
    np.array([[5e-324, -1e308]]),
])
def test_all_finite_matches_numpy_on_edges(value):
    assert all_finite(value) == bool(np.all(np.isfinite(value)))


def _same_norm(v):
    ours = norm(v)
    ref = float(np.linalg.norm(v))
    assert type(ours) is float
    if math.isnan(ref):
        assert math.isnan(ours)
    else:
        assert _bits(ours) == _bits(ref)


@PROPS
@given(hnp.arrays(np.float64, st.integers(min_value=0, max_value=8),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True, width=64)))
@example(np.array([1e308, 1e308]))       # the squared sum overflows to inf
@example(np.array([1e200, -3.0]))
@example(np.array([5e-324, 5e-324]))     # subnormal squares underflow to 0
@example(np.array([1e-160, 3e-170]))
@example(np.array([math.nan, 1.0]))
@example(np.array([math.inf, -math.inf]))
@example(np.empty(0))
def test_norm_is_bit_equal_to_numpy(v):
    _same_norm(v)


@pytest.mark.parametrize("value", EDGE)
def test_norm_edges(value):
    _same_norm(np.array([value, 1.0]))
    _same_norm(np.array([value]))


def test_norm_overflows_to_inf():
    assert norm(np.array([1e308, 1e308])) == math.inf
    assert norm(np.array([1e200, 1e200])) == math.inf
