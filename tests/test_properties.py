"""Property tests: controller invariants under arbitrary probe data, and the
step-loop check helpers against the numpy calls they replace."""

import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from genopt.core import Objective, all_finite, norm  # noqa: E402
from genopt.gen import (  # noqa: E402
    CLAMP_FACTOR,
    REJECTED,
    GenController,
    fit_quadratic,
    gen_update,
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


# (objective, l_zero, direction): arbitrary probe losses with any l_zero,
# or a descent direction on a convex parabola, whose exact fits reach the
# accept branch and the clamp
moderate = st.floats(min_value=1e-2, max_value=1e2)
scripted = st.tuples(
    st.lists(any_float, min_size=4, max_size=4).map(_ScriptedLosses),
    any_float, st.floats(min_value=-1e300, max_value=1e300))
parabolas = st.builds(lambda a, m, d: (_Parabola(a, m), None, -d),
                      moderate, moderate, moderate)


@PROPS
@given(
    eta=st.one_of(st.floats(min_value=1e-300, max_value=1e300),
                  st.floats(min_value=1e-4, max_value=1e4)),
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    points=st.sampled_from((3, 5)),
    r2_threshold=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    decay=st.booleans(),
    case=st.one_of(scripted, parabolas),
)
def test_gen_update_keeps_eta_positive_finite_and_clamped(
        eta, gamma, points, r2_threshold, decay, case):
    obj, l_zero, d = case
    ctrl = GenController(eta=eta, gamma=gamma, phi=1, probe_points=points,
                         r2_threshold=r2_threshold, horizon=3,
                         decay_enabled=decay)
    new_eta, rec = gen_update(ctrl, obj, np.array([0.0]), np.array([d]),
                              l_zero=l_zero)
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
