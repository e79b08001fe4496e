"""Learning-rate estimation from probe losses along the update direction.

The scalar function phi(eta) = L(w - eta * d) is locally well approximated
by a parabola. Sampling it at a few symmetric offsets and fitting

    y(eta) = curvature * eta^2 / 2 - slope * eta,    y = phi(eta) - phi(0)

gives a closed-form minimizer eta* = slope / curvature. The controller in
``gen_update`` estimates that ratio every ``phi`` steps, either from the
probe fit or, with the ``hvp`` estimator, from the exact directional
curvature (g . d) / (d . H d). Each estimator has its own guards; an
accepted candidate is clamped to one decade around the working learning
rate and folded in with exponential smoothing.

Probe offsets use the descent parametrization throughout: the probe at
eta = -h evaluates L(w + h * d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (
    Array,
    BatchSelector,
    FULL_DATA,
    NonFiniteError,
    Objective,
    check_setting,
    finite_array,
    operands,
)
from .optim import apply_step

# accepted candidates never move eta by more than this factor per update
CLAMP_FACTOR = 10.0


class NonFiniteProbeLoss(NonFiniteError):
    """A probe evaluation overflowed or left the objective's domain."""


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares parabola through centered probe losses.

    ``curvature`` is the second-derivative estimate, ``slope`` the negated
    first derivative (positive slope means the loss decreases for small
    positive eta). ``r2`` is computed on the nonzero-eta residuals; a
    three-point fit interpolates those exactly and reports 1.0, and a flat
    probe set reports 0.0.
    """

    curvature: float
    slope: float
    r2: float

    @property
    def eta_candidate(self) -> float:
        return self.slope / self.curvature


# sentinel for degenerate probe data; fails every acceptance guard
_NO_FIT = (0.0, 0.0, 0.0)
REJECTED = QuadraticFit(*_NO_FIT)


def probe_losses(obj: Objective, w: Array, direction: Array, eta_prev: float,
                 batch: BatchSelector = FULL_DATA, points: int = 3,
                 l_zero: Optional[float] = None) -> List[Tuple[float, float]]:
    """Evaluate the loss at symmetric multiples of eta_prev along direction.

    Returns ``points`` pairs (eta, L(w - eta * direction)) in ascending eta
    order. The eta = 0 entry reuses ``l_zero`` when the caller already has
    the current loss; otherwise it is evaluated once here. Every probe uses
    the same batch.

    Raises NonFiniteProbeLoss if any probe loss, probe offset or probe
    point is not finite, so callers can treat a blown-up probe as a
    rejected fit rather than a crash.
    """
    check_setting("gen.", "probe_points", points, "points")
    if not (eta_prev > 0 and math.isfinite(eta_prev)):
        raise ValueError(f"eta_prev must be positive and finite, got {eta_prev}")
    w, d = operands(w, direction)
    return _probe(obj, w, d, eta_prev, batch, points, l_zero)


def _probe(obj: Objective, w: Array, d: Array, eta_prev: float,
           batch: BatchSelector, points: int,
           l_zero: Optional[float]) -> List[Tuple[float, float]]:
    # probe_losses on checked operands: float64 w and d of one shape,
    # eta_prev positive and finite, points 3 or 5
    half = points // 2
    out = []
    for k in range(-half, half + 1):
        eta = k * eta_prev
        if k == 0:
            loss = float(obj.loss(w, batch) if l_zero is None else l_zero)
        else:
            if not math.isfinite(eta):
                raise NonFiniteProbeLoss(
                    f"probe offset {k} * {eta_prev} is not finite")
            w_probe = w - eta * d
            if not finite_array(w_probe):
                raise NonFiniteProbeLoss(
                    f"probe point at eta={eta} is not finite")
            loss = float(obj.loss(w_probe, batch))
        if not math.isfinite(loss):
            raise NonFiniteProbeLoss(f"loss at probe eta={eta} is {loss}")
        out.append((eta, loss))
    return out


def fit_quadratic(probes) -> QuadraticFit:
    """Fit y(eta) = curvature * eta^2 / 2 - slope * eta to centered probes.

    ``probes`` must hold at least three (eta, loss) pairs with distinct
    etas, one of them eta = 0; the curve is forced through that point by
    fitting loss differences. Degenerate data (flat losses, singular
    normal equations, loss differences whose squares overflow) comes back
    as a zero fit that fails every guard;
    structural problems with the input raise ValueError.
    """
    pairs = [(float(e), float(l)) for e, l in probes]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 probes, got {len(pairs)}")
    etas = [e for e, _ in pairs]
    if len(set(etas)) != len(etas):
        raise ValueError("probe etas must be distinct")
    l_zero = None
    for e, l in pairs:
        if e == 0.0:
            l_zero = l
    if l_zero is None:
        raise ValueError("probes must include eta = 0")
    for e, l in pairs:
        if not (math.isfinite(e) and math.isfinite(l)):
            raise ValueError(f"non-finite probe ({e}, {l})")
    fit = _fit(pairs, l_zero)
    return REJECTED if fit is _NO_FIT else QuadraticFit(*fit)


def _fit(probes, l_zero: float) -> Tuple[float, float, float]:
    # fit_quadratic's (curvature, slope, r2) on checked probes: finite
    # pairs with distinct etas, l_zero the loss at eta = 0; _NO_FIT for
    # REJECTED. The eta = 0 pair adds exactly +-0.0 to each sum, and a
    # sum that starts at +0.0 never holds -0.0, so leaving it out keeps
    # every bit.
    points = [(e, l - l_zero) for e, l in probes if e != 0.0]

    # normal equations for the two-column design [eta^2/2, -eta]
    saa = sab = sbb = ta = tb = 0.0
    for e, y in points:
        q = 0.5 * e * e
        r = -e
        saa += q * q
        sab += q * r
        sbb += r * r
        ta += q * y
        tb += r * y
    det = saa * sbb - sab * sab
    if not (det > 0.0 and math.isfinite(det)):
        return _NO_FIT
    curvature = (ta * sbb - tb * sab) / det
    slope = (saa * tb - sab * ta) / det
    if not (math.isfinite(curvature) and math.isfinite(slope)):
        return _NO_FIT

    try:
        ss_tot = 0.0
        for _, y in points:
            ss_tot += y ** 2
        if ss_tot == 0.0:
            # flat probe pattern carries no signal
            return curvature, slope, 0.0
        if len(points) == 2:
            # two unknowns, two informative points: exact interpolation
            return curvature, slope, 1.0
        ss_res = 0.0
        for e, y in points:
            pred = 0.5 * curvature * e * e - slope * e
            ss_res += (y - pred) ** 2
    except OverflowError:
        # a float power raises where a product would give inf: loss
        # differences past 1e154 are a blown-up probe, not a parabola
        return _NO_FIT
    return curvature, slope, 1.0 - ss_res / ss_tot


def smooth(eta_prev: float, eta_candidate: float, gamma: float) -> float:
    """Exponential moving average: gamma parts old rate, (1 - gamma) new."""
    return gamma * eta_prev + (1.0 - gamma) * eta_candidate


@dataclass
class GenController:
    """Mutable state for the adaptive learning-rate loop.

    ``eta`` is the working learning rate, updated in place by
    ``gen_update``. An estimate is attempted every ``phi`` steps, counting
    calls from 1, so the first attempt happens on call number phi.
    ``estimator`` picks how the step-size candidate is formed: ``"fit"``
    fits a parabola to probe losses, ``"hvp"`` takes the exact directional
    curvature from ``exact_eta_hvp``. When ``horizon`` is set, accepted
    candidates are scaled by the linear decay factor (1 - step/horizon)
    before clamping and smoothing.
    fit_attempts / fits_accepted count the estimates of either estimator
    for diagnostics; fits_rejected is their difference.
    """

    eta: float
    gamma: float = 0.9
    phi: int = 8
    probe_points: int = 3
    r2_threshold: float = 0.99
    horizon: Optional[int] = None
    estimator: str = "fit"
    step: int = field(default=0, init=False)
    fit_attempts: int = field(default=0, init=False)
    fits_accepted: int = field(default=0, init=False)

    def __post_init__(self):
        check_setting("", "eta", self.eta)
        for key in ("gamma", "phi", "probe_points", "r2_threshold",
                    "estimator"):
            check_setting("gen.", key, getattr(self, key))
        if self.horizon is not None:  # a decay runs over the iterations
            check_setting("", "iterations", self.horizon, "horizon")

    @property
    def fits_rejected(self) -> int:
        return self.fit_attempts - self.fits_accepted


class Estimate(NamedTuple):
    """One step's estimate, in ``StepRecord`` field order.

    ``eta_candidate`` is the raw candidate whenever the estimator produced
    one, ``fit_accepted`` whether it passed the estimator's guards and
    moved eta, ``fit_r2`` the fit's r2 (the hvp estimator has none).
    """

    eta_candidate: Optional[float] = None
    fit_accepted: bool = False
    fit_r2: Optional[float] = None


# what a step without an estimate (off schedule, or a blown-up probe) reports
NO_ESTIMATE = Estimate()


def _estimate(ctrl: GenController, obj: Objective, w: Array,
              raw_grad: Optional[Array], direction: Array,
              batch: BatchSelector, l_zero: Optional[float]) -> Estimate:
    """One step-size estimate, judged by its estimator's guards.

    The fit's guards are curvature > 0, slope > 0, r2 > r2_threshold and
    a finite candidate; a blown-up probe or degenerate probe pattern fails
    them. The hvp estimate passes when it is positive and finite.
    The fit runs the cores under ``probe_losses`` and ``fit_quadratic``:
    the controller's rate and point count are valid by construction, and
    the probes come out checked.
    """
    if ctrl.estimator == "hvp":
        candidate = exact_eta_hvp(obj, w, raw_grad, direction, batch=batch)
        return Estimate(candidate, (candidate is not None and candidate > 0.0
                                    and math.isfinite(candidate)))
    w, d = operands(w, direction)
    try:
        probes = _probe(obj, w, d, float(ctrl.eta), batch,
                        ctrl.probe_points, l_zero)
    except NonFiniteProbeLoss:
        return NO_ESTIMATE
    curvature, slope, r2 = _fit(probes, probes[ctrl.probe_points // 2][1])
    candidate = slope / curvature if curvature != 0.0 else None
    passed = (curvature > 0.0
              and slope > 0.0
              and r2 > ctrl.r2_threshold
              and math.isfinite(candidate))
    return Estimate(candidate, passed, r2)


def gen_update(ctrl: GenController, obj: Objective, w: Array,
               direction: Array, batch: BatchSelector = FULL_DATA,
               l_zero: Optional[float] = None,
               raw_grad: Optional[Array] = None) -> Tuple[float, Estimate]:
    """Advance the controller one step, re-estimating eta when it is due.

    Returns (new_eta, estimate). The step counter increments first, so
    with phi = 4 the first estimate happens on the fourth call; steps 1-3
    return ``NO_ESTIMATE`` and evaluate nothing. ``l_zero`` is the current
    loss when the caller has it; the fit evaluates it otherwise.
    Numerical trouble never propagates out of the fit: a blown-up probe, a
    degenerate probe pattern or any candidate that fails its estimator's
    guards counts as a rejection and leaves eta bit-identical.
    ``raw_grad`` is the gradient before the optimizer's direction rule;
    the hvp estimator needs it.

    Both estimators share what follows: an accepted candidate is decayed
    (when the controller has a horizon), clamped to
    [eta / CLAMP_FACTOR, eta * CLAMP_FACTOR], then smoothed in. The raw
    candidate lands in the estimate whether or not it was accepted.
    """
    if ctrl.estimator == "hvp" and raw_grad is None:
        raise ValueError("the hvp estimator needs raw_grad")
    ctrl.step += 1
    if ctrl.step % ctrl.phi:
        return ctrl.eta, NO_ESTIMATE
    ctrl.fit_attempts += 1
    estimate = _estimate(ctrl, obj, w, raw_grad, direction, batch, l_zero)
    if estimate.fit_accepted:
        ctrl.fits_accepted += 1
        candidate = estimate.eta_candidate
        if ctrl.horizon is not None:
            candidate *= max(0.0, 1.0 - ctrl.step / ctrl.horizon)
        lo = ctrl.eta / CLAMP_FACTOR
        hi = ctrl.eta * CLAMP_FACTOR
        candidate = min(max(candidate, lo), hi)
        ctrl.eta = smooth(ctrl.eta, candidate, ctrl.gamma)
    return ctrl.eta, estimate


def exact_eta_hvp(obj: Objective, w: Array, raw_grad: Array, direction: Array,
                  batch: BatchSelector = FULL_DATA) -> Optional[float]:
    """Curvature-exact step size (g . d) / (d . H d), with H d from the
    objective's Hessian-vector product.

    Returns None when the directional curvature is not strictly positive
    (a zero direction included), since the quadratic model has no minimum
    along d in that case.
    """
    w, g, d = operands(w, raw_grad, direction)
    hd = obj.hvp(w, d, batch)
    denom = float(np.dot(d, hd))
    num = float(np.dot(g, d))
    if not (denom > 0.0 and math.isfinite(denom) and math.isfinite(num)):
        return None
    return num / denom


# starting-rate search grid: one probe per decade over a broad range
ETA0_GRID = tuple(10.0 ** k for k in range(-6, 3))


def auto_search_eta0(obj: Objective, w: Array, direction: Array,
                     batch: BatchSelector = FULL_DATA,
                     l_zero: Optional[float] = None) -> float:
    """Coarse one-shot search for a starting learning rate.

    Evaluates L(w - eta * direction) on a decade grid from 1e-6 to 1e2 and
    returns the eta with the lowest finite loss; ties go to the smaller
    eta. If no grid point improves on the current loss (uphill direction)
    that is logged as a warning and the smallest grid eta wins. The
    current loss is ``l_zero`` when the caller already has it, else it is
    evaluated here. Raises NonFiniteError when every grid point blows up.
    """
    w, d = operands(w, direction)
    l_current = float(obj.loss(w, batch) if l_zero is None else l_zero)
    best_eta = None
    best_loss = math.inf
    for eta in ETA0_GRID:
        try:
            w_probe = apply_step(w, eta, d)
        except NonFiniteError:
            continue
        loss = float(obj.loss(w_probe, batch))
        if math.isfinite(loss) and loss < best_loss:
            best_loss = loss
            best_eta = eta
    if best_eta is None:
        raise NonFiniteError("no grid point produced a finite loss")
    if best_loss >= l_current:
        import logging  # only a failed search has anything to log
        logging.getLogger(__name__).warning(
            "starting-rate search found no improving step "
            "(current loss %.6g, best probe %.6g at eta=%g)",
            l_current, best_loss, best_eta)
    return best_eta
