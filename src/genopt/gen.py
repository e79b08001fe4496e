"""Learning-rate estimation from probe losses along the update direction.

The scalar function phi(eta) = L(w - eta * d) is locally well approximated
by a parabola. Sampling it at a few symmetric offsets and fitting

    y(eta) = curvature * eta^2 / 2 - slope * eta,    y = phi(eta) - phi(0)

gives a closed-form minimizer eta* = slope / curvature. The controller in
``gen_update`` runs that fit every ``phi`` steps, rejects fits with
non-positive curvature, non-positive slope, or poor r2, and folds accepted
candidates into the working learning rate with exponential smoothing.

Probe offsets use the descent parametrization throughout: the probe at
eta = -h evaluates L(w + h * d). The closed forms ``lqa3_eta`` and
``fd5_eta`` take their arguments in the opposite, ascent convention
(l_plus = L(w + h * d)), matching how central-difference stencils are
usually written. The two conventions are reconciled by one equivalence:
fit_quadratic on [(-h, a), (0, b), (h, c)] and lqa3_eta(c, b, a, h) give
the same step.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    Array,
    BatchSelector,
    FULL_DATA,
    NonFiniteError,
    Objective,
    StepRecord,
    norm,
)
from .optim import apply_step

log = logging.getLogger(__name__)

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
REJECTED = QuadraticFit(0.0, 0.0, 0.0)


def probe_losses(obj: Objective, w: Array, direction: Array, eta_prev: float,
                 batch: BatchSelector = FULL_DATA, points: int = 3,
                 l_zero: Optional[float] = None) -> List[Tuple[float, float]]:
    """Evaluate the loss at symmetric multiples of eta_prev along direction.

    Returns ``points`` pairs (eta, L(w - eta * direction)) in ascending eta
    order. The eta = 0 entry reuses ``l_zero`` when the caller already has
    the current loss; otherwise it is evaluated once here. Every probe uses
    the same batch.

    Raises NonFiniteProbeLoss if any probe loss (or probe point) is not
    finite, so callers can treat a blown-up probe as a rejected fit rather
    than a crash.
    """
    if not isinstance(points, numbers.Integral) or points not in (3, 5):
        raise ValueError(f"points must be 3 or 5, got {points}")
    if not (eta_prev > 0 and math.isfinite(eta_prev)):
        raise ValueError(f"eta_prev must be positive and finite, got {eta_prev}")
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    half = points // 2
    out = []
    for k in range(-half, half + 1):
        eta = k * eta_prev
        if k == 0 and l_zero is not None:
            loss = float(l_zero)
        else:
            try:
                w_probe = apply_step(w, eta, d) if k != 0 else w
            except NonFiniteError:
                raise NonFiniteProbeLoss(
                    f"probe point at eta={eta} is not finite") from None
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

    # normal equations for the two-column design [eta^2/2, -eta]
    saa = sab = sbb = ta = tb = 0.0
    for e, l in pairs:
        y = l - l_zero
        q = 0.5 * e * e
        r = -e
        saa += q * q
        sab += q * r
        sbb += r * r
        ta += q * y
        tb += r * y
    det = saa * sbb - sab * sab
    if not (det > 0.0 and math.isfinite(det)):
        return REJECTED
    curvature = (ta * sbb - tb * sab) / det
    slope = (saa * tb - sab * ta) / det
    if not (math.isfinite(curvature) and math.isfinite(slope)):
        return REJECTED

    try:
        ss_tot = 0.0
        for e, l in pairs:
            if e != 0.0:
                ss_tot += (l - l_zero) ** 2
        if ss_tot == 0.0:
            # flat probe pattern carries no signal
            return QuadraticFit(curvature=curvature, slope=slope, r2=0.0)
        nonzero = sum(1 for e, _ in pairs if e != 0.0)
        if nonzero == 2:
            # two unknowns, two informative points: exact interpolation
            r2 = 1.0
        else:
            ss_res = 0.0
            for e, l in pairs:
                if e != 0.0:
                    pred = 0.5 * curvature * e * e - slope * e
                    ss_res += (l - l_zero - pred) ** 2
            r2 = 1.0 - ss_res / ss_tot
    except OverflowError:
        # a float power raises where a product would give inf: loss
        # differences past 1e154 are a blown-up probe, not a parabola
        return REJECTED
    return QuadraticFit(curvature=curvature, slope=slope, r2=r2)


def lqa3_eta(l_minus: float, l_zero: float, l_plus: float,
             eta_prev: float) -> Optional[float]:
    """Closed-form parabola minimizer from a symmetric loss triple.

    Arguments are in ascent convention: l_plus = L(w + eta_prev * d),
    l_minus = L(w - eta_prev * d). Returns the descent step eta* or None
    when the second difference vanishes (flat curvature). The sign of the
    result is the caller's convexity check.
    """
    denom = math.fsum([l_plus, -2.0 * l_zero, l_minus])
    if denom == 0.0:
        return None
    eta = 0.5 * eta_prev * (l_plus - l_minus) / denom
    return eta if math.isfinite(eta) else None


def fd5_eta(l_m2: float, l_m1: float, l_0: float, l_p1: float, l_p2: float,
            eta_prev: float) -> Optional[float]:
    """Fourth-order variant of ``lqa3_eta`` using five equispaced losses.

    l_p1 = L(w + eta_prev * d), l_p2 = L(w + 2 * eta_prev * d), and so on.
    Both derivative stencils are fourth-order accurate, trading two extra
    forward evaluations for a much smaller truncation error.
    """
    d1 = math.fsum([-l_p2, 8.0 * l_p1, -8.0 * l_m1, l_m2]) / (12.0 * eta_prev)
    d2 = math.fsum([-l_p2, 16.0 * l_p1, -30.0 * l_0, 16.0 * l_m1, -l_m2])
    d2 /= 12.0 * eta_prev * eta_prev
    if d2 == 0.0:
        return None
    eta = d1 / d2
    return eta if math.isfinite(eta) else None


def smooth(eta_prev: float, eta_candidate: float, gamma: float) -> float:
    """Exponential moving average: gamma parts old rate, (1 - gamma) new."""
    return gamma * eta_prev + (1.0 - gamma) * eta_candidate


@dataclass
class GenController:
    """Mutable state for the adaptive learning-rate loop.

    ``eta`` is the working learning rate, updated in place by
    ``gen_update``. A fit is attempted every ``phi`` steps, counting calls
    from 1, so the first attempt happens on call number phi. When
    ``decay_enabled`` is set, accepted candidates are scaled by the linear
    schedule factor (1 - step/horizon) before clamping and smoothing.
    fit_attempts / fits_accepted / fits_rejected expose guard statistics
    for diagnostics.
    """

    eta: float
    gamma: float = 0.9
    phi: int = 8
    probe_points: int = 3
    r2_threshold: float = 0.99
    horizon: Optional[int] = None
    decay_enabled: bool = False
    step: int = 0
    fit_attempts: int = field(default=0, init=False)
    fits_accepted: int = field(default=0, init=False)
    fits_rejected: int = field(default=0, init=False)

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.phi < 1:
            raise ValueError("phi must be >= 1")
        if (not isinstance(self.probe_points, numbers.Integral)
                or self.probe_points not in (3, 5)):
            raise ValueError("probe_points must be 3 or 5")
        if not 0.0 < self.r2_threshold <= 1.0:
            raise ValueError("r2_threshold must be in (0, 1]")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 when set")
        if self.decay_enabled and self.horizon is None:
            raise ValueError("decay_enabled requires a horizon")
        if self.step < 0:
            raise ValueError("step must be >= 0")


def gen_update(ctrl: GenController, obj: Objective, w: Array,
               direction: Array, batch: BatchSelector = FULL_DATA,
               l_zero: Optional[float] = None) -> Tuple[float, StepRecord]:
    """Advance the controller one step, refitting eta when it is due.

    Returns (new_eta, record). The step counter increments first, so with
    phi = 4 the first fit happens on the fourth call and steps 1-3 run no
    probes. Numerical trouble never propagates out of the fit: a blown-up
    probe or degenerate probe pattern counts as a rejection and leaves eta
    bit-identical.

    The acceptance guards are curvature > 0, slope > 0, and
    r2 > r2_threshold. An accepted candidate is decayed (when enabled),
    clamped to [eta / CLAMP_FACTOR, eta * CLAMP_FACTOR], then smoothed in.
    The raw candidate lands in the record whether or not it was accepted.

    The record's loss is the current (pre-step) loss and its grad_norm the
    direction norm; harness loops overwrite both with their own
    conventions.
    """
    ctrl.step += 1
    if l_zero is None:
        l_zero = float(obj.loss(np.asarray(w, dtype=np.float64), batch))
    eta_candidate = None
    fit_r2 = None
    accepted = False

    if ctrl.step % ctrl.phi == 0:
        ctrl.fit_attempts += 1
        fit = None
        try:
            probes = probe_losses(obj, w, direction, ctrl.eta, batch,
                                  ctrl.probe_points, l_zero=l_zero)
            fit = fit_quadratic(probes)
        except NonFiniteProbeLoss:
            pass
        if fit is not None:
            fit_r2 = fit.r2
            if fit.curvature != 0.0:
                eta_candidate = fit.eta_candidate
            accepted = (
                fit.curvature > 0.0
                and fit.slope > 0.0
                and fit.r2 > ctrl.r2_threshold
                and eta_candidate is not None
                and math.isfinite(eta_candidate)
            )
        if accepted:
            ctrl.fits_accepted += 1
            candidate = eta_candidate
            if ctrl.decay_enabled:
                candidate *= max(0.0, 1.0 - ctrl.step / ctrl.horizon)
            lo = ctrl.eta / CLAMP_FACTOR
            hi = ctrl.eta * CLAMP_FACTOR
            candidate = min(max(candidate, lo), hi)
            ctrl.eta = smooth(ctrl.eta, candidate, ctrl.gamma)
        else:
            ctrl.fits_rejected += 1

    record = StepRecord(
        step=ctrl.step,
        loss=float(l_zero),
        eta=ctrl.eta,
        grad_norm=norm(np.asarray(direction, dtype=np.float64)),
        eta_candidate=eta_candidate,
        fit_accepted=accepted,
        fit_r2=fit_r2,
    )
    return ctrl.eta, record


def exact_eta_hvp(obj: Objective, w: Array, raw_grad: Array, direction: Array,
                  method: str = "auto",
                  batch: BatchSelector = FULL_DATA) -> Optional[float]:
    """Curvature-exact step size (g . d) / (d . H d).

    ``method`` picks how H d is formed: "exact" uses the objective's
    Hessian(-vector product), "fd" central-differences the gradient with
    epsilon = 1e-5 * (1 + ||w||) / ||d||, and "auto" prefers exact when
    the objective provides it. Returns None when the directional curvature
    is not strictly positive, since the quadratic model has no minimum
    along d in that case.
    """
    if method not in ("auto", "exact", "fd"):
        raise ValueError(f"unknown method {method!r}")
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(raw_grad, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    if w.shape != g.shape or w.shape != d.shape:
        raise ValueError("w, raw_grad, and direction must share a shape")
    d_norm = norm(d)
    if d_norm == 0.0:
        return None
    use_exact = method == "exact" or (
        method == "auto" and (obj.has_exact_hessian or obj.has_hvp))
    if use_exact:
        hd = obj.hvp(w, d, batch)
    else:
        h = 1e-5 * (1.0 + norm(w)) / d_norm
        hd = (obj.grad(w + h * d, batch) - obj.grad(w - h * d, batch)) / (2.0 * h)
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
    evaluated here. Raises ValueError when every grid point blows up.
    """
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
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
        raise ValueError("no grid point produced a finite loss")
    if best_loss >= l_current:
        log.warning("starting-rate search found no improving step "
                    "(current loss %.6g, best probe %.6g at eta=%g)",
                    l_current, best_loss, best_eta)
    return best_eta
