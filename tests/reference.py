"""Closed-form step sizes that the probe fit is tested against, and the
mini-batch noise study behind the batch-scaling claim.

Both take their losses in the ascent convention, l_plus = L(w + h * d),
as central-difference stencils are usually written, while ``genopt``
probes in the descent convention (the probe at eta = -h evaluates
L(w + h * d)). One equivalence reconciles them: fit_quadratic on
[(-h, a), (0, b), (h, c)] and lqa3_eta(c, b, a, h) give the same step.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from genopt.core import SyntheticNoise
from genopt.gen import fit_quadratic, probe_losses
from genopt.problems import LogisticRegressionProblem


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


@dataclass
class ErrorScalingResult:
    """Per-batch-size candidate spread plus the fitted log-log slope."""

    rows: List[Tuple[int, float]]
    slope: float


def error_scaling_study(problem: LogisticRegressionProblem,
                        batch_sizes: Sequence[int], trials: int, seed: int,
                        *, eta_prev: float = 0.1) -> ErrorScalingResult:
    """Spread of the fitted step-size candidate across mini-batch draws.

    Holds the evaluation point fixed, redraws `trials` seeded batches per
    batch size, and reports the sample standard deviation of the 3-point
    candidate plus the slope of log(std) against log(B). Statistical
    theory says the slope should sit near -1/2.
    """
    if not isinstance(problem, LogisticRegressionProblem):
        raise TypeError(
            "error_scaling_study needs a LogisticRegressionProblem")
    if trials < 50:
        raise ValueError("trials must be >= 50 for a stable spread estimate")
    if not batch_sizes:
        raise ValueError("batch_sizes must be non-empty")
    for b in batch_sizes:
        if (not isinstance(b, int) or isinstance(b, bool) or b < 1
                or b > problem.n_samples):
            raise ValueError(
                f"batch size {b!r} outside [1, {problem.n_samples}]")

    # fixed, seeded evaluation point with nonzero gradient
    w = 0.1 * np.random.default_rng(seed).standard_normal(problem.dim)
    rows: List[Tuple[int, float]] = []
    for bi, b in enumerate(batch_sizes):
        candidates = np.empty(trials)
        for t in range(trials):
            child = int(np.random.SeedSequence([seed, bi, t])
                        .generate_state(1)[0])
            batch = SyntheticNoise(seed=child, batch_size=int(b))
            l0, g = problem.loss_grad(w, batch)
            probes = probe_losses(problem, w, g, eta_prev, batch, 3,
                                  l_zero=l0)
            fit = fit_quadratic(probes)
            if fit.curvature <= 0:
                raise RuntimeError(
                    f"degenerate curvature at B={b}, trial {t}; the "
                    f"objective should be convex along its gradient")
            candidates[t] = fit.eta_candidate
        # identical draws (e.g. B = n) have zero spread by definition;
        # don't let the rounding of a trials-term mean masquerade as noise
        if np.ptp(candidates) == 0.0:
            spread = 0.0
        else:
            spread = float(np.std(candidates, ddof=1))
        rows.append((int(b), spread))

    pts = [(b, s) for b, s in rows if s > 0.0]
    if len(pts) >= 2:
        slope = float(np.polyfit(np.log10([b for b, _ in pts]),
                                 np.log10([s for _, s in pts]), 1)[0])
    else:
        slope = math.nan
    return ErrorScalingResult(rows=rows, slope=slope)
