"""Closed-form step sizes that the probe fit is tested against.

Both take their losses in the ascent convention, l_plus = L(w + h * d),
as central-difference stencils are usually written, while ``genopt``
probes in the descent convention (the probe at eta = -h evaluates
L(w + h * d)). One equivalence reconciles them: fit_quadratic on
[(-h, a), (0, b), (h, c)] and lqa3_eta(c, b, a, h) give the same step.
"""

import math
from typing import Optional


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
