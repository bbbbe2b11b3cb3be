"""Closed-form double-exponential growth exponent nu(alpha) and its oracles.

The growth exponent is nu = (1/T) log(T/alpha) where the integer horizon T
is pinned down by the bracket (T-1)**T / T**(T-1) < alpha <= T**(T+1)/(T+1)**T.
All power comparisons run through logarithms (``_log_crit``): T**(T+1)
overflows 64-bit floats near T = 130.  As T**(T+1)/(T+1)**T is close to
(T + 1/2)/e, ``period_T`` searches from floor(e*alpha), not from T = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# alpha within this relative distance of a bracket boundary counts as
# critical; the boundary itself is assigned the lower horizon T.
_BOUNDARY_RTOL = 1e-12

# The largest tail index accepted.  Neighbouring brackets differ by about
# 1/T in log alpha: about 4e-10 at 1e9, 400 times _BOUNDARY_RTOL, so T
# still depends on alpha alone and the search takes a few steps.  Past about
# 4e11 the tolerance band spans many horizons and the search walks through
# each of them (63 ms at 1e16, no answer within seconds at 1e20); near
# 1e308, e * alpha overflows.
ALPHA_MAX = 1e9


@dataclass(frozen=True)
class GrowthLaw:
    """Growth exponent, integer horizon, and criticality flag for one alpha."""

    alpha: float
    T: int
    nu: float
    is_critical: bool


def _log_crit(t: int) -> float:
    """log alpha_critical(t) = (t+1) log t - t log(t+1) = log t - t log1p(1/t).

    The second form does not cancel: at t = 1e7 the first is off by about
    5e-9, the second by about 1e-15.
    """
    return math.log(t) - t * math.log1p(1.0 / t)


def period_T(alpha: float) -> int:
    """Integer horizon T for the given tail index.

    T is the smallest t >= 1 with alpha <= t**(t+1)/(t+1)**t (the right
    boundary is inclusive).  The search starts at t0 = floor(e*alpha) and
    steps up until the bracket of t holds: a few steps for any alpha up to
    ``ALPHA_MAX``; a larger alpha raises DomainError.

    It never needs to step down.  For t >= 1, log crit(t) < log(t + 1/2) - 1
    (the gap is about 5/(24 t**2)), so for t0 >= 2 the bracket of t0 - 1
    ends below alpha - 1/(2e).  The 1e-12 tolerance bridges that gap only
    for alpha above about 1.8e11, far past ``ALPHA_MAX``.
    """
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    if alpha > ALPHA_MAX:
        raise DomainError(f"alpha must be at most {ALPHA_MAX:g}, got {alpha!r}")
    log_a = math.log(alpha)
    t = max(1, int(math.e * alpha))
    while not log_a <= _log_crit(t) + _BOUNDARY_RTOL:
        t += 1
    return t


def nu(alpha: float) -> float:
    """Growth exponent nu(alpha) = (1/T) log(T/alpha)."""
    return growth_law(alpha).nu


def nu_bruteforce(alpha: float, m_max: int) -> tuple[float, set[int]]:
    """Exact maximum of (1/m) log(m/alpha) over 1 <= m <= m_max.

    Returns the maximum and every maximizing m (ties at critical alpha are
    reported).  The caller must ensure m_max covers the true horizon.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    m = np.arange(1, m_max + 1, dtype=float)
    vals = (np.log(m) - math.log(alpha)) / m
    best = float(vals.max())
    winners = np.nonzero(vals >= best - 1e-12)[0] + 1
    return best, set(int(w) for w in winners)


def alpha_critical(T: int) -> float:
    """Critical tail index T**(T+1)/(T+1)**T, evaluated in log domain."""
    if T < 1:
        raise DomainError("T must be >= 1")
    return math.exp(_log_crit(T))


def nu_continuous_approx(alpha: float) -> float:
    """Continuous-m approximation: 1/(e*alpha) if alpha*e >= 1, else -log alpha."""
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if alpha * math.e >= 1.0:
        return 1.0 / (math.e * alpha)
    return -math.log(alpha)


def growth_law(alpha: float) -> GrowthLaw:
    """Bundle T, nu, and the criticality flag for one tail index."""
    t = period_T(alpha)
    log_a = math.log(alpha)
    critical = abs(log_a - _log_crit(t)) <= _BOUNDARY_RTOL
    return GrowthLaw(alpha=alpha, T=t, nu=(math.log(t) - log_a) / t, is_critical=critical)


def sweep(alpha_min: float, alpha_max: float, points: int, log_grid: bool = True):
    """Rows (alpha, T, nu, nu_approx, rel_err) over a grid of tail indices."""
    if not (alpha_min > 0 and alpha_max >= alpha_min):
        raise DomainError("need 0 < alpha_min <= alpha_max")
    if points < 1:
        raise DomainError("points must be >= 1")
    if points == 1:
        grid = np.array([alpha_min])
    else:
        # the top's own check, before numpy spaces a grid out to inf
        period_T(alpha_max)
        grid = (np.geomspace if log_grid else np.linspace)(alpha_min, alpha_max, points)
    rows = []
    for a in grid:
        law = growth_law(float(a))
        approx = nu_continuous_approx(law.alpha)
        rows.append((law.alpha, law.T, law.nu, approx, abs(approx / law.nu - 1.0)))
    return rows
