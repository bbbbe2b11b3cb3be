"""Frequency-distribution observables from recursion series or run records.

A snapshot at generation t collects, over mutant classes born at i < t, the
normalized log-fitness J_i and normalized log class size R_i in [-1, 0],
plus the normalized mean-fitness P(t).  Snapshots from different sources are
compared by interpolating in J, since class counts differ across times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientOverlap
from .recursion import ChiSeries
from .simulate import RunRecord

@dataclass(frozen=True)
class FreqSnapshot:
    """(J, R) point cloud plus P for one generation, sorted by J ascending."""

    t: int
    J: np.ndarray
    R: np.ndarray
    P: float


def freq_from_chi(series: ChiSeries, t: int) -> FreqSnapshot:
    """Snapshot from a recursion series: J_i = chi_i/chi_t for 1 <= i < t.

    R_i = (t-i) J_i / alpha - 1 and P = alpha (chi_{t+1}/chi_t - 1).
    """
    if not 1 <= t < series.t_max:
        raise DomainError(f"t must be in [1, {series.t_max - 1}]")
    i = np.arange(1, t, dtype=np.int64)
    J = np.exp(series.L[1:t] - series.L[t])
    R = (t - i) * J / series.alpha - 1.0
    P = series.alpha * math.expm1(series.L[t + 1] - series.L[t])
    return FreqSnapshot(t=t, J=J, R=R, P=P)


def freq_from_run(record: RunRecord, t: int) -> FreqSnapshot:
    """Snapshot from a run record using the definitional log-fitness ratios.

    J_i = log W_i / log W_t and R_i = ((t-i) log W_i - log X_t)/log X_t over
    the generations i <= t that produced a mutant; points are re-sorted by J.
    """
    if not 1 <= t <= len(record.t) - 2:
        raise DomainError(f"t must be in [1, {len(record.t) - 2}]")
    log_w_t = record.log_W[t]
    log_x_t = record.log_X[t]
    if not np.isfinite(log_w_t) or log_w_t <= 0:
        raise DomainError(f"no usable fittest mutant at t={t}")
    i = np.arange(1, t + 1)
    log_w = record.log_W[1 : t + 1]
    have = np.isfinite(log_w)
    i, log_w = i[have], log_w[have]
    J = log_w / log_w_t
    R = ((t - i) * log_w - log_x_t) / log_x_t
    order = np.argsort(J)
    P = (record.log_X[t + 1] - log_x_t) / log_w_t
    return FreqSnapshot(t=t, J=J[order], R=R[order], P=float(P))


def homogeneous_curve(J):
    """Limit curve R = -e J log J - 1 of the homogeneous state."""
    J = np.asarray(J, dtype=float)
    if np.any(J <= 0) or np.any(J > 1):
        raise DomainError("J must lie in (0, 1]")
    out = -math.e * J * np.log(J) - 1.0
    return float(out) if np.ndim(out) == 0 else out


def collapse_distance(snap_a: FreqSnapshot, snap_b: FreqSnapshot) -> float:
    """Sup distance of A's points to B's piecewise-linear R(J) interpolant.

    A-points outside B's J range are skipped; raises InsufficientOverlap if
    more than half are.
    """
    if snap_a.J.size == 0 or snap_b.J.size == 0:
        raise InsufficientOverlap("empty snapshot")
    inside = (snap_a.J >= snap_b.J[0]) & (snap_a.J <= snap_b.J[-1])
    skipped = int(np.count_nonzero(~inside))
    if skipped > 0.5 * snap_a.J.size:
        raise InsufficientOverlap(
            f"{skipped}/{snap_a.J.size} points fall outside the target J range"
        )
    r_interp = np.interp(snap_a.J[inside], snap_b.J, snap_b.R)
    return float(np.max(np.abs(snap_a.R[inside] - r_interp)))


def loglog_slope(source, t_lo: int, t_hi: int) -> float:
    """Least-squares slope of log(log X) (or log of the log-size exponent)
    over generations [t_lo, t_hi].

    Accepts a RunRecord, a ChiSeries (fits log of log chi), or a plain
    log X array indexed by generation.  Raises DomainError when the fitted
    quantity's logarithm is undefined anywhere in the window.
    """
    if t_hi <= t_lo:
        raise DomainError("need t_hi > t_lo")
    if isinstance(source, ChiSeries):
        # log chi is already the log-log of the population size proxy
        if t_lo < 1 or t_hi > source.t_max:
            raise DomainError(f"window must lie in [1, {source.t_max}]")
        z = source.L[t_lo : t_hi + 1]
    else:
        log_x = source.log_X if isinstance(source, RunRecord) else np.asarray(source, float)
        if t_lo < 0 or t_hi >= len(log_x):
            raise DomainError(f"window must lie in [0, {len(log_x) - 1}]")
        y = log_x[t_lo : t_hi + 1]
        if np.any(y <= 1):
            raise DomainError("log X must exceed 1 over the window")
        z = np.log(y)
    t = np.arange(t_lo, t_hi + 1, dtype=float)
    return float(np.polyfit(t, z, 1)[0])
