"""Log-domain solver for the max-plus growth recursion.

The recursion chi_t = max(a_t, max over 1 <= i < t of (t-i)/alpha * chi_i)
is solved as L_t = log chi_t.  Dominant indices I_t record the largest
maximizing i (0 when the seed term a_t wins).  The compensated values
c_t = chi_t * exp(-nu t) eventually lock into an exact cycle of length T;
the cycle and its multipliers phi_k = C_k e^nu / C_{k-1} are extracted here,
and arbitrary admissible multiplier sets can be realized through a
constructive seed.

The solver restricts each maximization to a trailing window (the dominant
index stays within bounded distance of t) and audits the window with a full
scan every ``audit_every`` steps; a failed audit widens the window and
re-solves, falling back to a full quadratic scan.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, DomainError, NoPeriodDetected, WindowViolation
from .growth import growth_law, period_T

# Explicit seeds extend past their list with this effectively -inf floor.
LOG_SEED_FLOOR = math.log(1e-300)

_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SeedSequence:
    """Positive seed sequence (a_t) feeding the recursion.

    Kinds: ``linear`` (a_t = t), ``half`` (a_t = t/2), ``ctex`` (constructive
    seed from cycle multipliers, see :func:`build_ctex_seed`), ``explicit``
    (finite list, extended with a tiny positive floor).
    """

    kind: str
    phi: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    alpha: float | None = None

    @classmethod
    def linear(cls) -> "SeedSequence":
        return cls(kind="linear")

    @classmethod
    def half(cls) -> "SeedSequence":
        return cls(kind="half")

    @classmethod
    def explicit(cls, values) -> "SeedSequence":
        values = tuple(float(v) for v in values)
        if not values or any(v <= 0 for v in values):
            raise DomainError("explicit seed needs a nonempty positive list")
        return cls(kind="explicit", values=values)

    def log_a_array(self, t_max: int) -> np.ndarray:
        """Padded array with entry t = log a_t for 1 <= t <= t_max."""
        out = np.empty(t_max + 1)
        out[0] = np.nan
        t = np.arange(1, t_max + 1, dtype=float)
        if self.kind == "linear":
            out[1:] = np.log(t)
        elif self.kind == "half":
            out[1:] = np.log(t) - math.log(2.0)
        elif self.kind == "explicit":
            out[1:] = LOG_SEED_FLOOR
            k = min(len(self.values), t_max)
            out[1 : k + 1] = np.log(self.values[:k])
        else:
            T = len(self.phi)
            log_psi = np.concatenate(([0.0], np.cumsum(np.log(self.phi[:-1]))))
            log_alpha = math.log(self.alpha)
            # running max over the T cycle positions i keeps memory O(t_max)
            best = out[1:]
            best[:] = -np.inf
            for i in range(T):
                np.maximum(best, np.log(T - i + t - 1.0) - log_alpha + log_psi[i], out=best)
        return out


@dataclass
class ChiSeries:
    """Solved recursion: log values, dominant indices, and growth data."""

    alpha: float
    seed: SeedSequence
    t_max: int
    L: np.ndarray  # L[t] = log chi_t, entry 0 unused
    I: np.ndarray  # I[t] = largest maximizing index, 0 when a_t won
    nu: float
    T: int
    window: int
    audit_violations: int = 0
    _log_c: np.ndarray | None = field(default=None, repr=False)

    def log_c_array(self) -> np.ndarray:
        """Padded array with entry t = log c_t = L_t - nu*t."""
        if self._log_c is None:
            t = np.arange(self.t_max + 1, dtype=float)
            self._log_c = self.L - self.nu * t
        return self._log_c


def _solve_pass(alpha, la, t_max, window, audit_every):
    """One windowed pass; returns (L, I, violated_at or None)."""
    log_alpha = math.log(alpha)
    logm = np.empty(t_max + 1)
    logm[0] = -np.inf
    logm[1:] = np.log(np.arange(1, t_max + 1, dtype=float))
    L = np.empty(t_max + 1)
    L[0] = np.nan
    I = np.zeros(t_max + 1, dtype=np.int64)
    L[1] = la[1]
    for t in range(2, t_max + 1):
        lo = max(1, t - window)
        v = L[lo:t] + logm[t - lo : 0 : -1] - log_alpha
        vmax = float(v.max())
        a_t = la[t]
        L_t = a_t if a_t > vmax else vmax
        tol = _TIE_RTOL * max(1.0, abs(L_t))
        if vmax >= L_t - tol:
            ties = np.nonzero(v >= L_t - tol)[0]
            I[t] = lo + int(ties[-1])
        else:
            I[t] = 0
        if lo > 1 and (t % audit_every == 0 or t == t_max):
            full = L[1:t] + logm[t - 1 : 0 : -1] - log_alpha
            if float(full.max()) > L_t + tol:
                return L, I, t
        L[t] = L_t
    return L, I, None


def solve_chi(
    alpha: float,
    seed: SeedSequence,
    t_max: int,
    window: int | None = None,
    audit_every: int = 128,
) -> ChiSeries:
    """Solve the recursion exactly in log domain up to t_max.

    ``window`` overrides the trailing-window width (default max(4T, 64));
    ``audit_every`` sets the stride of the full-scan audit.  A failed audit
    emits a WindowViolation warning, doubles the window, and re-solves; after
    two retries the solver falls back to a full scan.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if t_max < 1:
        raise DomainError("t_max must be >= 1")
    if audit_every < 1:
        raise DomainError("audit_every must be >= 1")
    law = growth_law(alpha)
    w = int(window) if window is not None else max(4 * law.T, 64)
    if w < 1:
        raise DomainError("window must be >= 1")
    violations = 0
    for attempt in range(3):
        L, I, bad_t = _solve_pass(alpha, seed.log_a_array(t_max), t_max, w, audit_every)
        if bad_t is None:
            return ChiSeries(
                alpha=alpha, seed=seed, t_max=t_max, L=L, I=I,
                nu=law.nu, T=law.T, window=w, audit_violations=violations,
            )
        violations += 1
        new_w = min(2 * w, t_max) if attempt < 1 else t_max
        warnings.warn(
            f"audit at t={bad_t} found a maximizer outside window {w}; "
            f"re-solving with window {new_w}",
            WindowViolation,
            stacklevel=2,
        )
        w = new_w
    raise AssertionError("full-scan pass cannot violate its own audit")


def c_of_t(series: ChiSeries, t: int) -> float:
    """log c_t = log chi_t - nu*t."""
    if not 1 <= t <= series.t_max:
        raise DomainError(f"t must be in [1, {series.t_max}]")
    return float(series.L[t] - series.nu * t)


def nu_hat(series: ChiSeries, t: int) -> float:
    """Finite-horizon growth estimate (log chi_{t+T} - log chi_t)/T."""
    if not 1 <= t <= series.t_max - series.T:
        raise DomainError(f"t must be in [1, {series.t_max - series.T}]")
    return float((series.L[t + series.T] - series.L[t]) / series.T)


def detect_period(series: ChiSeries, tol: float = 1e-9) -> tuple[int, np.ndarray]:
    """Find the onset of the exact cycle of c_t and read the cycle values.

    Returns (t1, cycle) where t1 is the smallest t with
    |log c_{s+T} - log c_s| <= tol for all s in [t1, t_max - T], and cycle
    holds (log C_1, ..., log C_T) read from the tail of the series.

    Raises NoPeriodDetected when fewer than one full cycle verifies, which
    signals a too-short horizon or a sensitive boundary alpha.
    """
    T, t_max = series.T, series.t_max
    lc = series.log_c_array()
    if t_max < 3 * T:
        raise NoPeriodDetected(f"horizon {t_max} too short for period {T}")
    diffs = np.abs(lc[1 + T : t_max + 1] - lc[1 : t_max + 1 - T])
    bad = np.nonzero(diffs > tol)[0]
    t1 = 1 if bad.size == 0 else int(bad[-1]) + 2
    if t1 > t_max - 2 * T:
        raise NoPeriodDetected(
            f"no stationary cycle within horizon {t_max} (first candidate t1={t1})"
        )
    cycle = np.array([lc[t_max - ((t_max - k) % T)] for k in range(1, T + 1)])
    return t1, cycle


def _check_multipliers(phi: np.ndarray, target: float, rtol: float) -> None:
    """Raise ConstraintViolation unless all T = len(phi) multipliers lie in
    [(T+1)/T, T/(T-1)] and their product equals target, both to relative rtol."""
    T = len(phi)
    lo = (T + 1) / T
    hi = T / (T - 1) if T > 1 else math.inf
    if np.any(phi < lo * (1 - rtol)) or np.any(phi > hi * (1 + rtol)):
        raise ConstraintViolation(f"multipliers {phi} leave the admissible box [{lo}, {hi}]")
    prod = float(np.prod(phi))
    if abs(prod / target - 1.0) > rtol:
        raise ConstraintViolation(
            f"multiplier product {prod} differs from {target} beyond {rtol:g} relative")


def extract_phi(cycle, nu: float, alpha: float) -> np.ndarray:
    """Cycle multipliers phi_k = C_k e^nu / C_{k-1}, validated.

    Each multiplier must lie in [(T+1)/T, T/(T-1)] and the product must equal
    T/alpha (that is exp(nu*T)), both to 1e-9 relative; as the box ends are at
    most 2, the box slack is at most 2e-9 absolute.  Violations raise
    ConstraintViolation.
    """
    cycle = np.asarray(cycle, dtype=float)
    T = len(cycle)
    if T < 1:
        raise ConstraintViolation("cycle is empty")
    phi = np.exp(cycle + nu - np.roll(cycle, 1))
    _check_multipliers(phi, T / alpha, 1e-9)
    return phi


def _validate_phi(alpha: float, phi) -> tuple[float, ...]:
    T = period_T(alpha)
    phi = tuple(float(p) for p in phi)
    if len(phi) != T:
        raise ConstraintViolation(f"need exactly T={T} multipliers for alpha={alpha}")
    _check_multipliers(np.array(phi), T / alpha, 1e-12)
    return phi


def build_ctex_seed(alpha: float, phi) -> SeedSequence:
    """Constructive seed realizing the given admissible cycle multipliers.

    a_t = max over 0 <= i < T of (T - i + t - 1)/alpha * psi_i with
    psi_i the running product of the multipliers (psi_0 = 1); the multiplier
    list is extended T-periodically.
    """
    phi = _validate_phi(alpha, phi)
    return SeedSequence(kind="ctex", phi=phi, alpha=float(alpha))


@dataclass(frozen=True)
class InduCheck:
    """Outcome of the constructive-seed identity check; falsy on failure."""

    ok: bool
    first_failing_t: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_indu(alpha: float, phi, t_max: int) -> InduCheck:
    """Check log chi_t = sum_{j<=t+T-1} log phi_j for the constructive seed.

    The identity must hold to 1e-11 relative for every t <= t_max; the first
    failing generation (if any) is carried on the returned object.
    """
    seed = build_ctex_seed(alpha, phi)
    series = solve_chi(alpha, seed, t_max)
    T = series.T
    reps = (t_max + T - 1 + T - 1) // T
    log_phi = np.tile(np.log(np.asarray(seed.phi)), reps)
    cum = np.cumsum(log_phi)  # cum[j] = sum of first j+1 multipliers
    target = cum[np.arange(1, t_max + 1) + T - 2]
    err = np.abs(series.L[1:] - target) / np.maximum(1.0, np.abs(target))
    bad = np.nonzero(err > 1e-11)[0]
    if bad.size:
        return InduCheck(ok=False, first_failing_t=int(bad[0]) + 1)
    return InduCheck(ok=True)


def check_bounds(series: ChiSeries) -> tuple[float, float]:
    """Min and max of log c_t over the whole series (both finite)."""
    lc = series.log_c_array()[1:]
    return float(lc.min()), float(lc.max())
