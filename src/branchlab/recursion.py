"""Log-domain solver for the max-plus growth recursion.

The recursion chi_t = max(a_t, max over 1 <= i < t of (t-i)/alpha * chi_i)
is solved as L_t = log chi_t.  Dominant indices I_t record the largest
maximizing i (0 when the seed term a_t wins).  The compensated values
c_t = chi_t * exp(-nu t), kept as the column ``ChiSeries.log_c`` that
``solve_chi`` computes once, eventually lock into an exact cycle of length
T, after a transient of up to about T**2 steps (acceptance criterion 14);
the cycle and its multipliers phi_k = C_k e^nu / C_{k-1} are extracted here,
and arbitrary admissible multiplier sets can be realized through a
constructive seed.  ``nu_hat`` gives the finite-horizon growth estimates as
one column.

Each step scans only the past indices from the last step's first near-tie
on, on Python floats while that window is short and as NumPy arrays once it
is wide; see :func:`_solve_pass` for why that is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, DomainError, NoPeriodDetected
from .growth import growth_law, period_T

# Explicit seeds extend past their list with this effectively -inf floor.
LOG_SEED_FLOOR = math.log(1e-300)

_TIE_RTOL = 1e-12

# Horizon bound of solve_chi, the one solve behind recurse, seed-ctex, freq
# --from recursion and collapse.  A solve holds about 176 bytes and takes
# about 5 us per step (recurse --alpha 1 peaked at 66 MB at t_max 2e5 and
# 172 MB at 8e5), so this bound stays near 1.8 GB and a minute.
MAX_T_MAX = 10_000_000

# _solve_pass scans windows of fewer columns than this on Python floats.
_SCALAR_WINDOW = 32

_max_of = np.maximum.reduce  # ndarray.max without its Python wrapper


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
        if not all(v < math.inf for v in values):  # NaN fails too
            raise DomainError("explicit seed values must be finite")
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
    t_max: int
    L: np.ndarray  # L[t] = log chi_t, entry 0 unused
    I: np.ndarray  # I[t] = largest maximizing index, 0 when a_t won
    nu: float
    T: int
    log_c: np.ndarray  # log_c[t] = log c_t = L_t - nu*t, entry 0 unused


def _solve_pass(alpha, la, t_max):
    """Solve for L and I in one scan; returns (L, I, None).

    Step t takes the max-plus maximum over columns i >= j only, where j is
    the first column that came within the tie tolerance of the maximum at
    step t-1 (the row argmax never moves back: Aggarwal et al. 1987).  The
    value of column i at step t is L_i + log(t-i) - log alpha, and for
    i < k the gain log(t-k) - log(t-i) of column k over column i grows with
    t.  So a column that trailed a scanned one by more than the tolerance
    at t-1 trails it by more at t, and by induction never again comes near
    the maximum.  This needs the tolerance, 1e-12 relative to max(1, |L_t|),
    to exceed the rounding of the compared values: each is a sum of three
    doubles, off by a few ulps, about 1e-15 relative.  The max, L_t and I_t
    (the largest near-tie, which lies at or after j) then carry the bits of
    a scan over every past index.

    A window t - j shorter than ``_SCALAR_WINDOW`` is scanned on Python
    floats, a wider one as NumPy arrays; the step's bookkeeping is shared.
    The two forms give the same bits: each column value is the same two
    IEEE double operations, (L_i + log(t-i)) - log alpha, in the same
    order, on the same log(t-i) (one ``np.log`` array read both ways), and
    the max and the >= tests are exact.  A NumPy step pays about 8 us of
    call overhead whatever its width, a scalar step about 2 us plus 0.2 us
    a column, so they break even near 30 columns.  At t_max 4e4 (min of 5
    runs, 2-vCPU x86-64 VM) a cutoff of 32 took alpha 1 from 0.30 to
    0.12 s and alpha 8 from 0.34 to 0.25 s; 16 gained nothing at alpha 8,
    and 64 made alpha 20, whose windows run 55 to 79 columns, 50% slower.

    The third value, always None, is kept because the benchmark's wrapper
    of this function unpacks three values.
    """
    log_alpha = math.log(alpha)
    logm_arr = np.empty(t_max + 1)
    logm_arr[0] = -np.inf
    logm_arr[1:] = np.log(np.arange(1, t_max + 1, dtype=float))
    logm = logm_arr.tolist()
    la = la.tolist()
    L_arr = np.empty(t_max + 1)
    L_arr[0] = np.nan
    L_arr[1] = la[1]
    L = [math.nan] * (t_max + 1)
    L[1] = la[1]
    I = [0] * (t_max + 1)
    j = 1
    for t in range(2, t_max + 1):
        short = t - j < _SCALAR_WINDOW
        if short:
            v = [L[i] + logm[t - i] - log_alpha for i in range(j, t)]
            vmax = max(v)
        else:
            v = L_arr[j:t] + logm_arr[t - j : 0 : -1]
            v -= log_alpha
            vmax = float(_max_of(v))
        a_t = la[t]
        L_t = a_t if a_t > vmax else vmax
        tol = _TIE_RTOL * max(1.0, abs(L_t))
        # first: the first near-tie of the max; last: the largest near-tie of
        # L_t, -1 when the seed term wins by more than tol
        lo, hi = vmax - tol, L_t - tol
        if short:
            first = 0
            while not v[first] >= lo:
                first += 1
            last = len(v) - 1
            while last >= 0 and not v[last] >= hi:
                last -= 1
        else:
            near = (v >= lo).nonzero()[0]
            first = int(near[0])
            if hi != lo:
                near = near[v[near] >= hi]
            last = int(near[-1]) if near.size else -1
        if last >= 0:
            I[t] = j + last
        j += first
        L[t] = L_arr[t] = L_t
    return L_arr, np.array(I, dtype=np.int64), None


def solve_chi(alpha: float, seed: SeedSequence, t_max: int) -> ChiSeries:
    """Solve the recursion exactly in log domain up to t_max (alpha is
    checked by ``growth_law``, before anything is allocated)."""
    if t_max < 1:
        raise DomainError("t_max must be >= 1")
    if t_max > MAX_T_MAX:
        raise DomainError(f"t_max must be <= {MAX_T_MAX:g}, got {t_max}")
    law = growth_law(alpha)
    L, I, _ = _solve_pass(alpha, seed.log_a_array(t_max), t_max)
    log_c = L - law.nu * np.arange(t_max + 1, dtype=float)
    return ChiSeries(alpha=alpha, t_max=t_max, L=L, I=I, nu=law.nu, T=law.T, log_c=log_c)


def c_of_t(series: ChiSeries, t: int) -> float:
    """log c_t = log chi_t - nu*t."""
    if not 1 <= t <= series.t_max:
        raise DomainError(f"t must be in [1, {series.t_max}]")
    return float(series.log_c[t])


def nu_hat(series: ChiSeries) -> np.ndarray:
    """Finite-horizon growth estimates (log chi_{t+T} - log chi_t)/T.

    Entry t-1 holds t, for t = 1 .. t_max - T; empty when t_max <= T.
    """
    T = series.T
    n = max(series.t_max - T, 0)
    return (series.L[1 + T : 1 + T + n] - series.L[1 : 1 + n]) / T


def detect_period(series: ChiSeries, tol: float = 1e-9) -> tuple[int, np.ndarray]:
    """Find the onset of the exact cycle of c_t and read the cycle values.

    Returns (t1, cycle) where t1 is the smallest t with
    |log c_{s+T} - log c_s| <= tol for all s in [t1, t_max - T], and cycle
    holds (log C_1, ..., log C_T) read from the tail of the series.

    Raises NoPeriodDetected when fewer than one full cycle verifies, which
    signals a too-short horizon or a sensitive boundary alpha.  Below
    t_max = T(T+1) the message names that horizon to try: a sweep of 10,000
    runs (alpha in [0.5, 30], linear and half seeds) never locked in after
    t1 = T(T-1), and one full cycle needs t1 <= t_max - 2T.
    """
    T, t_max = series.T, series.t_max
    lc = series.log_c
    if t_max < 3 * T:
        raise NoPeriodDetected(f"horizon {t_max} too short for period {T}")
    diffs = np.abs(lc[1 + T : t_max + 1] - lc[1 : t_max + 1 - T])
    bad = np.nonzero(diffs > tol)[0]
    t1 = 1 if bad.size == 0 else int(bad[-1]) + 2
    if t1 > t_max - 2 * T:
        hint = ""
        if t_max < T * (T + 1):
            hint = (f"; try a horizon of at least T(T+1) = {T * (T + 1)}, enough for "
                    f"every alpha checked (up to 30)")
        raise NoPeriodDetected(
            f"no stationary cycle within horizon {t_max} (first candidate t1={t1}){hint}"
        )
    cycle = np.array([lc[t_max - ((t_max - k) % T)] for k in range(1, T + 1)])
    return t1, cycle


def _check_multipliers(phi: np.ndarray, target: float, rtol: float) -> None:
    """Raise ConstraintViolation unless all T = len(phi) multipliers lie in
    [(T+1)/T, T/(T-1)] and their product equals target, both to relative rtol."""
    T = len(phi)
    lo = (T + 1) / T
    hi = T / (T - 1) if T > 1 else math.inf
    # written so that a NaN multiplier fails both tests
    if not np.all((phi >= lo * (1 - rtol)) & (phi <= hi * (1 + rtol))):
        raise ConstraintViolation(f"multipliers {phi} leave the admissible box [{lo}, {hi}]")
    prod = float(np.prod(phi))
    if not abs(prod / target - 1.0) <= rtol:
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
    # a multiplier past float64 (alpha near 5e-324) is inf, which fails the product check
    with np.errstate(over="ignore"):
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
    lc = series.log_c[1:]
    return float(lc.min()), float(lc.max())
