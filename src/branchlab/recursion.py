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
is wide; once the cycle locks in, whole blocks of steps are predicted from
one period back and confirmed in NumPy; see :func:`_solve_pass` for why
that is exact.
"""
from __future__ import annotations

import math
from itertools import cycle
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConstraintViolation, DomainError, NoPeriodDetected
from .growth import growth_law, period_T

# Explicit seeds extend past their list with this effectively -inf floor.
LOG_SEED_FLOOR = math.log(1e-300)

_TIE_RTOL = 1e-12

# Horizon bound of solve_chi, the one solve behind recurse, seed-ctex, freq
# --from recursion and collapse.  A solve holds five float64 or int64 columns
# (seed, log t, L, I, log_c) and lists of one chunk, about 34 bytes a step at
# its peak (tracemalloc, t_max 2e4, 256-step chunks).  It takes about 0.4 us a
# step at alpha 1 and 1.1 us at alpha 20 once the cycle locks in, and about
# 4 us a step at alpha 100, whose transient lasts about T**2 = 74,000 steps
# (windows of about T columns, wider at larger alpha).  recurse --alpha 1
# peaked 11 MB above the interpreter at t_max 2e5, 38 MB at 8e5 and 48 MB at
# 1e6 with --detect-period, so this bound stays near 0.5 GB and, at 4 us a
# step, under a minute.
MAX_T_MAX = 10_000_000

# _solve_pass scans windows of fewer columns than this on Python floats.
_SCALAR_WINDOW = 32

# _solve_pass walks the horizon in chunks of this many steps: its lists hold
# one chunk's seed values, I values and new L values, about 0.3 MB.
_CHUNK_STEPS = 4096

# _solve_pass confirms a predicted block of at most this many window cells
# (steps times the widest window) at once, 256 KB per float64 temporary.
_BLOCK_CELLS = 1 << 15


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
    the max, argmax and >= tests are exact.  A NumPy step pays about 8 us
    of call overhead whatever its width, a scalar step about 2 us plus
    0.2 us a column, so they break even near 30 columns.  At t_max 4e4
    (min of 5 runs, 2-vCPU x86-64 VM) a cutoff of 32 took alpha 1 from
    0.30 to 0.12 s and alpha 8 from 0.34 to 0.25 s; 16 gained nothing at
    alpha 8, and 64 made alpha 20, whose windows run 55 to 79 columns, 50%
    slower.

    The horizon goes in chunks of ``_CHUNK_STEPS`` steps, so the Python
    state is window-sized, not horizon-sized.  A chunk reads its seed values
    as one list.  ``L`` is a list of the columns from j on, trimmed at each
    chunk's end: no later exact step reads a column before j (a predicted
    block, whose columns may reach back to the start of its widest window,
    first copies the missing ones back from ``L_arr``).  ``logm`` holds the
    ``_SCALAR_WINDOW`` values of log(t-i) that a scalar scan reads.  A
    chunk's I values, and the L values no NumPy read has copied yet, go into
    the arrays at its end; a wide step or a block first copies into
    ``L_arr`` the columns added since the last copy.  Only where a value is
    kept changes: each column value is still the same two operations on the
    same doubles, and the tolerance, written without the ``max`` and ``abs``
    calls, is the same double.  So the bits do not depend on the chunk size.

    Once the cycle locks in (after up to about T**2 steps, T = period_T),
    each step repeats the one a period back: the lag t - i of a column i
    that reached the maximum, and the window width t - j.  Each step
    records both; it keeps the lag of a period back whenever that column
    reached the maximum again, so ties between columns do not break the
    pattern.  Every ``max(T, 16)`` exact steps the scan compares the last T
    records with the T before them.  If they repeat, it predicts a block of
    steps at once: step t's value is (L[t - d] + log d) - log alpha for the
    lag d of a period back, against a_t, one add and one compare of Python
    floats a step.  ``_check_block`` then recomputes every rule of the scan
    on the predicted windows in NumPy, from the first window, which starts
    at the scan's own j.  A predicted step whose L_t bits and first near-tie
    match is exact by induction: its inputs, the L values before it, and
    its window, fixed by the step before it, are exact.  So the check's
    values for the first step that fails are the scan's too, and that step
    is accepted with them.  The exact scan then resumes and looks again
    only after another ``max(T, 16)`` steps, so a run still in its
    transient pays only the records and one list comparison per look
    (alpha 100 stays in its transient until t is about T**2 = 74,000).  A
    block ends at the chunk's end or at ``_BLOCK_CELLS`` window cells,
    whichever comes first.  Blocks that start small and double after each
    one that holds, or end at 256 or 1,024 steps, wasted less prediction at
    alpha 1 but grew peak RSS over repeated solves by 0.5 to 1 MB more (200
    passes of the recurse_nu benchmark's commands in one process), so
    blocks stay chunk-long.  A block pays about 40 to 60 us of NumPy calls
    whatever its length, so a one-step block in place of the wide step
    measured 6 to 14 times slower at alpha 20 and 100.

    Measured as process CPU, min of 9 alternating runs in one process on a
    shared 2-vCPU x86-64 VM, against the scan without blocks: alpha 1 at
    t_max 4e4 56 -> 15 ms, alpha 8 (half seed) 142 -> 22 ms and alpha 20
    (half) 171 -> 49 ms; past lock-in a step takes about 0.4 us at alpha 1
    and 1.1 us at alpha 20 (t_max 4e5 and 2e5).  Alpha 100 at 2e4 and alpha
    20 (half) at 2e3, both before lock-in, read 98 -> 84 ms and 8.5 ->
    7.5 ms, where the wide step reads its max with one argmax.

    The third value, always None, is kept because the benchmark's wrapper
    of this function unpacks three values.
    """
    log_alpha = math.log(alpha)
    T = min(period_T(alpha), t_max)  # a longer period cannot repeat within the horizon
    logm_arr = np.empty(t_max + 1)
    logm_arr[0] = -np.inf
    logm_arr[1:] = np.log(np.arange(1, t_max + 1, dtype=float))
    logm = logm_arr[:_SCALAR_WINDOW].tolist()  # all the scalar scan reads: t - i < cutoff
    L_arr = np.empty(t_max + 1)
    L_arr[0] = np.nan
    I_arr = np.zeros(t_max + 1, dtype=np.int64)
    # L[i - base] = L_i for base <= i < t, and L_arr[:synced] is written
    L = la[1:2].tolist()
    L_arr[1] = L[0]
    base = j = 1
    synced = 2
    # lags[-k] and wids[-k] belong to step t - k: the lag t - i of a column i
    # that reached vmax, and the window width t - j; steps before 2 read a lag
    # no window reaches
    lags, wids = [t_max + 1] * T, [0] * T
    segment = max(T, 16)  # exact steps between two looks at the lags
    wait, ahead = segment, False
    for c0 in range(2, t_max + 1, _CHUNK_STEPS):
        c1 = min(c0 + _CHUNK_STEPS, t_max + 1)
        I = [0] * (c1 - c0)
        a_chunk = la[c0:c1].tolist()
        t = c0
        while t < c1:
            if ahead:
                # predict a block from the last period, then confirm it
                w0 = t - j
                W = max(w0, max(wids[-T:]))
                n = min(c1 - t, max(1, _BLOCK_CELLS // W))
                if t - base < W:  # a predicted column may lie before base
                    L[:0] = L_arr[t - W : base].tolist()
                    base = t - W
                d_T = lags[-T:]
                g_T = logm_arr[d_T].tolist()
                for i, d, g, a_t in zip(range(t - base, t - base + n), cycle(d_T), cycle(g_T),
                                        a_chunk[t - c0 : t - c0 + n]):
                    v = L[i - d] + g - log_alpha
                    L.append(a_t if a_t > v else v)
                phase = np.arange(n + 1) % T
                d_b = np.array(d_T)[phase[:n]]
                w_b = np.array(wids[-T:])[phase]  # widths of steps t .. t + n
                w_b[0] = w0
                L_arr[synced : t + n] = L[synced - base :]
                m, I_b, L_f, j_f, d_f = _check_block(
                    L_arr, la, logm_arr, log_alpha, t, W, np.arange(t, t + n + 1) - w_b)
                I[t - c0 : t - c0 + m] = I_b
                if L_f is None:
                    j = t + n - int(w_b[n])
                    synced = t + n
                else:
                    t_f = t + m - 1
                    d_b[m - 1] = d_f
                    L[t_f - base] = L_f
                    del L[t_f + 1 - base :]
                    L_arr[t_f] = L_f
                    synced = t_f + 1
                    j = j_f
                    ahead, wait = False, segment
                # only the last 2T records are read
                lags += d_b[max(m - 2 * T, 0) : m].tolist()
                wids += w_b[max(m - 2 * T, 0) : m].tolist()
                t += m
                continue
            stop = min(t + wait, c1)
            wait -= stop - t
            for t, a_t in zip(range(t, stop), a_chunk[t - c0 : stop - c0]):
                w = t - j
                short = w < _SCALAR_WINDOW
                if short:
                    tb = t - base
                    v = [L[i] + logm[tb - i] - log_alpha for i in range(j - base, tb)]
                    vmax = max(v)
                else:
                    if synced < t:
                        L_arr[synced:t] = L[synced - base:]
                    v = L_arr[j:t] + logm_arr[w:0:-1]
                    v -= log_alpha
                    top = int(v.argmax())
                    vmax = float(v[top])
                L_t = a_t if a_t > vmax else vmax
                # _TIE_RTOL * max(1.0, abs(L_t)), without the two calls
                tol = _TIE_RTOL * (L_t if L_t > 1.0 else -L_t if L_t < -1.0 else 1.0)
                # first: the first near-tie of the max; last: the largest near-tie of
                # L_t, -1 when the seed term wins by more than tol
                lo, hi = vmax - tol, L_t - tol
                # d: the lag of a column that reached vmax, the one of a period
                # back if it did
                d = lags[-T]
                if short:
                    first = 0
                    while not v[first] >= lo:
                        first += 1
                    last = len(v) - 1
                    while last >= 0 and not v[last] >= hi:
                        last -= 1
                    if not (d <= w and v[w - d] == vmax):
                        d = w - (first if v[first] == vmax else v.index(vmax))
                else:
                    near = (v >= lo).nonzero()[0]
                    first = int(near[0])
                    if hi != lo:
                        near = near[v[near] >= hi]
                    last = int(near[-1]) if near.size else -1
                    L_arr[t] = L_t
                    synced = t + 1
                    if not (d <= w and v[w - d] == vmax):
                        d = w - top
                if last >= 0:
                    I[t - c0] = j + last
                lags.append(d)
                wids.append(w)
                j += first
                L.append(L_t)
            t = stop
            if not wait:
                ahead = lags[-T:] == lags[-2 * T : -T] and wids[-T:] == wids[-2 * T : -T]
                wait = segment
        L_arr[synced:c1] = L[synced - base:]
        I_arr[c0:c1] = I
        # the next step reads columns j .. c1 - 1 only, and the last 2T lags
        del L[:j - base]
        del lags[: -2 * T], wids[: -2 * T]
        base, synced = j, c1
    return L_arr, I_arr, None


def _check_block(L_arr, la, logm_arr, log_alpha, t, W, jp):
    """Confirm a predicted block of steps t .. t + n - 1 with the scan's rules.

    Column r of the W x n matrix ``V`` holds the values at step t + r of
    the columns from t + r - W on, and ``jp[r]`` is the window start the
    prediction gives step t + r (``jp[0]`` the scan's own, ``jp[n]`` the one
    after the block).  Values before ``jp[r]`` are masked to -inf, so each
    step reads the scan's window: its max, L_t, tolerance, first near-tie (which must equal
    ``jp[r + 1]``) and largest near-tie of L_t.  L_t is compared with the
    predicted ``L_arr[t + r]`` in its bits, which tell -0.0 from +0.0.

    Returns (m, I, L_t, j, d): the first m rows hold, or m - 1 rows hold and
    row m - 1 fails; I holds the m rows' I_t.  For a failed row, L_t, the
    next window start j and the lag d of the first column that reached the
    max are its checked values, else all three are None.
    """
    n = len(jp) - 1
    k = np.arange(W, dtype=np.int32)[:, None]
    col0 = np.arange(t - W, t - W + n)
    # V[k, r] is column col0[r] + k at step t + r, whose lag is W - k
    L_w = L_arr[t - W : t + n - 1]
    V = as_strided(L_w, (W, n), L_w.strides * 2) + logm_arr[W:0:-1, None]
    V -= log_alpha
    np.putmask(V, k < jp[:n] - col0, -np.inf)  # columns before each window
    vmax = V.max(0)
    a = la[t : t + n]
    L_c = np.where(a > vmax, a, vmax)
    tol = np.maximum(np.abs(L_c), 1.0) * _TIE_RTOL
    first = np.where(V >= vmax - tol, k, W).min(0) + col0
    ok = (L_c.view(np.int64) == L_arr[t : t + n].view(np.int64)) & (first == jp[1:])
    m = n if ok.all() else int(ok.argmin()) + 1
    last = np.where(V[:, :m] >= L_c[:m] - tol[:m], k, -1).max(0)
    I_b = np.where(last >= 0, col0[:m] + last, 0).tolist()
    if ok[m - 1]:
        return m, I_b, None, None, None
    r = m - 1
    return m, I_b, float(L_c[r]), int(first[r]), W - int(V[:, r].argmax())


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
