"""Property tests for ``recursion.solve_chi`` and the cycle it settles into.

The solver compares only the past indices from the previous step's first
near-tie on.  The oracle compares every past index at every step.  Both must
give the same ``L`` and ``I`` bit for bit on explicit seeds whose values span
the float64 range, which can let the seed term win for long stretches or put
the maximizer far behind the current generation.  The solver scans a short
window on Python floats and a wide one as NumPy arrays; each form alone, and
the two mixed as the cutoff picks them, must give those bits.  It walks the
horizon in chunks and keeps only the window's columns between them; the bits
must not depend on the chunk size either.

Once the last period of steps repeats the one before it, the solver predicts
a block of steps from one period back and confirms it with the scan's rules
on NumPy arrays; those bits must not depend on the block or chunk size
either, on seeds that lock in and on a seed built to tell -0.0 from +0.0.

From the linear and half seeds the recursion locks into its T-cycle after a
transient of order T**2 steps, which ``detect_period`` finds within a horizon
of T**2 + 3T.
"""
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import recursion
from branchlab.growth import alpha_critical, period_T
from branchlab.recursion import (
    SeedSequence, build_ctex_seed, detect_period, extract_phi, solve_chi,
)

# seed values from e^-745 (subnormal) to e^709, the range exp keeps positive and finite
_SEED = st.lists(st.floats(-745.0, 709.0), min_size=1, max_size=30).map(
    lambda logs: SeedSequence.explicit(np.exp(logs)))
_ALPHA = st.floats(-2.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(alpha=_ALPHA, seed=_SEED, t_max=st.integers(min_value=1, max_value=600))
# the maximizer lags t by up to 79 steps; a trailing window of 67 once missed it
@example(alpha=20.0, seed=SeedSequence.explicit([2.0, 1.0]), t_max=296)
def test_scan_matches_full_scan(full_scan_chi, alpha, seed, t_max):
    got = solve_chi(alpha, seed, t_max)
    L, I = full_scan_chi(alpha, seed, t_max)
    assert got.L.tobytes() == L.tobytes()
    assert got.I.tobytes() == I.tobytes()


@settings(max_examples=60, deadline=None)
@given(alpha=_ALPHA, seed=_SEED, t_max=st.integers(min_value=1, max_value=400))
# the window grows past the cutoff once, near t = 32, and stays (lag up to 79)
@example(alpha=20.0, seed=SeedSequence.linear(), t_max=300)
# the window crosses the cutoff upward and back down several times
@example(alpha=12.0, seed=SeedSequence.half(), t_max=300)
def test_both_scan_forms_match_full_scan(full_scan_chi, alpha, seed, t_max):
    L, I = full_scan_chi(alpha, seed, t_max)
    # 0: every step on NumPy; t_max + 1: every step on Python floats
    for cutoff in (0, recursion._SCALAR_WINDOW, t_max + 1):
        with mock.patch.object(recursion, "_SCALAR_WINDOW", cutoff):
            got = solve_chi(alpha, seed, t_max)
        assert got.L.tobytes() == L.tobytes(), cutoff
        assert got.I.tobytes() == I.tobytes(), cutoff


@settings(max_examples=40, deadline=None)
@given(alpha=_ALPHA, seed=_SEED, t_max=st.integers(min_value=1, max_value=400))
# the maximizer lags t by up to 79 steps, more than every chunk tried
@example(alpha=20.0, seed=SeedSequence.linear(), t_max=300)
# steps 2 .. t_max fill whole chunks of 1, 2, 3 and 64 steps, and one step less or more
@example(alpha=12.0, seed=SeedSequence.half(), t_max=193)
@example(alpha=12.0, seed=SeedSequence.half(), t_max=192)
@example(alpha=12.0, seed=SeedSequence.half(), t_max=194)
def test_chunked_scan_matches_full_scan(full_scan_chi, alpha, seed, t_max):
    L, I = full_scan_chi(alpha, seed, t_max)
    for chunk in (1, 2, 3, 64):
        for cutoff in (0, recursion._SCALAR_WINDOW, t_max + 1):
            with mock.patch.multiple(recursion, _CHUNK_STEPS=chunk, _SCALAR_WINDOW=cutoff):
                got = solve_chi(alpha, seed, t_max)
            assert got.L.tobytes() == L.tobytes(), (chunk, cutoff)
            assert got.I.tobytes() == I.tobytes(), (chunk, cutoff)


@dataclass(frozen=True)
class _LogSeed:
    """A seed given by its log values, log_a_array(t_max)[t] = logs[t - 1]."""

    logs: tuple

    def log_a_array(self, t_max):
        return np.array((math.nan,) + self.logs[:t_max])


def _signed_zero_seed():
    """Seed terms that win every step, each log 2 and one ulp above the last,
    so column t - 1 reaches vmax and column t - 2 is a near-tie: lags and
    widths repeat, and the last step falls in a predicted block.  There the
    column the last period predicts reads -1e-15, below the seed term -0.0,
    but column t - 2 reads -log 2 + log 2 = +0.0, so the scan keeps +0.0,
    which equals the prediction -0.0 under ``==`` but not in its bits."""
    logs = [-math.log(2.0)]
    for _ in range(40):
        logs.insert(0, math.nextafter(logs[0] - math.log(2.0), -math.inf))
    return _LogSeed(tuple(logs) + (-1e-15, -0.0))


def _anchor_seed():
    """Seed terms that win every step, each 1 above the last, so column t - 1
    alone reaches vmax and the window holds two columns.  Step 16's term is
    only log 2 above step 15's, so at step 17 column 15 ties column 16: lags
    and widths still repeat, but step 18's window starts a column early.  The
    solver first looks at the lags after 16 exact steps, so its first
    predicted block starts at step 18, from that window."""
    logs = [float(s) for s in range(1, 16)] + [15.0 + math.log(2.0)]
    return _LogSeed(tuple(logs + [logs[-1] + k for k in range(1, 25)]))


def _window_starts(alpha, L):
    """j[t], the first column the scan compares at step t: 1 at t = 2, then
    the first column from j[t] on within the tie tolerance of L_t of the
    column maximum at t."""
    t_max = len(L) - 1
    log_k = np.log(np.arange(1, t_max + 1, dtype=float))  # log_k[k - 1] = log k
    j = [1] * (t_max + 2)
    for t in range(2, t_max + 1):
        v = L[j[t] : t] + log_k[t - j[t] - 1 :: -1] - math.log(alpha)
        tol = 1e-12 * max(1.0, abs(L[t]))
        j[t + 1] = j[t] + int(np.argmax(v >= v.max() - tol))
    return j


@st.composite
def _locking_case(draw):
    """(alpha, seed, t_max) with t_max past the cycle's lock-in: linear, half
    and explicit seeds run T**2 + 3T steps or up to 300 more (alpha
    log-uniform in [0.03, 4] or within 3 floats of alpha_critical(T), T <= 8),
    constructive seeds, which start in their cycle, 4T or up to 300 more."""
    kind = draw(st.sampled_from(["linear", "half", "ctex", "explicit"]))
    if kind == "ctex":
        alpha, phi = draw(_admissible())
        T = period_T(alpha)
        return alpha, build_ctex_seed(alpha, phi), draw(st.integers(4 * T, 4 * T + 300))
    alpha = draw(st.one_of(
        st.floats(-1.5, math.log10(4.0)).map(lambda e: 10.0**e),
        st.builds(lambda T, k: _ulps(alpha_critical(T), k),
                  st.integers(min_value=1, max_value=8), st.integers(min_value=-3, max_value=3))))
    seed = draw(_SEED) if kind == "explicit" else getattr(SeedSequence, kind)()
    T = period_T(alpha)
    return alpha, seed, draw(st.integers(T * T + 3 * T, T * T + 3 * T + 300))


@settings(max_examples=40, deadline=None)
@given(case=_locking_case(), must_predict=st.just(False))
# windows of 4 or 5 columns, blocks of up to a chunk
@example(case=(1.0, SeedSequence.linear(), 3005), must_predict=True)
# windows of 23 and 24 columns after lock-in
@example(case=(8.0, SeedSequence.half(), 1000), must_predict=True)
# windows of 33 to 35 columns after lock-in, just past _SCALAR_WINDOW
@example(case=(12.0, SeedSequence.half(), 1200), must_predict=True)
@example(case=(1.0, _signed_zero_seed(), 43), must_predict=True)
@example(case=(1.0, _anchor_seed(), 40), must_predict=True)
def test_predicted_blocks_match_full_scan(full_scan_chi, case, must_predict):
    alpha, seed, t_max = case
    L, I = full_scan_chi(alpha, seed, t_max)
    T = period_T(alpha)
    j = _window_starts(alpha, L)
    check = recursion._check_block
    starts = []

    def spy(L_arr, la, logm_arr, log_alpha, t, W, jp):
        # a window start at or before the column maximum gives the same L_t
        # and I_t, so these two are checked here: the block's first window
        # is the scan's, and its rows are wide enough to hold it
        assert jp[0] == j[t] and W >= t - j[t]
        starts.append(t)
        return check(L_arr, la, logm_arr, log_alpha, t, W, jp)

    # cell caps of 1, 2, T and 64 give blocks of one step or a few, and
    # chunks of 1, 2, T and 64 steps end blocks at that length
    runs = [{}] + [{name: size} for name in ("_BLOCK_CELLS", "_CHUNK_STEPS")
                   for size in (1, 2, T, 64)]
    for patch in runs:
        starts.clear()
        with mock.patch.multiple(recursion, _check_block=spy, **patch):
            got = solve_chi(alpha, seed, t_max)
        assert got.L.tobytes() == L.tobytes(), patch
        assert got.I.tobytes() == I.tobytes(), patch
        assert starts or not must_predict, patch


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.5, 30.0), kind=st.sampled_from(["linear", "half"]))
# t1 = T(T - 1) = 6480 at T = 81, the largest t1 / T**2 (0.988) seen in a sweep
# of 4000 alphas in [0.5, 30]; an earlier 48-alpha sweep saw at most 0.98
@example(alpha=29.979982956961457, kind="linear")
@example(alpha=0.5, kind="half")  # T = 1: t1 = 1
def test_cycle_locks_in_within_t_squared(alpha, kind):
    T = period_T(alpha)
    series = solve_chi(alpha, getattr(SeedSequence, kind)(), T * T + 3 * T)
    t1, cycle = detect_period(series)  # raises unless one full cycle verifies
    assert t1 <= max(1, T * (T - 1))
    extract_phi(cycle, series.nu, alpha)  # raises outside the multiplier box


def _ulps(x: float, k: int) -> float:
    """x moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


@st.composite
def _admissible(draw):
    """(alpha, phi): T = period_T(alpha) multipliers in [(T+1)/T, T/(T-1)] whose
    product is T/alpha, the set ``build_ctex_seed`` admits.

    Alpha is log-uniform in [1e-3, 20] or within 3 floats of alpha_critical(T),
    where the box holds one multiplier set.  The log-multipliers start at their
    mean, log(T/alpha)/T, and move along a drawn zero-sum direction by a drawn
    fraction of the way to the box's edge.
    """
    alpha = draw(st.one_of(
        st.floats(-3.0, math.log10(20.0)).map(lambda e: 10.0**e),
        st.builds(lambda T, k: _ulps(alpha_critical(T), k),
                  st.integers(min_value=1, max_value=54), st.integers(min_value=-3, max_value=3))))
    T = period_T(alpha)
    mean = math.log(T / alpha) / T
    if T == 1:
        return alpha, np.array([1.0 / alpha])
    lo, hi = math.log((T + 1) / T), math.log(T / (T - 1))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=T, max_size=T)))
    d = u - u.mean()
    if not d.any():
        return alpha, np.full(T, math.exp(mean))
    # zero sum: the largest entry and the smallest are both at least 1/(T-1) in size
    d /= np.abs(d).max()
    room = max(min((hi - mean) / d.max(), (lo - mean) / d.min()), 0.0)
    return alpha, np.exp(mean + draw(st.floats(0.0, 1.0)) * room * d)


@settings(max_examples=100, deadline=None)
@given(_admissible())
@example((1.0, np.array([4.0 / 3.0, 1.5, 1.5])))  # the alpha = 1 cycle
def test_ctex_round_trip_recovers_phi(case):
    # the constructive seed of an admissible set locks the recursion into the
    # cycle of that set: detect_period and extract_phi read it back
    alpha, phi = case
    T = phi.size
    series = solve_chi(alpha, build_ctex_seed(alpha, phi), 4 * T)
    _, cycle = detect_period(series)
    got = extract_phi(cycle, series.nu, alpha)
    assert min(np.max(np.abs(np.roll(phi, r) - got)) for r in range(T)) <= 1e-8
