"""Property tests for ``recursion.solve_chi`` and the cycle it settles into.

The solver compares only the past indices from the previous step's first
near-tie on.  The oracle compares every past index at every step.  Both must
give the same ``L`` and ``I`` bit for bit on explicit seeds whose values span
the float64 range, which can let the seed term win for long stretches or put
the maximizer far behind the current generation.  The solver scans a short
window on Python floats and a wide one as NumPy arrays; each form alone, and
the two mixed as the cutoff picks them, must give those bits.

From the linear and half seeds the recursion locks into its T-cycle after a
transient of order T**2 steps, which ``detect_period`` finds within a horizon
of T**2 + 3T.
"""
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import recursion
from branchlab.growth import period_T
from branchlab.recursion import SeedSequence, detect_period, extract_phi, solve_chi

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
