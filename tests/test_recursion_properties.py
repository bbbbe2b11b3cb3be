"""Property test for ``recursion.solve_chi`` against a full-scan oracle.

The solver compares only the past indices from the previous step's first
near-tie on.  The oracle compares every past index at every step.  Both must
give the same ``L`` and ``I`` bit for bit on explicit seeds whose values span
the float64 range, which can let the seed term win for long stretches or put
the maximizer far behind the current generation.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab.recursion import SeedSequence, solve_chi

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
