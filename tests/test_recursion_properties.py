"""Property test for the trailing window of ``recursion.solve_chi``.

A full scan (``window=t_max``) is the oracle: every past index competes at
every step.  With its default window, the solver must give the same ``L``
and ``I`` bit for bit on arbitrary explicit seeds, whose early values can
put the maximizer far behind the current generation.
"""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.errors import WindowViolation
from branchlab.recursion import SeedSequence, solve_chi

# seed values from e^-700 to e^700, the range exp keeps finite
_SEED = st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=30).map(
    lambda logs: SeedSequence.explicit(np.exp(logs)))
_ALPHA = st.floats(-1.0, 1.5).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(_ALPHA, _SEED, st.integers(min_value=1, max_value=600))
def test_default_window_matches_full_scan(alpha, seed, t_max):
    with warnings.catch_warnings():
        # a failed audit warns and re-solves; the answer is what counts here
        warnings.simplefilter("ignore", WindowViolation)
        got = solve_chi(alpha, seed, t_max)
    full = solve_chi(alpha, seed, t_max, window=t_max)
    assert got.L.tobytes() == full.L.tobytes()
    assert got.I.tobytes() == full.I.tobytes()
