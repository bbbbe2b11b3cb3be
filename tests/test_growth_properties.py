"""Property tests for the horizon search in ``growth.period_T``.

``_linear_walk`` is the earlier search, kept here as an independent oracle:
it walks t up from 1 until the bracket holds, so it is exact but takes
O(alpha) steps.  Where it is too slow (alpha up to 1e7), the tests check
the bracket itself.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.growth import alpha_critical, period_T

# the boundary tolerance of growth._BOUNDARY_RTOL
_RTOL = 1e-12


def _log_crit(t):
    return (t + 1) * math.log(t) - t * math.log(t + 1)


def _linear_walk(alpha):
    log_a = math.log(alpha)
    t = 1
    while True:
        if log_a <= _log_crit(t) + _RTOL:
            return t
        t += 1


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(min_value=1e-6, max_value=1e4), _log_uniform(1e-6, 1e4)))
def test_matches_linear_walk(alpha):
    assert period_T(alpha) == _linear_walk(alpha)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(-2, 2))
def test_matches_linear_walk_next_to_bracket_ends(T, steps):
    alpha = alpha_critical(T)
    toward = math.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        alpha = float(np.nextafter(alpha, toward))
    assert period_T(alpha) == _linear_walk(alpha)


# above alpha = 1e6 the rounding error of _log_crit is large enough that the
# search sometimes has to step down from floor(e*alpha)
@settings(max_examples=300, deadline=None)
@given(st.one_of(_log_uniform(1e-6, 1e7), _log_uniform(1e6, 1e7)))
def test_bracket_holds_up_to_large_alpha(alpha):
    T = period_T(alpha)
    log_a = math.log(alpha)
    assert log_a <= _log_crit(T) + _RTOL
    assert T == 1 or log_a > _log_crit(T - 1) + _RTOL
    # alpha_critical(T) is close to (T + 1/2)/e; the slack grows with alpha
    # because the rounding error of _log_crit grows with T
    assert abs(T - math.e * alpha) <= 1 + 1e-6 * alpha
