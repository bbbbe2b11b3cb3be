"""Property tests for the horizon search in ``growth.period_T``.

``_exact_T`` is the oracle: the same bracket, evaluated with 60-digit
mpmath logarithms, so it carries no float rounding.  It walks from
floor(e*alpha) to the smallest t whose bracket holds; the bracket bound
(t+1) log t - t log(t+1) increases with t, so that t is unique.
"""
import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab.growth import ALPHA_MAX, alpha_critical, period_T

# the boundary tolerance of growth._BOUNDARY_RTOL
_RTOL = 1e-12


def _exact_T(alpha):
    with mpmath.workdps(60):
        log_a = mpmath.log(mpmath.mpf(alpha))

        def holds(t):
            return log_a <= (t + 1) * mpmath.log(t) - t * mpmath.log(t + 1) + _RTOL

        t = max(1, int(math.e * alpha))
        while t > 1 and holds(t - 1):
            t -= 1
        while not holds(t):
            t += 1
        return t


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(min_value=1e-6, max_value=1e4), _log_uniform(1e-6, 1e4)))
def test_matches_exact_oracle(alpha):
    assert period_T(alpha) == _exact_T(alpha)


@settings(max_examples=200, deadline=None)
# the largest T whose bracket lies below ALPHA_MAX ends at about 1e9 - 0.35
@given(st.one_of(st.integers(1, 3000), st.integers(3000, period_T(ALPHA_MAX) - 1)),
       st.integers(-2, 2))
def test_matches_exact_oracle_next_to_bracket_ends(T, steps):
    alpha = alpha_critical(T)
    toward = math.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        alpha = float(np.nextafter(alpha, toward))
    assert period_T(alpha) == _exact_T(alpha)


# the cancelling form of the bracket bound gave a wrong T for about one
# alpha in six in [1e6, 1e7]; the search is checked up to ALPHA_MAX
@settings(max_examples=300, deadline=None)
@given(st.one_of(_log_uniform(1e-6, ALPHA_MAX), _log_uniform(1e6, ALPHA_MAX),
                 st.just(ALPHA_MAX), st.floats(ALPHA_MAX - 1e3, ALPHA_MAX)))
# next to k/e, where the search starts at k or k - 1, and at ALPHA_MAX:
# period_T only steps up from floor(e*alpha); the oracle also steps down
@example(math.nextafter(2 / math.e, 0.0))
@example(2 / math.e)
@example(math.nextafter(2 / math.e, math.inf))
@example(math.nextafter(1000 / math.e, 0.0))
@example(math.nextafter(1000 / math.e, math.inf))
@example(math.nextafter(2718281828 / math.e, 0.0))
@example(2718281828 / math.e)
@example(ALPHA_MAX)
def test_bracket_holds_up_to_large_alpha(alpha):
    T = period_T(alpha)
    assert T == _exact_T(alpha)
    # alpha_critical(T) is close to (T + 1/2)/e
    assert abs(T - math.e * alpha) <= 1
