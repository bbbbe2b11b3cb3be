"""Property tests for the paretolog inversion in ``tails.inverse_log_tail``.

The round trip ``log_tail(inverse_log_tail(g))`` must give back ``g`` within
the inversion's failure threshold (1e-10 absolute plus 100 eps |g|),
over log probabilities from the smallest subnormal down to -1e300 and at
both ends of the admissible |gamma| <= alpha.  Where -g/alpha overflows
float64 the answer is +inf, as in the pareto closed form.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.tails import TailModel, inverse_log_tail, log_tail

_EPS = np.finfo(float).eps

# alpha log-uniform in [0.01, 100]; gamma at +-alpha and +-alpha/2
_MODELS = st.builds(
    lambda e, frac, sign: TailModel("paretolog", 10.0**e, sign * frac * 10.0**e),
    st.floats(-2.0, 2.0), st.sampled_from([1.0, 0.5]), st.sampled_from([1.0, -1.0]),
)
# -g log-uniform from the smallest subnormal up to 1e300, ends included
_LOG_G = st.one_of(
    st.sampled_from([-5e-324, -1e300]),
    st.floats(math.log10(5e-324), 300.0).map(lambda e: -(10.0**e)),
)


@settings(max_examples=300, deadline=None)
@given(_MODELS, _LOG_G)
def test_paretolog_round_trip(model, log_g):
    x = inverse_log_tail(model, log_g)
    assert type(x) is float and 0.0 <= x < math.inf
    assert abs(log_tail(model, x) - log_g) <= 1e-10 + 100 * _EPS * abs(log_g)


@pytest.mark.parametrize("gamma", [0.3, 0.15, -0.15, -0.3])
def test_paretolog_overflow_gives_plus_inf(gamma):
    model = TailModel("paretolog", 0.3, gamma)
    g = np.array([-1.0, -1e300, -1e308, -np.finfo(float).max, -np.inf])
    with np.errstate(over="ignore"):  # -g/alpha overflows past -5.4e307
        x = inverse_log_tail(model, g)
        assert inverse_log_tail(model, -1e308) == math.inf
    assert np.all(np.isfinite(x[:2])) and np.all(x[2:] == np.inf)
    assert x[0] == inverse_log_tail(model, -1.0)
