"""Property tests for the scalar and single-call paths of the exact engine.

Each path must draw the same numbers from the same generator state as the
array code it replaces.  ``_reference_poisson`` is the earlier masked
Poisson sampler and ``_reference_max_of_n`` the earlier array max-of-n
sampler, kept here as independent oracles; the other checks compare a float
call with a one-element array call on cloned generators.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.errors import DomainError
from branchlab.simulate import (
    _NORMAL_APPROX_MEAN,
    MODE_EXACT,
    SimConfig,
    _poisson,
    _rebuild,
    initial_state,
)
from branchlab.tails import TailModel, inverse_log_tail, sample_max_of_n


def _reference_poisson(rng, lam):
    """Masked sampler: normal approximation above the cap, Poisson below."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.empty(lam.shape)
    big = lam > _NORMAL_APPROX_MEAN
    if big.any():
        out[big] = np.floor(rng.normal(lam[big], np.sqrt(lam[big])) + 0.5)
    small = ~big
    if small.any():
        out[small] = rng.poisson(lam[small])
    return np.maximum(out, 0.0)


def _reference_max_of_n(model, n, rng, size):
    """The earlier array sampler of the largest of n fitnesses."""
    v = rng.random(size)
    with np.errstate(divide="ignore"):
        log_g = np.log(-np.expm1(np.log(v) / n))
    return inverse_log_tail(model, np.minimum(log_g, 0.0))


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


_SEED = st.integers(min_value=0, max_value=2**32 - 1)
_MEAN = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e8, max_value=_NORMAL_APPROX_MEAN),
    st.just(_NORMAL_APPROX_MEAN),
    st.floats(min_value=_NORMAL_APPROX_MEAN, max_value=1e15, exclude_min=True),
)
_MEANS = st.one_of(
    _MEAN,
    st.lists(_MEAN, max_size=8).map(np.array),
    st.lists(_MEAN, max_size=8).map(lambda v: np.array(v).reshape(len(v), 1)),
)


@settings(max_examples=300, deadline=None)
@given(_MEANS, _SEED)
def test_poisson_matches_masked_sampler(lam, seed):
    rng, ref = _twins(seed)
    got = np.asarray(_poisson(rng, lam), dtype=float)
    want = _reference_poisson(ref, lam)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(_MEAN.filter(lambda m: m <= _NORMAL_APPROX_MEAN), _SEED)
def test_scalar_mutant_count_matches_masked_sampler(mean, seed):
    # step_exact draws its mutant count with rng.poisson(mean) at or below the cap
    rng, ref = _twins(seed)
    assert int(rng.poisson(mean)) == int(_reference_poisson(ref, mean)[0])
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("lam", [[math.nan], [1.0, math.nan], [2e9, math.nan]])
def test_poisson_nan_mean_fails_like_masked_sampler(lam):
    rng, ref = _twins(0)
    with pytest.raises(ValueError):
        _reference_poisson(ref, lam)
    with pytest.raises(ValueError):
        _poisson(rng, lam)
    assert rng.bit_generator.state == ref.bit_generator.state


_ALPHA = st.floats(min_value=0.2, max_value=5.0)


@st.composite
def _tails(draw):
    alpha = draw(_ALPHA)
    if draw(st.booleans()):
        return TailModel("pareto", alpha)
    gamma = draw(st.floats(min_value=-alpha, max_value=alpha))
    return TailModel("paretolog", alpha, gamma)


@settings(max_examples=200, deadline=None)
@given(_tails(), st.integers(min_value=1, max_value=10**15), _SEED)
def test_sample_max_of_n_float_path_matches_array_path(model, n, seed):
    rng, ref = _twins(seed)
    got = sample_max_of_n(model, n, rng)
    want = _reference_max_of_n(model, n, ref, size=1)[0]
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(_ALPHA, st.floats(max_value=0.0, allow_nan=False))
def test_pareto_inverse_float_path_matches_array_path(alpha, log_g):
    model = TailModel("pareto", alpha)
    with np.errstate(over="ignore"):  # log_g near -1.8e308 overflows to inf
        got = inverse_log_tail(model, log_g)
        want = inverse_log_tail(model, np.array([log_g]))[0]
        assert inverse_log_tail(model, np.float64(log_g)) == got
    assert type(got) is float
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_pareto_inverse_float_path_rejects_positive_log_g():
    with pytest.raises(DomainError):
        inverse_log_tail(TailModel("pareto", 1.0), 0.5)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_initial_state_matches_rebuild_of_the_founder(log_f):
    cfg = SimConfig(model="fmm", tail=TailModel("pareto", 1.0), beta=0.1,
                    log_f=log_f, t_max=1, seed=0)
    got = initial_state(cfg)
    want = _rebuild(0, np.array([log_f]), np.array([1], dtype=np.int64),
                    np.array([0], dtype=np.int64), MODE_EXACT)
    for name in ("log_fit", "count", "birth"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for name in ("log_X", "log_fitsum"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array([a]).tobytes() == np.array([b]).tobytes()
    assert (got.t, got.mode) == (want.t, want.mode)
