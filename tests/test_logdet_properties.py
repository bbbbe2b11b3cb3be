"""Property tests for the logdet generation: fittest-mutant draw and
spectrum table, each compared bitwise with the computation it replaces.

* The float draw of ``sample_fittest_mutant(size=None)`` against the array
  draw with ``size=1`` on a twin generator.
* ``_SpectrumTable.below`` against ``_reference_bins``, the per-generation
  edge and bin-mass computation the table replaced, kept here as an
  independent oracle.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.simulate import _SpectrumTable, sample_fittest_mutant
from branchlab.tails import TailModel, log_tail


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def _tails(draw):
    alpha = draw(st.floats(min_value=0.3, max_value=4.0))
    if draw(st.booleans()):
        return TailModel("pareto", alpha)
    return TailModel("paretolog", alpha, draw(st.floats(min_value=-alpha, max_value=alpha)))


class _FixedUniform:
    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


@settings(max_examples=300, deadline=None)
@given(_tails(), st.integers(0, 2**64 - 1),
       st.one_of(st.floats(min_value=-5.0, max_value=800.0),
                 st.sampled_from([-math.inf, math.inf, math.nan])))
def test_float_draw_matches_size_one(tail, seed, log_lambda):
    one = np.random.default_rng(seed)
    arr = np.random.default_rng(seed)
    # an infinite rate sends paretolog's Newton solve through inf - inf,
    # silenced as the run loop silences it
    with np.errstate(invalid="ignore"):
        got = sample_fittest_mutant(log_lambda, tail, one)
        want = sample_fittest_mutant(log_lambda, tail, arr, size=1)
    assert isinstance(got, float)
    assert _bits(got) == _bits(want[0])
    assert one.bit_generator.state == arr.bit_generator.state


def test_float_draw_atom_cases():
    # u = 0 makes log(-log u) = +inf, which no rate exceeds; a NaN rate
    # is exceeded by nothing either
    tail = TailModel("pareto", 1.0)
    assert sample_fittest_mutant(700.0, tail, _FixedUniform(0.0)) == -math.inf
    assert sample_fittest_mutant(math.nan, tail, _FixedUniform(0.5)) == -math.inf


def _reference_bins(tail, bins_per_decade, top):
    """Bin log-masses and log-midpoints below ``top``, computed afresh."""
    k_lo = -bins_per_decade
    edges = np.array([0.0])
    if top > 10.0 ** (k_lo / bins_per_decade):
        k_hi = int(math.ceil(bins_per_decade * math.log10(top)))
        grid = 10.0 ** (np.arange(k_lo, k_hi + 1) / bins_per_decade)
        edges = np.concatenate(([0.0], grid[grid < top]))
    log_g = np.asarray(log_tail(tail, edges))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mass = log_g[:-1] + np.log(-np.expm1(log_g[1:] - log_g[:-1]))
    return log_mass, 0.5 * (edges[:-1] + edges[1:])


def _tops(bins_per_decade):
    grid_point = st.integers(-bins_per_decade, 12 * bins_per_decade).map(
        lambda k: 10.0 ** (k / bins_per_decade))
    near = grid_point.flatmap(lambda g: st.sampled_from(
        [g, math.nextafter(g, 0.0), math.nextafter(g, math.inf)]))
    spread = st.floats(min_value=-4.0, max_value=14.0).map(lambda e: 10.0**e)
    return st.lists(st.one_of(near, spread, st.just(0.1)), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(_tails(), st.sampled_from([1, 2, 3, 5, 8, 13]).flatmap(
    lambda bpd: st.tuples(st.just(bpd), _tops(bpd))))
def test_table_slices_match_fresh_bins(tail, bpd_tops):
    bins_per_decade, tops = bpd_tops
    table = _SpectrumTable(tail, bins_per_decade)  # one table grows over the tops
    for top in tops:
        log_mass, mids = table.below(top)
        want_mass, want_mids = _reference_bins(tail, bins_per_decade, top)
        assert _bits(log_mass) == _bits(want_mass)
        assert _bits(mids) == _bits(want_mids)


def test_table_gives_no_bins_to_non_finite_tops():
    table = _SpectrumTable(TailModel("pareto", 1.0), 8)
    for top in (math.inf, math.nan):
        log_mass, mids = table.below(top)
        assert log_mass.size == 0 and mids.size == 0
