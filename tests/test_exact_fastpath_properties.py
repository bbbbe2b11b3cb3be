"""Property tests for the scalar and single-call paths of the exact engine.

Each path must draw the same numbers from the same generator state as the
array code it replaces.  ``_reference_poisson`` is the earlier masked
Poisson sampler and ``_reference_max_of_n`` the earlier array max-of-n
sampler, kept here as independent oracles; the other checks compare a float
call with a one-element array call on cloned generators.  The small-state
step of ``step_exact``, one step and whole runs, is compared with its array
path, which the same call takes when ``_SMALL_STATE_CLASSES`` is patched
to 0; states built on tuple columns are compared with ``_rebuild``'s.  An
mmm step sorts its draw in place before the merge; on both paths its state
and log W are compared with ``_reference_rebuild`` of the draw unsorted.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import simulate
from branchlab.errors import DomainError, HorizonOverflow, TooManyRestarts
from branchlab.simulate import (
    _NORMAL_APPROX_MEAN,
    MODE_EXACT,
    PopulationState,
    SimConfig,
    _poisson,
    _rebuild,
    initial_state,
    step_exact,
)
from branchlab.tails import TailModel, inverse_log_tail, sample_fitness, sample_max_of_n
from test_rebuild_properties import _reference_rebuild


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=2, max_size=7))
@example([1.0, 1e-16, 1e-16])
@example([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
@example([0.1, 0.2, 0.3, 1e-17, 1e-17, 1e-17, 1e-17])
def test_add_reduce_sums_fewer_than_8_doubles_left_to_right(values):
    # _step_small sums its totals left to right and relies on np.add.reduce
    # (in _logsumexp) doing the same below _SMALL_STATE_CLASSES terms
    fold = 0.0
    for v in values:
        fold += v
    assert np.array([np.add.reduce(np.array(values))]).tobytes() == np.array([fold]).tobytes()


def _exact_case(model, beta, t, means, terms, births, picks):
    """Case tuple with survivor i's mean about means[i] and its log-fitness-sum
    term, log(count) + log-fitness after the draw, about terms[i].

    Terms near 0 keep log_fitsum about as small as the log of its sum, so
    the last bit of that sum shows in log_fitsum.  Counts are clamped to
    [1, 10**12], which moves the term of a large mean up.
    """
    counts = [min(max(round(m * m * math.exp(-u) / (1.0 - beta)), 1), 10**12)
              for m, u in zip(means, terms)]
    log_fit = [math.log(m / ((1.0 - beta) * c)) for m, c in zip(means, counts)]
    return model, beta, t, log_fit, counts, births, picks


@st.composite
def _exact_cases(draw):
    """(model, beta, t, log_fit, count, birth, picks) for one exact step.

    fmm states reach survivor means near and just above the normal
    approximation cap; mmm states keep means small, so their mutant count
    stays near the class cutoff.  ``picks`` gives mutant i the key of the
    survivor at index picks[i % len(picks)], or keeps its drawn key for None.
    """
    model = draw(st.sampled_from(["fmm", "mmm"]))
    n = draw(st.integers(min_value=1, max_value=9))
    if model == "fmm":
        beta = draw(st.floats(min_value=0.001, max_value=0.95))
        mean = st.one_of(
            st.floats(min_value=1e-6, max_value=50.0),
            st.floats(min_value=1e8, max_value=_NORMAL_APPROX_MEAN),
            st.just(_NORMAL_APPROX_MEAN),
            st.floats(min_value=_NORMAL_APPROX_MEAN, max_value=1.1e9, exclude_min=True),
        )
    else:
        beta = draw(st.floats(min_value=0.05, max_value=0.5))
        mean = st.floats(min_value=1e-6, max_value=2.0)
    t = draw(st.integers(min_value=0, max_value=50))
    means = draw(st.lists(mean, min_size=n, max_size=n))
    terms = draw(st.lists(st.floats(min_value=-3.0, max_value=1.0), min_size=n, max_size=n))
    births = draw(st.lists(st.integers(min_value=0, max_value=t), min_size=n, max_size=n))
    picks = draw(st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)),
                          min_size=1, max_size=4))
    return _exact_case(model, beta, t, means, terms, births, picks)


def _picked_mutants(keys, picks, sizes):
    """Patch the mutant samplers to draw as usual, then apply ``picks``.

    Each call appends its mutant count to ``sizes``.
    """
    def pick(i, drawn):
        p = picks[i % len(picks)]
        return drawn if p is None else keys[p % len(keys)]

    def max_of_n(model, n, rng):
        sizes.append(1)
        return pick(0, sample_max_of_n(model, n, rng))

    def fitness(model, rng, size=None):
        drawn = sample_fitness(model, rng, size=size)
        sizes.append(drawn.size)
        return np.array([pick(i, v) for i, v in enumerate(drawn.tolist())])

    return mock.patch.multiple(simulate, sample_max_of_n=max_of_n, sample_fitness=fitness)


def _bits(x) -> bytes:
    return np.array([x]).tobytes()


def test_log_count_table_has_the_scalar_log_bits():
    # _step_small reads log(n) from one np.log of an array, where _rebuild
    # takes np.log of each int64 count; the bits agree on x86-64 Linux with
    # NumPy 2.4, and another libm or NumPy build may round the two apart
    table = simulate._LOG_COUNTS
    assert len(table) == simulate._LOG_COUNTS_SIZE and table[0] == -math.inf
    with np.errstate(divide="ignore"):
        want = [np.log(float(n)) for n in range(len(table))]
    assert _bits(table) == _bits(want)
    assert all(type(v) is float for v in table)


# survivor i's mean about 4096: the draw gives a class of the count named,
# just below, at and past the end of the log(count) table
_TABLE_END = _exact_case("fmm", 0.01, 5, [4096.0, 2.0], [8.0, 0.0], [0, 2], [None])
_TABLE_END_FOLD = _exact_case("fmm", 0.01, 5, [4096.0, 2.0], [8.0, 0.0], [0, 2], [0])
_TABLE_END_SEEDS = [(_TABLE_END, 112, 4095), (_TABLE_END, 110, 4096), (_TABLE_END, 24, 4097),
                    (_TABLE_END_FOLD, 112, 4096)]  # 4095 drawn, then the mutant folds in
# three survivors that all survive seed 0; the mutant folds into the first,
# folds into the last, or is drawn below every survivor
_FOLD_AT = [_exact_case("fmm", 0.05, 6, [12.0, 10.0, 8.0], [5.0] * 3, [0, 3, 6], [pick])
            for pick in (0, 2, None)]


def _small_step(case, seed):
    """``step_exact`` on the case's state with its mutant picks, and the state."""
    model, beta, t, log_fit, count, birth, picks = case
    cfg = SimConfig(model=model, tail=TailModel("pareto", 1.5), beta=beta, log_f=0.0,
                    t_max=1, seed=0)
    state = _rebuild(t, np.array(log_fit), np.array(count), np.array(birth), MODE_EXACT)
    with _picked_mutants(state.log_fit.tolist(), picks, []):
        return step_exact(state, cfg, np.random.default_rng(seed))[0], state


@pytest.mark.parametrize("case, seed, count", _TABLE_END_SEEDS)
def test_table_end_examples_reach_their_counts(case, seed, count):
    got, _ = _small_step(case, seed)
    assert got.cols is not None and count in got.cols[1]


def test_fold_examples_place_the_mutant():
    # picks change the mutant's key, not the draws, so the survivors draw alike
    below, state = _small_step(_FOLD_AT[2], 0)
    keys, counts, births = below.cols
    assert keys[:3] == tuple(state.log_fit.tolist())  # all three survive
    assert keys[3] < keys[2] and counts[3] == 1 and births == (0, 3, 6, 7)
    for case, i in ((_FOLD_AT[0], 0), (_FOLD_AT[1], 2)):
        got, _ = _small_step(case, 0)
        assert got.cols == (keys[:3], tuple(n + (j == i) for j, n in enumerate(counts[:3])),
                            births[:3])


@settings(max_examples=300, deadline=None)
@given(_exact_cases(), _SEED)
@example(*_TABLE_END_SEEDS[0][:2])
@example(*_TABLE_END_SEEDS[1][:2])
@example(*_TABLE_END_SEEDS[2][:2])
@example(*_TABLE_END_SEEDS[3][:2])
@example(_FOLD_AT[0], 0)
@example(_FOLD_AT[1], 0)
@example(_FOLD_AT[2], 0)
# the top term is the third: adding its 1.0 first, not in its place, rounds the
# total of this draw differently
@example(_exact_case("fmm", 0.05, 4, [5.0, 5.0, 1e6], [-12.0, -12.1, 0.0], [0, 1, 2], [0]), 2)
# 7 classes that all survive and one fittest mutant: 8 classes take the array
# path, whose pairwise sum here differs in the last bit from a left fold
@example(_exact_case("fmm", 0.05, 20, [10.0] * 7, [-2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5],
                     [0, 2, 4, 8, 12, 16, 20], [None]), 1)
# two survivors and a mutant whose exp(term - top) math.exp rounds differently
@example(_exact_case("fmm", 0.05, 10, [10.0, 10.0], [-1.5, 0.5], [0, 3], [None]), 0)
# one founder with a mean of 1e-6: no survivor, no mutant
@example(_exact_case("fmm", 0.1, 0, [1e-6], [1], [0], [None]), 0)
def test_small_step_matches_array_step(case, seed):
    model, beta, t, log_fit, count, birth, picks = case
    cfg = SimConfig(model=model, tail=TailModel("pareto", 1.5), beta=beta, log_f=0.0,
                    t_max=1, seed=0)
    state = _rebuild(t, np.array(log_fit), np.array(count), np.array(birth), MODE_EXACT)
    lam = (1.0 - beta) * state.count * np.exp(state.log_fit)
    rng, ref = _twins(seed)
    sizes = []
    with _picked_mutants(state.log_fit.tolist(), picks, sizes):
        with mock.patch.object(simulate, "_step_small", wraps=simulate._step_small) as small:
            got, got_w = step_exact(state, cfg, rng)
        with mock.patch.object(simulate, "_SMALL_STATE_CLASSES", 0):
            want, want_w = step_exact(state, cfg, ref)
    n_new = sizes[0] if sizes else 0
    assert small.call_count == (state.n_classes + n_new < simulate._SMALL_STATE_CLASSES
                                and lam.max() <= _NORMAL_APPROX_MEAN)
    for name in ("log_fit", "count", "birth"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for a, b in ((got.log_X, want.log_X), (got.log_fitsum, want.log_fitsum), (got_w, want_w)):
        assert _bits(a) == _bits(b)
    assert (got.t, got.mode) == (want.t, want.mode)
    assert rng.bit_generator.state == ref.bit_generator.state


# keys an MMM step can draw, few enough that they tie: +0.0 (-log(u)/alpha
# underflowed), the smallest subnormal and normal, and ordinary keys.  MMM
# keys are never -0.0 or NaN, so equal keys have equal bits.
_MMM_KEYS = [0.0, 5e-324, 2.2250738585072014e-308, 0.25, 0.5, 1.0, 1.5]


@st.composite
def _mmm_presort_cases(draw):
    """(t, beta, log_fit, count, birth, keys, cutoff) for one exact mmm step.

    The survivors' keys are unique and descending; the mutants cycle through
    ``keys`` in the order drawn, which repeats keys of their own and of
    survivors.  Cutoff 0 sends every step to the array path.
    """
    log_fit = sorted(set(draw(st.lists(st.sampled_from(_MMM_KEYS), min_size=1, max_size=7))),
                     reverse=True)
    n = len(log_fit)
    t = draw(st.integers(min_value=0, max_value=20))
    count = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    birth = draw(st.lists(st.integers(min_value=0, max_value=t), min_size=n, max_size=n))
    keys = draw(st.lists(st.sampled_from(_MMM_KEYS), min_size=1, max_size=12))
    beta = draw(st.floats(min_value=0.05, max_value=0.6))
    cutoff = draw(st.sampled_from([simulate._SMALL_STATE_CLASSES, 0]))
    return t, beta, log_fit, count, birth, keys, cutoff


# three survivors on mutant keys, all kept by seeds 0 and 1.  Seed 0 draws
# 3 mutants (the small step), seed 1 draws 8 (the array path); their keys
# tie among themselves and with the survivors.
_PRESORT_TIES = (3, 0.4, [1.5, 1.0, 0.0], [2, 2, 1], [0, 1, 3],
                 [0.0, 1.0, 5e-324, 0.0, 1.5, 5e-324], simulate._SMALL_STATE_CLASSES)
_PRESORT_SEEDS = [(0, 3, True), (1, 8, False)]  # seed, mutants, small step


def _presort_step(case, seed):
    """``step_exact`` on the case's state with the mmm draw patched to its keys.

    Returns (state, next state, log W, mutant count, whether the small step
    ran, the merge's input keys or None, the generator).
    """
    t, beta, log_fit, count, birth, keys, cutoff = case
    cfg = SimConfig(model="mmm", tail=TailModel("pareto", 1.5), beta=beta, log_f=0.0,
                    t_max=1, seed=0)
    state = _rebuild(t, np.array(log_fit), np.array(count), np.array(birth), MODE_EXACT)
    sizes = []

    def fitness(model, rng, size=None):
        rng.random(size)  # the uniforms the real draw takes
        sizes.append(size)
        return np.resize(np.array(keys), size)  # a fresh array, as sample_fitness returns

    rng = np.random.default_rng(seed)
    with mock.patch.object(simulate, "sample_fitness", fitness), \
            mock.patch.object(simulate, "_SMALL_STATE_CLASSES", cutoff), \
            mock.patch.object(simulate, "_step_small", wraps=simulate._step_small) as small, \
            mock.patch.object(simulate, "_rebuild", wraps=simulate._rebuild) as merge:
        got, got_w = step_exact(state, cfg, rng)
    merged_keys = merge.call_args.args[1] if merge.called else None
    return state, got, got_w, sum(sizes), small.called, merged_keys, rng


@settings(max_examples=200, deadline=None)
@given(_mmm_presort_cases(), _SEED)
@example(_PRESORT_TIES, _PRESORT_SEEDS[0][0])
@example(_PRESORT_TIES, _PRESORT_SEEDS[1][0])
@example(_PRESORT_TIES[:-1] + (0,), _PRESORT_SEEDS[0][0])
def test_sorted_mutants_match_rebuild_of_the_unsorted_draw(case, seed):
    # step_exact sorts an mmm draw in place and merges two descending runs;
    # the state must be _reference_rebuild's of the survivors and the draw
    # as it came, and log W the draw's maximum
    t, beta, _, _, _, keys, cutoff = case
    state, got, got_w, m, small, merged_keys, rng = _presort_step(case, seed)
    ref = np.random.default_rng(seed)
    assert m == int(ref.poisson(beta * math.exp(state.log_fitsum)))
    ref.random(m)
    survivors = ref.poisson((1.0 - beta) * state.count * np.exp(state.log_fit))
    keep = survivors > 0
    mutants = np.resize(np.array(keys), m)
    want = _rebuild(t + 1, *_reference_rebuild(
        np.concatenate((state.log_fit[keep], mutants)),
        np.concatenate((survivors[keep], np.ones(m, dtype=np.int64))),
        np.concatenate((state.birth[keep], np.full(m, t + 1, dtype=np.int64))),
        MODE_EXACT), MODE_EXACT)
    want_w = float(mutants.max()) if m else -math.inf

    assert small == (state.n_classes + m < cutoff)
    if merged_keys is not None:
        # the array path merges the kept survivors, then the mutants descending
        tail = merged_keys[int(keep.sum()):]
        assert tail.size == m and np.all(tail[1:] <= tail[:-1])
    for name in ("log_fit", "count", "birth"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for a, b in ((got.log_X, want.log_X), (got.log_fitsum, want.log_fitsum), (got_w, want_w)):
        assert _bits(a) == _bits(b)
    assert (got.t, got.mode, got.dominant_age) == (want.t, want.mode, want.dominant_age)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed, m, small_step", _PRESORT_SEEDS)
def test_presort_examples_take_both_paths(seed, m, small_step):
    _, got, _, got_m, small, _, _ = _presort_step(_PRESORT_TIES, seed)
    assert (got_m, small) == (m, small_step)
    # every survivor is kept, with its birth
    assert got.birth[np.isin(got.log_fit, _PRESORT_TIES[2])].tolist() == _PRESORT_TIES[4]


def test_nan_survivor_mean_fails_in_the_array_draw():
    cfg = SimConfig(model="fmm", tail=TailModel("pareto", 1.5), beta=0.1, log_f=0.0,
                    t_max=1, seed=0)
    state = PopulationState(t=0, log_fit=np.array([math.nan]), count=np.ones(1, dtype=np.int64),
                            birth=np.zeros(1, dtype=np.int64), mode=MODE_EXACT,
                            log_X=0.0, log_fitsum=0.0)
    with mock.patch.object(simulate, "_step_small", side_effect=AssertionError):
        with pytest.raises(ValueError):
            step_exact(state, cfg, np.random.default_rng(0))


@st.composite
def _classes(draw):
    """(t, log_fit, count, birth) of a valid exact state, possibly empty.

    Counts come from a small range, so tied maximum counts are common.
    """
    keys = draw(st.lists(st.floats(min_value=-1e300, max_value=1e300), unique=True, max_size=8))
    n = len(keys)
    t = draw(st.integers(min_value=0, max_value=100))
    count = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    birth = draw(st.lists(st.integers(min_value=0, max_value=t), min_size=n, max_size=n))
    return t, sorted(keys, reverse=True), count, birth


@settings(max_examples=200, deadline=None)
@given(_classes())
@example((5, [], [], []))  # extinct
@example((9, [2.0, 1.0, -0.0], [3, 1, 3], [4, 0, 2]))  # tied maximum: the first wins
def test_tuple_columns_match_rebuild(classes):
    t, log_fit, count, birth = classes
    lazy = PopulationState(t, tuple(log_fit), tuple(count), tuple(birth), MODE_EXACT)
    built = _rebuild(t, np.array(log_fit, dtype=float), np.array(count, dtype=np.int64),
                     np.array(birth, dtype=np.int64), MODE_EXACT)
    # the tuples answer these without building an array, the same as the arrays do
    assert lazy.n_classes == built.n_classes == len(log_fit)
    assert lazy.dominant_age == built.dominant_age
    assert lazy.extinct == built.extinct == (not log_fit)
    for name in ("log_fit", "count", "birth"):
        a, b = getattr(lazy, name), getattr(built, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert getattr(lazy, name) is a  # built once, then kept


@st.composite
def _twin_configs(draw):
    """Short runs founded near criticality, (1 - beta) F about 1, with small caps.

    Their exact phases can take the small step, grow past the class cutoff onto
    the array path, fall back below it, and switch to logdet at the cap.
    """
    model = draw(st.sampled_from(["fmm", "mmm"]))
    alpha = draw(st.floats(min_value=1.0, max_value=5.0))
    tail = TailModel("pareto", alpha)
    if draw(st.booleans()):
        tail = TailModel("paretolog", alpha, draw(st.floats(min_value=-alpha, max_value=alpha)))
    beta = draw(st.floats(min_value=0.05, max_value=0.95))
    return SimConfig(model=model, tail=tail, beta=beta,
                     log_f=-math.log1p(-beta) + draw(st.floats(min_value=-1.0, max_value=0.5)),
                     t_max=draw(st.integers(min_value=1, max_value=30)), seed=draw(_SEED),
                     exact_event_cap=draw(st.floats(min_value=10.0, max_value=3000.0)),
                     restart_on_extinction=draw(st.booleans()))


# two runs that hand array-built states of fewer than 8 classes to the small
# step, and (mmm) switch to logdet; test_twin_examples_cross_paths pins both
_CROSSING = [
    SimConfig(model="mmm", tail=TailModel("pareto", 4.0), beta=0.7,
              log_f=-math.log1p(-0.7) - 0.3, t_max=30, seed=11, exact_event_cap=100.0),
    SimConfig(model="fmm", tail=TailModel("pareto", 4.0), beta=0.3,
              log_f=-math.log1p(-0.3) - 1.0, t_max=30, seed=11, exact_event_cap=3000.0),
]


# fmm runs that raise HorizonOverflow at the generation given.  In the first
# three the small step carries keys near 1e200-1e300 and the logdet step after
# it overflows.  In the last two a +inf mutant enters a small step, alone and
# beside a survivor: the array path's totals are NaN there, the small step's
# +inf, and both raise at that generation with the same text.
_OVERFLOW_AT = [(1e-300, 1.0, 0.5, 3), (1e-300, 0.0, 0.5, 2), (1e-200, -0.5, 0.9, 2),
                (1e-310, -0.5, 0.9, 1), (1e-310, 0.0, 0.5, 1)]
_OVERFLOW = [SimConfig(model="fmm", tail=TailModel("pareto", alpha), beta=beta, log_f=log_f,
                       t_max=5, seed=3) for alpha, log_f, beta, _ in _OVERFLOW_AT]


def _run_with_cutoff(cfg, cutoff):
    """``run(cfg)`` (or its typed error) and the run generator's final state.

    At most 30 restarts, so a run that would need thousands stops early.
    The generator is the one each generation's ``_generation_rng`` call
    resets: a run whose attempts all die in ``_dies_small`` never calls
    ``_attempt``.
    """
    simulate._direct_state_writes()  # the once-per-process probe resets a generator of its own
    reset, generators = simulate._generation_rng, set()

    def tracked(rng, sink, words):
        generators.add(rng)
        return reset(rng, sink, words)

    with mock.patch.object(simulate, "_SMALL_STATE_CLASSES", cutoff), \
            mock.patch.object(simulate, "MAX_RESTARTS", 30), \
            mock.patch.object(simulate, "_generation_rng", tracked):
        try:
            result = simulate.run(cfg)
        except (TooManyRestarts, HorizonOverflow) as exc:
            result = (type(exc), str(exc))
    (rng,) = generators
    return result, rng.bit_generator.state


@settings(max_examples=100, deadline=None)
# every cutoff up to 8 must give the array path's bytes; in about 2% of these
# runs an array-built state falls back below 8 classes, below 3 in about 25%
@given(_twin_configs(), st.one_of(st.just(simulate._SMALL_STATE_CLASSES),
                                  st.integers(min_value=2, max_value=7)))
@example(_CROSSING[0], simulate._SMALL_STATE_CLASSES)
@example(_CROSSING[1], simulate._SMALL_STATE_CLASSES)
@example(_OVERFLOW[0], simulate._SMALL_STATE_CLASSES)
@example(_OVERFLOW[1], simulate._SMALL_STATE_CLASSES)
@example(_OVERFLOW[2], simulate._SMALL_STATE_CLASSES)
@example(_OVERFLOW[3], simulate._SMALL_STATE_CLASSES)
@example(_OVERFLOW[4], simulate._SMALL_STATE_CLASSES)
def test_run_matches_array_path_run(cfg, cutoff):
    got, got_state = _run_with_cutoff(cfg, cutoff)
    want, want_state = _run_with_cutoff(cfg, 0)
    assert got_state == want_state
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ("t", "log_X", "log_W", "n_classes", "mode", "dominant_age"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.outcome, got.restarts) == (want.outcome, want.restarts)


@pytest.mark.parametrize("cfg, at", zip(_OVERFLOW, [row[3] for row in _OVERFLOW_AT]))
def test_overflow_examples_raise_where_stated(cfg, at):
    small, made = simulate._step_small, []

    def spy(*args):
        made.append(small(*args))
        return made[-1]

    with mock.patch.object(simulate, "_step_small", spy):
        got, _ = _run_with_cutoff(cfg, simulate._SMALL_STATE_CLASSES)
    assert got[0] is HorizonOverflow and f"at generation {at};" in got[1]
    # the last two overflow in a small step, whose +inf mutant is the top term
    assert (made[-1].t == at and made[-1].log_fitsum == math.inf) == (cfg.tail.alpha < 1e-300)


@pytest.mark.parametrize("cfg", _CROSSING, ids=["mmm", "fmm"])
def test_twin_examples_cross_paths(cfg):
    step, small_steps = simulate.step_exact, []

    def spy(state, cfg, rng):
        before = small.call_count
        out = step(state, cfg, rng)
        small_steps.append(state.cols is None and small.call_count > before)
        return out

    with mock.patch.object(simulate, "_step_small", wraps=simulate._step_small) as small, \
            mock.patch.object(simulate, "step_exact", spy), \
            mock.patch.object(simulate, "to_logdet", wraps=simulate.to_logdet) as switch:
        simulate.run(cfg)
    assert any(small_steps)  # an array-built state back on the small step
    assert switch.called == (cfg.model == "mmm")
