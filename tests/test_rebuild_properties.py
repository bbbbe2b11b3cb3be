"""Property tests for the class merge in ``simulate._rebuild``.

Keys are drawn from a small pool so duplicates are forced; both engine
modes are covered.  Besides the invariants (descending unique keys,
conserved totals, earliest birth per key), the merge is compared bitwise
with ``_reference_rebuild``: the earlier ``np.unique`` plus per-entry
``logaddexp`` loop, kept here as an independent oracle.

The large-state paths (``_merge_into_head``, on both sides of its
``_SLICE_INSERT_KEYS`` cutoff, and the masked ``np.exp`` of ``_logsumexp``)
are twin-tested against the plain paths: the same call with
``_LARGE_STATE_CLASSES`` patched to 1 and above the input size.  Only
logdet merges may take ``_merge_into_head``; exact ones always sort.  The
in-place writes of a logdet generation are guarded twice: a repeated call
on the same input must leave it untouched and give the same result, and
tracemalloc pins the generation's peak allocation on a large state.

``_rebuild`` and ``step_logdet`` with a run's ``_Buffers`` are twin-tested
against the same calls allocating afresh, into buffers holding garbage;
``run`` with the buffers on every logdet generation (cutoffs patched low)
must match ``run`` with none, and no step may write its input state, which
a column given back too early would allow.
"""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import simulate
from branchlab.simulate import MODE_EXACT, MODE_LOGDET, _logsumexp, _rebuild
from branchlab.tails import TailModel

_FINITE = st.floats(min_value=-50.0, max_value=700.0, allow_nan=False,
                    allow_infinity=False)
# log-counts of similar size, so a change of fold order shows in the bits
_LOG_COUNT = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                       allow_infinity=False)


def _reference_rebuild(log_fit, count, birth, mode):
    """Merge by ``np.unique`` and an input-order loop; returns sorted arrays."""
    log_fit = np.asarray(log_fit, dtype=float)
    count = np.asarray(count)
    birth = np.asarray(birth, dtype=np.int64)
    if log_fit.size:
        keys, inverse = np.unique(log_fit, return_inverse=True)
        if keys.size != log_fit.size:
            if mode == MODE_EXACT:
                merged = np.zeros(keys.size, dtype=np.int64)
                np.add.at(merged, inverse, count.astype(np.int64))
            else:
                # each key's fold starts at its first entry, as the merge
                # contract says; starting at -inf would turn a lone log-count
                # of -0.0 into +0.0, since logaddexp(-inf, -0.0) is +0.0
                merged = np.empty(keys.size)
                seen = np.zeros(keys.size, dtype=bool)
                for pos, c in zip(inverse, count):
                    merged[pos] = np.logaddexp(merged[pos], c) if seen[pos] else c
                    seen[pos] = True
            first = np.full(keys.size, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(first, inverse, birth)
            log_fit, count, birth = keys, merged, first
        order = np.argsort(log_fit)[::-1]
        log_fit, count, birth = log_fit[order], count[order], birth[order]
    count = count.astype(np.int64 if mode == MODE_EXACT else float)
    return log_fit, count, birth


@st.composite
def _classes(draw, mode):
    """(log_fit, count, birth) with every key drawn from a pool of <= 6."""
    pool = draw(st.lists(_FINITE, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(min_value=1, max_value=40))
    keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if mode == MODE_EXACT:
        counts = draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n))
    else:
        counts = draw(st.lists(_LOG_COUNT, min_size=n, max_size=n))
    births = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    return np.array(keys), np.array(counts), np.array(births, dtype=np.int64)


def _assert_invariants(state, log_fit, count, birth):
    assert np.all(np.diff(state.log_fit) < 0)  # strictly descending, unique
    assert set(state.log_fit.tolist()) == set(log_fit.tolist())
    for key, first in zip(state.log_fit, state.birth):
        assert first == birth[log_fit == key].min()


def _assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(_classes(MODE_EXACT))
# strictly descending keys skip the sort; unique unsorted keys skip the folds
@example((np.array([3.0, 1.0, -2.0]), np.array([4, 0, 7]), np.array([2, 0, 1], dtype=np.int64)))
@example((np.array([1.0, 3.0, -2.0]), np.array([4, 0, 7]), np.array([2, 0, 1], dtype=np.int64)))
# an mmm step's input: unique descending survivors, then its mutants sorted
# descending (count 1, birth t), repeating keys among themselves and a
# survivor's; the top mutant passes every survivor, or none of them
@example((np.array([3.0, 1.0, 0.0, 4.0, 1.0, 1.0, 5e-324, 5e-324, 0.0, 0.0]),
          np.array([4, 2, 7, 1, 1, 1, 1, 1, 1, 1]),
          np.array([0, 2, 3, 5, 5, 5, 5, 5, 5, 5], dtype=np.int64)))
@example((np.array([3.0, 2.0, 2.0, 2.0, 0.5, 0.5]), np.array([6, 1, 1, 1, 1, 1]),
          np.array([1, 2, 5, 5, 5, 5], dtype=np.int64)))
def test_exact_merge(classes):
    log_fit, count, birth = classes
    state = _rebuild(5, log_fit, count, birth, MODE_EXACT)
    _assert_invariants(state, log_fit, count, birth)
    assert int(state.count.sum()) == int(count.sum())
    for got, want in zip((state.log_fit, state.count, state.birth),
                         _reference_rebuild(log_fit, count, birth, MODE_EXACT)):
        _assert_bitwise_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(_classes(MODE_LOGDET))
# a lone key with log-count -0.0 next to a merged key: the sign must survive
@example((np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -0.0]),
          np.array([0, 0, 0], dtype=np.int64)))
# strictly descending keys skip the sort; unique unsorted keys skip the folds
@example((np.array([3.0, 1.0, -2.0]), np.array([0.5, -0.0, 2.0]),
          np.array([2, 0, 1], dtype=np.int64)))
@example((np.array([1.0, 3.0, -2.0]), np.array([0.5, -0.0, 2.0]),
          np.array([2, 0, 1], dtype=np.int64)))
def test_logdet_merge(classes):
    log_fit, count, birth = classes
    state = _rebuild(5, log_fit, count, birth, MODE_LOGDET)
    _assert_invariants(state, log_fit, count, birth)
    m = count.max()
    want_log_X = m + math.log(math.fsum(math.exp(c - m) for c in count))
    assert math.isclose(state.log_X, want_log_X, rel_tol=1e-12, abs_tol=1e-9)
    for got, want in zip((state.log_fit, state.count, state.birth),
                         _reference_rebuild(log_fit, count, birth, MODE_LOGDET)):
        _assert_bitwise_equal(got, want)


def _with_cutoff(cutoff, func, *args):
    with mock.patch.object(simulate, "_LARGE_STATE_CLASSES", cutoff), \
            mock.patch.object(simulate, "_BUFFERED_STATE_CLASSES", cutoff):
        return func(*args)


# keys of both signs of zero, which compare equal and merge under the first
_KEY = st.one_of(_FINITE, st.sampled_from([0.0, -0.0]))


@st.composite
def _head_and_tail(draw):
    """(mode, log_fit, count, birth): a strictly descending head, then a tail.

    Tail keys are head keys (hits) or fresh keys (misses).  A logdet
    log-count may be +inf, an overflowed class, whose totals are NaN.
    """
    mode = draw(st.sampled_from([MODE_EXACT, MODE_LOGDET]))
    head = sorted(set(draw(st.lists(_KEY, min_size=1, max_size=12))), reverse=True)
    tail = draw(st.lists(st.one_of(st.sampled_from(head), _KEY), max_size=12))
    n = len(head) + len(tail)
    if mode == MODE_EXACT:
        counts = st.integers(1, 10**12)
    else:
        counts = st.one_of(_LOG_COUNT, st.just(math.inf))
    count = draw(st.lists(counts, min_size=n, max_size=n))
    birth = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    return mode, np.array(head + tail), np.array(count), np.array(birth, dtype=np.int64)


def _state_bits(state):
    return (state.log_fit.dtype, state.log_fit.tobytes(), state.count.dtype,
            state.count.tobytes(), state.birth.dtype, state.birth.tobytes(),
            np.float64(state.log_X).tobytes(), np.float64(state.log_fitsum).tobytes())


@settings(max_examples=100, deadline=None)
@given(_head_and_tail())
# a tail key repeated and also in the head: the full sort folds it left to
# right, fold(fold(4.6, 2.2), 0.4), whose bits differ from folding the tail first
@example((MODE_LOGDET, np.array([3.0, 1.0, 1.0, 1.0]), np.array([0.5, 4.6, 2.2, 0.4]),
          np.array([0, 1, 2, 3], dtype=np.int64)))
# a tail that only extends the head, out of order
@example((MODE_LOGDET, np.array([3.0, 1.0, -2.0, -1.0]), np.array([0.5, 4.6, 2.2, 0.4]),
          np.array([7, 1, 2, 3], dtype=np.int64)))
# -0.0 in the tail hits 0.0 in the head, which keeps its key; an empty tail
@example((MODE_EXACT, np.array([1.0, 0.0, -1.0, -0.0, 2.0]), np.array([1, 2, 3, 4, 5]),
          np.array([4, 3, 2, 1, 0], dtype=np.int64)))
@example((MODE_LOGDET, np.array([-0.0, -1.0, 0.0]), np.array([-0.0, 1.0, 0.0]),
          np.array([0, 0, 0], dtype=np.int64)))
@example((MODE_EXACT, np.array([2.0, 1.0]), np.array([1, 1]), np.array([0, 0], dtype=np.int64)))
# 33 new keys, one more than the slices take: np.insert at the real cutoff
@example((MODE_LOGDET, np.concatenate((np.arange(40.0, 0.0, -1.0), np.arange(32.5, 0.0, -1.0))),
          np.linspace(-3.0, 3.0, 73), np.arange(73, dtype=np.int64)))
def test_large_state_merge_matches_sort(case):
    mode, log_fit, count, birth = case
    args = (5, log_fit, count, birth, mode)
    sorted_keys = log_fit.size < 2 or bool(np.all(log_fit[1:] < log_fit[:-1]))
    # exact merges always take the sort
    merges = 2 * (mode == MODE_LOGDET and not sorted_keys)
    with np.errstate(invalid="ignore"), \
            mock.patch.object(simulate, "_merge_into_head",
                              wraps=simulate._merge_into_head) as merge:
        # the merge copies the head in slices, or calls np.insert from one key on
        large = _with_cutoff(1, _rebuild, *args)
        with mock.patch.object(simulate, "_SLICE_INSERT_KEYS", 0):
            inserted = _with_cutoff(1, _rebuild, *args)
        assert merge.call_count == merges
        plain = _with_cutoff(log_fit.size + 1, _rebuild, *args)
        assert merge.call_count == merges
    assert _state_bits(large) == _state_bits(plain)
    assert _state_bits(inserted) == _state_bits(plain)


_EDGE = [-746.0, float(np.nextafter(-746.0, 0.0)), -745.1332191019411, -745.1332191019412,
         math.nan, math.inf, -math.inf]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(-2000.0, 0.0), st.sampled_from(_EDGE)), max_size=40),
       st.booleans())
@example([-746.0, float(np.nextafter(-746.0, 0.0)), -745.1332191019411, -1000.0], True)
@example([-3.0, math.nan], False)
def test_masked_logsumexp_matches_plain(values, anchored):
    # anchored at a maximum of 0.0, the drawn values are the shifted exponents
    x = np.array([0.0] * anchored + values)
    x_bits = x.tobytes()
    with np.errstate(invalid="ignore"):
        masked = _with_cutoff(1, _logsumexp, x)
        plain = _with_cutoff(x.size + 1, _logsumexp, x)
        # the out= form writes the passed buffer (or the values themselves,
        # as _rebuild passes them) and nothing else
        results = []
        for cutoff in (1, x.size + 1):
            out = np.full(x.size, 7.0)
            results.append(_with_cutoff(cutoff, _logsumexp, x, out))
            written = x.size and np.maximum.reduce(x) != -math.inf
            assert (out.tobytes() != np.full(x.size, 7.0).tobytes()) == bool(written)
            y = x.copy()
            results.append(_with_cutoff(cutoff, _logsumexp, y, y))
    assert x.tobytes() == x_bits
    assert np.float64(masked).tobytes() == np.float64(plain).tobytes()
    for got in results:
        assert np.float64(got).tobytes() == np.float64(plain).tobytes()


def _logdet_state(n, seed):
    """A logdet state of n classes with off-grid keys, as an exact phase hands over."""
    rng = np.random.default_rng(seed)
    log_fit = np.sort(rng.uniform(0.01, 30.0, n))[::-1]
    # a few log-counts low enough that the next generation drops them
    log_count = rng.uniform(-40.0, 0.0, n)
    birth = rng.integers(0, 20, n)
    return _rebuild(20, log_fit, log_count, birth, MODE_LOGDET)


def _mmm_config():
    return simulate.SimConfig(model="mmm", tail=TailModel("pareto", 1.0), beta=0.1,
                              log_f=1.0, t_max=40, seed=1)


def test_in_place_writes_leave_inputs_alone():
    # step_logdet and _rebuild write into buffers of their own only: a second
    # call on the same input gives the same result, on both sides of the cutoff
    state = _logdet_state(600, seed=3)
    cfg = _mmm_config()
    rng = np.random.default_rng(11)
    # a descending head, then a tail of distinct keys: 40 hits and 10 misses
    log_fit = np.concatenate((state.log_fit, rng.choice(state.log_fit, 40, replace=False),
                              rng.uniform(0.0, 31.0, 10)))
    birth = np.arange(log_fit.size, dtype=np.int64)
    counts = rng.integers(1, 10**6, log_fit.size)
    # merged inputs, and sorted unique ones, whose arrays _rebuild keeps
    inputs = [(MODE_EXACT, log_fit, counts, birth),
              (MODE_LOGDET, log_fit, rng.uniform(-30.0, 5.0, log_fit.size), birth),
              (MODE_EXACT, state.log_fit, counts[:state.n_classes], state.birth),
              (MODE_LOGDET, state.log_fit, state.count, state.birth)]
    watched = [state.log_fit, state.count, state.birth] + [a for i in inputs for a in i[1:]]
    before = [a.tobytes() for a in watched]
    for cutoff in (1, log_fit.size + 1):
        with mock.patch.object(simulate, "_merge_into_head",
                               wraps=simulate._merge_into_head) as merge:
            steps = [_with_cutoff(cutoff, simulate.step_logdet, state, cfg,
                                  np.random.default_rng(5),
                                  simulate._SpectrumTable(cfg.tail, cfg.mmm_bins_per_decade))
                     for _ in range(2)]
            assert steps[0][1] == steps[1][1]
            assert _state_bits(steps[0][0]) == _state_bits(steps[1][0])
            # the step's merge ran on the large side, and on no other
            assert merge.call_count == (2 if cutoff == 1 else 0)
            for mode, f, c, b in inputs:
                first, second = (_with_cutoff(cutoff, _rebuild, 5, f, c, b, mode)
                                 for _ in range(2))
                assert _state_bits(first) == _state_bits(second)
            # both steps and both calls on the merged logdet input; exact ones sort
            assert merge.call_count == (4 if cutoff == 1 else 0)
        assert [a.tobytes() for a in watched] == before


def test_large_logdet_step_allocation_peak():
    # one logdet generation of a large state allocates at most 8 arrays of
    # n float64s at a time (the survivors' log-counts, the merge's input and
    # output columns, the totals' scratch array)
    state = _logdet_state(120_000, seed=4)
    cfg = _mmm_config()
    table = simulate._SpectrumTable(cfg.tail, cfg.mmm_bins_per_decade)
    with mock.patch.object(simulate, "_merge_into_head",
                           wraps=simulate._merge_into_head) as merge:
        tracemalloc.start()
        try:
            simulate.step_logdet(state, cfg, np.random.default_rng(5), table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert merge.call_count == 1
    assert peak <= 8 * state.n_classes * 8


def _stale_buffers():
    """``_Buffers`` whose free arrays hold garbage, as a restarted run's may."""
    buffers = simulate._Buffers()
    arrays = [buffers.take(n, dtype) for n in (40, 700, 900) for dtype in (float, np.int64, bool)]
    for a in arrays:
        a[...] = 7 if a.dtype != float else math.nan
    buffers.give(*arrays)
    return buffers


@settings(max_examples=100, deadline=None)
@given(_head_and_tail(), st.booleans())
def test_buffered_rebuild_matches_fresh(case, insert):
    # sort, merge and no-merge paths, slices or np.insert, into stale arrays
    mode, log_fit, count, birth = case
    with np.errstate(invalid="ignore"), \
            mock.patch.object(simulate, "_SLICE_INSERT_KEYS", 0 if insert else 32):
        fresh = _with_cutoff(1, _rebuild, 5, log_fit, count, birth, mode)
        buffered = _with_cutoff(1, _rebuild, 5, log_fit, count, birth, mode, _stale_buffers())
    assert _state_bits(buffered) == _state_bits(fresh)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 400), st.integers(0, 2**32 - 1))
def test_buffered_logdet_steps_match_fresh(n, seed):
    # six generations on the large side, giving back each old state's columns
    # as _attempt does, against the same steps allocating afresh
    cfg = _mmm_config()
    fresh = buffered = _logdet_state(n, seed)
    buffers = _stale_buffers()
    tables = [simulate._SpectrumTable(cfg.tail, cfg.mmm_bins_per_decade) for _ in range(2)]
    for k in range(6):
        fresh, w_fresh = _with_cutoff(1, simulate.step_logdet, fresh, cfg,
                                      np.random.default_rng([seed, k]), tables[0])
        step, w_buffered = _with_cutoff(1, simulate.step_logdet, buffered, cfg,
                                        np.random.default_rng([seed, k]), tables[1], buffers)
        buffers.give(buffered.log_fit, buffered.count, buffered.birth)
        buffered = step
        assert np.float64(w_buffered).tobytes() == np.float64(w_fresh).tobytes()
        assert _state_bits(buffered) == _state_bits(fresh)


def test_buffers_hand_out_and_take_back_their_own_arrays():
    buffers = simulate._Buffers()
    a = buffers.take(640)
    assert a.size == 640 and a.dtype == np.float64 and a.base.size == 650
    small = buffers.take(10)
    buffers.give(small, a)
    # the last one given first, of the dtype asked for only
    assert buffers.take(600).base is a.base
    c = buffers.take(5, np.int64)
    assert c.dtype == np.int64 and c.base is not small.base
    # a free array too short is dropped for good
    assert buffers.take(20).base is not small.base
    buffers.give(small)
    assert buffers.take(5).base is not small.base
    # arrays it did not hand out are ignored, and none is freed twice
    d = buffers.take(10)
    buffers.give(np.empty(1000), np.empty(1000)[:10], d, d, d[:5])
    first, second = buffers.take(10), buffers.take(10)
    assert first.base is d.base and second.base is not d.base


def test_buffered_large_logdet_step_allocates_no_full_size_array():
    # once its buffers hold a generation's arrays, a large logdet step
    # allocates less than one array of n float64s
    state = _logdet_state(120_000, seed=4)
    cfg = _mmm_config()
    table = simulate._SpectrumTable(cfg.tail, cfg.mmm_bins_per_decade)
    buffers = simulate._Buffers()
    for k in range(3):
        tracemalloc.start()
        try:
            step, _ = simulate.step_logdet(state, cfg, np.random.default_rng(k), table, buffers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffers.give(state.log_fit, state.count, state.birth)
        state = step
    assert peak < state.n_classes * 8 // 2


def test_buffered_steps_keep_unmerged_columns():
    # a new class below every survivor leaves the keys descending, so the
    # state keeps the step's own columns; they must not be reused meanwhile
    cfg = _mmm_config()
    fresh = buffered = _logdet_state(300, seed=6)
    buffers = _stale_buffers()
    # one new class a generation, below the last, for each side in turn
    below = [(np.array([-k]), np.array([0.0]), -k) for k in (1.0, 2.0, 3.0, 4.0) for _ in "ab"]
    with mock.patch.object(simulate, "mutant_spectrum", side_effect=below), \
            mock.patch.object(simulate, "_merge_into_head") as merge:
        for _ in range(4):
            fresh, _ = _with_cutoff(1, simulate.step_logdet, fresh, cfg, None, None)
            step, _ = _with_cutoff(1, simulate.step_logdet, buffered, cfg, None, None, buffers)
            buffers.give(buffered.log_fit, buffered.count, buffered.birth)
            buffered = step
            assert _state_bits(buffered) == _state_bits(fresh)
    assert merge.call_count == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_on_the_large_side_matches_the_plain_side(seed):
    # run's buffers, and _attempt giving back each old state's columns, on
    # every logdet generation of a small MMM run (60-100 classes)
    cfg = simulate.SimConfig(model="mmm", tail=TailModel("pareto", 1.0), beta=0.1,
                             log_f=math.log(2.0), t_max=24, seed=seed, exact_event_cap=1000)
    step_logdet = simulate.step_logdet

    def untouched_input(state, *args):
        # a column given back too early would be reused while still read
        before = _state_bits(state)
        step = step_logdet(state, *args)
        assert _state_bits(state) == before
        return step

    with mock.patch.object(simulate._Buffers, "take", autospec=True,
                           side_effect=simulate._Buffers.take) as take, \
            mock.patch.object(simulate, "step_logdet", untouched_input):
        large = _with_cutoff(8, simulate.run, cfg)
    assert take.call_count > 0
    plain = _with_cutoff(10**9, simulate.run, cfg)
    assert large.mode.tolist().count(1) >= 10
    for column in ("t", "log_X", "log_W", "n_classes", "mode", "dominant_age"):
        assert getattr(large, column).tobytes() == getattr(plain, column).tobytes()
