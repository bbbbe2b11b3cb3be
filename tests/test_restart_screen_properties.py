"""Property tests for ``simulate._dies_small``, the screen of fmm restart attempts.

``run`` screens each fmm attempt before it calls ``_attempt``: the screen
runs the attempt on small exact steps alone and says at which generation it
dies, or None at the first generation that would leave ``step_exact``'s
small branch, and then ``_attempt`` replays the attempt from generation 0.
The screen pauses where its states run out, and here each pause gets its
next chunk hashed at once (``_run_screen``).  Each attempt here, on the pool
and first states ``simulate._screen`` hands out for it, is compared with
``_attempt`` on the array path
(``_SMALL_STATE_CLASSES`` patched to 0), whose steps are spied to tell which
generations the small branch would have taken.  The screen must say "dies"
exactly when that attempt dies on such generations alone, at the same
generation, with the generator in the same final state, and must stop at
the same generation otherwise.  Mutants can be given the founder's key, so
that they fold into its class.
"""
import itertools
import math
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import simulate
from branchlab.errors import HorizonOverflow
from branchlab.simulate import _NORMAL_APPROX_MEAN, SimConfig
from branchlab.tails import TailModel

_CUTOFF = simulate._SMALL_STATE_CLASSES
# attempts compared per example: screen rounds of 1, 2 and 4 and one past them
_ATTEMPTS = 8


@st.composite
def _configs(draw):
    """fmm runs founded near criticality, (1 - beta) F about 1."""
    alpha = draw(st.floats(min_value=1.0, max_value=5.0))
    tail = TailModel("pareto", alpha)
    if draw(st.booleans()):
        tail = TailModel("paretolog", alpha, draw(st.floats(min_value=-alpha, max_value=alpha)))
    beta = draw(st.floats(min_value=0.05, max_value=0.95))
    return SimConfig(model="fmm", tail=tail, beta=beta,
                     log_f=-math.log1p(-beta) + draw(st.floats(min_value=-1.0, max_value=0.5)),
                     t_max=draw(st.integers(min_value=0, max_value=60)),
                     seed=draw(st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                                         st.integers(min_value=2**64 - 8, max_value=2**64 - 1))),
                     exact_event_cap=draw(st.one_of(
                         st.just(1e7), st.floats(min_value=10.0, max_value=3000.0))))


# ties[i % len(ties)] gives the attempt's i-th mutant the founder's key
_TIES = st.one_of(st.just((False,)), st.lists(st.booleans(), min_size=1, max_size=4).map(tuple))


def _mutants(cfg, ties, drawn):
    """Patch ``sample_max_of_n`` to draw as usual, then apply ``ties``.

    Each call appends to ``drawn``.
    """
    sample, calls = simulate.sample_max_of_n, itertools.count()

    def max_of_n(model, n, rng):
        drawn.append(n)
        log_w = sample(model, n, rng)
        return float(cfg.log_f) if ties[next(calls) % len(ties)] else log_w

    return mock.patch.object(simulate, "sample_max_of_n", max_of_n)


def _generator():
    rng = np.random.Generator(np.random.PCG64(0))
    return rng, simulate._state_sink(rng)


def _never_dies(*args):
    """A ``_dies_small`` that sees no attempt die, at once."""
    return None
    yield


def _run_screen(screen, pool):
    """Drive a ``_dies_small`` generator to its end, hashing each chunk it
    asks for from ``pool``; returns its result."""
    chunk = None
    try:
        while True:
            t, n = screen.send(chunk)
            chunk = simulate._substream_states(pool, t, n).tobytes()
    except StopIteration as stop:
        return stop.value


def _attempts(cfg, attempts):
    """(pool, words) of cfg's first ``attempts`` attempts, as ``simulate._screen`` gives them."""
    rng, sink = _generator()
    found, first = [], 0
    with mock.patch.object(simulate, "_dies_small", _never_dies):
        while len(found) < attempts:
            (first, pool, words), = simulate._screen([cfg], first, rng, sink)[0]
            found.append((pool, words))
            first += 1
    return found


def _screen_attempt(cfg, pool, words, ties):
    """(``_dies_small``'s result, the generations it reset, its generator's state)."""
    rng, sink = _generator()
    reset, resets = simulate._generation_rng, []

    def counted(*args):
        resets.append(args[0])
        return reset(*args)

    with mock.patch.object(simulate, "_generation_rng", counted), _mutants(cfg, ties, []):
        died = _run_screen(simulate._dies_small(cfg, simulate._founder(cfg), rng, sink, words),
                           pool)
    return died, len(resets), rng.bit_generator.state


def _array_attempt(cfg, pool, words, ties):
    """The screen's result for ``_attempt`` on the array path, the generation
    it must stop at, and the generator's final state.

    A generation would take the small branch when its state and mutant make
    fewer than ``_CUTOFF`` classes and no survivor mean passes
    ``_NORMAL_APPROX_MEAN``.  The screen stops at the first generation that
    would not, or else where the attempt stops: at extinction, at a
    ``HorizonOverflow`` or at t_max.
    """
    rng, sink = _generator()
    step_exact, step_logdet = simulate.step_exact, simulate.step_logdet
    small, drawn = [], []

    def spied_exact(state, cfg, rng):
        before = len(drawn)
        out = step_exact(state, cfg, rng)
        lam = (1.0 - cfg.beta) * state.count * np.exp(state.log_fit)
        small.append(state.n_classes + len(drawn) - before < _CUTOFF
                     and bool(np.all(lam <= _NORMAL_APPROX_MEAN)))
        return out

    def spied_logdet(*args):
        small.append(False)
        return step_logdet(*args)

    with mock.patch.multiple(simulate, _SMALL_STATE_CLASSES=0, step_exact=spied_exact,
                             step_logdet=spied_logdet), _mutants(cfg, ties, drawn):
        try:
            _, extinct_t = simulate._attempt(cfg, pool, rng, sink, words, simulate._Buffers())
        except HorizonOverflow:
            extinct_t = None
    stop = small.index(False) + 1 if False in small else len(small)
    return extinct_t if all(small) else None, stop, rng.bit_generator.state


def _compare(cfg, ties, attempts=_ATTEMPTS):
    """Screen the first ``attempts`` attempts of cfg's run against the array
    path; returns each attempt's (screen result, generation it stopped at)."""
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        for pool, words in _attempts(cfg, attempts):
            died, resets, state = _screen_attempt(cfg, pool, words, ties)
            want, stop, want_state = _array_attempt(cfg, pool, words, ties)
            assert (died, resets) == (want, stop)
            if died is not None:
                assert state == want_state
            seen.append((died, resets))
    return seen


# one small step of a screen: its generation, the mutant-count mean drawn
# before it, the counts it leaves, its log fitness sum, and whether a mutant
# folded into a class
_Step = namedtuple("_Step", "t mean counts log_fitsum folded")


def _screen_steps(cfg, ties):
    """Per attempt of ``_compare``: (result, generations reset, ``_Step``s)."""
    steps, means = [], []
    generation, count = simulate._small_generation, simulate._mutant_count

    def counted(beta, log_fitsum, rng):
        means.append(beta * math.exp(log_fitsum))
        return count(beta, log_fitsum, rng)

    def spied(t, cols, log_fitsum, cfg, rng):
        out = generation(t, cols, log_fitsum, cfg, rng)
        if out[0] is not None:  # the small branch took this generation
            (fits, counts, births), log_fitsum, mutant_fit = out
            folded = any(births[fits.index(f)] < t for f in mutant_fit)
            steps.append(_Step(t, means[-1], counts, log_fitsum, folded))
        return out

    per_attempt, start = [], 0
    with mock.patch.multiple(simulate, _small_generation=spied, _mutant_count=counted):
        for died, resets in _compare(cfg, ties):
            per_attempt.append((died, resets, steps[start:]))
            start = len(steps)
    return per_attempt


def _fmm(alpha, beta, log_f, t_max, seed, cap=1e7):
    return SimConfig(model="fmm", tail=TailModel("pareto", alpha), beta=beta, log_f=log_f,
                     t_max=t_max, seed=seed, exact_event_cap=cap)


# name: (config, ties, attempt); test_examples_reach_their_edges checks that
# the screen of that attempt shows what the comment says
_EDGES = {
    # a survivor mean of 4096 draws a count past the end of the log(count) table
    "count_past_table": (_fmm(3.0, 0.01, math.log(4096 / 0.99), 4, 0, cap=1e18), (False,), 0),
    # a state of 7 classes gets a mutant and leaves the small branch
    "seven_plus_mutant": (_fmm(2.0, 0.5, math.log(2.2), 40, 23), (False,), 0),
    # a +inf mutant (alpha below the smallest normal) makes the total +inf,
    # where the array path's _attempt raises HorizonOverflow
    "inf_mutant": (_fmm(1e-310, 0.9, -0.5, 5, 4), (False,), 0),
    # mutant-count means above 1e9 take _poisson's normal approximation, and
    # the attempt dies on small steps after them
    "big_mutant_mean": (_fmm(3.0, 1.0 - 1e-14, 30.0, 20, 0, cap=1e18), (False,), 0),
    # an attempt dies after its first 16 generations, in its next chunk
    "past_first_chunk": (_fmm(3.0, 0.9, math.log(1.2), 40, 54), (False,), 7),
    # the log fitness sum of a small state crosses a small cap
    "small_cap": (_fmm(2.0, 0.5, math.log(2.0), 30, 12, cap=10.0), (False,), 0),
    # attempt seeds 2**64 - 2 and 2**64 - 1, then 0, 1, ...: the seeds of golden
    # fmm_restart_seed_wrap, whose attempts die
    "seed_wrap": (_fmm(3.0, 0.9, 0.1823215567939546, 40, 2**64 - 2), (False,), 2),
    # a mutant on the founder's key folds into its class, and the attempt dies
    "tied_mutant": (_fmm(3.0, 0.9, math.log(1.2), 20, 14), (True, False), 0),
}


@settings(max_examples=100, deadline=None)
@given(_configs(), _TIES)
@example(*_EDGES["count_past_table"][:2])
@example(*_EDGES["seven_plus_mutant"][:2])
@example(*_EDGES["inf_mutant"][:2])
@example(*_EDGES["big_mutant_mean"][:2])
@example(*_EDGES["past_first_chunk"][:2])
@example(*_EDGES["small_cap"][:2])
@example(*_EDGES["seed_wrap"][:2])
@example(*_EDGES["tied_mutant"][:2])
def test_screen_matches_array_path_attempt(cfg, ties):
    _compare(cfg, ties)


# each takes (screen result, generations reset, small steps) and the config
_SHOWS = {
    "count_past_table": lambda died, n, steps, cfg: any(
        max(s.counts, default=0) >= simulate._LOG_COUNTS_SIZE for s in steps),
    "seven_plus_mutant": lambda died, n, steps, cfg: (
        died is None and len(steps[-1].counts) == 7 and n == steps[-1].t + 1),
    "inf_mutant": lambda died, n, steps, cfg: (
        died is None and steps[-1].log_fitsum == math.inf and n == steps[-1].t < cfg.t_max),
    "big_mutant_mean": lambda died, n, steps, cfg: (
        died is not None and any(s.mean > _NORMAL_APPROX_MEAN for s in steps)),
    "past_first_chunk": lambda died, n, steps, cfg: (
        died is not None and died > simulate._FIRST_GENERATIONS),
    "small_cap": lambda died, n, steps, cfg: (
        died is None and steps[-1].log_fitsum > math.log(cfg.exact_event_cap)
        and len(steps[-1].counts) < _CUTOFF - 1 and n == steps[-1].t + 1),
    "seed_wrap": lambda died, n, steps, cfg: died is not None,
    "tied_mutant": lambda died, n, steps, cfg: (
        died is not None and any(s.folded for s in steps)),
}


@pytest.mark.parametrize("name", list(_EDGES))
def test_examples_reach_their_edges(name):
    cfg, ties, attempt = _EDGES[name]
    assert _SHOWS[name](*_screen_steps(cfg, ties)[attempt], cfg)


@st.composite
def _mixed_configs(draw):
    """fmm and mmm runs founded near criticality, restarting or not, at
    horizons around the first chunk's 16 generations and past later chunks.

    Weak, rare mutants (pareto alpha 50, beta 0.001) keep a screened attempt
    on one or two classes for tens of generations.
    """
    alpha, beta = draw(st.one_of(
        st.tuples(st.floats(min_value=2.0, max_value=4.0),
                  st.floats(min_value=0.5, max_value=0.95)),
        st.just((50.0, 0.001))))
    return SimConfig(model=draw(st.sampled_from(["fmm", "mmm"])), tail=TailModel("pareto", alpha),
                     beta=beta, log_f=-math.log1p(-beta) + draw(st.floats(min_value=-0.3,
                                                                          max_value=0.1)),
                     t_max=draw(st.sampled_from([0, 1, 15, 16, 17, 24, 25, 40, 100, 300])),
                     seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
                     restart_on_extinction=draw(st.booleans()))


def _weak(t_max, seed):
    return SimConfig(model="fmm", tail=TailModel("pareto", 50.0), beta=0.001, log_f=-0.03,
                     t_max=t_max, seed=seed)


# runs whose screens wait for next chunks at generations 17, 49 and 113,
# several of them at once, beside an mmm run and one that keeps its extinct
# attempt; test_mixed_example_waits_at_several_chunks pins that
_MIXED = [_fmm(3.0, 0.9, math.log(1.2), 40, 1424), _weak(300, 0), _weak(300, 2000),
          _weak(100, 600), _fmm(3.0, 0.9, math.log(1.2), 25, 4 * 10**6),
          _fmm(3.0, 0.9, math.log(1.2), 17, 6 * 10**6),
          SimConfig(model="mmm", tail=TailModel("pareto", 3.0), beta=0.9, log_f=math.log(1.2),
                    t_max=40, seed=7),
          SimConfig(model="fmm", tail=TailModel("pareto", 3.0), beta=0.9, log_f=math.log(1.2),
                    t_max=40, seed=8, restart_on_extinction=False)]


def _entries(found):
    return [(attempt, pool.tobytes(), words) for attempt, pool, words in found]


def _screen_runs(cfgs, waiting=simulate._WAITING_ATTEMPTS, per_slice=simulate._SLICE_ATTEMPTS):
    """``_screen`` entries of cfgs screened together, at most 81 attempts
    each, with the given waiting budget and slice size."""
    with mock.patch.multiple(simulate, MAX_RESTARTS=80, _WAITING_ATTEMPTS=waiting,
                             _SLICE_ATTEMPTS=per_slice), \
            np.errstate(over="ignore", invalid="ignore"):
        return [_entries(found) for found in simulate._screen(cfgs, 0, *_generator())]


@settings(max_examples=100, deadline=None)
@given(st.lists(_mixed_configs(), min_size=1, max_size=5),
       st.sampled_from([0, 1, 64, simulate._WAITING_ATTEMPTS]), st.sampled_from([1, 64, 256]))
@example(_MIXED, simulate._WAITING_ATTEMPTS, simulate._SLICE_ATTEMPTS)
@example(_MIXED, 0, 1)
def test_screen_of_several_runs_matches_each_run_alone(cfgs, waiting, per_slice):
    # the attempt each run hands to _attempt, its pool and every state
    # hashed for it, whichever runs wait for their next chunks beside it and
    # however often the budget makes the screen hash them
    assert _screen_runs(cfgs, waiting, per_slice) == [_screen_runs([cfg])[0] for cfg in cfgs]


def _held_attempts(cfgs, waiting):
    """Most attempts whose states the started, unfinished rounds of a
    ``_screen`` of cfgs held at once, with the given waiting budget."""
    held, most, screen_round = [0], [0], simulate._screen_round

    def spied(cfg, founder, first, pools, *args):
        held[0] += len(pools)
        most[0] = max(most[0], held[0])
        try:
            return (yield from screen_round(cfg, founder, first, pools, *args))
        finally:
            held[0] -= len(pools)

    with mock.patch.object(simulate, "_screen_round", spied):
        found = _screen_runs(cfgs, waiting)
    return most[0], found


def test_waiting_runs_hold_at_most_the_budget():
    # the screen's memory follows the budget, not the number of runs: past
    # it, the waiting attempts' next chunks are hashed before more runs start
    cfgs = [_fmm(3.0, 0.9, math.log(1.2), 40, 1000 * k) for k in range(40)]
    budget = 256
    most, found = _held_attempts(cfgs, budget)
    assert most <= budget + simulate._SLICE_ATTEMPTS
    unbounded, alone = _held_attempts(cfgs, math.inf)
    assert unbounded > budget + simulate._SLICE_ATTEMPTS and found == alone


def test_mixed_example_waits_at_several_chunks():
    hashed, states = [], simulate._substream_states

    def counted(pools, t0, n):
        hashed.append((len(pools), t0, n))
        return states(pools, t0, n)

    with mock.patch.object(simulate, "_substream_states", counted):
        found = _screen_runs(_MIXED)
    waits = {(t0, n) for _, t0, n in hashed if t0 > 1}
    assert {t0 for t0, _ in waits} == {17, 49, 113} and len(waits) >= 5
    # waiting attempts of several runs share a call
    assert any(k > 1 and t0 > 1 for k, t0, _ in hashed)
    # a run hands over an attempt whose words hold a later chunk
    assert any(len(words) > 32 * simulate._FIRST_GENERATIONS for entries in found
               for _, _, words in entries)
