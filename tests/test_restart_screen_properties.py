"""Property tests for ``simulate._dies_small``, the screen of fmm restart attempts.

``run`` screens each fmm attempt before it calls ``_attempt``: the screen
runs the attempt on small exact steps alone and says at which generation it
dies, or None at the first generation that would leave ``step_exact``'s
small branch, and then ``_attempt`` replays the attempt from generation 0.
Each attempt here is compared with ``_attempt`` on the array path
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
# attempts compared per example: blocks of 1, 2 and 4 and one past them
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


def _screen(cfg, pool, words, ties):
    """(``_dies_small``'s result, the generations it reset, its generator's state)."""
    rng, sink = _generator()
    reset, resets = simulate._generation_rng, []

    def counted(*args):
        resets.append(args[0])
        return reset(*args)

    with mock.patch.object(simulate, "_generation_rng", counted), _mutants(cfg, ties, []):
        died = simulate._dies_small(cfg, pool, rng, sink, words)
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
        for pool, words in itertools.islice(simulate._attempt_substreams(cfg), attempts):
            died, resets, state = _screen(cfg, pool, words, ties)
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
    classes, count = simulate._small_classes, simulate._mutant_count

    def counted(beta, log_fitsum, rng):
        means.append(beta * math.exp(log_fitsum))
        return count(beta, log_fitsum, rng)

    def spied(t, cols, lam, mutant_fit, rng):
        out = classes(t, cols, lam, mutant_fit, rng)
        fits, counts, births, log_fitsum = out
        folded = any(births[fits.index(f)] < t for f in mutant_fit)
        steps.append(_Step(t, means[-1], counts, log_fitsum, folded))
        return out

    per_attempt, start = [], 0
    with mock.patch.multiple(simulate, _small_classes=spied, _mutant_count=counted):
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
