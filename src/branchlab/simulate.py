"""Stochastic branching simulation with selection and heavy-tailed mutation.

Two models share one engine: ``fmm`` adds only the single fittest mutant of
each generation, ``mmm`` adds every mutant.  The engine runs in two modes:

* exact    integer class counts; offspring are Poisson-thinned into
           independent non-mutant and mutant streams (equal in law to
           per-offspring marking, O(classes) instead of O(population)).
* logdet   log-domain deterministic class counts once the expected event
           count passes ``exact_event_cap``; the fittest mutant stays
           stochastic (one float draw of ``sample_fittest_mutant``), FMM
           adds it alone, and the MMM mutant spectrum is aggregated into
           geometric log-fitness bins topped by that exactly sampled maximum.

Populations are class-aggregated (log-fitness, count) lists, sorted by
log-fitness descending with unique keys; totals carry as log X and log of
the fitness-weighted sum, refreshed every step.  Every step merges its
classes in ``_rebuild``, whose contract (equal keys fold left to right in
input order) makes every output bit-for-bit reproducible.

Exact generations of fewer than ``_SMALL_STATE_CLASSES`` (8) classes, the
bulk of a restart-heavy run founded below criticality, run on Python scalars
in ``_step_small`` with the array path's bits; the cutoff is where
``np.add.reduce`` stops summing left to right and sums in blocks of 8.  The
founder and every state ``_step_small`` makes keep their class columns as
Python tuples, so a run of small generations builds no array; a state builds
its arrays only when they are read (see ``PopulationState``).

States of at least ``_LARGE_STATE_CLASSES`` (4096) classes, such as the
MMM state an exact phase hands to logdet mode, take two large-state paths
with the same bits: ``_rebuild`` places the new classes into the sorted
survivors instead of sorting all classes (``_merge_into_head``), and
``_logsumexp`` writes 0.0 for terms that ``np.exp`` underflows to 0.0
instead of computing them.  Both cost more than they save on small states.
A synthetic sweep (one logdet ``_rebuild`` call: n strictly descending
survivors with log-counts in [-3000, 0], then 30 new classes, 28 of them on
survivor keys; min of 7 timings, shared 2-vCPU VM) read, plain against
large-state path: n = 256, 47 against 114 us; 1024, 139 against 167 us;
2048, 218 against 205 us; 4096, 385 against 297 us; 16,384, 1764 against
1045 us.  The paths cross near 2048; 4096 leaves a margin, and the
roughly 930-class states of a long MMM run from log-fitness 50 stay below it.

On such states allocation costs as much as arithmetic.  An array of n
float64s is about 1 MB at 131,000 classes; glibc hands a freed block of that
size back to the OS, and the next generation page-faults it in again.  So a
logdet generation allocates few of them: ``step_logdet`` builds the
log-counts in one buffer, ``_rebuild`` computes both totals in one scratch
array with ``np.exp`` in place, and ``_merge_into_head`` allocates each
output column once and copies the survivors into it in slices.  One
``mmm_wide`` benchmark pass (about 131,000 classes) went from 25,834 to
3,361 minor page faults and from about 0.12 to 0.07 s of CPU; the fault
count depends on the heap layout.  The package leaves the allocator's
settings alone (no ``mallopt``, no malloc environment variables), which
belong to the whole host process.

Generation t of an attempt draws from the ``PCG64`` stream seeded by a
``np.random.SeedSequence`` with entropy ``attempt_seed`` and
``spawn_key=(t,)``.  NumPy hashes the attempt seed into its entropy pool
once per attempt; ``_generation_rng`` mixes t into that pool by hand and
computes the stream's state in plain integers, without constructing a
``SeedSequence`` or a ``PCG64`` per generation, and sets it on one generator
reused for the whole run; ``tests/test_substream_properties.py`` pins the
two to the same state and the same draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DomainError, HorizonOverflow, TooManyRestarts
from .tails import TailModel, inverse_log_tail, log_tail, sample_fitness, sample_max_of_n

MODE_EXACT = "exact"
MODE_LOGDET = "logdet"

MAX_RESTARTS = 10_000

# Poisson means above this use a normal approximation with continuity
# correction; the error is invisible in log domain.
_NORMAL_APPROX_MEAN = 1e9

# Exact generations with fewer classes than this, survivors and mutants
# together, take ``_step_small`` (see the module docstring for why 8).
_SMALL_STATE_CLASSES = 8

# Exact counts are int64.  An exact generation starts with at most
# exact_event_cap expected events, so its survivors total about
# (1-beta) * cap; 1e18 keeps that below 2**63 (about 9.2e18).
MAX_EXACT_EVENT_CAP = 1e18
# Exact MMM keeps one class per mutant, so one exact generation can add
# about beta * exact_event_cap classes; this bound keeps that within memory.
MMM_MAX_EXACT_EVENT_CAP = 1e8
# MMM spectrum bins with a mean up to mmm_poisson_threshold are drawn by
# rng.poisson, which takes means only up to about 9.2e18 (int64).
MMM_MAX_POISSON_THRESHOLD = 1e18
# The spectrum table spans log-fitness edges 10**(k/bpd) up to the top; a
# finite log-fitness stays below 1.8e308, so a table never needs more than
# about 309 * bpd bins.  This bound keeps that (and each doubling of the
# table) within memory.
MMM_MAX_BINS_PER_DECADE = 1000

# logdet classes decayed below this count are dropped; a decaying class
# (fitness below 1/(1-beta)) can never grow back.
_COUNT_FLOOR = 1e-12
_LOG_COUNT_FLOOR = math.log(_COUNT_FLOOR)

# States of at least this many classes take the large-state paths of
# ``_rebuild`` and ``_logsumexp`` (see the module docstring for why 4096).
_LARGE_STATE_CLASSES = 4096
# np.exp is exactly 0.0 at and below this; its first nonzero value is at
# about -745.1332 (the smallest subnormal, 5e-324).
_EXP_UNDERFLOW = -746.0
# ``_merge_into_head`` copies the head in slices between the insertion points
# of up to this many new keys and calls ``np.insert`` above it (sweep in its
# docstring).
_SLICE_INSERT_KEYS = 32


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one stochastic run."""

    model: str  # "fmm" | "mmm"
    tail: TailModel
    beta: float
    log_f: float
    t_max: int
    seed: int
    exact_event_cap: float = 1e7
    mmm_bins_per_decade: int = 8
    mmm_poisson_threshold: float = 1e4
    restart_on_extinction: bool = True

    def __post_init__(self):
        if self.model not in ("fmm", "mmm"):
            raise DomainError(f"unknown model {self.model!r}")
        if not 0.0 < self.beta < 1.0:
            raise DomainError("beta must be in (0, 1)")
        if not math.isfinite(self.log_f):
            raise DomainError("log_f must be finite")
        if self.t_max < 0:
            raise DomainError("t_max must be >= 0")
        if self.exact_event_cap <= 0 or self.mmm_poisson_threshold <= 0:
            raise DomainError("caps must be positive")
        cap_max = MMM_MAX_EXACT_EVENT_CAP if self.model == "mmm" else MAX_EXACT_EVENT_CAP
        if not self.exact_event_cap <= cap_max:
            raise DomainError(f"{self.model} exact_event_cap must be <= {cap_max:g}, "
                              f"got {self.exact_event_cap:g}")
        if not self.mmm_poisson_threshold <= MMM_MAX_POISSON_THRESHOLD:
            raise DomainError(f"mmm_poisson_threshold must be <= {MMM_MAX_POISSON_THRESHOLD:g}, "
                              f"got {self.mmm_poisson_threshold:g}")
        if self.mmm_bins_per_decade < 1:
            raise DomainError("mmm_bins_per_decade must be >= 1")
        if self.mmm_bins_per_decade > MMM_MAX_BINS_PER_DECADE:
            raise DomainError(f"mmm_bins_per_decade must be <= {MMM_MAX_BINS_PER_DECADE}, "
                              f"got {self.mmm_bins_per_decade}")


class PopulationState:
    """Class-aggregated population at one generation.

    ``count`` holds nonnegative integers in exact mode and log-counts in
    logdet mode.  Classes are sorted by log-fitness descending with unique
    keys; ``birth`` records the generation each class first appeared.

    Column contract: the three class columns are given either as NumPy
    arrays (``_rebuild``, ``to_logdet``) or, for exact states, as Python
    tuples of floats and ints (``initial_state``, ``_step_small``).  Reading
    ``log_fit``, ``count`` or ``birth`` always gives arrays, float64, int64
    (or float64 log-counts in logdet mode) and int64, built from tuples on
    the first read and kept, with the bytes ``_rebuild`` gives for the same
    classes.  ``n_classes``, ``dominant_age`` and the small branch of
    ``step_exact`` read the tuples (``cols``) directly and build no array;
    ``cols`` is None for array-built states.
    """

    __slots__ = ("t", "mode", "log_X", "log_fitsum", "cols", "_log_fit", "_count", "_birth")

    def __init__(self, t: int, log_fit, count, birth, mode: str,
                 log_X: float = -np.inf, log_fitsum: float = -np.inf):
        self.t = t
        self.mode = mode
        self.log_X = log_X
        self.log_fitsum = log_fitsum
        if type(log_fit) is tuple:
            self.cols = (log_fit, count, birth)
            self._log_fit = self._count = self._birth = None
        else:
            self.cols = None
            self._log_fit, self._count, self._birth = log_fit, count, birth

    @property
    def log_fit(self) -> np.ndarray:
        if self._log_fit is None:
            self._log_fit = np.array(self.cols[0], dtype=float)
        return self._log_fit

    @property
    def count(self) -> np.ndarray:
        if self._count is None:
            self._count = np.array(self.cols[1], dtype=np.int64)
        return self._count

    @property
    def birth(self) -> np.ndarray:
        if self._birth is None:
            self._birth = np.array(self.cols[2], dtype=np.int64)
        return self._birth

    @property
    def n_classes(self) -> int:
        return len(self.cols[0]) if self.cols is not None else int(self._log_fit.size)

    @property
    def extinct(self) -> bool:
        return self.mode == MODE_EXACT and self.n_classes == 0

    def dominant_age(self) -> int:
        """Age of the largest class (the first of tied ones), -1 when the population is empty."""
        if self.cols is not None:
            count = self.cols[1]
            return self.t - self.cols[2][count.index(max(count))] if count else -1
        if self._count.size == 0:
            return -1
        return int(self.t - self._birth[self._count.argmax()])


@dataclass
class RunRecord:
    """Per-generation time series of one (possibly restarted) run."""

    t: np.ndarray
    log_X: np.ndarray
    log_W: np.ndarray
    n_classes: np.ndarray
    mode: np.ndarray  # 0 exact, 1 logdet
    dominant_age: np.ndarray
    outcome: str  # "survived" | "extinct"
    restarts: int


def _logsumexp(values: np.ndarray, out: np.ndarray | None = None) -> float:
    """log of the sum of exp(values), shifted by the maximum; -inf when empty.

    The shifted terms are written to ``out`` when given (a float64 array of
    ``values``' size that the caller owns, ``values`` itself included) and to
    a new array otherwise, and exponentiated there in place; ``values`` is
    not written unless it is ``out``.  On large states each extra array of
    that size is a block glibc returns to the OS when freed and page-faults
    in again at the next call; the earlier form's four temporaries made
    ``_logsumexp`` the source of most of an ``mmm_wide`` pass's 25,834 minor
    faults (14,297 of them).

    From ``_LARGE_STATE_CLASSES`` values on, shifted terms at or below
    ``_EXP_UNDERFLOW`` are set to 0.0 instead of computed.  ``np.exp`` gives
    exactly 0.0 there, so the pairwise sum sees the same array, but it takes
    16-21 ns for such a term (in [-5000, -746]) against about 1 ns for one in
    the normal range.  ``np.exp`` skips those lanes and ``np.maximum`` with
    0.0 then zeroes them; a NaN term is skipped too, stays NaN and reaches
    the sum, as it does on the plain path.
    """
    if values.size == 0:
        return -np.inf
    # the ufunc reductions are what .max() and .sum() call, minus a wrapper
    m = float(np.maximum.reduce(values))
    if m == -np.inf:
        return -np.inf
    x = np.subtract(values, m, out=out)
    if x.size < _LARGE_STATE_CLASSES:
        np.exp(x, out=x)
    else:
        np.exp(x, out=x, where=x > _EXP_UNDERFLOW)
        np.maximum(x, 0.0, out=x)
    return m + math.log(float(np.add.reduce(x)))


def _poisson(rng: np.random.Generator, lam) -> np.ndarray:
    """Poisson draws for an array of means, in the order given.

    When no mean passes ``_NORMAL_APPROX_MEAN`` this is one ``rng.poisson``
    call and returns int64.  Otherwise the means above it draw first, from a
    rounded normal with continuity correction, the rest draw Poisson after
    them, and the result is float.  A NaN mean takes the second path and
    fails in ``rng.poisson``.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size == 0 or lam.max() <= _NORMAL_APPROX_MEAN:
        return rng.poisson(lam)
    out = np.empty(lam.shape)
    big = lam > _NORMAL_APPROX_MEAN
    if big.any():
        out[big] = np.floor(rng.normal(lam[big], np.sqrt(lam[big])) + 0.5)
    small = ~big
    if small.any():
        out[small] = rng.poisson(lam[small])
    return np.maximum(out, 0.0)


def _rebuild(t, log_fit, count, birth, mode) -> PopulationState:
    """Sort classes by log-fitness descending, merge duplicate keys, refresh totals.

    Merge contract: one stable sort of the negated keys orders the classes
    by descending log-fitness and keeps equal keys in input order; each run
    of equal keys then folds left to right into one class (counts add in
    exact mode, log-counts combine by ``logaddexp`` in logdet mode, and the
    earliest birth is kept).  Float ``logaddexp`` is not associative, so the
    input-order fold is what makes the merged log-counts, and every total
    derived from them, bit-for-bit reproducible.  Strictly descending keys
    skip the sort, and unique sorted keys skip the folds; neither skip
    changes a bit.  Keys must not be NaN.

    Large states (``_LARGE_STATE_CLASSES`` classes or more, with a strictly
    descending head at least that long, as the survivors ``step_exact`` and
    ``step_logdet`` put first) skip the full sort too: ``_merge_into_head``
    sorts only the tail and places it in the head, with the same bits.
    """
    log_fit = np.asarray(log_fit, dtype=float)
    birth = np.asarray(birth, dtype=np.int64)
    if mode == MODE_EXACT:
        count = np.asarray(count).astype(np.int64, copy=False)
        fold = np.add
    else:
        count = np.asarray(count, dtype=float)
        fold = np.logaddexp
    if log_fit.size > 1:
        descending = log_fit[1:] < log_fit[:-1]
        if not descending.all():
            merged = None
            if log_fit.size >= _LARGE_STATE_CLASSES:
                head = int(descending.argmin()) + 1
                if head >= _LARGE_STATE_CLASSES:
                    merged = _merge_into_head(head, log_fit, count, birth, fold)
            if merged is not None:
                log_fit, count, birth = merged
            else:
                order = np.argsort(-log_fit, kind="stable")
                log_fit, count, birth = log_fit[order], count[order], birth[order]
                fresh = log_fit[1:] != log_fit[:-1]
                if not fresh.all():
                    starts = np.flatnonzero(np.concatenate(([True], fresh)))
                    log_fit = log_fit[starts]
                    count = fold.reduceat(count, starts)
                    birth = np.minimum.reduceat(birth, starts)
    # one scratch array holds the shifted terms of both totals
    terms = np.empty(log_fit.size)
    if mode == MODE_EXACT:
        total = count.sum()
        log_X = math.log(float(total)) if total > 0 else -np.inf
        with np.errstate(divide="ignore"):
            log_counts = np.log(count, out=terms)  # int64 in, float64 out: no astype copy
    else:
        log_X = _logsumexp(count, out=terms)
        log_counts = count
    log_fitsum = _logsumexp(np.add(log_counts, log_fit, out=terms), out=terms)
    return PopulationState(
        t=t, log_fit=log_fit, count=count, birth=birth, mode=mode,
        log_X=log_X, log_fitsum=log_fitsum,
    )


def _merge_into_head(head, log_fit, count, birth, fold):
    """``_rebuild``'s merge of a strictly descending head and a tail, or None.

    ``head`` is the length of the strictly descending prefix.  Only the tail
    is sorted (stably).  When its keys are unique, each tail key is placed
    by one ``searchsorted`` on the negated head: a key equal to a head key
    folds as fold(head, tail), head entry first as in input order, which is
    the sort path's ``reduceat`` over that pair; the other keys are inserted.
    A sorted tail that repeats a key returns None (the full sort applies):
    its run would fold as fold(fold(head, t1), t2), and folding the tail
    first gives other bits.

    Each output column is allocated once: the inserted keys are scattered to
    their places and the head is copied in the slices between them.  With
    two or more keys ``np.insert`` copies through a boolean mask instead,
    which costs more for a few keys and less for many, so more than
    ``_SLICE_INSERT_KEYS`` (32) keys take it.  Per column (min of 7, shared
    2-vCPU VM), ``np.insert`` against slices at k keys: 131,072 entries,
    k = 1 69/68 us, 3 202/69, 20 190/78, 64 179/117, 150 122/120,
    500 129/272, 5000 251/2392; 16,384 entries, k = 3 19/8, 20 19/16,
    40 20/48; 4096 entries, k = 3 18/9, 20 19/22, 40 20/38.  An ``mmm_wide``
    logdet merge inserts 2-3 keys, 19-20 at the first.
    """
    order = head + np.argsort(-log_fit[head:], kind="stable")
    keys = log_fit[order]
    if not (keys[1:] < keys[:-1]).all():
        return None
    head_fit = log_fit[:head]
    pos = np.searchsorted(-head_fit, -keys)
    hit = head_fit[np.minimum(pos, head - 1)] == keys
    at, src = pos[~hit], order[~hit]
    cols = (log_fit, count, birth)
    if at.size > _SLICE_INSERT_KEYS:
        merged = [np.insert(c[:head], at, c[src]) for c in cols]
    else:
        # np.insert's placement: the j-th inserted key lands at at[j] + j,
        # and the head is copied in the at.size + 1 slices between them
        bounds = [0, *at.tolist(), head]
        placed = at + np.arange(at.size)
        merged = []
        for c in cols:
            out = np.empty(head + at.size, dtype=c.dtype)
            out[placed] = c[src]
            for j in range(at.size + 1):
                out[bounds[j] + j:bounds[j + 1] + j] = c[bounds[j]:bounds[j + 1]]
            merged.append(out)
    # a head entry moves right by the number of keys inserted before it
    dest, src = pos[hit] + np.searchsorted(at, pos[hit], side="right"), order[hit]
    merged[1][dest] = fold(merged[1][dest], count[src])
    merged[2][dest] = np.minimum(merged[2][dest], birth[src])
    return merged


def initial_state(cfg: SimConfig) -> PopulationState:
    """Single founder individual at the configured log-fitness.

    Built directly on tuple columns, with the totals ``_rebuild`` gives one
    class of count 1: log X = 0 and log fitness sum = log_f (``+ 0.0`` turns
    -0.0 into 0.0, as its log-sum-exp does).
    """
    log_f = float(cfg.log_f)
    return PopulationState(t=0, log_fit=(log_f,), count=(1,), birth=(0,), mode=MODE_EXACT,
                           log_X=0.0, log_fitsum=log_f + 0.0)


def to_logdet(state: PopulationState) -> PopulationState:
    """Permanently switch an exact state to deterministic log-count bookkeeping.

    Every exact count is at least 1 (the founder, each mutant and each kept
    survivor class), so every log-count is finite.
    """
    log_counts = np.log(state.count.astype(float))
    return _rebuild(state.t, state.log_fit, log_counts, state.birth, MODE_LOGDET)


def sample_fittest_mutant(log_lambda: float, tail: TailModel, rng: np.random.Generator) -> float:
    """Draw log W from the fittest-mutant law P(W <= x) = exp(-lambda*G(x)).

    ``log_lambda`` is log of the expected mutant count (beta times the
    fitness-weighted population sum).  Returns -inf with probability
    exp(-lambda), the atom where no mutant clears the support minimum.
    One uniform per draw, on floats through NumPy's ufuncs.
    """
    # u = 0 gives s = +inf, which no rate exceeds, and a NaN rate none
    u = rng.random()
    if u == 0.0:
        return -np.inf
    s = np.log(-np.log(u))
    return inverse_log_tail(tail, s - log_lambda) if s < log_lambda else -np.inf


def fittest_mutant_ks(log_w: np.ndarray, tail: TailModel, lam: float) -> float:
    """One-sample KS distance of log W draws from the law exp(-lam*G).

    Non-finite draws count toward the atom at -inf, whose mass is exp(-lam);
    the finite draws are compared with the continuous part of the CDF.
    """
    n = log_w.size
    atoms = int(np.count_nonzero(~np.isfinite(log_w)))
    d = abs(atoms / n - math.exp(-lam))
    finite = np.sort(log_w[np.isfinite(log_w)])
    cdf = np.exp(-lam * np.exp(np.asarray(log_tail(tail, finite))))
    hi = (atoms + np.arange(1, finite.size + 1)) / n
    lo = (atoms + np.arange(0, finite.size)) / n
    if finite.size:
        d = max(d, float(np.max(np.abs(hi - cdf))), float(np.max(np.abs(lo - cdf))))
    return d


def step_exact(state: PopulationState, cfg: SimConfig, rng: np.random.Generator):
    """One exact generation; returns (next_state, log_w_added).

    Per class, non-mutant survivors are Poisson((1-beta) n_i F_i); the total
    mutant count is Poisson(beta * sum n_i F_i).  FMM adds one class holding
    the largest of the mutant fitnesses, MMM adds every mutant.

    The state must be exact, non-empty and at or below the cap (expected
    events exp(log_fitsum) <= exact_event_cap); ``_attempt`` checks all three.
    """
    t_next = state.t + 1
    events = math.exp(state.log_fitsum)
    # mutants are drawn before survivors: paired runs then share the
    # most influential draws when fed per-generation substreams
    mean = cfg.beta * events
    m = int(rng.poisson(mean) if mean <= _NORMAL_APPROX_MEAN else _poisson(rng, mean)[0])
    log_w = -np.inf
    mutant_fit = ()  # a tuple for fmm's one mutant, an array for mmm's
    if m >= 1:
        if cfg.model == "fmm":
            log_w = sample_max_of_n(cfg.tail, m, rng)
            mutant_fit = (log_w,)
        else:
            mutant_fit = sample_fitness(cfg.tail, rng, size=m)
            log_w = float(mutant_fit.max())
    n_new = len(mutant_fit)
    if state.n_classes + n_new < _SMALL_STATE_CLASSES:
        cols = state.cols or (state.log_fit.tolist(), state.count.tolist(), state.birth.tolist())
        lam = [(1.0 - cfg.beta) * n * np.exp(f) for f, n in zip(cols[0], cols[1])]
        # a NaN mean fails this too and raises in the array path's draw
        if all(mean <= _NORMAL_APPROX_MEAN for mean in lam):
            if type(mutant_fit) is not tuple:
                mutant_fit = mutant_fit.tolist()
            return _step_small(state.t + 1, cols, lam, mutant_fit, rng), log_w
    lam = (1.0 - cfg.beta) * state.count * np.exp(state.log_fit)
    survivors = _poisson(rng, lam).astype(np.int64, copy=False)

    keep = survivors > 0
    log_fit = np.concatenate((state.log_fit[keep], mutant_fit))
    count = np.concatenate((survivors[keep], np.ones(n_new, dtype=np.int64)))
    birth = np.concatenate((state.birth[keep], np.full(n_new, t_next, dtype=np.int64)))
    return _rebuild(t_next, log_fit, count, birth, MODE_EXACT), log_w


def _step_small(t_next: int, cols: tuple, lam: list, mutant_fit,
                rng: np.random.Generator) -> PopulationState:
    """``step_exact``'s survivor draw and merge on Python scalars, same bits.

    ``cols`` holds the state's (log_fit, count, birth) columns as Python
    sequences and ``mutant_fit`` the new mutants' log-fitnesses as Python
    floats.  Scalar ``rng.poisson`` draws of the means ``lam`` (none above
    ``_NORMAL_APPROX_MEAN``), in class order, equal one array draw.  Survivors,
    then mutants, merge as ``_rebuild``'s merge contract says; the totals take
    its NumPy ufuncs on floats (``math.exp`` rounds differently), summed left
    to right.  The new state keeps its columns as tuples.
    """
    draws = zip(cols[0], map(rng.poisson, lam), cols[2])
    rows = [(f, n, b) for f, n, b in draws if n > 0]
    rows += [(f, 1, t_next) for f in mutant_fit]
    rows.sort(key=itemgetter(0), reverse=True)  # stable: equal keys keep input order
    merged = []
    for f, n, b in rows:
        if merged and merged[-1][0] == f:
            last = merged[-1]
            last[1] += n
            last[2] = min(last[2], b)
        else:
            merged.append([f, n, b])
    log_fit, count, birth = zip(*merged) if merged else ((), (), ())
    log_X = log_fitsum = -np.inf
    if merged:
        log_X = math.log(float(sum(count)))
        terms = [np.log(float(n)) + f for f, n in zip(log_fit, count)]
        top = max(terms)
        total = 0.0
        for v in terms:
            total += np.exp(v - top)
        log_fitsum = top + math.log(total)
    return PopulationState(t=t_next, log_fit=log_fit, count=count, birth=birth,
                           mode=MODE_EXACT, log_X=log_X, log_fitsum=log_fitsum)


class _SpectrumTable:
    """MMM spectrum bins of one run: log-masses and log-midpoints.

    Edges on the log-fitness axis are 0, then 10**(k/bpd) for integer k
    from -bpd up (one decade below log-fitness 1).  Anchored at integer
    grid exponents, bin midpoints recur exactly across generations and
    merge into existing classes.  A bin's mass and midpoint depend only on
    the tail, ``bins_per_decade`` and k, so they are computed once and the
    table doubles whenever a top passes its last edge.
    """

    def __init__(self, tail: TailModel, bins_per_decade: int):
        self.tail = tail
        self.bins_per_decade = bins_per_decade
        self.grid = self.log_mass = self.mids = np.empty(0)

    def _build(self, n_grid: int):
        bpd = self.bins_per_decade
        self.grid = 10.0 ** (np.arange(-bpd, n_grid - bpd) / bpd)
        edges = np.concatenate(([0.0], self.grid))
        log_g = np.asarray(log_tail(self.tail, edges))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.log_mass = log_g[:-1] + np.log(-np.expm1(log_g[1:] - log_g[:-1]))
        self.mids = 0.5 * (edges[:-1] + edges[1:])

    def below(self, log_w_top: float):
        """(log_mass, mids) of the bins whose upper edge lies below the top.

        A top at or below the first grid edge, or one that is not finite,
        gets no bins.
        """
        if not log_w_top < np.inf:
            return self.log_mass[:0], self.mids[:0]
        while not (self.grid.size and log_w_top <= self.grid[-1]):
            self._build(2 * (self.grid.size or self.bins_per_decade))
        n = int(np.searchsorted(self.grid, log_w_top))
        return self.log_mass[:n], self.mids[:n]


def mutant_spectrum(log_lambda: float, cfg: SimConfig, rng: np.random.Generator,
                    table: _SpectrumTable | None):
    """Mutant classes for one logdet generation; returns (log_fit, log_count, log_w).

    The exactly sampled fittest mutant enters with count 1.  FMM passes no
    ``table`` and adds it alone.  For MMM, ``table`` carries the run's bins:
    the log-fitness axis is split into geometric bins up to the sampled
    maximum, which stands for the open top bin; each bin's expected count is
    lambda * mu(bin).  Bins above ``mmm_poisson_threshold`` enter
    deterministically at the bin log-midpoint, smaller bins are
    Poisson-sampled.
    """
    log_w = sample_fittest_mutant(log_lambda, cfg.tail, rng)
    if log_w == -np.inf:
        return np.empty(0), np.empty(0), -np.inf
    # an overflowed top (+inf) gets no bins either; _attempt then reports the overflow
    log_mass, mids = table.below(log_w) if table is not None else (None, np.empty(0))
    if not mids.size:
        return np.array([log_w]), np.zeros(1), log_w
    log_lam_bin = log_lambda + log_mass
    det = log_lam_bin > math.log(cfg.mmm_poisson_threshold)
    stoch = ~det & np.isfinite(log_lam_bin)
    hit_fit = hit_count = np.empty(0)
    if stoch.any():
        draws = rng.poisson(np.exp(log_lam_bin[stoch]))
        hit = draws > 0
        hit_fit = mids[stoch][hit]
        hit_count = np.log(draws[hit].astype(float))
    fits = np.concatenate(([log_w], mids[det], hit_fit))
    counts = np.concatenate(([0.0], log_lam_bin[det], hit_count))
    return fits, counts, log_w


def step_logdet(state: PopulationState, cfg: SimConfig, rng: np.random.Generator,
                table: _SpectrumTable | None):
    """One log-deterministic generation; returns (next_state, log_w_added).

    Class log-counts advance by their expectation, log(1-beta) + log F_i;
    only the mutant input stays stochastic.  ``table`` is passed on to
    ``mutant_spectrum``.  The state must be in logdet mode; ``_attempt``
    switches it.
    """
    t_next = state.t + 1
    # (count + log1p(-beta)) + log_fit in one buffer; IEEE addition commutes
    log_counts = np.add(state.count, math.log1p(-cfg.beta))
    log_counts += state.log_fit
    keep = log_counts >= _LOG_COUNT_FLOOR
    if keep.all():
        keep = slice(None)  # survivors as they are, no copies

    log_lambda = math.log(cfg.beta) + state.log_fitsum
    new_fit, new_counts, log_w = mutant_spectrum(log_lambda, cfg, rng, table)
    log_fit = np.concatenate((state.log_fit[keep], new_fit))
    log_counts = np.concatenate((log_counts[keep], new_counts))
    birth = np.concatenate((state.birth[keep], np.full(new_fit.size, t_next, dtype=np.int64)))
    return _rebuild(t_next, log_fit, log_counts, birth, MODE_LOGDET), log_w


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx, after
# O'Neill's seed_seq_fe) and PCG64's 128-bit multiplier
# PCG_DEFAULT_MULTIPLIER_128 (numpy/random/src/pcg64/pcg64.h).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> tuple:
    """The n + 1 values init * mult**k (mod 2**32) a hash walks through."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# Hashmix k xors with _HASH_A[k] and multiplies by _HASH_A[k + 1].  The first
# 16 constants are the ones NumPy's pool mixing uses (4 entropy words, then 12
# cross-mixes); each 32-bit word of the spawn key then takes four more.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 24)
_SPAWN_HASH = _HASH_A[16:]
# generate_state's output word i xors with _HASH_B[i], multiplies by _HASH_B[i + 1]
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _generation_rng(pool: list, t: int, rng: np.random.Generator) -> np.random.Generator:
    """``rng`` reset to the substream of generation t of an attempt; returns it.

    The substream is the ``PCG64`` stream seeded by a ``np.random.SeedSequence``
    with entropy ``attempt_seed`` and ``spawn_key=(t,)``, where ``pool`` is
    ``np.random.SeedSequence(attempt_seed).pool.tolist()`` (NumPy's hash of the
    seed, as Python ints) and 1 <= t < 2**64.  The rest is hand-written and
    constructs neither: the words of t are mixed into a copy of the pool,
    ``generate_state(4, uint64)`` gives the seed and stream words, and PCG64's
    ``srandom`` step, state = ((inc + initstate) * M + inc) mod 2**128 with
    inc = 2 * initseq + 1, gives the state.  Setting ``bit_generator.state``
    also drops any buffered 32-bit half.  ``tests/test_substream_properties.py``
    checks state and draws against ``SeedSequence``.

    Common-random-numbers discipline: paired runs with the same seed draw
    from identical substreams each generation, so their fittest-mutant
    uniforms coincide even after the streams would otherwise desynchronize.
    """
    a, b, c, d = pool
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = _SPAWN_HASH
    L, R, M = _MIX_MULT_L, _MIX_MULT_R, _MASK32
    # mix_entropy on the spawn key: each word of t is hashed into each pool word
    w = t & M
    h = (w ^ x0) * x1 & M; a = (L * a - R * (h ^ h >> 16)) & M; a ^= a >> 16
    h = (w ^ x1) * x2 & M; b = (L * b - R * (h ^ h >> 16)) & M; b ^= b >> 16
    h = (w ^ x2) * x3 & M; c = (L * c - R * (h ^ h >> 16)) & M; c ^= c >> 16
    h = (w ^ x3) * x4 & M; d = (L * d - R * (h ^ h >> 16)) & M; d ^= d >> 16
    w = t >> 32
    if w:
        h = (w ^ x4) * x5 & M; a = (L * a - R * (h ^ h >> 16)) & M; a ^= a >> 16
        h = (w ^ x5) * x6 & M; b = (L * b - R * (h ^ h >> 16)) & M; b ^= b >> 16
        h = (w ^ x6) * x7 & M; c = (L * c - R * (h ^ h >> 16)) & M; c ^= c >> 16
        h = (w ^ x7) * x8 & M; d = (L * d - R * (h ^ h >> 16)) & M; d ^= d >> 16
    # generate_state: eight 32-bit words from the pool cycled twice, paired
    # little-endian into four uint64 (initstate high, low; initseq high, low)
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = _HASH_B
    s0 = (a ^ y0) * y1 & M; s1 = (b ^ y1) * y2 & M
    s2 = (c ^ y2) * y3 & M; s3 = (d ^ y3) * y4 & M
    s4 = (a ^ y4) * y5 & M; s5 = (b ^ y5) * y6 & M
    s6 = (c ^ y6) * y7 & M; s7 = (d ^ y7) * y8 & M
    initstate = ((s1 ^ s1 >> 16) << 96 | (s0 ^ s0 >> 16) << 64
                 | (s3 ^ s3 >> 16) << 32 | s2 ^ s2 >> 16)
    inc = ((s5 ^ s5 >> 16) << 97 | (s4 ^ s4 >> 16) << 65
           | (s7 ^ s7 >> 16) << 33 | (s6 ^ s6 >> 16) << 1 | 1) & _MASK128
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _attempt(cfg: SimConfig, base_seed: int, rng: np.random.Generator):
    """One survival attempt; returns (rows, extinct_t).

    Each generation resets the run's ``rng`` to its substream of ``base_seed``.

    The one place that decides the engine: it switches to logdet once the
    expected event count passes the cap, picks the step by mode, and stops
    at extinction, so the steps never see a state they cannot take.

    Raises HorizonOverflow when log X or the log fitness sum turns NaN or
    +inf (-inf is extinction); ``run`` silences numpy's overflow warnings.
    """
    log_cap = math.log(cfg.exact_event_cap)
    # mix_entropy hashes a 0 for each pool word past the entropy, so this pool
    # is the zero-padded one spawn_key=(t,) builds on; tolist() keeps the
    # words Python ints for _generation_rng's arithmetic
    pool = np.random.SeedSequence(base_seed).pool.tolist()
    # fmm adds only the fittest mutant, so it has no spectrum to bin
    table = _SpectrumTable(cfg.tail, cfg.mmm_bins_per_decade) if cfg.model == "mmm" else None
    state = initial_state(cfg)
    rows = [(0, state.log_X, -np.inf, state.n_classes, 0, state.dominant_age())]
    for _ in range(cfg.t_max):
        _generation_rng(pool, state.t + 1, rng)
        if state.mode == MODE_EXACT and state.log_fitsum > log_cap:
            state = to_logdet(state)
        if state.mode == MODE_EXACT:
            state, log_w = step_exact(state, cfg, rng)
        else:
            state, log_w = step_logdet(state, cfg, rng, table)
        if not (state.log_X < math.inf and state.log_fitsum < math.inf):
            raise HorizonOverflow(f"log-fitness overflows float64 at generation {state.t}; "
                                  f"use t_max < {state.t}, or `branchlab recurse` "
                                  "for longer horizons")
        rows.append((
            state.t, state.log_X, log_w, state.n_classes,
            0 if state.mode == MODE_EXACT else 1, state.dominant_age(),
        ))
        if state.extinct:
            return rows, state.t
    return rows, None


def run(cfg: SimConfig) -> RunRecord:
    """Simulate one run, restarting on extinction when configured.

    Restarts reseed deterministically from seed + restart index, realizing
    survival conditioning.  Raises TooManyRestarts after 10^4 extinct
    attempts, which signals negligible survival probability.
    """
    # one generator for every attempt; each generation sets its whole state
    rng = np.random.Generator(np.random.PCG64(0))
    with np.errstate(over="ignore", invalid="ignore"):
        for attempt in range(MAX_RESTARTS + 1):
            rows, extinct_t = _attempt(cfg, (cfg.seed + attempt) % (1 << 64), rng)
            if extinct_t is None or not cfg.restart_on_extinction:
                break
        else:
            raise TooManyRestarts(
                f"no surviving run in {MAX_RESTARTS} attempts (seed {cfg.seed}); "
                "survival probability is negligible for these parameters"
            )
    cols = list(zip(*rows))
    return RunRecord(
        t=np.array(cols[0], dtype=np.int64),
        log_X=np.array(cols[1]),
        log_W=np.array(cols[2]),
        n_classes=np.array(cols[3], dtype=np.int64),
        mode=np.array(cols[4], dtype=np.int8),
        dominant_age=np.array(cols[5], dtype=np.int64),
        outcome="survived" if extinct_t is None else "extinct",
        restarts=attempt,
    )


def mc_verify_galton(theta: float, x: float, n: int, replicas: int, rng: np.random.Generator):
    """Monte Carlo check of the supercritical Galton-Watson lower bound.

    Simulates Poisson(theta) offspring from one founder and returns
    (empirical P(X_t >= (x*theta)^t for all t <= n), 1 - n*(1-x)^-2/(theta-1)).
    """
    if not theta > 1:
        raise DomainError("theta must exceed 1")
    if not 0.0 < x < 1.0:
        raise DomainError("x must be in (0, 1)")
    pop = np.ones(replicas)
    ok = np.ones(replicas, dtype=bool)
    threshold = 1.0
    for _ in range(n):
        pop = _poisson(rng, theta * pop)
        threshold *= x * theta
        ok &= pop >= threshold
    bound = 1.0 - n * (1.0 - x) ** -2 / (theta - 1.0)
    return float(ok.mean()), bound


def mc_verify_tdg(offspring_means, K0: int, K: float, B: float, replicas: int,
                  rng: np.random.Generator):
    """Monte Carlo check of the generation-dependent Galton-Watson upper bound.

    Offspring in generation t are Poisson(offspring_means[t]); with N the
    largest mean, returns (empirical P(X_t <= K N^t B^t for all listed t),
    1 - K0/(K(B-1))).
    """
    means = [float(m) for m in offspring_means]
    if not means:
        raise DomainError("need at least one offspring mean")
    if not B > 1 or not K > 0:
        raise DomainError("need B > 1 and K > 0")
    n_cap = max(means)
    pop = np.full(replicas, float(K0))
    ok = np.ones(replicas, dtype=bool)
    for t, mean in enumerate(means, start=1):
        pop = _poisson(rng, mean * pop)
        ok &= pop <= K * n_cap**t * B**t
    bound = 1.0 - K0 / (K * (B - 1.0))
    return float(ok.mean()), bound
