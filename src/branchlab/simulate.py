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
input order) makes every output bit-for-bit reproducible.  An exact MMM
generation adds one class per mutant, most of a large state's classes, so
``step_exact`` sorts its draw in place first: the merge's stable sort then
meets two descending runs, survivors and mutants, and merges them instead
of sorting every key, with the same bits (see ``step_exact``).

Exact generations of fewer than ``_SMALL_STATE_CLASSES`` (8) classes, the
bulk of a restart-heavy run founded below criticality, run on Python lists
in ``_small_generation`` with the array path's draws and bits; the cutoff is
where ``np.add.reduce`` stops summing left to right and sums in blocks of 8.
It draws the mutants first and hands them to the array path when the
generation leaves the small branch.  The founder and every small state keep
their class columns as Python tuples, so a run of small generations builds
no array; a state builds its arrays only when they are read (see
``PopulationState``).  A small generation places each new mutant into the
sorted survivors by a scan, reads log(count) from a table that one
``np.log`` of an array builds at import (4096 entries, each with the bits of
the scalar call), and sums the totals on Python floats, where the top term
adds exactly 1.0 and a single class needs no ``exp`` or ``log``; its
docstring says why each shortcut keeps the bits.  ``step_exact`` stays the
one call per exact generation of ``_attempt``, small or not.

Survival conditioning restarts an extinct attempt, and a run founded near
criticality is mostly attempts that die within a few small generations.  So
each fmm attempt is screened first: ``_dies_small`` runs it on
``_small_generation`` with ``_attempt``'s substreams and draws in
``_attempt``'s order, and builds no state, row or tuple.  An attempt that
dies there is a restart and nothing more.  Any other one, the survivor
included, stops at the first generation that leaves the small branch and
runs through ``_attempt`` from generation 0, so every row and every error
text comes from there.  ``_screen`` screens the attempts of several runs
round by round: ``run_replicas`` (the CLI's ``simulate --jobs 1``) screens
a block of replicas before ``run`` replays each one's attempt, block by
block, and ``run`` on its own is the one-run case.  On the restart-heavy fmm
argv of the benchmark (6,685 attempts for 40 replicas) all 6,645 extinct
attempts die in the screen, and ``_attempt`` runs 40 times.

States of at least ``_LARGE_STATE_CLASSES`` (4096) classes, such as the
MMM state an exact phase hands to logdet mode, take two large-state paths
with the same bits: a logdet ``_rebuild`` places the new classes into the
sorted survivors instead of sorting all classes (``_merge_into_head``), and
``_logsumexp`` writes 0.0 for terms that ``np.exp`` underflows to 0.0
instead of computing them.  Both cost more than they save on small states.
A synthetic sweep (one logdet ``_rebuild`` call: n strictly descending
survivors with log-counts in [-3000, 0], then 30 new classes, 28 of them on
survivor keys; min of 7 timings, shared 2-vCPU VM) read, plain against
large-state path: n = 256, 47 against 114 us; 1024, 139 against 167 us;
2048, 218 against 205 us; 4096, 385 against 297 us; 16,384, 1764 against
1045 us.  The paths cross near 2048; 4096 leaves a margin, and the
roughly 930-class states of a long MMM run from log-fitness 50 stay below it.

On such states allocation costs as much as arithmetic: an array of n
float64s is about 1 MB at 131,000 classes, which glibc hands back to the OS
when freed and the next generation page-faults in again (README,
Performance).  So ``step_logdet`` builds the log-counts in one buffer,
``_rebuild`` computes both totals in one scratch array with ``np.exp`` in
place, and ``_merge_into_head`` allocates each output column once.  How many
of the remaining arrays glibc hands back depends on the heap's history,
which differs from one process to the next: the same ``mmm_wide`` pass took
5,200 minor page faults in some processes and 11,800 in others, and its time
moved with them.  So the arrays of logdet generations of at least
``_BUFFERED_STATE_CLASSES`` (32,768) classes come from one ``_Buffers`` per
run, which takes back each step's scratch arrays and merge inputs and, from
``_attempt``, each old state's columns, and hands them out again the next
generation.  The package leaves the allocator's settings (``mallopt``,
malloc environment variables) to the host process.

Generation t of an attempt draws from the ``PCG64`` stream seeded by a
``np.random.SeedSequence`` with entropy ``attempt_seed`` and
``spawn_key=(t,)``, without constructing either.  ``_seed_pools`` computes
NumPy's hash of a block of attempt seeds into their entropy pools, and
``_substream_states`` mixes t into the pools and computes their streams'
states for a chunk of generations, each in one pass of NumPy integer
arithmetic over the block.  A round of ``_screen`` takes each pending run's
next 1, 2, 4, ... up to 64 attempts and hashes their pools and first 16
generations in slices of up to 256 attempts.  Attempts that outlive their
states wait; at the round's end, or once the waiting runs hold over 1024
attempts, one call hashes the next chunks of all that start at one
generation.  ``_attempt`` takes every chunk the screen hashed for its
attempt.  Each generation ``_generation_rng``
copies its 32 bytes into the C state of the one generator the run reuses,
where a once-per-process probe finds the layout it expects, and goes
through the public ``bit_generator.state`` setter otherwise;
``tests/test_substream_properties.py`` pins pools, states and draws to
``SeedSequence``'s, on both paths.
"""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchlabError, DomainError, HorizonOverflow, TooManyRestarts
from .tails import TailModel, inverse_log_tail, log_tail, sample_fitness, sample_max_of_n

MODE_EXACT = "exact"
MODE_LOGDET = "logdet"

MAX_RESTARTS = 10_000

# Poisson means above this use a normal approximation with continuity
# correction; the error is invisible in log domain.
_NORMAL_APPROX_MEAN = 1e9

# Exact generations with fewer classes than this, survivors and mutants
# together, take ``_small_generation`` (see the module docstring for why 8).
_SMALL_STATE_CLASSES = 8
# ``_small_generation`` reads log(n) for counts n below this from ``_LOG_COUNTS``.
# Of the class counts its states hold on a restart-heavy fmm run (pareto
# alpha 3, beta 0.9, log_f log 1.2, t_max 40), 98% are below 10 and 99.8%
# below 1000.  The table's 4096 Python floats take about 130 KB.
_LOG_COUNTS_SIZE = 4096
with np.errstate(divide="ignore"):
    _LOG_COUNTS = tuple(np.log(np.arange(_LOG_COUNTS_SIZE, dtype=float)).tolist())

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
# Stored output rows: t_max + 1 for one run, replicas x (t_max + 1) for the
# CLI's ``simulate``.  A stored row costs about 41 bytes, and a running
# replica holds about 350 bytes per generation until its record is built, so
# at this bound one replica peaks near 1.8 GB and the stored rows take about
# 205 MB (fmm, pareto tails; peak RSS between two horizons).
MAX_ROWS = 5_000_000

# logdet classes decayed below this count are dropped; a decaying class
# (fitness below 1/(1-beta)) can never grow back.
_COUNT_FLOOR = 1e-12
_LOG_COUNT_FLOOR = math.log(_COUNT_FLOOR)

# States of at least this many classes take the large-state paths of
# ``_rebuild`` and ``_logsumexp`` (see the module docstring for why 4096).
_LARGE_STATE_CLASSES = 4096
# Logdet states of at least this many classes take their full-size arrays
# from the run's ``_Buffers``.  One ``step_logdet`` (min of 9, in a loop that
# keeps glibc's heap warm, shared 2-vCPU VM), fresh against buffered arrays:
# 930 classes 230/250 us; 16,384 463/487; 24,576 877/645; 32,768 1061/803;
# 65,536 1697/1391; 131,072 4241/2743.  The bookkeeping costs more than it
# saves until the arrays pass glibc's initial 128 KB mmap threshold (16,384
# float64s); 32,768 leaves a margin.
_BUFFERED_STATE_CLASSES = 32768
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
        if self.t_max + 1 > MAX_ROWS:
            raise DomainError(f"t_max + 1 must be <= {MAX_ROWS:g} stored rows, "
                              f"got t_max {self.t_max}")
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
    tuples of floats and ints (``initial_state``, small steps).  Reading
    ``log_fit``, ``count`` or ``birth`` always gives arrays, float64, int64
    (or float64 log-counts in logdet mode) and int64, built from tuples on
    the first read and kept, with the bytes ``_rebuild`` gives for the same
    classes.  The small branch of ``step_exact`` reads the tuples (``cols``)
    directly and builds no array; ``cols`` is None for array-built states.
    ``n_classes`` and ``dominant_age``, the age of the largest class (the
    first of tied ones, as ``argmax`` picks) or -1 when the population is
    empty, are set once, from either form, so ``_attempt`` reads a
    generation's row from attributes alone.
    """

    __slots__ = ("t", "mode", "log_X", "log_fitsum", "n_classes", "dominant_age", "cols",
                 "_log_fit", "_count", "_birth")

    def __init__(self, t: int, log_fit, count, birth, mode: str,
                 log_X: float = -np.inf, log_fitsum: float = -np.inf):
        self.t = t
        self.mode = mode
        self.log_X = log_X
        self.log_fitsum = log_fitsum
        self.n_classes = len(log_fit)
        if type(log_fit) is tuple:
            self.cols = (log_fit, count, birth)
            self._log_fit = self._count = self._birth = None
            self.dominant_age = t - birth[count.index(max(count))] if count else -1
        else:
            self.cols = None
            self._log_fit, self._count, self._birth = log_fit, count, birth
            self.dominant_age = int(t - birth[count.argmax()]) if count.size else -1

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
    def extinct(self) -> bool:
        return self.mode == MODE_EXACT and self.n_classes == 0


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
    not written unless it is ``out``, so on large states a call need not
    page-fault in a fresh array (see the module docstring).

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


class _Buffers:
    """Full-size arrays that a run's large logdet generations reuse.

    ``take(n, dtype)`` returns a length-n view of the free array of that
    dtype given back last, when it is long enough, or of a new one with 1/64
    spare, so a state that grows by a few classes a generation keeps its
    arrays; a free array found too short is dropped, so a growing state
    leaves none behind.  ``give`` takes back the views ``take`` handed out
    once their last reader is done, and ignores anything else.  Views keep
    their bases' alignment, so every ufunc computes the bits a fresh array
    gets.
    """

    __slots__ = ("_free", "_owned")

    def __init__(self):
        self._free = []
        self._owned = {}  # id -> base, which also keeps the ids unique

    def take(self, n: int, dtype=np.float64) -> np.ndarray:
        # the most recently given first: its memory is the likeliest in cache
        for i in range(len(self._free) - 1, -1, -1):
            if self._free[i].dtype == dtype:
                base = self._free.pop(i)
                if base.size >= n:
                    return base[:n]
                # a generation's arrays are all about n long, so one too
                # short now stays too short while the state grows: drop it
                del self._owned[id(base)]
        base = np.empty(n + (n >> 6), dtype=dtype)
        self._owned[id(base)] = base
        return base[:n]

    def give(self, *arrays) -> None:
        for a in arrays:
            base = a.base
            if (base is not None and self._owned.get(id(base)) is base
                    and not any(b is base for b in self._free)):
                self._free.append(base)


def _rebuild(t, log_fit, count, birth, mode, buffers: _Buffers | None = None) -> PopulationState:
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

    Callers pass the columns as ``step_exact``, ``step_logdet`` and
    ``to_logdet`` build them, and nothing converts them: float64 keys, int64
    counts (exact) or float64 log-counts (logdet), and int64 births.  An
    exact MMM step passes the kept survivors and then its mutants, each run
    descending, which the stable sort (a merge sort that finds runs) merges
    in about linear time.

    Large logdet states (``_LARGE_STATE_CLASSES`` classes or more, with a
    strictly descending head at least that long, as the survivors
    ``step_logdet`` puts first) skip the full sort too: ``_merge_into_head``
    sorts only the tail and places it in the head, with the same bits.

    With ``buffers`` (``step_logdet``'s, on large states) the sort check,
    the merged columns and the totals' scratch array are its arrays, and
    the scratch ones go back to it; the input columns stay the caller's.
    """
    if log_fit.size > 1:
        descending = np.less(log_fit[1:], log_fit[:-1],
                             out=None if buffers is None else buffers.take(log_fit.size - 1, bool))
        if not descending.all():
            merged = None
            if mode == MODE_LOGDET and log_fit.size >= _LARGE_STATE_CLASSES:
                head = int(descending.argmin()) + 1
                if head >= _LARGE_STATE_CLASSES:
                    merged = _merge_into_head(head, log_fit, count, birth, buffers)
            if merged is not None:
                log_fit, count, birth = merged
            else:
                order = np.argsort(-log_fit, kind="stable")
                log_fit, count, birth = log_fit[order], count[order], birth[order]
                fresh = log_fit[1:] != log_fit[:-1]
                if not fresh.all():
                    starts = np.flatnonzero(np.concatenate(([True], fresh)))
                    log_fit = log_fit[starts]
                    fold = np.add if mode == MODE_EXACT else np.logaddexp
                    count = fold.reduceat(count, starts)
                    birth = np.minimum.reduceat(birth, starts)
        if buffers is not None:
            buffers.give(descending)
    # one scratch array holds the shifted terms of both totals
    terms = np.empty(log_fit.size) if buffers is None else buffers.take(log_fit.size)
    if mode == MODE_EXACT:
        total = count.sum()
        log_X = math.log(float(total)) if total > 0 else -np.inf
        with np.errstate(divide="ignore"):
            log_counts = np.log(count, out=terms)  # int64 in, float64 out: no astype copy
    else:
        log_X = _logsumexp(count, out=terms)
        log_counts = count
    log_fitsum = _logsumexp(np.add(log_counts, log_fit, out=terms), out=terms)
    if buffers is not None:
        buffers.give(terms)
    return PopulationState(t, log_fit, count, birth, mode, log_X, log_fitsum)


def _merge_into_head(head, log_fit, count, birth, buffers: _Buffers | None = None):
    """``_rebuild``'s logdet merge of a strictly descending head and a tail, or None.

    ``head`` is the length of the strictly descending prefix; ``count``
    holds log-counts.  Only the tail is sorted (stably).  When its keys are
    unique, each is placed by one ``searchsorted`` on the negated head: a
    key equal to a head key folds as logaddexp(head, tail), head entry
    first, as the sort path's ``reduceat`` folds that pair; the other keys
    are inserted.  A sorted tail that repeats a key returns None (the full
    sort applies): its run would fold as logaddexp(logaddexp(head, t1), t2),
    and folding the tail first gives other bits.

    A logdet tail is a spectrum's worth of classes (19-39 on ``mmm_wide``'s
    130,000).  An exact tail is the generation's new mutants, one class
    each, which outnumber the head, so exact mode sorts: on the two exact
    merges that used to come here (tails 24 and 67 times the head) a sorting
    ``_rebuild`` took 55-65% of the time of one that called this.  Since
    ``step_exact`` sorts its mutants, that sort merges two sorted runs: on
    the largest exact merges of golden ``mmm_exact_handover`` and the
    ``mmm_wide`` seed-1 argv (419,280 and 129,929 mutants) ``_rebuild``
    takes 7.2 and 2.7 ms, and this function 41 and 11 ms (min of 15).

    Each output column is allocated once: the inserted keys are scattered to
    their places and the head is copied in the slices between them (into
    ``buffers``' arrays when given, as is the negated head).  With
    two or more keys ``np.insert`` copies through a boolean mask instead,
    which costs more for a few keys and less for many, so more than
    ``_SLICE_INSERT_KEYS`` (32) keys take it.  Per column (min of 7, shared
    2-vCPU VM), ``np.insert`` against slices at k keys: 131,072 entries,
    k = 1 69/68 us, 3 202/69, 20 190/78, 64 179/117, 150 122/120,
    500 129/272, 5000 251/2392; 16,384 entries, k = 3 19/8, 20 19/16,
    40 20/48; 4096 entries, k = 3 18/9, 20 19/22, 40 20/38.  An ``mmm_wide``
    logdet merge inserts 2-3 keys, 19-20 at the first.  With
    ``--mmm-bins-per-decade 1000`` the first inserts 2,135 keys (1.2-1.3 ms
    by ``np.insert``, 3.6-7.1 ms in slices) and the 15 later ones 129-196
    (18.9-20.3 ms together against 16.4-19.5 ms in slices).
    """
    order = head + np.argsort(-log_fit[head:], kind="stable")
    keys = log_fit[order]
    if not (keys[1:] < keys[:-1]).all():
        return None
    head_fit = log_fit[:head]
    ascending = np.negative(head_fit, out=None if buffers is None else buffers.take(head))
    pos = np.searchsorted(ascending, -keys)
    if buffers is not None:
        buffers.give(ascending)
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
            if buffers is None:
                out = np.empty(head + at.size, dtype=c.dtype)
            else:
                out = buffers.take(head + at.size, c.dtype)
            out[placed] = c[src]
            for j in range(at.size + 1):
                out[bounds[j] + j:bounds[j + 1] + j] = c[bounds[j]:bounds[j + 1]]
            merged.append(out)
    # a head entry moves right by the number of keys inserted before it
    dest, src = pos[hit] + np.searchsorted(at, pos[hit], side="right"), order[hit]
    merged[1][dest] = np.logaddexp(merged[1][dest], count[src])
    merged[2][dest] = np.minimum(merged[2][dest], birth[src])
    return merged


def _founder(cfg: SimConfig) -> tuple:
    """The founder's tuple class columns and log fitness sum: (cols, log_fitsum).

    The totals are those ``_rebuild`` gives one class of count 1: log X = 0
    and log fitness sum = log_f (``+ 0.0`` turns -0.0 into 0.0, as its
    log-sum-exp does).
    """
    log_f = float(cfg.log_f)
    return ((log_f,), (1,), (0,)), log_f + 0.0


def initial_state(cfg: SimConfig) -> PopulationState:
    """Single founder individual at the configured log-fitness, on ``_founder``'s columns."""
    cols, log_fitsum = _founder(cfg)
    return PopulationState(0, *cols, MODE_EXACT, 0.0, log_fitsum)


def to_logdet(state: PopulationState) -> PopulationState:
    """Permanently switch an exact state to deterministic log-count bookkeeping.

    Every exact count is at least 1 (the founder, each mutant and each kept
    survivor class), so every log-count is finite.
    """
    log_counts = np.log(state.count)  # int64 in, float64 out: no astype copy
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

    MMM sorts its draw in place, a fresh array of this step's own, and reads
    it descending, so log W is its first key and ``_rebuild`` gets two
    descending runs, the kept survivors and then the mutants, which its
    stable sort merges.  On the largest exact merge of the ``mmm_wide``
    seed-1 argv (1,014 survivors, 129,929 mutants) that sort took 0.85 ms
    against 13.3 ms for the unsorted draw, and the sort here 0.64 ms (min of
    15, shared 2-vCPU VM).  The bits are those of the unsorted draw's merge:
    the stable sort still puts survivors first among equal keys, mutants of
    equal keys have equal payloads (count 1, birth t + 1), and an MMM key is
    never -0.0 (-log(u) / alpha is positive or underflows to +0.0, and
    paretolog's iterates stay at or above +0.0), so equal keys have equal
    bits.  ``_small_generation`` folds each mutant by a scan and gives the
    same state in any mutant order.

    The state must be exact, non-empty and at or below the cap (expected
    events exp(log_fitsum) <= exact_event_cap); ``_attempt`` checks all three.
    """
    t_next = state.t + 1
    cols = state.cols or (state.log_fit, state.count, state.birth)
    if state.cols is None and state.n_classes < _SMALL_STATE_CLASSES:
        cols = [c.tolist() for c in cols]  # lists where the state may stay small
    # mutants are drawn before survivors: paired runs then share the
    # most influential draws when fed per-generation substreams
    small, log_fitsum, mutant_fit = _small_generation(t_next, cols, state.log_fitsum, cfg, rng)
    log_w = float(mutant_fit[0]) if len(mutant_fit) else -np.inf
    if small is not None:
        log_X = math.log(float(sum(small[1]))) if small[0] else -np.inf
        return PopulationState(t_next, *map(tuple, small), MODE_EXACT, log_X, log_fitsum), log_w
    n_new = len(mutant_fit)
    lam = (1.0 - cfg.beta) * state.count * np.exp(state.log_fit)
    survivors = _poisson(rng, lam).astype(np.int64, copy=False)

    keep = survivors > 0
    log_fit = np.concatenate((state.log_fit[keep], mutant_fit))
    count = np.concatenate((survivors[keep], np.ones(n_new, dtype=np.int64)))
    birth = np.concatenate((state.birth[keep], np.full(n_new, t_next, dtype=np.int64)))
    return _rebuild(t_next, log_fit, count, birth, MODE_EXACT), log_w


def _mutant_count(beta: float, log_fitsum: float, rng: np.random.Generator) -> int:
    """An exact generation's mutant count, Poisson(beta * exp(log_fitsum)).

    One scalar ``rng.poisson`` draw, or ``_poisson``'s normal approximation
    for a mean above ``_NORMAL_APPROX_MEAN``.
    """
    mean = beta * math.exp(log_fitsum)
    return int(rng.poisson(mean) if mean <= _NORMAL_APPROX_MEAN else _poisson(rng, mean)[0])


def _small_generation(t_next: int, cols, log_fitsum: float, cfg: SimConfig,
                      rng: np.random.Generator):
    """One exact generation on Python lists: (cols, log_fitsum, mutants).

    ``cols`` holds the state's (log_fit, count, birth) columns as Python
    sequences, or, for a state of ``_SMALL_STATE_CLASSES`` classes or more,
    as arrays of which only the length is read.  The mutants (fmm's fittest,
    mmm's draw sorted descending) are drawn as ``step_exact`` draws them.
    The small branch returns the next state's columns as lists and its log
    fitness sum (empty and -inf when it dies).  State and mutants of
    ``_SMALL_STATE_CLASSES`` classes or more, or a survivor mean above
    ``_NORMAL_APPROX_MEAN`` or NaN (which raises in the array draw), return
    (None, None, mutants), and the array path goes on from there.  Scalar
    ``rng.poisson`` draws, in class order, equal one array draw.

    The classes and totals have ``_rebuild``'s bits, by these shortcuts:

    * The kept survivors are sorted with unique keys already, so each mutant
      is placed by a scan instead of a sort.  A mutant whose key equals a
      class's folds into it, count + 1, and the class keeps its birth, which
      is never later than the mutant's t_next.  Exact counts fold by integer
      addition, which gives the same sum in any order, so placing the
      mutants in turn equals one stable sort and fold.
    * log(count) comes from ``_LOG_COUNTS``, built by one ``np.log`` of an
      array, whose entries have the bits of the scalar ``np.log(float(n))``
      that ``_rebuild`` takes of each int64 count; larger counts call
      ``np.log``.
    * The totals take NumPy's ufuncs on floats (``math.exp`` rounds
      differently) and sum on Python floats left to right, as
      ``np.add.reduce`` sums fewer than 8 doubles.  The top term adds 1.0 in
      its place in the sum, which is ``np.exp(0.0)``.  One class's log
      fitness sum is its term, which is top + log(1.0): the term is never
      -0.0, since log(n) is +0.0 or more.  At a +inf top (an overflowed
      mutant) the array path's exp(inf - inf) makes the sum NaN and these
      shortcuts give +inf; ``_attempt`` raises ``HorizonOverflow`` at that
      generation with the same text for both.
    """
    m = _mutant_count(cfg.beta, log_fitsum, rng)
    mutants = ()  # a tuple for fmm's one mutant, an array for mmm's
    if m:
        if cfg.model == "fmm":
            mutants = (sample_max_of_n(cfg.tail, m, rng),)
        else:
            mutants = sample_fitness(cfg.tail, rng, size=m)
            mutants.sort()
            mutants = mutants[::-1]
    if len(cols[0]) + len(mutants) >= _SMALL_STATE_CLASSES:
        return None, None, mutants
    survive = 1.0 - cfg.beta
    lam = []
    for f, n in zip(cols[0], cols[1]):
        mean = survive * n * np.exp(f)
        if not mean <= _NORMAL_APPROX_MEAN:
            return None, None, mutants
        lam.append(mean)
    fits, counts, births = [], [], []
    for f, mean, b in zip(cols[0], lam, cols[2]):
        n = rng.poisson(mean)
        if n:
            fits.append(f)
            counts.append(n)
            births.append(b)
    if type(mutants) is not tuple:
        mutants = mutants.tolist()
    for f in mutants:
        i, k = 0, len(fits)
        while i < k and fits[i] > f:
            i += 1
        if i < k and fits[i] == f:
            counts[i] += 1
        else:
            fits.insert(i, f)
            counts.insert(i, 1)
            births.insert(i, t_next)
    if not fits:
        return (fits, counts, births), -math.inf, mutants
    terms = []
    for f, n in zip(fits, counts):
        terms.append((_LOG_COUNTS[n] if n < _LOG_COUNTS_SIZE else float(np.log(float(n)))) + f)
    if len(terms) == 1:
        return (fits, counts, births), terms[0], mutants
    top = max(terms)
    total = 0.0
    for v in terms:
        total += 1.0 if v == top else float(np.exp(v - top))
    return (fits, counts, births), top + math.log(total), mutants


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
                table: _SpectrumTable | None, buffers: _Buffers | None = None):
    """One log-deterministic generation; returns (next_state, log_w_added).

    Class log-counts advance by their expectation, log(1-beta) + log F_i;
    only the mutant input stays stochastic.  ``table`` is passed on to
    ``mutant_spectrum``.  The state must be in logdet mode; ``_attempt``
    switches it.

    States of ``_BUFFERED_STATE_CLASSES`` classes or more take every
    full-size array from ``buffers`` when it is given (``run``'s) and give
    back those the step is done with; the caller gives back the old state's
    columns.  The bits are the same either way.
    """
    t_next = state.t + 1
    n = state.n_classes
    if n < _BUFFERED_STATE_CLASSES:
        buffers = None
    # (count + log1p(-beta)) + log_fit in one buffer; IEEE addition commutes
    log_counts = np.add(state.count, math.log1p(-cfg.beta),
                        out=None if buffers is None else buffers.take(n))
    log_counts += state.log_fit
    above = np.greater_equal(log_counts, _LOG_COUNT_FLOOR,
                             out=None if buffers is None else buffers.take(n, bool))
    # survivors as they are, no copies, when none drops
    keep = slice(None) if above.all() else above

    log_lambda = math.log(cfg.beta) + state.log_fitsum
    new_fit, new_counts, log_w = mutant_spectrum(log_lambda, cfg, rng, table)
    if buffers is None:
        log_fit = np.concatenate((state.log_fit[keep], new_fit))
        log_counts = np.concatenate((log_counts[keep], new_counts))
        birth = np.concatenate((state.birth[keep], np.full(new_fit.size, t_next, dtype=np.int64)))
        return _rebuild(t_next, log_fit, log_counts, birth, MODE_LOGDET), log_w
    # the same columns, survivors then new classes, in buffers' arrays
    kept = n if keep is not above else int(np.count_nonzero(above))
    cols = []
    for old, new in ((state.log_fit, new_fit), (log_counts, new_counts), (state.birth, t_next)):
        col = buffers.take(kept + new_fit.size, old.dtype)
        if kept < n:
            np.compress(above, old, out=col[:kept])
        else:
            col[:n] = old
        col[kept:] = new
        cols.append(col)
    buffers.give(log_counts, above)
    step = _rebuild(t_next, *cols, MODE_LOGDET, buffers)
    if step.log_fit is not cols[0]:
        buffers.give(*cols)
    return step, log_w


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


def _hash_consts(init: int, mult: int, n: int) -> tuple:
    """The n + 1 values init * mult**k (mod 2**32) a hash walks through."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# Hashmix k xors with _HASH_A[k] and multiplies by _HASH_A[k + 1].  The first
# 16 constants are the ones NumPy's pool mixing uses (4 entropy words, then 12
# cross-mixes, three per source word: [hashmix][1]); each 32-bit word of the
# spawn key then takes four more, one per pool word: [word of t][pool word][1].
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 24)
_POOL_XOR = np.array(_HASH_A[:16], dtype=np.uint32)[:, None]
_POOL_MUL = np.array(_HASH_A[1:17], dtype=np.uint32)[:, None]
_SPAWN_XOR = np.array(_HASH_A[16:24], dtype=np.uint32).reshape(2, 4, 1)
_SPAWN_MUL = np.array(_HASH_A[17:25], dtype=np.uint32).reshape(2, 4, 1)
# generate_state's output word i xors with _HASH_B[i], multiplies by
# _HASH_B[i + 1]; word i reads pool word i % 4: [i // 4][i % 4][1][1]
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)
_STATE_XOR = np.array(_HASH_B[:8], dtype=np.uint32).reshape(2, 4, 1, 1)
_STATE_MUL = np.array(_HASH_B[1:9], dtype=np.uint32).reshape(2, 4, 1, 1)
_MULT_HI, _MULT_LO = _PCG64_MULT >> 64, _PCG64_MULT & (1 << 64) - 1
_MULT_LO0, _MULT_LO1 = _MULT_LO & _MASK32, _MULT_LO >> 32

# A round of ``_screen`` hashes the first min(_FIRST_GENERATIONS, t_max)
# substream states of each pending run's next 1, 2, 4, ... up to
# _BLOCK_ATTEMPTS attempts, in slices of whole runs of up to _SLICE_ATTEMPTS
# attempts, then the next chunks of the attempts that outlive them, one call
# per (first generation, length): at the round's end, or before the next
# slice once the waiting runs keep over _WAITING_ATTEMPTS attempts' first
# states.  A ``_substream_states`` call costs about 55-80 us plus 0.07-0.1 us
# a state, a ``_seed_pools`` call about 40 us plus 0.03 us a seed.  On the
# restart-heavy fmm argv of the benchmark (pareto alpha 3, beta 0.9, log_f
# log 1.2, t_max 40, 40 replicas; 6,685 attempts, 33,907 generations), 2,472
# attempts outlive 4 generations, 1,192 outlive 8, 326 outlive 16 and 88
# outlive 24; a seed-1 pass hashes 7,500 pools in 43 slices and makes 79
# next-chunk calls (361 one attempt a call).  CPU min of 7 in-process passes,
# median of 4 alternating processes, bench seeds 1 and 4 (shared 2-vCPU VM),
# chunk/block with one call an attempt: 8/64 0.302 and 0.320 s; 16/64 0.254
# and 0.275; 24/64 0.240 and 0.270; 32/64 0.243 and 0.260, with 1.6 MB more
# peak RSS; 16/32 0.246 and 0.281; 16/128 0.255 and 0.299.  Grouped, 16
# against 24 in 10 alternating pairs (CPU min of 9 passes): seed 1
# 0.237/0.246 s (24 faster in 5 of 10), seed 4 0.241/0.247 (4 of 10), bench
# seed 2 0.243/0.241 (5 of 10); 24 makes 40 next-chunk calls on seed 1 and
# takes 0.3-0.5 MB more peak RSS, so 16 stays.  Slices of 64 to 512 attempts
# read the same CPU; 512 took 1.8 MB more peak RSS than 256.  A budget of
# 1024 keeps the 79 calls (512: 84); at 10,000 replicas peak RSS read 90.6
# MB, 348 with no budget and 82.5 with one call an attempt (the chunks handed
# to ``_attempt``, about 670 bytes a run).  ``run_replicas`` also screens and
# replays the configs in blocks of _WAITING_ATTEMPTS, so the entries it holds
# do not grow with the replicas: at 10,000 replicas (in-process cli.main,
# bench seed 1) peak RSS read 89.5 MB, against 105.8 with one screen of all.
_BLOCK_ATTEMPTS = 64
_FIRST_GENERATIONS = 16
_SLICE_ATTEMPTS = 256
_WAITING_ATTEMPTS = 1024


def _spawn_mix(pool, word, k):
    """mix_entropy of spawn-key word k (a (n,) uint32 array) into pool words (4, K, 1 or n)."""
    h = (word ^ _SPAWN_XOR[k]) * _SPAWN_MUL[k]
    h ^= h >> 16
    h *= _MIX_MULT_R
    mixed = pool * _MIX_MULT_L - h[:, None, :]
    mixed ^= mixed >> 16
    return mixed


def _seed_pools(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(int(s)).pool`` for each s of a uint64 array, shape (K, 4) uint32.

    NumPy's ``mix_entropy`` on an integer seed: the entropy words are the
    seed's low and high 32-bit words (no high word below 2**32, which
    hashes as the 0 that pads the pool anyway), each pool word starts as
    the hashmix of its entropy word, and each source word in turn is
    hashmixed into the three others.  Source and constants are the same for
    all three, so each source word takes one pass over a (3, K) array.
    """
    words = np.zeros((4, seeds.size), dtype=np.uint32)
    words[0] = seeds & _MASK32
    words[1] = seeds >> 32
    pool = (words ^ _POOL_XOR[:4]) * _POOL_MUL[:4]
    pool ^= pool >> 16
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        h = (pool[src] ^ _POOL_XOR[k:k + 3]) * _POOL_MUL[k:k + 3]
        h ^= h >> 16
        h *= _MIX_MULT_R
        mixed = pool[dst] * _MIX_MULT_L - h
        mixed ^= mixed >> 16
        pool[dst] = mixed
    return pool.T


def _substream_states(pools: np.ndarray, t0: int, n: int) -> np.ndarray:
    """PCG64 states of generations t0 ... t0 + n - 1 of K attempts, shape (K, n, 4) uint64.

    ``pools`` is (K, 4) uint32, row k ``np.random.SeedSequence(seed_k).pool``
    (NumPy's hash of attempt k's seed), and 1 <= t0 <= t0 + n - 1 < 2**64.
    Row [k, j] holds the words [state_lo, state_hi, inc_lo, inc_hi] of the
    ``PCG64`` that ``np.random.SeedSequence(seed_k, spawn_key=(t0 + j,))``
    seeds, computed without constructing either: each 32-bit word of t (the
    high one only where it is nonzero, as NumPy coerces the key) is mixed
    into the pool, ``generate_state(4, uint64)`` gives the seed and stream
    words, and PCG64's ``srandom`` step (O'Neill 2014), state = ((inc +
    initstate) * M + inc) mod 2**128 with inc = 2 * initseq + 1, gives the
    state, here in 64-bit halves.  ``mix_entropy`` hashes a 0 for each pool
    word past the entropy, so a seed's pool is the zero-padded one a spawn
    key builds on.  ``tests/test_substream_properties.py`` checks states and
    draws against ``SeedSequence``.
    """
    t = np.arange(n, dtype=np.uint64)
    t += t0
    # pool words lead, so each ufunc runs along the K x n states
    mixed = _spawn_mix(pools.T[:, :, None], (t & _MASK32).astype(np.uint32), 0)
    if (t0 + n - 1) >> 32:
        high = (t >> 32).astype(np.uint32)
        mixed = np.where(high != 0, _spawn_mix(mixed, high, 1), mixed)
    words = (mixed ^ _STATE_XOR) * _STATE_MUL
    words ^= words >> 16
    words = words.astype(np.uint64)
    # eight 32-bit words, paired little-endian: initstate high, low; initseq high, low
    (seed_hi, seed_lo), (seq_hi, seq_lo) = words[:, 0::2] | words[:, 1::2] << 32
    out = np.empty(seed_hi.shape + (4,), dtype=np.uint64)
    inc_lo, inc_hi = out[..., 2], out[..., 3]
    np.bitwise_or(seq_lo << 1, 1, out=inc_lo)
    np.bitwise_or(seq_hi << 1, seq_lo >> 63, out=inc_hi)
    # x = inc + initstate in (hi, lo) halves
    lo = inc_lo + seed_lo
    hi = seed_hi + inc_hi
    hi += lo < inc_lo
    # x * M mod 2**128: the high word of lo * _MULT_LO from 32-bit partial products
    lo0, lo1 = lo & _MASK32, lo >> 32
    p01, p10 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    carry = (lo0 * _MULT_LO0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry >>= 32
    carry += lo1 * _MULT_LO1
    carry += p01 >> 32
    carry += p10 >> 32
    hi *= _MULT_LO
    hi += lo * _MULT_HI
    hi += carry + inc_hi
    lo *= _MULT_LO
    # state = x * M + inc
    state_lo = np.add(lo, inc_lo, out=out[..., 0])
    np.add(hi, state_lo < inc_lo, out=out[..., 1])
    return out


def _state_views(bit_generator):
    """Writable views of a PCG64's C state: (32 state bytes, flags word, generator), or None.

    NumPy's ``pcg64_state`` (numpy/random/src/pcg64/pcg64.h), at
    ``ctypes.state_address``, holds a pointer to the 128-bit state and
    increment, then ``has_uint32`` and ``uinteger`` in one 64-bit word.  The
    pointer leads into the ``PCG64`` object itself; None unless both lie
    inside it, so no write can land outside the generator.  The tuple holds
    the generator too, which keeps the viewed memory alive.
    """
    start = id(bit_generator)
    end = start + type(bit_generator).__basicsize__
    address = bit_generator.ctypes.state_address
    if not start <= address <= end - 16:
        return None
    words = ctypes.c_void_p.from_address(address).value
    if words is None or not start <= words <= end - 32:
        return None
    return (memoryview((ctypes.c_ubyte * 32).from_address(words)).cast("B"),
            ctypes.c_uint64.from_address(address + 8), bit_generator)


def _pcg64_state(state: int, inc: int, has_uint32: int = 0, uinteger: int = 0) -> dict:
    """The public ``bit_generator.state`` of a PCG64."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": has_uint32, "uinteger": uinteger}


@functools.cache
def _direct_state_writes() -> bool:
    """Whether ``_generation_rng`` may write PCG64's C state in place; probed once per process.

    The C layout is a property of the NumPy build: with a native 128-bit
    integer (GCC and Clang on 64-bit targets) the state and increment are
    [state_lo, state_hi, inc_lo, inc_hi] in native words, as
    ``_substream_states`` gives them; with NumPy's emulated one each holds
    its high word first.  A probe generator gets a known state through the
    public setter, which its memory must show, and then a direct write, which
    the public getter must read back, flags cleared.  Otherwise every write
    takes the public setter.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    sink = _state_views(rng.bit_generator)
    if sink is None:
        return False
    rng.bit_generator.state = _pcg64_state(2 << 64 | 1, 4 << 64 | 3, has_uint32=1, uinteger=5)
    words, flags, _ = sink
    if bytes(words) != np.arange(1, 5, dtype=np.uint64).tobytes() or flags.value != 1 | 5 << 32:
        return False
    _generation_rng(rng, sink, np.arange(6, 10, dtype=np.uint64).tobytes())
    return rng.bit_generator.state == _pcg64_state(7 << 64 | 6, 9 << 64 | 8)


def _state_sink(rng: np.random.Generator):
    """How ``_generation_rng`` writes ``rng``: its ``_state_views``, or None for the setter."""
    return _state_views(rng.bit_generator) if _direct_state_writes() else None


def _generation_rng(rng: np.random.Generator, sink, words: bytes) -> np.random.Generator:
    """``rng`` reset to one generation's substream; returns it.

    ``words`` holds the generation's 32 bytes from ``_substream_states``, and
    ``sink`` is ``_state_sink(rng)``: the bytes are copied into the PCG64's
    state and its flags word is zeroed, which drops any buffered 32-bit half.
    With ``sink`` None the public ``bit_generator.state`` setter takes the
    same state.

    Common-random-numbers discipline: paired runs with the same seed draw
    from identical substreams each generation, so their fittest-mutant
    uniforms coincide even after the streams would otherwise desynchronize.
    """
    if sink is None:
        state_lo, state_hi, inc_lo, inc_hi = memoryview(words).cast("Q")
        rng.bit_generator.state = _pcg64_state(state_hi << 64 | state_lo, inc_hi << 64 | inc_lo)
    else:
        sink[0][:] = words
        sink[1].value = 0
    return rng


def _chunk_length(words: bytes, t: int, t_max: int) -> int:
    """Next chunk length from generation t: twice the generations ``words`` held, up to t_max."""
    return min(len(words) // 16, t_max + 1 - t)


def _attempt(cfg: SimConfig, pool: np.ndarray, rng: np.random.Generator, sink, words: bytes,
             buffers: _Buffers):
    """One survival attempt; returns (rows, extinct_t).

    ``words`` holds the ``_substream_states`` bytes of the attempt's first
    generations, 32 from generation 1 on, and ``pool`` its (1, 4) pool.  An
    attempt that outlives them hashes its next chunk, twice as many
    generations, up to t_max.  Each generation ``_generation_rng`` resets the
    run's ``rng`` to its substream through ``sink``.  Logdet generations
    take their large arrays from ``buffers``, which gets each old state's
    columns back.

    The one place that decides the engine: it switches to logdet once the
    expected event count passes the cap, picks the step by mode, and stops
    at extinction, so the steps never see a state they cannot take.

    Raises HorizonOverflow when log X or the log fitness sum turns NaN or
    +inf (-inf is extinction); ``run`` silences numpy's overflow warnings.
    """
    log_cap = math.log(cfg.exact_event_cap)
    # fmm adds only the fittest mutant, so it has no spectrum to bin
    table = _SpectrumTable(cfg.tail, cfg.mmm_bins_per_decade) if cfg.model == "mmm" else None
    state = initial_state(cfg)
    rows = [(0, state.log_X, -np.inf, state.n_classes, 0, state.dominant_age)]
    offset = 0
    for t in range(1, cfg.t_max + 1):
        if offset == len(words):
            words = _substream_states(pool, t, _chunk_length(words, t, cfg.t_max)).tobytes()
            offset = 0
        _generation_rng(rng, sink, words[offset:offset + 32])
        offset += 32
        if state.mode == MODE_EXACT and state.log_fitsum > log_cap:
            state = to_logdet(state)
        if state.mode == MODE_EXACT:
            state, log_w = step_exact(state, cfg, rng)
        else:
            step, log_w = step_logdet(state, cfg, rng, table, buffers)
            if state.n_classes >= _BUFFERED_STATE_CLASSES:
                buffers.give(state.log_fit, state.count, state.birth)
            state = step
        if not (state.log_X < math.inf and state.log_fitsum < math.inf):
            raise HorizonOverflow(f"log-fitness overflows float64 at generation {state.t}; "
                                  f"use t_max < {state.t}, or `branchlab recurse` "
                                  "for longer horizons")
        rows.append((
            state.t, state.log_X, log_w, state.n_classes,
            0 if state.mode == MODE_EXACT else 1, state.dominant_age,
        ))
        if state.extinct:
            return rows, state.t
    return rows, None


def _dies_small(cfg: SimConfig, founder: tuple, rng: np.random.Generator, sink, words: bytes):
    """The generation an fmm attempt dies at on small exact steps alone, or None; a generator.

    Runs the attempt as ``_attempt`` does, from ``founder`` (the run's
    ``_founder(cfg)``), with the same substreams and draws in the same
    order, one ``_small_generation`` a generation, and builds no state or
    row.  ``words`` holds its first states; where they run out, at
    generation t, it yields (t, n) and takes the next n states' bytes by
    ``send``.  None as soon as a generation would leave the small branch: a
    log fitness sum above the cap (the logdet switch), a step on the array
    path, or a log fitness sum that is not finite (where ``_attempt``
    raises).  None too for an attempt alive at t_max.  ``run`` then runs the
    attempt through ``_attempt`` from generation 0, so every row and every
    error text comes from there.
    """
    t_max = cfg.t_max
    log_cap = math.log(cfg.exact_event_cap)
    cols, log_fitsum = founder
    offset = 0
    for t in range(1, t_max + 1):
        if offset == len(words):
            words, offset = (yield t, _chunk_length(words, t, t_max)), 0
        _generation_rng(rng, sink, words[offset:offset + 32])
        offset += 32
        if not log_fitsum <= log_cap:
            return None
        cols, log_fitsum, _ = _small_generation(t, cols, log_fitsum, cfg, rng)
        if cols is None:
            return None
        if not cols[0]:
            return t
        if not log_fitsum < math.inf:
            return None
    return None


def _screen_round(cfg: SimConfig, founder: tuple, first: int, pools: np.ndarray, states: bytes,
                  n: int, rng: np.random.Generator, sink):
    """One round of a run's attempts for ``_attempt``: a generator that returns them.

    Attempt first + k has pool ``pools[k]`` and first n states at
    ``states[32 * n * k:]``.  A restarting fmm run screens them in turn with
    ``_dies_small``, yields (pool, t, n') where one waits for its next n'
    states and takes their bytes by ``send``, and returns [(attempt, pool,
    words)] for the first that does not die in the screen, or raises there,
    with every state hashed for it, or [].  Any other run returns all.
    """
    width = 32 * min(_FIRST_GENERATIONS, cfg.t_max)
    if cfg.model != "fmm" or not cfg.restart_on_extinction:
        return [(first + k, pools[k:k + 1], states[32 * n * k:32 * n * k + width])
                for k in range(len(pools))]
    for k in range(len(pools)):
        pool, words = pools[k:k + 1], states[32 * n * k:32 * n * k + width]
        screen, chunk = _dies_small(cfg, founder, rng, sink, words), None
        try:
            while True:
                chunk = yield (pool, *screen.send(chunk))
                words += chunk
        except StopIteration as stop:
            if stop.value is not None:
                continue
        except BranchlabError:
            pass
        return [(first + k, pool, words)]
    return []


def _screen(cfgs, first: int, rng: np.random.Generator, sink) -> list:
    """Each run's next attempts for ``_attempt``, from attempt ``first`` on.

    Returns, per config, a list of the (attempt, pool, words) that
    ``_attempt`` takes.  For an fmm run that restarts it holds the first
    attempt that ``_dies_small`` does not see die, or nothing when every
    attempt up to MAX_RESTARTS dies there; for any other run, every attempt
    of its first round, in order.  ``rng`` and ``sink`` are the screen's
    generator, as ``_attempt`` takes them.

    Attempt a of a run seeds (cfg.seed + a) % 2**64.  The attempts go in
    rounds of min(a + 1, ``_BLOCK_ATTEMPTS``) attempts from the round's
    first attempt a (1, 2, 4, ... from attempt 0), which each run still
    pending screens in order (``_screen_round``) until one does not die.
    Slices of whole runs are hashed as they start: one ``_seed_pools`` call
    and one ``_substream_states`` call for the first
    min(``_FIRST_GENERATIONS``, t_max) states, at the round's largest t_max.
    An attempt that outlives its states waits; at the round's end, or once
    waiting runs keep over ``_WAITING_ATTEMPTS`` attempts, one call per
    (first generation, length) hashes the waiting attempts' next chunks.  No
    attempt is screened before the one ahead of it in its run dies.

    An error the screen raises hands that attempt to ``_attempt``, which
    makes the same draws up to it and raises it again, so runs of several
    configs (``run_replicas``) raise their errors in config order.
    """
    found = [[] for _ in cfgs]
    founders = [_founder(cfg) for cfg in cfgs]
    pending = list(range(len(cfgs)))
    waiting = []  # (run, its round, pool, t, length) of each attempt that ran out of states

    def resume(i, screen, chunk=None):
        try:
            waiting.append((i, screen, *screen.send(chunk)))
        except StopIteration as stop:
            found[i] = stop.value

    while pending and first <= MAX_RESTARTS:
        size = min(first + 1, _BLOCK_ATTEMPTS, MAX_RESTARTS + 1 - first)
        n = min(_FIRST_GENERATIONS, max(cfgs[i].t_max for i in pending))
        per_slice = max(_SLICE_ATTEMPTS // size, 1)
        for low in range(0, len(pending), per_slice):
            runs = pending[low:low + per_slice]
            bases = np.array([cfgs[i].seed % (1 << 64) for i in runs], dtype=np.uint64)
            pools = _seed_pools((bases[:, None] + np.arange(first, first + size, dtype=np.uint64))
                                .ravel())
            states = _substream_states(pools, 1, n).tobytes()
            for j, i in enumerate(runs):
                at = j * size  # row at + k is attempt first + k of run i
                resume(i, _screen_round(cfgs[i], founders[i], first, pools[at:at + size],
                                        states[32 * n * at:32 * n * (at + size)], n, rng, sink))
            while waiting and (len(waiting) * size > _WAITING_ATTEMPTS
                               or low + per_slice >= len(pending)):
                groups = {}
                for i, screen, pool, t, length in waiting:
                    groups.setdefault((t, length), []).append((i, screen, pool))
                waiting.clear()
                for (t, length), group in groups.items():
                    chunks = _substream_states(np.concatenate([g[2] for g in group]), t, length)
                    for k, (i, screen, _) in enumerate(group):
                        resume(i, screen, chunks[k].tobytes())
        pending = [i for i in pending if not found[i]]
        first += size
    return found


def _restarts(cfg: SimConfig, attempts: list, rng: np.random.Generator, sink):
    """``attempts``, a ``_screen`` entry of cfg, then each next ``_screen`` entry in turn.

    The attempts ``run`` takes through ``_attempt``: a list that runs out
    screens on from the attempt after its last, until the screen finds none.
    """
    while attempts:
        yield from attempts
        attempts = _screen([cfg], attempts[-1][0] + 1, rng, sink)[0]


def run(cfg: SimConfig, screened: list | None = None) -> RunRecord:
    """Simulate one run, restarting on extinction when configured.

    Restarts reseed deterministically from seed + restart index, realizing
    survival conditioning.  Raises TooManyRestarts when none of the
    MAX_RESTARTS + 1 attempts (10^4 restarts) survives, which signals
    negligible survival probability.

    With restarts on, each fmm attempt goes through ``_dies_small`` first
    (in ``_screen``), and only one that it does not see die runs through
    ``_attempt``; the record and every error are ``_attempt``'s either way.
    mmm runs, and runs that keep their extinct attempt, call ``_attempt``
    alone.  ``screened`` is this run's entry of a ``_screen`` of several
    runs (``run_replicas``); without it the run screens its own attempts.
    """
    # one generator for every attempt; each generation sets its whole state
    rng = np.random.Generator(np.random.PCG64(0))
    sink = _state_sink(rng)
    buffers = _Buffers()
    with np.errstate(over="ignore", invalid="ignore"):
        if screened is None:
            screened = _screen([cfg], 0, rng, sink)[0]
        for attempt, pool, words in _restarts(cfg, screened, rng, sink):
            rows, extinct_t = _attempt(cfg, pool, rng, sink, words, buffers)
            if extinct_t is None or not cfg.restart_on_extinction:
                break
        else:
            raise TooManyRestarts(
                f"no surviving run in {MAX_RESTARTS + 1} attempts (seed {cfg.seed}); "
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


def run_replicas(cfgs) -> list[RunRecord]:
    """``[run(cfg) for cfg in cfgs]``, with every run's restart screen made first.

    The configs go in blocks of ``_WAITING_ATTEMPTS``.  One ``_screen`` of a
    block's configs, on a generator of its own, finds each run's first
    attempt that the screen does not see die; then ``run`` takes each
    config with its entry, in order, before the next block is screened.  So
    the screen entries held at once stay one block's, whatever the number
    of configs.  The records, and the first error raised, are those of
    ``run`` on each config alone.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    sink = _state_sink(rng)
    records = []
    for low in range(0, len(cfgs), _WAITING_ATTEMPTS):
        block = cfgs[low:low + _WAITING_ATTEMPTS]
        with np.errstate(over="ignore", invalid="ignore"):
            screened = _screen(block, 0, rng, sink)
        for k, cfg in enumerate(block):
            # drop each entry as its run takes it: the list empties as the records grow
            entry, screened[k] = screened[k], None
            records.append(run(cfg, entry))
    return records


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
