"""Simulator tests: exact steps, log-deterministic steps, spectra, runs.

Statistical assertions use fixed seeds and three-sigma Monte Carlo margins;
distributional laws are checked against closed-form CDFs by inversion.
"""
import math
import re
from unittest import mock

import numpy as np
import pytest

from branchlab import simulate
from branchlab.errors import DomainError, HorizonOverflow, NonConvergence, TooManyRestarts
from branchlab.simulate import (
    MAX_EXACT_EVENT_CAP,
    MMM_MAX_EXACT_EVENT_CAP,
    MMM_MAX_POISSON_THRESHOLD,
    MODE_EXACT,
    MODE_LOGDET,
    SimConfig,
    _rebuild,
    _SpectrumTable,
    fittest_mutant_ks,
    initial_state,
    mc_verify_galton,
    mc_verify_tdg,
    mutant_spectrum,
    run,
    sample_fittest_mutant,
    step_exact,
    step_logdet,
    to_logdet,
)
from branchlab.tails import TailModel, log_tail

PARETO1 = TailModel("pareto", 1.0)
PARETO2 = TailModel("pareto", 2.0)


def _cfg(**kw):
    base = dict(model="fmm", tail=PARETO1, beta=0.1, log_f=50.0, t_max=40, seed=1)
    base.update(kw)
    return SimConfig(**base)


# an mmm run that restarts 5 times, then hands its exact phase to logdet mode
_MMM_RESTARTS = _cfg(model="mmm", log_f=0.1, t_max=16, seed=5, exact_event_cap=1000.0)


def _table(cfg):
    """The spectrum table a run of cfg passes its logdet steps: none for fmm."""
    return _SpectrumTable(cfg.tail, cfg.mmm_bins_per_decade) if cfg.model == "mmm" else None


class _FixedUniform:
    def __init__(self, *values):
        self._values = list(values)

    def random(self, size=None):
        v = self._values.pop(0)
        return v if size is None else np.full(size, v)


class TestConfig:
    def test_range_checks(self):
        with pytest.raises(DomainError):
            _cfg(beta=1.5)
        with pytest.raises(DomainError):
            _cfg(model="other")
        with pytest.raises(DomainError):
            _cfg(exact_event_cap=0.0)

    @pytest.mark.parametrize("model, cap_max", [
        ("fmm", MAX_EXACT_EVENT_CAP), ("mmm", MMM_MAX_EXACT_EVENT_CAP),
    ])
    def test_exact_event_cap_is_bounded(self, model, cap_max):
        assert _cfg(model=model, exact_event_cap=cap_max)
        for cap in (math.nextafter(cap_max, math.inf), 1e30, math.nan):
            with pytest.raises(DomainError, match="exact_event_cap"):
                _cfg(model=model, exact_event_cap=cap)

    def test_mmm_poisson_threshold_is_bounded(self):
        # stochastic bin means stay within the int64 means rng.poisson accepts
        assert _cfg(model="mmm", mmm_poisson_threshold=MMM_MAX_POISSON_THRESHOLD)
        for threshold in (math.nextafter(MMM_MAX_POISSON_THRESHOLD, math.inf), 1e30,
                          math.inf, math.nan):
            with pytest.raises(DomainError, match="mmm_poisson_threshold"):
                _cfg(model="mmm", mmm_poisson_threshold=threshold)

    def test_stored_rows_are_bounded(self):
        # a run stores t_max + 1 rows; the config refuses more before any run
        assert _cfg(t_max=simulate.MAX_ROWS - 1)
        for t_max in (simulate.MAX_ROWS, 10**10):
            with pytest.raises(DomainError, match="t_max"):
                _cfg(t_max=t_max)

    @pytest.mark.parametrize("log_f", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_f_rejected(self, log_f):
        with pytest.raises(DomainError, match="log_f"):
            _cfg(log_f=log_f)


class TestStateRebuild:
    def test_exact_mode_merges_and_sorts(self):
        st = _rebuild(3, np.array([1.0, 2.0, 1.0]), np.array([5, 7, 9]), np.array([1, 2, 3]),
                      MODE_EXACT)
        assert st.n_classes == 2
        assert np.all(np.diff(st.log_fit) < 0)  # descending
        assert st.count[st.log_fit == 1.0][0] == 14
        assert st.birth[st.log_fit == 1.0][0] == 1  # earliest birth kept
        assert st.log_X == pytest.approx(math.log(21.0), rel=1e-14)

    def test_logdet_mode_merges_log_counts(self):
        st = _rebuild(3, np.array([1.0, 1.0]), np.log([2.0, 6.0]), np.array([4, 2]),
                      MODE_LOGDET)
        assert st.n_classes == 1
        assert st.count[0] == pytest.approx(math.log(8.0), rel=1e-14)
        assert st.birth[0] == 2


def _fittest_mutants(log_lambda, model, rng, n):
    return np.array([sample_fittest_mutant(log_lambda, model, rng) for _ in range(n)])


class TestSampleFittestMutant:
    def test_zero_rate_never_produces_a_mutant(self):
        rng = np.random.default_rng(0)
        draws = _fittest_mutants(-np.inf, PARETO1, rng, 1000)
        assert np.all(draws == -np.inf)

    def test_direct_inversion(self):
        # lambda = 1, U = 0.9: G(w) = -log 0.9, so w = (-log 0.9)**(-1/2)
        got = sample_fittest_mutant(0.0, PARETO2, _FixedUniform(0.9))
        want = -math.log(-math.log(0.9)) / 2.0
        assert got == pytest.approx(want, rel=1e-12)
        assert math.exp(got) == pytest.approx(3.081, abs=5e-4)

    def test_atom_mass(self):
        rng = np.random.default_rng(8)
        lam = math.log(2.0)
        draws = _fittest_mutants(math.log(lam), PARETO1, rng, 10**5)
        frac = float(np.mean(draws == -np.inf))
        sigma = math.sqrt(0.25 / 10**5)
        assert abs(frac - 0.5) <= 3 * sigma

    @pytest.mark.parametrize("model", [PARETO1, PARETO2])
    def test_ks_against_lemma_law(self, model):
        rng = np.random.default_rng(42)
        n = 10**5
        draws = _fittest_mutants(0.0, model, rng, n)
        ks = fittest_mutant_ks(draws, model, 1.0)
        assert ks <= 0.01

    def test_ks_hand_values(self):
        # one atom and one draw at W = 2: the atom is off by 1/2 - e^-1 and
        # the jump at W = 2 reaches 1 - exp(-G(2)) = 1 - e^(-1/2)
        ks = fittest_mutant_ks(np.array([-np.inf, math.log(2.0)]), PARETO1, 1.0)
        assert ks == pytest.approx(1.0 - math.exp(-0.5), rel=1e-14)
        assert fittest_mutant_ks(np.full(4, -np.inf), PARETO1, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-14)


class TestStepExact:
    def test_poisson_thinning_means(self):
        # single individual, F = 4, beta = 0.5: survivors and mutants both
        # Poisson(2); the MMM next generation has mean 4
        cfg = _cfg(model="mmm", beta=0.5, log_f=math.log(4.0), t_max=1,
                   exact_event_cap=1e6)
        rng = np.random.default_rng(123)
        sizes, mutants = [], []
        for _ in range(20_000):
            state, _ = step_exact(initial_state(cfg), cfg, rng)
            sizes.append(math.exp(state.log_X) if state.n_classes else 0.0)
            mutants.append(sum(1 for b in state.birth if b == 1))
        sizes = np.array(sizes)
        sigma = math.sqrt(4.0 / sizes.size)  # var of Pois(2)+Pois(2)
        assert abs(sizes.mean() - 4.0) <= 3 * sigma
        sigma_m = math.sqrt(2.0 / sizes.size)
        assert abs(np.mean(mutants) - 2.0) <= 3 * sigma_m

    def test_fmm_no_mutant_records_minus_inf(self):
        cfg = _cfg(beta=0.5, log_f=math.log(4.0), exact_event_cap=1e6)
        rng = np.random.default_rng(5)
        log_ws = [step_exact(initial_state(cfg), cfg, rng)[1] for _ in range(2000)]
        frac_none = np.mean([w == -np.inf for w in log_ws])
        # P(no mutant) = exp(-2)
        sigma = math.sqrt(math.exp(-2) * (1 - math.exp(-2)) / 2000)
        assert abs(frac_none - math.exp(-2)) <= 3 * sigma
        # when a mutant appears, exactly one class with count 1 joins
        state, w = step_exact(initial_state(cfg), cfg, np.random.default_rng(1))
        if w > -np.inf:
            new = state.birth == 1
            assert new.sum() == 1 and state.count[new][0] == 1


class TestLogdetStep:
    def test_single_class_expectation_update(self):
        cfg = _cfg(beta=0.1)
        state = to_logdet(initial_state(cfg))
        nxt, _ = step_logdet(state, cfg, np.random.default_rng(0), _table(cfg))
        keep = nxt.birth == 0
        assert nxt.count[keep][0] == pytest.approx(math.log(0.9) + 50.0, rel=1e-12)

    def test_bookkeeping_identity(self):
        cfg = _cfg(model="mmm", beta=0.2)
        state = to_logdet(initial_state(cfg))
        rng = np.random.default_rng(3)
        table = _table(cfg)
        for _ in range(5):
            state, _ = step_logdet(state, cfg, rng, table)
        m = state.count.max()
        direct = m + math.log(np.sum(np.exp(state.count - m)))
        assert state.log_X == pytest.approx(direct, rel=1e-12)

    def test_fmm_mutant_join_uses_exact_inversion(self):
        cfg = _cfg(beta=0.1)
        state = to_logdet(initial_state(cfg))
        u = 0.37
        nxt, log_w = step_logdet(state, cfg, _FixedUniform(u), _table(cfg))
        lam_log = math.log(0.1) + state.log_fitsum
        want = -(math.log(-math.log(u)) - lam_log) / 1.0
        assert log_w == pytest.approx(want, rel=1e-12)
        assert nxt.log_fit[nxt.birth == 1].tolist() == [log_w]  # the top alone
        assert nxt.count[nxt.birth == 1][0] == 0.0  # log of count 1

    def test_only_mmm_runs_build_a_spectrum_table(self, monkeypatch):
        built = []

        class Recording(_SpectrumTable):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr("branchlab.simulate._SpectrumTable", Recording)
        rec = run(_cfg(t_max=5))
        assert rec.mode[-1] == 1 and not built  # fmm in logdet mode
        run(_cfg(model="mmm", t_max=5))
        assert built


class TestMutantSpectrum:
    def test_zero_rate_gives_empty_spectrum(self):
        cfg = _cfg(model="mmm")
        fits, counts, log_w = mutant_spectrum(-np.inf, cfg, np.random.default_rng(0),
                                              _table(cfg))
        assert fits.size == 0 and counts.size == 0 and log_w == -np.inf

    def test_bin_mass_formula(self):
        # Pareto alpha=1 on (2, 4]: mu = 1/2 - 1/4 = 1/4
        a, b = math.log(2.0), math.log(4.0)
        ga, gb = log_tail(PARETO1, a), log_tail(PARETO1, b)
        log_mass = ga + math.log(-math.expm1(gb - ga))
        assert log_mass == pytest.approx(math.log(0.25), rel=1e-14)

    def test_expected_masses_telescope_to_total_rate(self):
        log_lambda = 30.0
        table = _SpectrumTable(PARETO1, 8)
        log_mass, _ = table.below(25.0)
        # the open top bin starts at the last edge below the top
        top = log_lambda + log_tail(PARETO1, table.grid[log_mass.size - 1])
        total = np.logaddexp.reduce(np.append(log_lambda + log_mass, top))
        assert abs(total - log_lambda) <= 1e-9 * abs(log_lambda)

    def test_edges_are_anchored_and_bounded_by_top(self):
        table = _SpectrumTable(PARETO1, 8)
        log_mass, mids = table.below(12.0)
        n = mids.size
        assert table.grid[0] == pytest.approx(0.1, rel=1e-12)
        assert mids[0] == pytest.approx(0.05, rel=1e-12)  # first bin is (0, 0.1]
        assert np.all(table.grid[:n] < 12.0) and table.grid[n] >= 12.0
        assert np.all(np.diff(table.grid) > 0)
        # anchored grid: same bins regardless of the top value or of how
        # far the table has grown
        again = _SpectrumTable(PARETO1, 8)
        assert again.below(30.0)[1][:n].tobytes() == mids.tobytes()
        table.below(1e12)
        assert table.below(12.0)[0].tobytes() == log_mass.tobytes()

    def test_top_class_is_exact_sample_with_count_one(self):
        cfg = _cfg(model="mmm")
        fits, counts, log_w = mutant_spectrum(40.0, cfg, np.random.default_rng(9), _table(cfg))
        assert fits[0] == log_w and counts[0] == 0.0
        assert np.all(fits[1:] < log_w)


class TestRun:
    def test_huge_founder_survives_first_try(self):
        # cap left above the founder so the first step stays exact
        cfg = _cfg(log_f=math.log(1e9), t_max=1, exact_event_cap=1e10)
        rec = run(cfg)
        assert rec.outcome == "survived" and rec.restarts == 0
        assert abs(rec.log_X[1] - math.log(0.9e9)) <= 0.01

    def test_immediate_logdet_switch_above_cap(self):
        rec = run(_cfg(t_max=3))
        assert rec.mode[0] == 0 and np.all(rec.mode[1:] == 1)

    def test_zero_horizon_records_initial_state_only(self):
        rec = run(_cfg(t_max=0))
        assert len(rec.t) == 1 and rec.log_X[0] == 0.0

    def test_subcritical_run_goes_extinct_without_restart(self):
        # weak mutants: (1-beta) F < 1 almost surely, so the line dies
        cfg = _cfg(tail=TailModel("pareto", 5.0), beta=0.99,
                   log_f=math.log(1.2), t_max=30, restart_on_extinction=False)
        rec = run(cfg)
        assert rec.outcome == "extinct"
        # the record stops at the extinction generation
        assert rec.n_classes[-1] == 0 and np.all(rec.n_classes[:-1] > 0)
        assert math.isinf(rec.log_X[-1])

    def test_restart_counter_increments(self):
        cfg = _cfg(beta=0.9, log_f=math.log(1.5), t_max=25, seed=3)
        rec = run(cfg)
        assert rec.outcome == "survived" and rec.restarts > 0

    def test_runs_seed_no_generator_per_generation(self, monkeypatch):
        # every substream is set on the run's one generator: restarting fmm
        # runs, an mmm run through the handover to logdet and an mmm run that
        # restarts into logdet each hash their pools with _seed_pools, attempt
        # seeds in order and each once, construct no SeedSequence, leave at
        # most one round's tail of attempts unused, make one PCG64 per run and
        # never call default_rng
        simulate._direct_state_writes()  # the once-per-process probe makes its own PCG64

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was seeded per generation or attempt")

        made, seeded, rounds = [], [], []
        pcg64, seed_pools = np.random.PCG64, simulate._seed_pools

        def counted(*args, **kwargs):
            made.append(args)
            return pcg64(*args, **kwargs)

        def counted_seed_pools(seeds):
            rounds.append(seeds.size)
            seeded.extend(seeds.tolist())
            return seed_pools(seeds)

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "PCG64", counted)
        monkeypatch.setattr(simulate, "_seed_pools", counted_seed_pools)
        restarts = []
        for cfg in [_cfg(beta=0.9, log_f=math.log(1.5), t_max=25, seed=3),
                    _cfg(tail=TailModel("pareto", 3.0), beta=0.9, log_f=math.log(1.2),
                         t_max=40, seed=1424),
                    _cfg(model="mmm", log_f=math.log(2.0), t_max=12, seed=3), _MMM_RESTARTS]:
            seeded.clear()
            rounds.clear()
            rec = run(cfg)
            restarts.append(rec.restarts)
            assert seeded == [cfg.seed + k for k in range(len(seeded))]
            assert rec.restarts + 1 <= len(seeded) < rec.restarts + simulate._BLOCK_ATTEMPTS
            # rounds of 1, 2, 4, ... attempts, screened or not
            assert rounds[:7] == [1, 2, 4, 8, 16, 32, 64][:len(rounds)]
            assert len(made) == len(restarts)
            if cfg.model == "mmm":
                assert rec.mode[1] == 0 and rec.mode[-1] == 1
        assert 0 < restarts[0] and simulate._BLOCK_ATTEMPTS < restarts[1] and 0 < restarts[3]

    @pytest.mark.parametrize("t_max", [0, 1, 16, 40])
    def test_one_substream_reset_per_generation(self, monkeypatch, t_max):
        self._check_resets(monkeypatch, t_max, "run")

    @pytest.mark.parametrize("t_max", [0, 1, 16, 40])
    def test_one_substream_reset_per_generation_replicas(self, monkeypatch, t_max):
        self._check_resets(monkeypatch, t_max, "run_replicas")

    @staticmethod
    def _check_resets(monkeypatch, t_max, entry):
        # run screens each fmm attempt with _dies_small and calls _attempt
        # for each one the screen does not see die; both call
        # _generation_rng through the module global once per generation
        # they run, past their first chunk of states too; the traced
        # benchmark counts both names.  run_replicas screens two replicas'
        # attempts round by round before it runs either, and each replica's
        # calls keep the order a run of it alone makes.  A screen pauses
        # where its states run out while other attempts screen on, so its
        # resets are counted per stretch it runs, and it is listed when it
        # ends (a replica's screens end in order)
        calls, resets = [], []  # (name, config, result, resets made) in order
        screen, attempt, reset = simulate._dies_small, simulate._attempt, simulate._generation_rng
        simulate._direct_state_writes()  # the once-per-process probe resets a generator too

        def counted(name, fn):
            def call(*args):
                before = len(resets)
                result = fn(*args)
                calls.append((name, args[0], result, len(resets) - before))
                return result
            return call

        def counted_screen(*args):
            it, made, chunk = screen(*args), 0, None
            while True:
                before = len(resets)
                try:
                    request = it.send(chunk)
                except StopIteration as stop:
                    made += len(resets) - before
                    calls.append(("screen", args[0], stop.value, made))
                    return stop.value
                made += len(resets) - before
                chunk = yield request

        def counted_reset(*args):
            resets.append(args[0])
            return reset(*args)

        monkeypatch.setattr(simulate, "_dies_small", counted_screen)
        monkeypatch.setattr(simulate, "_attempt", counted("attempt", attempt))
        monkeypatch.setattr(simulate, "_generation_rng", counted_reset)
        cfgs = [_cfg(tail=TailModel("pareto", 3.0), beta=0.9, log_f=math.log(1.2),
                     t_max=t_max, seed=seed) for seed in (1424, 5)]
        if entry == "run":
            cfgs = cfgs[:1]
            recs = [run(cfgs[0])]
        else:
            recs = simulate.run_replicas(cfgs)
        assert len(resets) == sum(n for _, _, _, n in calls)
        # every replica is screened up to its first attempt before any runs
        first_run = [name for name, _, _, _ in calls].index("attempt")
        for cfg in cfgs:
            names = [name for name, c, _, _ in calls if c is cfg]
            assert sum(c is cfg for _, c, _, _ in calls[:first_run]) == names.index("attempt")
        for cfg, rec in zip(cfgs, recs):
            mine = [(name, result, n) for name, c, result, n in calls if c is cfg]
            screened = [(died, n) for name, died, n in mine if name == "screen"]
            attempts = [len(result[0]) - 1 for name, result, _ in mine if name == "attempt"]
            assert len(screened) == rec.restarts + 1
            # each attempt is screened, then run through _attempt unless it died
            want = []
            for died, _ in screened:
                want += ["screen"] if died is not None else ["screen", "attempt"]
            assert [name for name, _, _ in mine] == want
            # a screen that sees its attempt die ran to that generation; one that
            # does not ran at most as far as the attempt's run through _attempt
            died = [t for t, n in screened if t is not None]
            assert all(n == t for t, n in screened if t is not None)
            stopped = [n for t, n in screened if t is None]
            assert all(min(t_max, 1) <= n <= gens for n, gens in zip(stopped, attempts))
            assert [n for name, _, n in mine if name == "attempt"] == attempts
            assert len(died) + len(attempts) == rec.restarts + 1
            assert attempts[-1] == t_max
            if t_max == 40 and cfg is cfgs[0]:
                assert rec.restarts > simulate._BLOCK_ATTEMPTS
                assert max(died) > simulate._FIRST_GENERATIONS

    @pytest.mark.parametrize("cfg", [
        _cfg(tail=TailModel("pareto", 3.0), beta=0.9, log_f=math.log(1.2), t_max=40, seed=1424),
        _cfg(model="mmm", log_f=math.log(2.0), t_max=12, seed=3),
    ], ids=["fmm_restarts", "mmm_to_logdet"])
    def test_one_step_call_per_generation(self, monkeypatch, cfg):
        # each generation of every attempt calls step_exact or step_logdet
        # through the module global once, as its row's mode says; the traced
        # benchmark counts both names, and the small exact step runs inside
        # step_exact
        modes, steps = [], []
        attempt = simulate._attempt

        def counted_attempt(*args):
            rows, extinct_t = attempt(*args)
            modes.extend(row[4] for row in rows[1:])
            return rows, extinct_t

        def counted(step, mode):
            def call(*args):
                steps.append(mode)
                return step(*args)
            return call

        monkeypatch.setattr(simulate, "_attempt", counted_attempt)
        monkeypatch.setattr(simulate, "step_exact", counted(simulate.step_exact, 0))
        monkeypatch.setattr(simulate, "step_logdet", counted(simulate.step_logdet, 1))
        rec = run(cfg)
        assert steps == modes
        assert 0 in steps and (1 in steps) == (rec.mode[-1] == 1)

    def test_too_many_restarts(self):
        # weak mutants (alpha 5) cannot rescue a strongly subcritical run
        cfg = _cfg(tail=TailModel("pareto", 5.0), beta=0.99,
                   log_f=math.log(1.2), t_max=50, seed=11)
        with pytest.raises(TooManyRestarts):
            run(cfg)

    @pytest.mark.parametrize("model", ["fmm", "mmm"])
    def test_too_many_restarts_counts_its_attempts(self, monkeypatch, model):
        # MAX_RESTARTS restarts are MAX_RESTARTS + 1 attempts, each seeded,
        # screened (fmm) and run (mmm) once, and the message gives that count
        # fmm: test_too_many_restarts' config; mmm: a founder line far below
        # criticality that draws a mutant in about 0.4% of its generations
        beta, log_f = (0.99, math.log(1.2)) if model == "fmm" else (0.01, -1.0)
        cfg = _cfg(model=model, tail=TailModel("pareto", 5.0), beta=beta, log_f=log_f,
                   t_max=50, seed=11)
        monkeypatch.setattr(simulate, "MAX_RESTARTS", 6)
        seeded, seed_pools = [], simulate._seed_pools

        def counted(seeds):
            seeded.extend(seeds.tolist())
            return seed_pools(seeds)

        monkeypatch.setattr(simulate, "_seed_pools", counted)
        with mock.patch.object(simulate, "_dies_small", wraps=simulate._dies_small) as screen, \
                mock.patch.object(simulate, "_attempt", wraps=simulate._attempt) as attempt, \
                pytest.raises(TooManyRestarts) as exc:
            run(cfg)
        assert str(exc.value).startswith("no surviving run in 7 attempts (seed 11);")
        assert seeded == list(range(11, 18))
        if model == "fmm":
            assert screen.call_count == 7 and attempt.call_count == 0
        else:
            assert screen.call_count == 0 and attempt.call_count == 7

    def test_bit_identical_determinism(self):
        cfg = _cfg(model="mmm", t_max=15, seed=77)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.log_X, b.log_X)
        assert np.array_equal(a.log_W, b.log_W)
        assert np.array_equal(a.n_classes, b.n_classes)
        assert np.array_equal(a.dominant_age, b.dominant_age)

    @pytest.mark.parametrize("model", ["fmm", "mmm"])
    def test_horizon_overflow_names_the_generation(self, model):
        # nu(0.3) = -log 0.3, so log X passes float64 near t = 590; the run
        # must stop there with a typed error, not carry NaN rows on
        for tail in (TailModel("pareto", 0.3), TailModel("paretolog", 0.3, -0.3)):
            with pytest.raises(HorizonOverflow) as info:
                run(_cfg(model=model, tail=tail, t_max=700))
            bad_t = int(re.search(r"generation (\d+)", str(info.value)).group(1))
            rec = run(_cfg(model=model, tail=tail, t_max=bad_t - 1))
            assert np.all(np.isfinite(rec.log_X[1:]))

    def test_mode_switch_consistency(self):
        # same seed, hybrid vs pure exact: log X within 1 percent two
        # generations past the switch (alpha 2 keeps young mutants small)
        tail = TailModel("pareto", 2.0)
        worst = 0.0
        for seed in range(10):
            hybrid = run(SimConfig(model="fmm", tail=tail, beta=0.1, log_f=3.0,
                                   t_max=12, seed=seed, exact_event_cap=1e5))
            exact = run(SimConfig(model="fmm", tail=tail, beta=0.1, log_f=3.0,
                                  t_max=12, seed=seed, exact_event_cap=1e18))
            switch = int(np.argmax(hybrid.mode == 1))
            assert switch > 0
            t_cmp = min(switch + 2, 12)
            worst = max(worst, abs(hybrid.log_X[t_cmp] / exact.log_X[t_cmp] - 1.0))
        assert worst <= 0.01

    def test_records_are_unbounded_on_survival(self):
        improved = total = 0
        for k in range(100):
            rec = run(_cfg(log_f=math.log(50.0), t_max=30, seed=5000 + k))
            if rec.outcome != "survived":
                continue
            total += 1
            w = np.where(np.isfinite(rec.log_W), rec.log_W, -np.inf)
            running = np.maximum.accumulate(w)
            improved += running[30] > running[10]
        assert total > 0 and improved / total >= 0.99

    def test_dominant_age_settles_at_horizon(self):
        rec = run(_cfg(t_max=40, seed=2))
        assert np.all(rec.dominant_age[-8:] == 3)  # T = 3 for alpha = 1

    def test_mean_dominance_of_mmm_over_fmm_smoke(self):
        # large founder: counts are deterministic, so paired seeds share
        # the per-generation mutant uniform and the ordering is pathwise
        fmm = np.zeros((40, 16))
        mmm = np.zeros((40, 16))
        for k in range(40):
            common = dict(tail=PARETO1, beta=0.1, log_f=50.0, t_max=15,
                          seed=900 + k)
            fmm[k] = run(SimConfig(model="fmm", **common)).log_X
            mmm[k] = run(SimConfig(model="mmm", **common)).log_X
        diff = mmm.mean(axis=0) - fmm.mean(axis=0)
        assert np.all(diff[1:] > 0.0)
        assert np.all((mmm - fmm)[:, 1:] >= 0.0)


class TestRunReplicas:
    """``run_replicas`` screens every run's attempts round by round, then runs
    each; its records and its first error must be those of ``run`` on each
    config alone, in order."""

    _FMM = dict(tail=TailModel("pareto", 3.0), beta=0.9, log_f=math.log(1.2))
    CONFIGS = [
        _cfg(t_max=40, seed=1424, **_FMM),  # more than 64 restarts
        _cfg(t_max=16, seed=1424, restart_on_extinction=False, **_FMM),
        _MMM_RESTARTS,
        _cfg(t_max=0, seed=7, **_FMM),
        _cfg(t_max=1, seed=7, **_FMM),
        _cfg(t_max=40, seed=2**64 - 2, **_FMM),  # attempt seeds wrap to 0, 1, ...
        _cfg(t_max=16, seed=2**64 - 1, **_FMM),
        _cfg(model="mmm", t_max=12, seed=3, log_f=math.log(2.0)),
        _cfg(t_max=16, seed=54, **_FMM),
    ]

    @staticmethod
    def _outcome(fn):
        """Each record's bytes, or the type and text of the error raised."""
        try:
            records = fn()
        except TooManyRestarts as exc:
            return type(exc), str(exc)
        return [(rec.outcome, rec.restarts,
                 *((a.dtype.str, a.tobytes()) for a in (rec.t, rec.log_X, rec.log_W,
                                                         rec.n_classes, rec.mode,
                                                         rec.dominant_age)))
                for rec in records]

    @pytest.mark.parametrize("max_restarts", [None, 20])
    def test_records_match_runs_one_by_one(self, monkeypatch, max_restarts):
        if max_restarts is not None:
            # replica 0 now runs out of attempts: both raise its error
            monkeypatch.setattr(simulate, "MAX_RESTARTS", max_restarts)
        want = self._outcome(lambda: [run(cfg) for cfg in self.CONFIGS])
        got = self._outcome(lambda: simulate.run_replicas(self.CONFIGS))
        assert got == want
        if max_restarts is None:
            assert want[0][1] > simulate._BLOCK_ATTEMPTS and want[2][1] > 0
            assert want[1][0] == "extinct" and want[5][1] > 2
        else:
            assert want == (TooManyRestarts, "no surviving run in 21 attempts (seed 1424); "
                            "survival probability is negligible for these parameters")

    def test_no_substream_state_is_hashed_twice(self, monkeypatch):
        # the screen hashes the next chunks of a round's waiting attempts in
        # one call per (first generation, length) and hands every chunk it
        # hashed for an attempt to _attempt, which hashes only the
        # generations past them: no (attempt, generation) state is hashed
        # twice in the call
        calls, hashed, handed = [], [], []
        states, attempt = simulate._substream_states, simulate._attempt

        def counted_states(pools, t0, n):
            calls.append((t0, len(pools)))
            hashed.extend((row.tobytes(), t) for row in pools for t in range(t0, t0 + n))
            return states(pools, t0, n)

        def counted_attempt(cfg, pool, rng, sink, words, buffers):
            handed.append(len(words) // 32)
            return attempt(cfg, pool, rng, sink, words, buffers)

        monkeypatch.setattr(simulate, "_substream_states", counted_states)
        monkeypatch.setattr(simulate, "_attempt", counted_attempt)
        # fmm runs whose attempt seeds do not overlap, so a pool names one
        # run's attempt: eight at t_max 40, whose screens wait for their next
        # chunks together, and one at t_max 100, with longer chunks
        cfgs = [_cfg(t_max=40, seed=k * 10**6 + 1424, **self._FMM) for k in range(8)]
        simulate.run_replicas(cfgs + [_cfg(t_max=100, seed=99 * 10**6, **self._FMM)])
        assert len(set(hashed)) == len(hashed)
        assert any(t0 > 1 and k > 1 for t0, k in calls)
        # attempts handed over with their first chunk only, and with the
        # screen's next chunk up to t_max 40
        assert {simulate._FIRST_GENERATIONS, 40} <= set(handed)

    @pytest.mark.parametrize("max_restarts", [None, 20])
    def test_screen_errors_keep_replica_order(self, monkeypatch, max_restarts):
        # a screen error is raised by run, when its replica's turn comes: a
        # paretolog replica whose tail inversion fails raises after replica
        # 0's TooManyRestarts, and itself when replica 0 survives
        sample = simulate.sample_max_of_n

        def failing(tail, n, rng):
            if tail.family == "paretolog":
                raise NonConvergence("tail inversion stalled")
            return sample(tail, n, rng)

        monkeypatch.setattr(simulate, "sample_max_of_n", failing)
        if max_restarts is not None:
            monkeypatch.setattr(simulate, "MAX_RESTARTS", max_restarts)
        cfgs = [self.CONFIGS[0],
                _cfg(t_max=16, seed=9, **{**self._FMM, "tail": TailModel("paretolog", 3.0, 1.0)})]
        outcomes = []
        for fn in (lambda: [run(cfg) for cfg in cfgs], lambda: simulate.run_replicas(cfgs)):
            with pytest.raises((TooManyRestarts, NonConvergence)) as exc:
                fn()
            outcomes.append((exc.type, str(exc.value)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is (NonConvergence if max_restarts is None else TooManyRestarts)


class TestGaltonWatsonBounds:
    def test_supercritical_lower_bound(self):
        rng = np.random.default_rng(7)
        emp, bound = mc_verify_galton(101.0, 0.5, 5, 10**4, rng)
        assert bound == pytest.approx(0.8, rel=1e-12)
        sigma = math.sqrt(max(emp * (1 - emp), 1e-9) / 10**4)
        assert emp >= bound - 3 * sigma

    def test_vacuous_bounds(self):
        rng = np.random.default_rng(1)
        _, bound = mc_verify_galton(2.0, 0.5, 1, 100, rng)
        assert bound == pytest.approx(-3.0, rel=1e-12)
        _, bound = mc_verify_galton(11.0, 0.9, 1, 100, rng)
        assert bound == pytest.approx(-9.0, rel=1e-12)

    def test_generation_dependent_upper_bound(self):
        rng = np.random.default_rng(7)
        emp, bound = mc_verify_tdg([2.0] * 5, 1, 10.0, 2.0, 10**4, rng)
        assert bound == pytest.approx(0.9, rel=1e-12)
        sigma = math.sqrt(max(emp * (1 - emp), 1e-9) / 10**4)
        assert emp >= bound - 3 * sigma

    def test_tdg_limit_cases(self):
        rng = np.random.default_rng(2)
        emp, bound = mc_verify_tdg([1.5, 1.5], 5, 5.0, 1e6, 500, rng)
        assert bound == pytest.approx(1.0, abs=1e-5)
        assert emp == 1.0
        _, bound = mc_verify_tdg([2.0], 10, 1.0, 2.0, 100, rng)
        assert bound == pytest.approx(-9.0, rel=1e-12)
