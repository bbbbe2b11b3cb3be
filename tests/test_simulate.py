"""Simulator tests: exact steps, log-deterministic steps, spectra, runs.

Statistical assertions use fixed seeds and three-sigma Monte Carlo margins;
distributional laws are checked against closed-form CDFs by inversion.
"""
import math
import re

import numpy as np
import pytest

from branchlab import simulate
from branchlab.errors import DomainError, HorizonOverflow, TooManyRestarts
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
        # every substream is set on the run's one generator: a restarting fmm
        # run and an mmm run through the handover to logdet each build their
        # pools per block of attempts, one SeedSequence per attempt seed in
        # order and no spawn key, leave at most one block's tail unused, make
        # one PCG64 per run and never call default_rng
        simulate._direct_state_writes()  # the once-per-process probe makes its own PCG64

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was seeded per generation")

        made, seeded = [], []
        pcg64, seed_sequence = np.random.PCG64, np.random.SeedSequence

        def counted(*args, **kwargs):
            made.append(args)
            return pcg64(*args, **kwargs)

        def counted_seed_sequence(*args, **kwargs):
            seeded.append((args, kwargs))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "PCG64", counted)
        fmm = run(_cfg(beta=0.9, log_f=math.log(1.5), t_max=25, seed=3))
        assert fmm.restarts > 0
        assert seeded == [((3 + k,), {}) for k in range(len(seeded))]
        assert fmm.restarts + 1 <= len(seeded) < fmm.restarts + simulate._BLOCK_ATTEMPTS
        assert len(made) == 1
        seeded.clear()
        mmm = run(_cfg(model="mmm", log_f=math.log(2.0), t_max=12, seed=3))
        assert mmm.mode[1] == 0 and mmm.mode[-1] == 1
        assert seeded == [((3 + k,), {}) for k in range(len(seeded))]
        assert mmm.restarts + 1 <= len(seeded) < mmm.restarts + simulate._BLOCK_ATTEMPTS
        assert len(made) == 2

    @pytest.mark.parametrize("t_max", [0, 1, 16, 40])
    def test_one_substream_reset_per_generation(self, monkeypatch, t_max):
        # run calls _attempt once per attempt, and each attempt calls
        # _generation_rng through the module global once per generation it
        # runs, past its first chunk of states too; the traced benchmark
        # counts both names
        attempts, resets = [], []
        attempt, reset = simulate._attempt, simulate._generation_rng
        simulate._direct_state_writes()  # the once-per-process probe resets a generator too

        def counted_attempt(*args):
            rows, extinct_t = attempt(*args)
            attempts.append(len(rows) - 1)
            return rows, extinct_t

        def counted_reset(*args):
            resets.append(args[0])
            return reset(*args)

        monkeypatch.setattr(simulate, "_attempt", counted_attempt)
        monkeypatch.setattr(simulate, "_generation_rng", counted_reset)
        rec = run(_cfg(tail=TailModel("pareto", 3.0), beta=0.9, log_f=math.log(1.2),
                       t_max=t_max, seed=1424))
        assert len(attempts) == rec.restarts + 1
        assert len(resets) == sum(attempts)
        assert attempts[-1] == t_max
        if t_max == 40:
            assert rec.restarts > simulate._BLOCK_ATTEMPTS
            assert max(attempts[:-1]) > simulate._FIRST_GENERATIONS

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
