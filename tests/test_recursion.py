"""Recursion-solver tests against a direct quadratic-time oracle."""
import dataclasses
import math

import numpy as np
import pytest

from branchlab import recursion
from branchlab.errors import ConstraintViolation, DomainError, NoPeriodDetected
from branchlab.growth import alpha_critical, nu as nu_of, period_T
from branchlab.recursion import (
    SeedSequence,
    build_ctex_seed,
    c_of_t,
    check_bounds,
    detect_period,
    extract_phi,
    nu_hat,
    solve_chi,
    verify_indu,
)


def _oracle_chi(alpha, a_values):
    """Direct linear-domain evaluation; only safe for short horizons."""
    chi = []
    for t in range(1, len(a_values) + 1):
        best = a_values[t - 1]
        for i in range(1, t):
            best = max(best, (t - i) / alpha * chi[i - 1])
        chi.append(best)
    return chi


def _draw_admissible_phi(rng, T, alpha):
    """Uniform in the multiplier box, rescaled to the product constraint."""
    lo, hi = (T + 1) / T, T / (T - 1)
    target = T / alpha
    while True:
        phi = rng.uniform(lo, hi, size=T)
        phi *= (target / phi.prod()) ** (1.0 / T)
        if np.all(phi >= lo) and np.all(phi <= hi):
            return phi


class TestSolveChi:
    def test_golden_values_alpha_one_linear(self):
        expected = [1, 2, 3, 4, 6, 9, 12, 18, 27, 36]
        assert _oracle_chi(1.0, list(range(1, 11))) == expected
        series = solve_chi(1.0, SeedSequence.linear(), 10)
        got = np.exp(series.L[1:])
        assert np.max(np.abs(got / np.array(expected) - 1.0)) <= 1e-12

    def test_first_step_is_seed_value(self):
        series = solve_chi(2.5, SeedSequence.half(), 1)
        assert series.L[1] == pytest.approx(math.log(0.5), rel=1e-15)
        assert series.I[1] == 0

    def test_dominant_index_ties_break_upward(self):
        series = solve_chi(1.0, SeedSequence.linear(), 10)
        assert series.I[9] == 6
        assert series.I[10] == 8  # 36 is reached at i = 6, 7, 8

    def test_matches_oracle_for_random_alphas_and_seeds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = float(rng.uniform(0.2, 4.0))
            values = rng.uniform(0.5, 20.0, size=40)
            series = solve_chi(alpha, SeedSequence.explicit(values), 40)
            oracle = np.log(_oracle_chi(alpha, list(values)))
            assert np.max(np.abs(series.L[1:] - oracle)) <= 1e-12

    def test_explicit_seed_extends_with_floor(self):
        series = solve_chi(1.0, SeedSequence.explicit([5.0]), 30)
        # past the list the recursion is driven purely by mutant terms
        assert series.L[2] == pytest.approx(math.log(5.0), rel=1e-12)
        assert all(series.I[t] >= 1 for t in range(2, 31))

    def test_scaling_seed_shifts_log_values(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(1.0, 10.0, size=60)
        base = solve_chi(1.3, SeedSequence.explicit(values), 60)
        scaled = solve_chi(1.3, SeedSequence.explicit(7.5 * values), 60)
        shift = scaled.L[1:] - base.L[1:]
        assert np.max(np.abs(shift - math.log(7.5))) <= 1e-9

    def test_horizon_is_bounded_before_anything_is_allocated(self, monkeypatch):
        def refuse(self, t_max):
            raise AssertionError(f"log_a_array({t_max}) ran")

        monkeypatch.setattr(SeedSequence, "log_a_array", refuse)
        for t_max in (recursion.MAX_T_MAX + 1, 10**10):
            with pytest.raises(DomainError, match="t_max"):
                solve_chi(1.0, SeedSequence.linear(), t_max)
        with pytest.raises(AssertionError, match="ran"):  # the bound itself is allowed
            solve_chi(1.0, SeedSequence.linear(), recursion.MAX_T_MAX)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            solve_chi(0.0, SeedSequence.linear(), 10)
        with pytest.raises(DomainError):
            solve_chi(1.0, SeedSequence.linear(), 0)
        with pytest.raises(DomainError):
            SeedSequence.explicit([])

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", "0", "-1"])
    def test_explicit_seed_needs_positive_finite_values(self, value):
        with pytest.raises(DomainError):
            SeedSequence.explicit([5.0, value])


class TestWindow:
    def test_lag_to_dominant_index_settles(self):
        series = solve_chi(1.0, SeedSequence.linear(), 300)
        lags = {int(t - series.I[t]) for t in range(200, 301)}
        assert lags == {2, 3}


class TestCompensatedValues:
    def test_hand_values(self):
        series = solve_chi(1.0, SeedSequence.linear(), 50)
        assert c_of_t(series, 3) == pytest.approx(0.0, abs=1e-13)
        assert c_of_t(series, 6) == pytest.approx(0.0, abs=1e-13)
        assert c_of_t(series, 4) == pytest.approx(math.log(4.0 * 3.0 ** (-4.0 / 3.0)), abs=1e-12)

    def test_nu_hat_hand_values(self):
        series = solve_chi(1.0, SeedSequence.linear(), 50)
        assert nu_hat(series)[3 - 1] == pytest.approx(math.log(3.0) / 3.0, abs=1e-14)
        assert nu_hat(series)[6 - 1] == pytest.approx(math.log(3.0) / 3.0, abs=1e-14)

    def test_nu_hat_converges(self):
        for alpha in (0.3, 1.0, 2.0, 5.0):
            series = solve_chi(alpha, SeedSequence.linear(), 320)
            assert abs(nu_hat(series)[300 - 1] - nu_of(alpha)) <= 1e-9

    def test_residues_monotone_and_step_inequality(self):
        for alpha, seed in ((0.3, SeedSequence.linear()), (1.0, SeedSequence.half()),
                            (2.0, SeedSequence.linear()), (5.0, SeedSequence.half())):
            series = solve_chi(alpha, seed, 400)
            T = series.T
            lc = series.log_c
            assert np.all(lc[1 + T :] >= lc[1 : -T] - 1e-12)
            step = math.log(T / alpha)
            assert np.all(series.L[1 + T :] >= series.L[1 : -T] + step - 1e-12)

    def test_check_bounds_finite_and_transient_aware(self):
        series = solve_chi(1.0, SeedSequence.linear(), 300)
        lo, hi = check_bounds(series)
        assert math.isfinite(lo) and math.isfinite(hi)
        # global minimum sits at the t = 1 transient
        assert lo == pytest.approx(-nu_of(1.0), abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)
        # from t = 2 on, the compensated values stay inside the cycle band
        lc = series.log_c[2:]
        assert math.log(0.92) <= lc.min() and lc.max() <= math.log(1.01)


class TestDetectPeriod:
    def test_alpha_one_cycle(self):
        series = solve_chi(1.0, SeedSequence.linear(), 320)
        t1, cycle = detect_period(series)
        assert t1 <= 4
        want = sorted([4.0 * 3.0 ** (-4.0 / 3.0), 2.0 * 3.0 ** (-2.0 / 3.0), 1.0])
        assert np.allclose(sorted(np.exp(cycle)), want, rtol=1e-12)

    def test_critical_alpha_forces_constant_cycle(self):
        series = solve_chi(alpha_critical(3), SeedSequence.linear(), 320)
        _, cycle = detect_period(series)
        assert np.ptp(cycle) <= 1e-12

    def test_period_one_is_trivially_periodic(self):
        series = solve_chi(0.4, SeedSequence.linear(), 100)
        t1, cycle = detect_period(series)
        assert series.T == 1 and len(cycle) == 1 and t1 <= 10

    def test_too_short_horizon_raises(self):
        series = solve_chi(1.0, SeedSequence.linear(), 6)
        with pytest.raises(NoPeriodDetected):
            detect_period(series)

    def test_impossible_tolerance_raises(self):
        series = solve_chi(1.0, SeedSequence.linear(), 320)
        with pytest.raises(NoPeriodDetected):
            detect_period(series, tol=0.0)

    def test_failure_names_a_horizon_only_below_t_t_plus_1(self):
        # alpha 20 has T = 54 and locks in at t1 = 2532 (acceptance criterion 14)
        with pytest.raises(NoPeriodDetected, match=r"at least T\(T\+1\) = 2970,"):
            detect_period(solve_chi(20.0, SeedSequence.linear(), 1000))
        with pytest.raises(NoPeriodDetected) as info:
            detect_period(solve_chi(1.0, SeedSequence.linear(), 320), tol=0.0)
        assert "try a horizon" not in str(info.value)


class TestExtractPhi:
    def test_alpha_one_multipliers(self):
        series = solve_chi(1.0, SeedSequence.linear(), 320)
        _, cycle = detect_period(series)
        phi = extract_phi(cycle, series.nu, series.alpha)
        assert np.allclose(sorted(phi), [4.0 / 3.0, 1.5, 1.5], rtol=1e-9)
        assert np.prod(phi) == pytest.approx(3.0, rel=1e-9)

    def test_homogeneous_cycle_gives_constant_multiplier(self):
        n = nu_of(2.0)
        cycle = np.full(period_T(2.0), 0.123)
        phi = extract_phi(cycle, n, 2.0)
        assert np.allclose(phi, math.exp(n), rtol=1e-12)

    def test_critical_alpha_multipliers(self):
        a = alpha_critical(3)
        series = solve_chi(a, SeedSequence.half(), 320)
        _, cycle = detect_period(series)
        phi = extract_phi(cycle, series.nu, a)
        assert np.allclose(phi, 4.0 / 3.0, rtol=1e-9)

    def test_constraint_violation_raises(self):
        with pytest.raises(ConstraintViolation):
            extract_phi(np.array([0.0, 1.0, 0.0]), nu_of(1.0), 1.0)


class TestCtexSeeds:
    def test_hand_values_alpha_one(self):
        seed = build_ctex_seed(1.0, [4.0 / 3.0, 1.5, 1.5])
        assert math.exp(seed.log_a_array(1)[1]) == pytest.approx(3.0, rel=1e-12)
        assert math.exp(seed.log_a_array(2)[2]) == pytest.approx(4.0, rel=1e-12)

    def test_period_one_collapses_to_linear_over_alpha(self):
        seed = build_ctex_seed(0.4, [2.5])
        for t in (1, 2, 7):
            assert math.exp(seed.log_a_array(t)[t]) == pytest.approx(t / 0.4, rel=1e-12)

    def test_homogeneous_multipliers_reproduce_direct_formula(self):
        a = alpha_critical(2)
        n = nu_of(a)
        seed = build_ctex_seed(a, [math.exp(n)] * 2)
        for t in (1, 2, 5, 9):
            direct = max((2 - i + t - 1) / a * math.exp(n) ** i for i in range(2))
            assert math.exp(seed.log_a_array(t)[t]) == pytest.approx(direct, rel=1e-12)

    def test_precondition_failures(self):
        with pytest.raises(ConstraintViolation):
            build_ctex_seed(1.0, [1.5, 1.5])  # wrong length
        with pytest.raises(ConstraintViolation):
            build_ctex_seed(1.0, [1.2, 1.5, 5.0 / 3.0])  # leaves the box
        with pytest.raises(ConstraintViolation):
            build_ctex_seed(1.0, [1.4, 1.5, 1.5])  # wrong product
        with pytest.raises(ConstraintViolation):
            build_ctex_seed(1.0, [math.nan, 1.5, 1.5])  # fails every comparison

    def test_array_and_scalar_seed_values_agree(self):
        # against the defining formula in linear domain:
        # a_t = max over 0 <= i < T of (T - i + t - 1)/alpha * psi_i
        alpha, phi = 1.0, [4.0 / 3.0, 1.5, 1.5]
        seed = build_ctex_seed(alpha, phi)
        arr = seed.log_a_array(30)
        for t in range(1, 31):
            direct = max((3 - i + t - 1) / alpha * math.prod(phi[:i]) for i in range(3))
            assert math.exp(arr[t]) == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 1.0 / 3.0, 20.0, 100.0])
    def test_ctex_seed_values_match_the_dense_grid(self, alpha):
        # the running max over cycle positions against the t_max x T grid it
        # replaced, bit for bit (max picks an element, so the order is free)
        T = period_T(alpha)
        seed = build_ctex_seed(alpha, [(T / alpha) ** (1.0 / T)] * T)
        t_max = 500
        t = np.arange(1, t_max + 1, dtype=float)
        i = np.arange(T, dtype=float)
        log_psi = np.concatenate(([0.0], np.cumsum(np.log(seed.phi[:-1]))))
        grid = np.log(T - i[None, :] + t[:, None] - 1.0) - math.log(alpha)
        want = np.max(grid + log_psi[None, :], axis=1)
        got = seed.log_a_array(t_max)
        assert math.isnan(got[0])
        assert got[1:].tobytes() == want.tobytes()


class TestVerifyIndu:
    def test_alpha_one_identity(self):
        assert verify_indu(1.0, [4.0 / 3.0, 1.5, 1.5], 200)

    def test_homogeneous_at_critical(self):
        for T in (2, 3, 4):
            a = alpha_critical(T)
            assert verify_indu(a, [math.exp(nu_of(a))] * T, 200)

    def test_random_admissible_multipliers(self):
        rng = np.random.default_rng(13)
        for T in (2, 3, 4):
            lo = (T - 1) ** T / T ** (T - 1)
            alpha = math.sqrt(lo * alpha_critical(T))
            for _ in range(20):
                phi = _draw_admissible_phi(rng, T, alpha)
                check = verify_indu(alpha, phi, 150)
                assert check, f"failed at t={check.first_failing_t}"

    def test_failure_reports_first_bad_generation(self, monkeypatch):
        phi = [4.0 / 3.0, 1.5, 1.5]
        check = verify_indu(1.0, phi, 100)
        assert check and check.first_failing_t is None
        solve = recursion.solve_chi

        def perturbed(*args):
            series = solve(*args)
            L = series.L.copy()
            L[37] *= 1.0 + 1e-9  # beyond the 1e-11 relative tolerance
            L[60] *= 1.0 + 1e-9  # a later failure must not be the one reported
            return dataclasses.replace(series, L=L)

        monkeypatch.setattr(recursion, "solve_chi", perturbed)
        check = verify_indu(1.0, phi, 100)
        assert not check
        assert check.first_failing_t == 37

    def test_ctex_series_is_periodic_from_the_start(self):
        seed = build_ctex_seed(1.0, [4.0 / 3.0, 1.5, 1.5])
        series = solve_chi(1.0, seed, 200)
        t1, _ = detect_period(series)
        assert t1 == 1
        lo, hi = check_bounds(series)
        lc = series.log_c[1:]
        assert lo == pytest.approx(lc[: series.T].min(), abs=1e-9)
        assert hi == pytest.approx(lc[: series.T].max(), abs=1e-9)
