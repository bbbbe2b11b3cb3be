"""Frequency-observable tests against hand recursion values and curves."""
import math

import numpy as np
import pytest

from branchlab.analysis import (
    FreqSnapshot,
    collapse_distance,
    freq_from_chi,
    freq_from_run,
    homogeneous_curve,
    loglog_slope,
)
from branchlab.errors import DomainError, InsufficientOverlap
from branchlab.growth import growth_law
from branchlab.recursion import SeedSequence, build_ctex_seed, solve_chi
from branchlab.simulate import SimConfig, run
from branchlab.tails import TailModel

PARETO1 = TailModel("pareto", 1.0)


@pytest.fixture(scope="module")
def series_alpha_one():
    return solve_chi(1.0, SeedSequence.linear(), 320)


class TestFreqFromChi:
    def test_hand_values_at_t_nine(self, series_alpha_one):
        snap = freq_from_chi(series_alpha_one, 9)
        # class born at i=6: J = 9/27, R = 3*(1/3) - 1 = 0
        assert snap.J[5] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert snap.R[5] == pytest.approx(0.0, abs=1e-12)
        # P(9) = (36 - 27)/27
        assert snap.P == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_youngest_class_has_negative_r(self, series_alpha_one):
        snap = freq_from_chi(series_alpha_one, 9)
        # i = t-1 contributes chi_{t-1}/alpha < chi_t
        assert snap.R[-1] < 0.0

    def test_point_cloud_invariants(self, series_alpha_one):
        for t in (9, 50, 200, 319):
            snap = freq_from_chi(series_alpha_one, t)
            assert np.all(np.diff(snap.J) > 0)
            assert np.all(snap.R >= -1.0 - 1e-12)
            assert np.all(snap.R <= 1e-12)

    def test_max_r_is_zero_at_dominant_index(self):
        for alpha in (0.7, 1.0, 2.0):
            series = solve_chi(alpha, SeedSequence.linear(), 200)
            for t in (60, 123, 199):
                if series.I[t] >= 1:
                    snap = freq_from_chi(series, t)
                    assert snap.R.max() == pytest.approx(0.0, abs=1e-12)
                    # the recorded dominant index attains the maximum
                    # (other indices may tie it exactly)
                    assert snap.R[series.I[t] - 1] == pytest.approx(0.0, abs=1e-12)

    def test_window_bounds(self, series_alpha_one):
        with pytest.raises(DomainError):
            freq_from_chi(series_alpha_one, 320)  # needs t+1


class TestFreqFromRun:
    def test_self_ratio_is_one(self):
        rec = run(SimConfig(model="fmm", tail=PARETO1, beta=0.1, log_f=50.0,
                            t_max=12, seed=5))
        snap = freq_from_run(rec, 10)
        assert snap.J[-1] == pytest.approx(1.0, rel=1e-12)
        # simulated decomposition: the dominant class carries almost all
        # of X, so the largest R sits near 0 without being an identity
        assert abs(snap.R.max()) <= 0.01

    def test_matches_recursion_pointwise_by_birth_index(self):
        # large founder: simulated R per birth generation tracks the
        # deterministic recursion within a few percent
        t = 20
        rec = run(SimConfig(model="fmm", tail=PARETO1, beta=0.1, log_f=50.0,
                            t_max=t + 1, seed=3))
        series = solve_chi(1.0, SeedSequence.linear(), t + 2)
        log_w = rec.log_W[1 : t + 1]
        worst = 0.0
        for i in range(1, t):
            if not np.isfinite(log_w[i - 1]):
                continue
            r_sim = ((t - i) * log_w[i - 1] - rec.log_X[t]) / rec.log_X[t]
            j_chi = math.exp(series.L[i] - series.L[t])
            r_chi = (t - i) * j_chi - 1.0
            worst = max(worst, abs(r_sim - r_chi))
        assert worst <= 0.05


class TestHomogeneousCurve:
    def test_hand_values(self):
        assert homogeneous_curve(1.0) == pytest.approx(-1.0, abs=1e-15)
        assert homogeneous_curve(1.0 / math.e) == pytest.approx(0.0, abs=1e-15)
        assert homogeneous_curve(math.exp(-2.0)) == pytest.approx(2.0 / math.e - 1.0, rel=1e-14)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            homogeneous_curve(0.0)
        with pytest.raises(DomainError):
            homogeneous_curve(1.5)

    def test_homogeneous_series_p_identity(self):
        # constructive homogeneous seed: P = alpha (e^nu - 1) exactly
        for alpha in (2.0, 50.0):
            law = growth_law(alpha)
            seed = build_ctex_seed(alpha, [math.exp(law.nu)] * law.T)
            series = solve_chi(alpha, seed, 40)
            snap = freq_from_chi(series, 30)
            assert snap.P == pytest.approx(alpha * math.expm1(law.nu), rel=1e-11)
        # the mean log fitness approaches 1/e for large alpha
        assert abs(snap.P - 1.0 / math.e) <= 0.01

    def test_large_alpha_snapshots_approach_curve(self):
        series = solve_chi(5.0, SeedSequence.linear(), 502)
        for t in (500, 501):
            snap = freq_from_chi(series, t)
            dist = float(np.max(np.abs(snap.R - homogeneous_curve(snap.J))))
            assert dist <= 0.02

    def test_moderate_alpha_still_moves_between_generations(self):
        series = solve_chi(3.0, SeedSequence.linear(), 502)
        a = freq_from_chi(series, 500)
        b = freq_from_chi(series, 501)
        assert collapse_distance(a, b) > 0.02


class TestCollapseDistance:
    def test_self_distance_is_zero(self, series_alpha_one):
        snap = freq_from_chi(series_alpha_one, 300)
        assert collapse_distance(snap, snap) == 0.0

    def test_same_phase_collapses(self, series_alpha_one):
        a = freq_from_chi(series_alpha_one, 300)
        b = freq_from_chi(series_alpha_one, 303)
        assert collapse_distance(a, b) <= 1e-6

    def test_different_phase_separates(self, series_alpha_one):
        a = freq_from_chi(series_alpha_one, 300)
        b = freq_from_chi(series_alpha_one, 301)
        assert collapse_distance(a, b) > 0.01

    def test_insufficient_overlap_raises(self):
        a = FreqSnapshot(t=1, J=np.array([0.1, 0.2, 0.3]),
                         R=np.array([-0.5, -0.4, -0.3]), P=0.0)
        b = FreqSnapshot(t=2, J=np.array([0.8, 0.9]),
                         R=np.array([-0.2, -0.1]), P=0.0)
        with pytest.raises(InsufficientOverlap):
            collapse_distance(a, b)


class TestLoglogSlope:
    def test_synthetic_double_exponential(self):
        nu = 0.25
        log_x = np.exp(nu * np.arange(60))
        assert loglog_slope(log_x, 20, 59) == pytest.approx(nu, rel=1e-12)

    def test_recursion_slope(self, series_alpha_one):
        slope = loglog_slope(series_alpha_one, 250, 300)
        assert abs(slope - math.log(3.0) / 3.0) <= 1e-3

    def test_run_slope_near_growth_exponent(self):
        rec = run(SimConfig(model="mmm", tail=PARETO1, beta=0.1, log_f=50.0,
                            t_max=40, seed=9))
        slope = loglog_slope(rec, 25, 40)
        assert abs(slope / (math.log(3.0) / 3.0) - 1.0) <= 0.15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            loglog_slope(np.ones(30), 5, 20)  # log X = 1 everywhere
        with pytest.raises(DomainError):
            loglog_slope(np.exp(0.3 * np.arange(10)), 8, 8)
