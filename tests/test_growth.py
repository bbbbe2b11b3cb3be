"""Growth-law tests against the brute-force enumeration oracle."""
import math

import numpy as np
import pytest

from branchlab.errors import DomainError
from branchlab.growth import (
    ALPHA_MAX,
    alpha_critical,
    growth_law,
    nu,
    nu_bruteforce,
    nu_continuous_approx,
    period_T,
    sweep,
)

GRID = np.geomspace(0.05, 50.0, 200)


def _oracle_nu(alpha: float, m_max: int = 200) -> float:
    """Independent enumeration of max over m of (1/m) log(m/alpha)."""
    return max((math.log(m) - math.log(alpha)) / m for m in range(1, m_max + 1))


class TestPeriodT:
    def test_known_horizons(self):
        assert period_T(1.0) == 3
        assert period_T(0.5) == 1

    def test_boundary_is_inclusive(self):
        # alpha_2 = 8/9 belongs to T = 2, not 3
        assert period_T(8.0 / 9.0) == 2
        assert period_T(8.0 / 9.0 + 1e-9) == 3
        assert period_T(alpha_critical(3)) == 3

    def test_nondecreasing_in_alpha(self):
        ts = [period_T(a) for a in GRID]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_bounded_above(self):
        assert period_T(ALPHA_MAX) == 2718281828
        for alpha in (float(np.nextafter(ALPHA_MAX, math.inf)), 1e20, 1e308):
            with pytest.raises(DomainError, match="at most"):
                period_T(alpha)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            period_T(0.0)
        with pytest.raises(DomainError):
            nu(-1.0)


class TestNu:
    def test_hand_values(self):
        assert nu(1.0) == pytest.approx(math.log(3.0) / 3.0, rel=1e-15)
        assert nu(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-15)
        assert nu(81.0 / 64.0) == pytest.approx(math.log(4.0 / 3.0), rel=1e-14)

    def test_matches_enumeration_oracle_on_grid(self):
        for a in GRID:
            assert nu(float(a)) == pytest.approx(_oracle_nu(float(a)), abs=1e-14)

    def test_strictly_decreasing_on_grid(self):
        vals = [nu(float(a)) for a in GRID]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_exponential_form_identity(self):
        # m <= alpha * exp(nu m) for all m, equality at m = T
        for a in (0.3, 1.0, 81.0 / 64.0, 7.0, 42.0):
            n, t = nu(a), period_T(a)
            m = np.arange(1, 201, dtype=float)
            assert np.all(m <= a * np.exp(n * m) * (1 + 1e-12))
            assert abs(t - a * math.exp(n * t)) <= 1e-12 * t

    def test_exp_nu_bracket(self):
        for a in (0.3, 1.0, 2.0, 5.0):
            law = growth_law(a)
            lo = (law.T + 1) / law.T
            hi = law.T / (law.T - 1) if law.T > 1 else math.inf
            assert lo - 1e-12 <= math.exp(law.nu) < hi


class TestNuBruteforce:
    def test_unique_maximizer(self):
        best, winners = nu_bruteforce(1.0, 200)
        assert best == pytest.approx(math.log(3.0) / 3.0, rel=1e-15)
        assert winners == {3}

    def test_tie_at_critical_alpha(self):
        best, winners = nu_bruteforce(81.0 / 64.0, 200)
        assert best == pytest.approx(math.log(4.0 / 3.0), rel=1e-14)
        assert winners == {3, 4}

    def test_truncated_search_is_callers_problem(self):
        best, winners = nu_bruteforce(100.0, 1)
        assert best == pytest.approx(math.log(1.0 / 100.0), rel=1e-15)
        assert winners == {1}


class TestAlphaCritical:
    def test_small_horizons(self):
        assert alpha_critical(1) == pytest.approx(0.5, rel=1e-15)
        assert alpha_critical(2) == pytest.approx(8.0 / 9.0, rel=1e-14)
        assert alpha_critical(3) == pytest.approx(81.0 / 64.0, rel=1e-14)

    def test_no_overflow_for_large_horizon(self):
        # T**(T+1) overflows floats near T = 130; the log route must not
        value = alpha_critical(200)
        assert math.isfinite(value)
        assert value == pytest.approx(200.0 * (200.0 / 201.0) ** 200, rel=1e-12)

    def test_criticality_flag(self):
        assert growth_law(alpha_critical(2)).is_critical
        assert growth_law(8.0 / 9.0).is_critical
        assert not growth_law(1.0).is_critical


class TestContinuousApprox:
    def test_hand_values(self):
        assert nu_continuous_approx(1.0) == pytest.approx(1.0 / math.e, rel=1e-15)
        assert nu_continuous_approx(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
        assert nu_continuous_approx(0.2) == pytest.approx(math.log(5.0), rel=1e-15)

    def test_exact_in_single_horizon_regime(self):
        # for alpha*e < 1 both branches reduce to -log(alpha) bit for bit
        assert nu_continuous_approx(0.2) == nu(0.2)

    def test_relative_error_below_seven_percent(self):
        errs = [abs(nu_continuous_approx(float(a)) / nu(float(a)) - 1.0) for a in GRID]
        assert max(errs) < 0.07
        for a, err in zip(GRID, errs):
            if a <= 1.0 / math.e:
                assert err == 0.0


class TestSweep:
    def test_shape_and_columns(self):
        rows = sweep(0.05, 10.0, 20, log_grid=True)
        assert len(rows) == 20
        a, t, n, approx, rel = rows[0]
        assert a == pytest.approx(0.05)
        assert t == period_T(0.05) and n == nu(0.05)
        assert rel == abs(approx / n - 1.0)

    def test_single_point(self):
        rows = sweep(1.0, 1.0, 1)
        assert len(rows) == 1 and rows[0][1] == 3
