"""Tail-model unit and property tests.

Derived expectations come from independent oracles: direct evaluation of the
closed-form tails, brute-force quantiles of the max law, and Monte Carlo
comparisons against exact CDFs.
"""
import math
import warnings

import numpy as np
import pytest

from branchlab.errors import DomainError
from branchlab.tails import (
    TailModel,
    inverse_log_tail,
    log_tail,
    parse_tail_model,
    sample_fitness,
    sample_max_of_n,
    tail,
)

PARETO1 = TailModel("pareto", 1.0)
PARETO2 = TailModel("pareto", 2.0)
PLOG11 = TailModel("paretolog", 1.0, 1.0)
PLOG1M1 = TailModel("paretolog", 1.0, -1.0)


class _FixedUniform:
    """Stub generator feeding predetermined uniforms."""

    def __init__(self, *values):
        self._values = list(values)

    def random(self, size=None):
        v = self._values.pop(0)
        return v if size is None else np.full(size, v)


class TestTail:
    def test_pareto_hand_values(self):
        assert tail(PARETO1, 2.0) == pytest.approx(0.5, abs=0)
        assert tail(PARETO2, 1.0) == 1.0
        assert tail(PARETO2, 0.5) == 1.0  # below support

    def test_paretolog_direct_evaluation(self):
        # x = e: e**-1 * (1 + 1)**1
        expected = math.exp(-1.0) * 2.0
        assert tail(PLOG11, math.e) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.7358, abs=5e-5)

    def test_monotone_and_bounded_on_log_grid(self):
        grid = np.exp(np.linspace(0.0, 690.0, 10_000))
        for model in (PARETO1, PARETO2, PLOG11, PLOG1M1,
                      TailModel("paretolog", 2.0, 2.0)):
            g = tail(model, grid)
            assert np.all(g >= 0.0) and np.all(g <= 1.0)
            assert np.all(np.diff(g) <= 1e-18)

    def test_rejects_negative_fitness(self):
        with pytest.raises(DomainError):
            tail(PARETO1, -1.0)


class TestLogTail:
    def test_exact_pareto_log_domain(self):
        # exp(700) overflows; the log form is exact
        assert log_tail(PARETO1, 700.0) == -700.0
        assert log_tail(PARETO2, 0.0) == 0.0

    def test_paretolog_direct(self):
        assert log_tail(PLOG1M1, 1.0) == pytest.approx(-1.0 - math.log(2.0), rel=1e-15)

    def test_below_support_is_zero(self):
        assert log_tail(PARETO2, -5.0) == 0.0

    @pytest.mark.parametrize("model", [
        PARETO1, PLOG11, PLOG1M1, TailModel("paretolog", 1.0, 0.5),
        TailModel("paretolog", 1.0, -0.5), TailModel("paretolog", 2.0, 0.0),
    ])
    def test_tail_is_zero_at_infinity(self, model):
        # inf - inf must not leak out as NaN, for a scalar or an array entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_tail(model, math.inf) == -math.inf
            assert tail(model, math.inf) == 0.0
            out = log_tail(model, np.array([math.inf, 0.0, 1.0, math.inf]))
            assert np.array_equal(tail(model, np.array([math.inf, 1.0])), [0.0, 1.0])
        assert out[0] == out[3] == -math.inf and out[1] == 0.0
        assert out[2] == log_tail(model, 1.0)


class TestInverseLogTail:
    def test_pareto_closed_form(self):
        assert inverse_log_tail(PARETO2, -10.0) == 5.0
        assert inverse_log_tail(PARETO1, 0.0) == 0.0

    def test_paretolog_inverts_known_point(self):
        # log G at log x = 1 is log 2 - 1, so the inverse must return 1
        assert inverse_log_tail(PLOG11, math.log(2.0) - 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_over_probability_range(self):
        g = np.linspace(-700.0, 0.0, 2_000)
        for model in (PARETO1, PLOG11, PLOG1M1, TailModel("paretolog", 0.7, 0.3)):
            back = log_tail(model, inverse_log_tail(model, g))
            assert np.max(np.abs(back - g)) <= 1e-10

    def test_round_trip_from_fitness_side(self):
        # x in [1, 1e300] handled in log domain
        log_x = np.linspace(0.0, math.log(1e300), 2_000)
        for model in (PARETO2, PLOG11):
            back = inverse_log_tail(model, log_tail(model, log_x))
            assert np.max(np.abs(back - log_x) / np.maximum(1.0, log_x)) <= 1e-12

    def test_rejects_positive_log_probability(self):
        with pytest.raises(DomainError):
            inverse_log_tail(PARETO1, 0.5)


class TestSampleFitness:
    def test_inversion_formula_u_quarter(self):
        # F = U**(-1/alpha): U = 0.25, alpha = 1 gives log 4
        got = sample_fitness(PARETO1, _FixedUniform(0.25))
        assert got == pytest.approx(math.log(4.0), rel=1e-15)

    def test_boundary_u_near_one(self):
        got = sample_fitness(PARETO2, _FixedUniform(1.0 - 1e-12))
        assert 0.0 <= got <= 1e-11

    def test_empirical_tail_matches_closed_form(self):
        rng = np.random.default_rng(20240817)
        n = 10**5
        draws = sample_fitness(PARETO2, rng, size=n)
        p_hat = float(np.mean(draws > math.log(4.0)))
        p = 1.0 / 16.0
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 3 * sigma

    @pytest.mark.parametrize("model", [PARETO1, PARETO2, PLOG11, PLOG1M1])
    def test_ks_against_closed_form_cdf(self, model):
        rng = np.random.default_rng(7)
        n = 10**5
        draws = np.sort(np.asarray(sample_fitness(model, rng, size=n)))
        cdf = 1.0 - np.exp(log_tail(model, draws))
        hi = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        ks = max(float(np.max(np.abs(hi - cdf))), float(np.max(np.abs(lo - cdf))))
        assert ks <= 0.01


class TestSampleMaxOfN:
    def test_n_one_reduces_to_single_draw(self):
        # max-of-1 with V equals a single draw with U = 1 - V
        for v in (0.1, 0.25, 0.9):
            got = sample_max_of_n(PARETO1, 1, _FixedUniform(v))
            want = inverse_log_tail(PARETO1, math.log(1.0 - v))
            assert got == pytest.approx(want, rel=1e-12)

    def test_direct_inversion_n_two(self):
        # 1 - V**(1/2) = 0.5 at V = 0.25, so G = 0.5 and log W = log 2
        got = sample_max_of_n(PARETO1, 2, _FixedUniform(0.25))
        assert got == pytest.approx(math.log(2.0), rel=1e-14)

    def test_median_of_huge_max(self):
        # brute-force median: solve (1 - 1/x)**n = 1/2
        n = 10**6
        x_med = 1.0 / (-math.expm1(math.log(0.5) / n))
        assert x_med == pytest.approx(n / math.log(2.0), rel=1e-5)
        rng = np.random.default_rng(99)
        draws = [sample_max_of_n(PARETO1, n, rng) for _ in range(10**4)]
        emp_med = math.exp(float(np.median(draws)))
        assert abs(emp_med / x_med - 1.0) <= 0.05

    def test_stochastic_dominance_on_shared_uniforms(self):
        v = np.linspace(1e-6, 1 - 1e-6, 1_000)
        for model in (PARETO1, PLOG11):
            small = [sample_max_of_n(model, 3, _FixedUniform(x)) for x in v]
            large = [sample_max_of_n(model, 10, _FixedUniform(x)) for x in v]
            assert all(b >= a for a, b in zip(small, large))


class TestModelValidation:
    def test_parse_grammar(self):
        m = parse_tail_model("pareto:alpha=1.0")
        assert (m.family, m.alpha, m.gamma) == ("pareto", 1.0, 0.0)
        m = parse_tail_model("paretolog:alpha=1.0,gamma=0.5")
        assert (m.family, m.alpha, m.gamma) == ("paretolog", 1.0, 0.5)

    @pytest.mark.parametrize("text", [
        "cauchy:alpha=1", "pareto", "pareto:beta=1", "pareto:alpha=x",
        "paretolog:gamma=0.5", "pareto:alpha=1,gamma=1", "pareto:alpha=1,alpha=2",
    ])
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(DomainError):
            parse_tail_model(text)

    def test_constructor_invariants(self):
        with pytest.raises(DomainError):
            TailModel("pareto", 0.0)
        with pytest.raises(DomainError):
            TailModel("paretolog", 1.0, 1.5)  # |gamma| > alpha
        assert TailModel("paretolog", 1.0, 1.0).gamma == 1.0  # |gamma| = alpha is allowed

    # NaN passes comparisons written the other way round: abs(nan) > alpha and
    # not inf > 0 are both False
    @pytest.mark.parametrize("family, alpha, gamma, named", [
        ("paretolog", 1.0, math.nan, "gamma"),
        ("paretolog", math.nan, 0.5, "alpha"),
        ("paretolog", math.inf, 0.5, "alpha"),
        ("paretolog", 1.0, math.inf, "gamma"),
        ("pareto", math.inf, 0.0, "alpha"),
        ("pareto", math.nan, 0.0, "alpha"),
        ("pareto", 1.0, math.nan, "gamma"),
    ])
    def test_constructor_rejects_nan_and_infinite_parameters(self, family, alpha, gamma, named):
        with pytest.raises(DomainError, match=named):
            TailModel(family, alpha, gamma)

    @pytest.mark.parametrize("text", [
        "paretolog:alpha=1,gamma=nan", "pareto:alpha=inf", "pareto:alpha=nan",
        "paretolog:alpha=inf,gamma=0",
    ])
    def test_parse_rejects_nan_and_infinite_parameters(self, text):
        with pytest.raises(DomainError):
            parse_tail_model(text)
