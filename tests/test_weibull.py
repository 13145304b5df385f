"""Weibull law tests: frozen hand-computed values, identities, fitting."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.stats import weibull_min

from securakit.errors import ConvergenceError, DomainError, SingularityError, StructureError
from securakit.rng import CounterRng
from securakit.weibull import (
    FailureSample,
    WeibullModel,
    cdf,
    fit,
    hazard,
    mean_life,
    pdf,
    reliability,
    sample_lifetimes,
)

def censored_mle_oracle(times, censored) -> WeibullModel:
    """The maximizer of the ``scipy.stats.weibull_min`` likelihood of a right-censored sample."""
    t, c = np.asarray(times), np.asarray(censored)

    def nll(p):
        alpha, beta = np.exp(p)
        return -(weibull_min.logpdf(t[~c], beta, scale=alpha).sum()
                 + weibull_min.logsf(t[c], beta, scale=alpha).sum())

    opt = minimize(nll, [math.log(t.mean()), 0.0], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20_000})
    assert opt.success
    return WeibullModel(alpha=float(np.exp(opt.x[0])), beta=float(np.exp(opt.x[1])))


models = st.builds(
    WeibullModel,
    alpha=st.floats(min_value=0.05, max_value=500.0),
    beta=st.floats(min_value=0.2, max_value=8.0),
)


class TestEvaluation:
    def test_pdf_zero_at_origin_for_rising_hazard(self):
        assert pdf(0.0, WeibullModel(2, 2)) == 0.0

    def test_pdf_exponential_identity(self):
        # beta = 1 collapses to (1/alpha) exp(-t/alpha)
        assert pdf(3.0, WeibullModel(2, 1)) == pytest.approx(0.5 * math.exp(-1.5), rel=1e-12)
        assert pdf(3.0, WeibullModel(2, 1)) == pytest.approx(0.1115651, abs=5e-8)

    def test_pdf_hand_value(self):
        assert pdf(2.0, WeibullModel(2, 2)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_pdf_matches_cdf_derivative(self):
        # independent oracle: central finite difference of the cdf
        for alpha, beta, t in [(2, 2, 2.0), (2, 1, 3.0), (5, 3.5, 4.0), (1, 0.7, 0.8)]:
            m = WeibullModel(alpha, beta)
            h = 1e-6 * t
            numeric = (cdf(t + h, m) - cdf(t - h, m)) / (2 * h)
            assert pdf(t, m) == pytest.approx(numeric, rel=1e-6)

    def test_pdf_origin_singularity(self):
        with pytest.raises(SingularityError):
            pdf(0.0, WeibullModel(2, 0.5))

    def test_pdf_origin_exponential(self):
        assert pdf(0.0, WeibullModel(4, 1)) == 0.25

    def test_cdf_at_origin(self):
        for beta in (0.5, 1, 2, 3.5):
            assert cdf(0.0, WeibullModel(2, beta)) == 0.0

    def test_cdf_at_scale_point_for_every_shape(self):
        expected = 1.0 - math.exp(-1.0)
        for beta in (0.3, 0.5, 1.0, 2.0, 3.5, 7.0):
            assert cdf(2.0, WeibullModel(2.0, beta)) == pytest.approx(expected, abs=1e-12)

    def test_cdf_exponential_hand_value(self):
        assert cdf(4.0, WeibullModel(2, 1)) == pytest.approx(1 - math.exp(-2.0), rel=1e-12)
        assert cdf(4.0, WeibullModel(2, 1)) == pytest.approx(0.8646647, abs=5e-8)

    def test_hazard_constant_for_exponential(self):
        m = WeibullModel(4, 1)
        for t in (0.0, 0.5, 3.0, 100.0):
            assert hazard(t, m) == pytest.approx(0.25, rel=1e-12)

    def test_hazard_hand_value(self):
        assert hazard(2.0, WeibullModel(2, 3)) == pytest.approx(1.5, rel=1e-12)
        # cross-check against pdf/(1-cdf)
        m = WeibullModel(2, 3)
        assert hazard(2.0, m) == pytest.approx(pdf(2.0, m) / (1 - cdf(2.0, m)), rel=1e-12)

    def test_hazard_linear_for_beta_two(self):
        m = WeibullModel(2, 2)
        values = [hazard(t, m) for t in (1.0, 2.0, 4.0)]
        assert values == pytest.approx([0.5, 1.0, 2.0], rel=1e-12)

    def test_hazard_origin_singularity(self):
        with pytest.raises(SingularityError):
            hazard(0.0, WeibullModel(2, 0.5))

    def test_reliability_boundaries(self):
        assert reliability(0.0, WeibullModel(3, 2)) == 1.0
        for beta in (0.5, 1.0, 2.0, 3.5):
            assert reliability(2.0, WeibullModel(2, beta)) == pytest.approx(
                math.exp(-1.0), abs=1e-12
            )

    def test_reliability_hand_value(self):
        assert reliability(1.0, WeibullModel(2, 0.5)) == pytest.approx(
            math.exp(-math.sqrt(0.5)), rel=1e-12
        )
        assert reliability(1.0, WeibullModel(2, 0.5)) == pytest.approx(0.4930687, abs=5e-8)

    def test_negative_time_rejected(self):
        m = WeibullModel(2, 2)
        for fn in (pdf, cdf, hazard, reliability):
            with pytest.raises(DomainError):
                fn(-0.1, m)

    def test_array_evaluation(self):
        m = WeibullModel(2, 2)
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(cdf(t, m) + reliability(t, m), np.ones(3))
        assert pdf(t, m).shape == (3,)

    @pytest.mark.parametrize("fn", [pdf, cdf, hazard, reliability], ids=lambda fn: fn.__name__)
    def test_one_evaluator_rule(self, fn):
        """Every law: a float for scalar and 0-d input, an array for a list, and NaN rejected."""
        m = WeibullModel(2, 2)
        for t in (1.5, np.float64(1.5), np.array(1.5)):
            assert type(fn(t, m)) is float
        values = fn([0.0, 1.5], m)
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        assert values[1] == fn(1.5, m)
        for t in (math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError, match="^time must be >= 0$"):
                fn(t, m)

    @pytest.mark.parametrize("fn", [pdf, hazard], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("beta, at_zero", [(1.0, 0.5), (2.0, 0.0)])
    def test_origin_entries_of_an_array(self, fn, beta, at_zero):
        """The t = 0 rule holds inside an array: 1/alpha at beta = 1, zero at beta > 1."""
        m = WeibullModel(2, beta)
        values = fn(np.array([0.0, 1.0, 0.0]), m)
        assert values[0] == values[2] == at_zero
        assert values[1] == fn(1.0, m)

    @pytest.mark.parametrize("beta, hazard_at_inf", [(0.5, 0.0), (1.0, 0.5), (2.0, math.inf)])
    def test_limits_at_infinity(self, beta, hazard_at_inf):
        """At t = inf: reliability 0, cdf 1, pdf 0, and the hazard's t = 0 rule mirrored, with no warning."""
        m = WeibullModel(2, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, limit in ((reliability, 0.0), (cdf, 1.0), (pdf, 0.0), (hazard, hazard_at_inf)):
                assert fn(math.inf, m) == limit
                values = fn(np.array([1.0, math.inf, math.inf]), m)
                assert values[0] == fn(1.0, m) and values[1] == values[2] == limit

    @pytest.mark.parametrize("alpha, beta, t", [
        (1e10, 1.0, 1e-320),  # t/alpha underflows to zero
        (1e-300, 0.5, 1e10),  # t/alpha overflows
        (1e23, 0.5, 1e-300),  # t/alpha is subnormal and keeps few bits
    ])
    def test_quotient_outside_the_normal_doubles(self, alpha, beta, t):
        """Each law equals its closed form computed in logs, as log t - log alpha, with no warning."""
        m = WeibullModel(alpha, beta)
        logr = math.log(t) - math.log(alpha)
        power = math.exp(beta * logr)  # (t/alpha)**beta
        log_hazard = math.log(beta) - math.log(alpha) + (beta - 1.0) * logr
        expected = {reliability: math.exp(-power), cdf: 1.0 - math.exp(-power),
                    hazard: math.exp(log_hazard), pdf: math.exp(log_hazard - power)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, value in expected.items():
                assert fn(t, m) == pytest.approx(value, rel=1e-12, abs=0.0)
                assert fn(np.array([t, 1.0]), m)[0] == fn(t, m)

    @pytest.mark.parametrize("alpha, beta, t, expected", [
        (7.32023680974036e-254, 5.22669911573612e97, 5e-324, {hazard: 0.0, pdf: 0.0}),
        (1.0, 1e308, 100.0, {hazard: math.inf, pdf: 0.0}),
        (1e-300, 1e5, 1e-300 * math.exp(-0.01), None),
    ], ids=["scale_inf_exp_zero", "power_inf", "exp_zero_product_not"])
    def test_scale_or_power_outside_the_doubles(self, alpha, beta, t, expected):
        """The hazard and the density where beta/alpha, (t/alpha)**beta or exp(a) leave the doubles, with no warning."""
        m = WeibullModel(alpha, beta)
        if expected is None:  # (beta/alpha) * exp(a) with exp(a) = 0 but a positive product: the log form
            value = math.exp(math.log(beta) - math.log(alpha) + (beta - 1.0) * math.log(t / alpha))
            assert value > 0
            expected = {hazard: value, pdf: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, value in expected.items():
                assert fn(t, m) == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_invalid_model_rejected(self):
        for alpha, beta in [(0, 1), (-1, 1), (1, 0), (1, -2), (math.inf, 1), (1, math.nan)]:
            with pytest.raises(DomainError):
                WeibullModel(alpha, beta)


class TestMeanLife:
    def test_exponential_mean(self):
        assert mean_life(WeibullModel(5, 1)) == pytest.approx(5.0, rel=1e-12)

    def test_rayleigh_mean_is_root_pi(self):
        assert mean_life(WeibullModel(2, 2)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_heavy_tail_mean_is_gamma_three(self):
        assert mean_life(WeibullModel(1, 0.5)) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(1, 0.5), (2, 1), (3, 2), (0.5, 3.5)])
    def test_mean_equals_integrated_reliability(self, alpha, beta):
        # independent oracle: mean = integral of the survival function
        m = WeibullModel(alpha, beta)
        integral, _ = quad(lambda t: reliability(t, m), 0, np.inf, limit=200)
        assert mean_life(m) == pytest.approx(integral, rel=1e-8)


class TestIdentitiesAndProperties:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.5])
    def test_density_normalizes_over_support(self, beta):
        m = WeibullModel(2.0, beta)
        total, _ = quad(lambda t: pdf(t, m), 0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @given(models, st.floats(min_value=1e-3, max_value=50.0))
    def test_hazard_times_reliability_is_pdf(self, m, scaled_t):
        t = scaled_t * m.alpha
        assert hazard(t, m) * reliability(t, m) == pytest.approx(pdf(t, m), rel=1e-12)

    @given(models, st.floats(min_value=0.0, max_value=50.0))
    def test_complement_is_exact(self, m, scaled_t):
        t = scaled_t * m.alpha
        assert cdf(t, m) + reliability(t, m) == 1.0

    def test_exponential_reduction(self):
        rng = CounterRng(seed=77)
        alpha = 4.0
        m = WeibullModel(alpha, 1.0)
        for _ in range(100):
            t = 20.0 * rng.uniform()
            assert reliability(t, m) == pytest.approx(math.exp(-t / alpha), rel=1e-12)

    @given(models)
    @settings(max_examples=50)
    def test_monotonicity(self, m):
        grid = np.linspace(0.05, 5.0, 40) * m.alpha
        c = cdf(grid, m)
        r = reliability(grid, m)
        h = hazard(grid, m)
        assert np.all(np.diff(c) >= 0)
        assert np.all(np.diff(r) <= 0)
        if m.beta > 1:
            assert np.all(np.diff(h) > 0)
        elif m.beta < 1:
            assert np.all(np.diff(h) < 0)


    @given(models, st.sampled_from([pdf, cdf, hazard, reliability]),
           st.lists(st.one_of(st.floats(min_value=0.0), st.floats(min_value=0.01, max_value=100.0)), max_size=6))
    def test_array_form_is_the_scalar_form_to_the_bit(self, m, fn, times):
        """A law on an array equals the law on each entry, bit for bit, at 0 and inf too."""
        times = [0.0, math.inf, *times, 0.0]
        if m.beta < 1 and fn in (pdf, hazard):  # divergent at t = 0
            times = [t for t in times if t > 0]
        values = fn(np.array(times), m)
        assert isinstance(values, np.ndarray) and values.shape == (len(times),)
        assert [v.hex() for v in values.tolist()] == [fn(t, m).hex() for t in times]


class TestFit:
    def test_generate_and_recover_both_methods(self):
        true = WeibullModel(alpha=100.0, beta=2.0)
        times = sample_lifetimes(true, 5000, CounterRng(seed=1))
        data = FailureSample(tuple(times))
        for method in ("rank_regression", "mle"):
            est = fit(data, method=method)
            assert est.alpha == pytest.approx(true.alpha, rel=0.05)
            assert est.beta == pytest.approx(true.beta, rel=0.05)

    def test_degenerate_data_rejected(self):
        data = FailureSample((1.0,) * 8)
        for method in ("rank_regression", "mle"):
            with pytest.raises(StructureError):
                fit(data, method=method)

    @pytest.mark.parametrize("times, censored", [
        ((5.0, 10.0, 10.0, 10.0), (False, True, True, True)),  # one failure before the censored times
        ((1.0, 1.0, 2.0), (False, False, True)),  # tied failures before a censored time
        ((2.0, 5.0), (False, True)),
        ((3.0, 3.0, 7.0, 7.0), (False, False, True, False)),  # a tie at the largest time, one failure below
    ])
    def test_mle_accepts_ties_below_the_largest_time(self, times, censored):
        est = fit(FailureSample(times, censored), method="mle")
        oracle = censored_mle_oracle(times, censored)
        assert est.alpha == pytest.approx(oracle.alpha, rel=1e-6)
        assert est.beta == pytest.approx(oracle.beta, rel=1e-6)

    @pytest.mark.parametrize("times, censored", [
        ((3.0,), (False,)),
        ((2.0, 2.0, 1.0), (False, False, True)),  # every failure at the largest time
    ])
    def test_mle_rejects_failures_all_at_the_largest_time(self, times, censored):
        with pytest.raises(StructureError, match="all failure times are equal"):
            fit(FailureSample(times, censored), method="mle")

    def test_mle_scale_past_the_double_range_is_a_domain_error(self):
        # one failure far below nine censored times: beta is about 0.0015 and alpha about 9.4**660
        data = FailureSample((1e-300,) + (1.0,) * 9, (False,) + (True,) * 9)
        with pytest.raises(DomainError, match="^alpha must be finite and > 0, got inf$"):
            fit(data, method="mle")

    def test_rank_regression_exact_on_quantile_grid(self):
        # the ten exact quantiles of (alpha=1, beta=1) at the median-rank
        # plotting positions are collinear after linearization
        f = (np.arange(1, 11) - 0.3) / 10.4
        times = tuple(-np.log(1.0 - f))
        est = fit(FailureSample(times), method="rank_regression")
        assert est.beta == pytest.approx(1.0, abs=1e-6)
        assert est.alpha == pytest.approx(1.0, abs=1e-6)

    def test_rank_regression_warns_and_ignores_censored(self):
        times = (1.0, 2.0, 3.0, 4.0, 10.0)
        censored = (False, False, False, False, True)
        with pytest.warns(UserWarning):
            est = fit(FailureSample(times, censored), method="rank_regression")
        with pytest.warns(UserWarning):
            # censored time value is irrelevant to rank regression
            alt = fit(FailureSample(times[:4] + (99.0,), censored), method="rank_regression")
        assert est == alt

    def test_mle_uses_censoring(self):
        true = WeibullModel(alpha=50.0, beta=1.5)
        rng = CounterRng(seed=21)
        lifetimes = sample_lifetimes(true, 4000, rng)
        cutoff = 60.0
        observed = tuple(np.minimum(lifetimes, cutoff))
        flags = tuple(bool(t >= cutoff) for t in lifetimes)
        est = fit(FailureSample(observed, flags), method="mle")
        assert est.alpha == pytest.approx(true.alpha, rel=0.06)
        assert est.beta == pytest.approx(true.beta, rel=0.06)

    def test_mle_needs_an_uncensored_point(self):
        with pytest.raises(DomainError):
            fit(FailureSample((1.0, 2.0), (True, True)), method="mle")

    def test_rank_regression_needs_three_points(self):
        with pytest.raises(DomainError):
            fit(FailureSample((1.0, 2.0)), method="rank_regression")

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            fit(FailureSample((1.0, 2.0, 3.0)), method="bayes")

    def test_newton_iteration_cap_raises(self, monkeypatch):
        import securakit.weibull as module

        monkeypatch.setattr(module, "_MAX_NEWTON_ITER", 1)
        with pytest.raises(ConvergenceError):
            fit(FailureSample((1.0, 5.0, 9.0, 13.0)), method="mle")

    def test_estimation_error_shrinks_with_sample_size(self):
        true = WeibullModel(alpha=100.0, beta=2.0)

        def error(n, method):
            times = sample_lifetimes(true, n, CounterRng(seed=6))
            est = fit(FailureSample(tuple(times)), method=method)
            return abs(est.alpha - true.alpha) / true.alpha + abs(est.beta - true.beta) / true.beta

        for method in ("rank_regression", "mle"):
            assert error(10_000, method) < error(100, method)


def exact_rank_line(times):
    """Slope and intercept of the least-squares line through the rank-regression points, in exact rationals.

    The points are the same floats the fit forms: log t of the sorted
    failure times against log(-log(1 - F)) at Benard's median ranks F.
    """
    x = [Fraction(math.log(t)) for t in sorted(times)]
    n = len(x)
    y = [Fraction(math.log(-math.log(1.0 - (i - 0.3) / (n + 0.4)))) for i in range(1, n + 1)]
    x_mean, y_mean = sum(x) / n, sum(y) / n
    slope = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) / sum((a - x_mean) ** 2 for a in x)
    return slope, y_mean - slope * x_mean


class TestRankRegressionOracle:
    # each of slope and intercept within 1e-14 relative of the exact least-squares line:
    # about 45 units in the last place, for a handful of roundings of well-conditioned sums
    REL = 1e-14

    @pytest.mark.parametrize("true, n, seed, decades", [
        (WeibullModel(100.0, 2.0), 200, 5, 1),
        (WeibullModel(1e3, 0.02), 200, 9, 100),  # (-ln U)**50 spreads the times over many decades
    ], ids=["seeded", "many_decades"])
    def test_fit_is_the_exact_least_squares_line(self, true, n, seed, decades):
        times = [float(t) for t in sample_lifetimes(true, n, CounterRng(seed=seed))]
        assert math.log10(max(times) / min(times)) >= decades
        slope, intercept = exact_rank_line(times)
        est = fit(FailureSample(tuple(times)), method="rank_regression")
        assert abs(Fraction(est.beta) / slope - 1) <= self.REL
        # the fit reports alpha = exp(-intercept / slope), so the intercept is -beta * log(alpha)
        assert abs(Fraction(-est.beta * math.log(est.alpha)) / intercept - 1) <= self.REL


class TestFailureSample:
    def test_rejects_nonpositive_times(self):
        for bad in [(0.0,), (-1.0, 2.0), (math.nan,)]:
            with pytest.raises(DomainError):
                FailureSample(bad)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            FailureSample(())

    def test_rejects_mismatched_flags(self):
        with pytest.raises(DomainError):
            FailureSample((1.0, 2.0), (True,))

    def test_default_flags_all_uncensored(self):
        sample = FailureSample((1.0, 2.0))
        assert sample.censored == (False, False)
