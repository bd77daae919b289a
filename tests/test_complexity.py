"""Growth classes, class-tailored entropies, composition, rates, classification."""

import math

import numpy as np
import pytest

from conftest import product_distribution, random_distribution
from ordent import (
    CensusCurve,
    ComplexityClass,
    census_lengths,
    classify_growth,
    composition_law_for,
    entropy_rate,
    metric_perm_entropy,
    noisy_cubic,
    renyi,
    replace_spec,
    shannon,
    topological_perm_entropy,
    white_noise,
    logistic,
)
from ordent.processgen import steady_samples


def invert_t_log_t(s, c=1.0, hi=25.0):
    """Bisection oracle for c * t * ln(t) = s on t >= 1."""
    if s < 0:
        raise ValueError(s)
    lo = 1.0
    assert c * hi * math.log(hi) >= s
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            break
        if c * mid * math.log(mid) < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGrowthLaws:
    def test_factorial_fixed_point(self):
        fac = ComplexityClass.factorial()
        assert fac.g(1.0) == 0.0
        assert fac.g_inverse(0.0) == pytest.approx(1.0, abs=1e-14)
        assert fac.g_inverse_at_zero() == 1.0

    def test_exponential_inverse(self):
        exp2 = ComplexityClass.exponential(2.0)
        assert exp2.g_inverse(3.0) == pytest.approx(1.5, abs=1e-15)
        assert exp2.g(1.5) == pytest.approx(3.0)
        assert exp2.g_inverse_at_zero() == 0.0

    def test_factorial_inverse_matches_bisection(self):
        fac = ComplexityClass.factorial()
        target = math.log(5040)
        assert fac.g_inverse(target) == pytest.approx(invert_t_log_t(target), abs=1e-10)

    def test_subfactorial_roundtrip(self):
        sub = ComplexityClass.sub_factorial(0.5)
        for t in np.linspace(1.0, 30.0, 50):
            assert sub.g_inverse(sub.g(t)) == pytest.approx(t, abs=1e-10)

    def test_closed_form_equals_root_finding_on_grid(self):
        fac = ComplexityClass.factorial()
        for r in np.linspace(0.0, 20.0, 1000):
            assert fac.g_inverse(r) == pytest.approx(invert_t_log_t(r), abs=1e-10)

    def test_domain_errors(self):
        fac = ComplexityClass.factorial()
        with pytest.raises(ValueError):
            fac.g(0.5)
        with pytest.raises(ValueError):
            fac.g_inverse(-0.1)
        with pytest.raises(ValueError):
            ComplexityClass.exponential(0.0)
        with pytest.raises(ValueError):
            ComplexityClass.sub_factorial(1.0)

    def test_custom_requires_inverse(self):
        with pytest.raises(ValueError):
            ComplexityClass.custom(g=lambda t: t**2, g_inverse=lambda s: s)
        custom = ComplexityClass.custom(g=lambda t: 3.0 * t, g_inverse=lambda s: s / 3.0)
        assert custom.g_inverse(6.0) == pytest.approx(2.0)


class TestMetricEntropy:
    def test_exponential_c1_alpha1_is_shannon(self, rng):
        exp1 = ComplexityClass.exponential(1.0)
        for _ in range(100):
            p = random_distribution(rng, 8)
            assert metric_perm_entropy(p, exp1, 1.0) == pytest.approx(
                shannon(p), abs=1e-12
            )

    def test_exponential_equals_renyi(self, rng):
        exp1 = ComplexityClass.exponential(1.0)
        for alpha in (0.5, 2.0):
            p = random_distribution(rng, 6)
            assert metric_perm_entropy(p, exp1, alpha) == pytest.approx(renyi(p, alpha))

    def test_factorial_degenerate_is_zero(self):
        fac = ComplexityClass.factorial()
        assert metric_perm_entropy([1.0, 0.0], fac, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_factorial_uniform_720(self):
        fac = ComplexityClass.factorial()
        expected = invert_t_log_t(math.log(720)) - 1.0
        value = metric_perm_entropy([1.0 / 720] * 720, fac, 1.0)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_alpha_hierarchy(self, rng):
        for growth in (
            ComplexityClass.exponential(1.0),
            ComplexityClass.factorial(),
            ComplexityClass.sub_factorial(0.5),
        ):
            for _ in range(20):
                p = random_distribution(rng, 10)
                values = [metric_perm_entropy(p, growth, a) for a in (0.5, 1.0, 2.0, 4.0)]
                assert all(u >= v - 1e-12 for u, v in zip(values, values[1:]))
                topo = topological_perm_entropy(len(p), growth)
                assert topo >= values[0] - 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            metric_perm_entropy([0.5, 0.5], ComplexityClass.factorial(), 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            metric_perm_entropy([0.5, 0.5], ComplexityClass.factorial(), alpha)


class TestTopologicalEntropy:
    def test_single_pattern_is_zero(self):
        for growth in (
            ComplexityClass.exponential(1.0),
            ComplexityClass.factorial(),
            ComplexityClass.sub_factorial(0.3),
        ):
            assert topological_perm_entropy(1, growth) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_logistic_count(self):
        exp1 = ComplexityClass.exponential(1.0)
        assert topological_perm_entropy(5, exp1) == pytest.approx(math.log(5), abs=1e-14)

    def test_factorial_5040(self):
        fac = ComplexityClass.factorial()
        expected = invert_t_log_t(math.log(5040)) - 1.0
        assert topological_perm_entropy(5040, fac) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(4.18, abs=0.01)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            topological_perm_entropy(0, ComplexityClass.factorial())


class TestCompositionLaw:
    def test_exponential_is_additive(self):
        law = composition_law_for(ComplexityClass.exponential(1.0))
        assert law(1.3, 2.1) == pytest.approx(3.4, abs=1e-14)

    def test_factorial_null_element(self):
        law = composition_law_for(ComplexityClass.factorial())
        for x in np.linspace(0.0, 10.0, 41):
            assert law(x, 0.0) == pytest.approx(x, abs=1e-11)

    @pytest.mark.parametrize(
        "growth",
        [
            ComplexityClass.exponential(1.0),
            ComplexityClass.factorial(),
            ComplexityClass.sub_factorial(0.5),
        ],
        ids=lambda g: g.label,
    )
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_product_distribution_rule(self, growth, alpha, rng):
        law = composition_law_for(growth)
        for _ in range(200):
            p = random_distribution(rng, rng.integers(2, 7))
            q = random_distribution(rng, rng.integers(2, 7))
            z_p = metric_perm_entropy(p, growth, alpha)
            z_q = metric_perm_entropy(q, growth, alpha)
            z_joint = metric_perm_entropy(product_distribution(p, q), growth, alpha)
            assert law(z_p, z_q) == pytest.approx(z_joint, abs=1e-9)

    def test_custom_law_matches_generic_formula(self, rng):
        growth = ComplexityClass.custom(
            g=lambda t: 2.0 * t, g_inverse=lambda s: 0.5 * s
        )
        law = composition_law_for(growth)
        assert law(1.0, 2.0) == pytest.approx(3.0, abs=1e-12)


class TestExtensivity:
    def test_factorial_uniform_rate_approaches_one(self):
        fac = ComplexityClass.factorial()
        previous = 0.0
        for L in range(5, 13):
            outcomes = math.ceil(math.exp(fac.g(float(L))))  # = L^L
            value = topological_perm_entropy(outcomes, fac) / L
            target = (L - 1.0) / L
            assert abs(value - target) <= 0.05 * target
            assert value > previous
            previous = value
        assert previous < 1.0


class TestEntropyRate:
    def test_white_noise_factorial_closed_form(self):
        fac = ComplexityClass.factorial()
        est = entropy_rate(
            white_noise(60_000, seed=11), fac, alpha=0.0, l_range=range(3, 8), realizations=2,
        )
        # once every pattern is seen the value is exactly (g^-1(ln L!) - 1) / L
        for L, value in zip(est.lengths, est.values):
            expected = (invert_t_log_t(math.lgamma(L + 1.0)) - 1.0) / L
            assert value == pytest.approx(expected, abs=1e-9)
        assert est.values[-1] == pytest.approx(0.597, abs=0.005)
        assert (np.diff(est.values) > 0).all()
        assert est.final == est.values[-1]

    def test_metric_below_topological(self):
        fac = ComplexityClass.factorial()
        kwargs = dict(l_range=range(3, 6), realizations=2)
        spec = white_noise(20_000, seed=5)
        topo = entropy_rate(spec, fac, alpha=0.0, **kwargs)
        metric = entropy_rate(spec, fac, alpha=1.0, **kwargs)
        assert (metric.values <= topo.values + 1e-12).all()

    def test_logistic_topological_bounded(self):
        exp1 = ComplexityClass.exponential(1.0)
        est = entropy_rate(
            logistic(30_000), exp1, alpha=0.0, l_range=range(3, 7), realizations=1,
        )
        for L, value in zip(est.lengths, est.values):
            assert 0.0 <= value <= math.lgamma(L + 1.0) / L + 1e-12

    def test_undersampling_warning(self):
        fac = ComplexityClass.factorial()
        with pytest.warns(UserWarning, match="undersampled"):
            entropy_rate(
                white_noise(2_000), fac, alpha=1.0, l_range=[7], realizations=1,
            )

    def test_series_below_the_longest_length_raises_before_any_warning(self, monkeypatch, recwarn):
        def no_generation(spec):
            raise AssertionError("generated a series shorter than a pattern")

        monkeypatch.setattr("ordent.processgen.generate", no_generation)
        with pytest.raises(ValueError, match="series length 4 is below the longest pattern length 7"):
            entropy_rate(white_noise(4), ComplexityClass.factorial(), 1.0, [3, 7], realizations=1)
        assert not recwarn.list

    def test_rejects_negative_transient(self):
        with pytest.raises(ValueError, match="transient"):
            entropy_rate(
                logistic(1_000), ComplexityClass.factorial(), alpha=1.0, l_range=[3],
                realizations=1, transient=-1,
            )

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha_before_any_generation(self, monkeypatch, alpha):
        def no_generation(spec):
            raise AssertionError("generated a series for a non-finite alpha")

        monkeypatch.setattr("ordent.processgen.generate", no_generation)
        with pytest.raises(ValueError, match="finite"):
            entropy_rate(white_noise(1_000), ComplexityClass.factorial(), alpha, [3],
                         realizations=2, workers=2)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_scores_each_length_by_the_class_entropy_functions(self, alpha):
        """Z/L of every realization is the library's class entropy of that
        realization's census, bit for bit."""
        growth = ComplexityClass.factorial()
        spec, lengths = noisy_cubic(4_000, seed=8), [3, 4, 5]
        est = entropy_rate(spec, growth, alpha, lengths, realizations=3)
        for r, row in enumerate(est.per_realization):
            series = steady_samples(replace_spec(spec, seed=8 + r))
            expected = [
                (topological_perm_entropy(d.allowed_count, growth) if alpha == 0
                 else metric_perm_entropy(d, growth, alpha)) / L
                for L, d in zip(lengths, census_lengths(series, lengths))
            ]
            assert row.tolist() == expected

    def test_workers_do_not_change_results(self):
        fac = ComplexityClass.factorial()
        kwargs = dict(l_range=range(3, 5), realizations=4)
        spec = white_noise(5_000, seed=9)
        serial = entropy_rate(spec, fac, alpha=1.0, workers=1, **kwargs)
        threaded = entropy_rate(spec, fac, alpha=1.0, workers=4, **kwargs)
        assert np.array_equal(serial.per_realization, threaded.per_realization)

    def test_spec_seed_and_length_change_the_result(self):
        fac = ComplexityClass.factorial()
        base = entropy_rate(white_noise(3_000), fac, 1.0, [3, 4], realizations=2)
        for spec in (white_noise(3_000, seed=1), white_noise(4_000)):
            other = entropy_rate(spec, fac, 1.0, [3, 4], realizations=2)
            assert not np.array_equal(other.per_realization, base.per_realization)


class TestClassifyGrowth:
    def test_census_curves_fit_as_their_final_values(self):
        curves = [
            CensusCurve(length=L, t_grid=np.array([L, 1_000]), values=np.array([0.0, y]),
                        stddev=np.zeros(2), per_realization=np.array([[0.0, y]]))
            for L, y in ((3, 1.7), (4, 3.1), (5, 4.6), (6, 6.2))
        ]
        fit = classify_growth(curves)
        want = classify_growth([(c.length, c.final_value) for c in curves])
        assert (fit.kind, fit.c_hat, fit.rss, fit.model) == (want.kind, want.c_hat, want.rss, want.model)
        assert fit.residuals.tolist() == want.residuals.tolist()

    def test_pure_linear(self):
        data = [(L, 0.7 * L) for L in range(3, 9)]
        fit = classify_growth(data)
        assert fit.kind == "exponential"
        assert fit.c_hat == pytest.approx(0.7, abs=1e-9)

    def test_pure_sub_factorial(self):
        data = [(L, 0.5 * L * math.log(L)) for L in range(3, 9)]
        fit = classify_growth(data)
        assert fit.kind == "subfactorial"
        assert fit.c_hat == pytest.approx(0.5, abs=1e-9)

    def test_exact_log_factorial(self):
        data = [(L, math.lgamma(L + 1.0)) for L in range(3, 8)]
        fit = classify_growth(data)
        assert fit.kind == "factorial"
        assert fit.model == "lnL!"
        assert fit.rss["lnL!"] == pytest.approx(0.0, abs=1e-18)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            classify_growth([(3, 1.0), (4, 2.0)])

    def test_rejects_a_repeated_length(self):
        # one residual per input point, so no point may be dropped for another
        with pytest.raises(ValueError, match="length 3 repeated"):
            classify_growth([(3, 1.0), (3, 5.0), (4, 2.0), (5, 3.0)])

    @pytest.mark.parametrize("length", [0, -3, 1, 21])
    def test_rejects_lengths_outside_the_pattern_range(self, length):
        data = [(length, 0.0)] + [(L, math.lgamma(L + 1.0)) for L in range(3, 6)]
        with pytest.raises(ValueError, match="pattern length"):
            classify_growth(data)

    def test_growth_property(self):
        fit = classify_growth([(L, 0.5 * L * math.log(L)) for L in range(3, 8)])
        assert fit.growth.kind == "subfactorial"
        assert fit.growth.c == pytest.approx(0.5, abs=1e-9)
