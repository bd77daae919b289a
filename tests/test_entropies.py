"""Entropy functionals, deformed logs, Lambert W, and composition-rule axioms."""

import math

import numpy as np
import pytest

from conftest import product_distribution, random_distribution
from ordent import (
    CompositionLaw,
    Distribution,
    GroupLogarithm,
    identity_group_log,
    lambert_w0,
    q_exp,
    q_log,
    relative_z,
    renyi,
    shannon,
    tsallis,
    tsallis_group_log,
    two_param_entropy,
    z_ab_entropy,
    z_entropy_general,
)

# frozen via a 40-digit mpmath evaluation of -sum p ln p
SHANNON_051_04 = 0.94334839232903924918


class TestShannon:
    def test_uniform_five(self):
        assert shannon([0.2] * 5) == pytest.approx(math.log(5), abs=1e-14)

    def test_degenerate(self):
        assert shannon([1.0, 0.0, 0.0]) == 0.0

    def test_mixed_value(self):
        assert shannon([0.5, 0.1, 0.4]) == pytest.approx(SHANNON_051_04, abs=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            shannon([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shannon([1.2, -0.2])


@pytest.mark.parametrize("entropy", [
    shannon,
    lambda p: renyi(p, 2.0),
    lambda p: renyi(p, 0.5),
    lambda p: tsallis(p, 2.0),
    lambda p: tsallis(p, 0.5),
    lambda p: two_param_entropy(p, 0.5, -2.0),
    lambda p: z_ab_entropy(p, 0.5, 0.5, 1.5),
    lambda p: z_entropy_general(p, identity_group_log(), 2.0),
    lambda p: relative_z(p, p, identity_group_log(), 0.5),
], ids=["shannon", "renyi-2", "renyi-0.5", "tsallis-2", "tsallis-0.5",
        "two-param-beta<0", "z-ab-a<b", "z-general-alpha>1", "relative-z"])
def test_point_mass_is_positive_zero(entropy):
    value = entropy([1.0])
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestRenyi:
    def test_uniform_is_log_w(self, rng):
        for alpha in (0.25, 0.5, 1.0, 2.0, 7.5):
            for w in (2, 5, 16):
                assert renyi([1.0 / w] * w, alpha) == pytest.approx(math.log(w), abs=1e-12)

    def test_collision_entropy_fair_coin(self):
        assert renyi([0.5, 0.5], 2.0) == pytest.approx(math.log(2), abs=1e-14)

    def test_alpha_one_limit(self, rng):
        for _ in range(20):
            p = random_distribution(rng, 6)
            for alpha in (1 - 1e-8, 1 + 1e-8):
                assert renyi(p, alpha) == pytest.approx(shannon(p), abs=1e-6)

    def test_additivity_on_products(self, rng):
        for _ in range(30):
            p = random_distribution(rng, 3)
            q = random_distribution(rng, 5)
            joint = product_distribution(p, q)
            for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
                assert renyi(joint, alpha) == pytest.approx(
                    renyi(p, alpha) + renyi(q, alpha), abs=1e-10
                )

    def test_alpha_monotonicity(self, rng):
        alphas = [0.25, 0.5, 1.0, 2.0, 4.0]
        for _ in range(100):
            p = random_distribution(rng, 7)
            values = [renyi(p, a) for a in alphas]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            renyi([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            renyi([0.5, 0.5], -1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            renyi([0.5, 0.5], alpha)


class TestTsallis:
    def test_degenerate(self):
        assert tsallis([1.0, 0.0], 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_alpha_two(self):
        for w in (2, 4, 10):
            assert tsallis([1.0 / w] * w, 2.0) == pytest.approx(1 - 1 / w, abs=1e-13)

    def test_alpha_one_limit(self, rng):
        p = random_distribution(rng, 5)
        assert tsallis(p, 1 + 1e-8) == pytest.approx(shannon(p), abs=1e-6)
        assert tsallis(p, 1 - 1e-8) == pytest.approx(shannon(p), abs=1e-6)


class TestTwoParamEntropy:
    def test_reduces_to_tsallis(self, rng):
        alpha = 0.5
        beta = 1.0 / (1.0 - alpha)
        for _ in range(20):
            p = random_distribution(rng, 6)
            assert two_param_entropy(p, alpha, beta) == pytest.approx(
                tsallis(p, alpha), abs=1e-10
            )

    def test_degenerate(self):
        assert two_param_entropy([1.0, 0.0, 0.0], 0.5, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value_uniform_four(self):
        # sum p^2 = 1/4, exponent 1/(2 * (1-2)) = -1/2, so 2 * ((1/4)^(-1/2) - 1) = 2
        assert two_param_entropy([0.25] * 4, 2.0, 2.0) == pytest.approx(2.0, abs=1e-13)

    def test_rejects_alpha_one_and_beta_zero(self):
        with pytest.raises(ValueError):
            two_param_entropy([0.5, 0.5], 1.0, 2.0)
        with pytest.raises(ValueError):
            two_param_entropy([0.5, 0.5], 0.5, 0.0)


class TestZAbEntropy:
    def test_b_zero_is_sharma_mittal(self, rng):
        alpha, a = 0.3, 1.7
        for _ in range(10):
            p = random_distribution(rng, 5)
            s = float(np.sum(p**alpha))
            expected = (s**a - 1.0) / (a * (1.0 - alpha))
            assert z_ab_entropy(p, alpha, a, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_degenerate(self):
        assert z_ab_entropy([1.0, 0.0], 0.5, 1.5, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_tsallis_limit(self, rng):
        for _ in range(10):
            p = random_distribution(rng, 4)
            value = z_ab_entropy(p, 0.5, 1.0, 1e-6)
            assert value == pytest.approx(tsallis(p, 0.5), abs=1e-4)

    def test_rejects_equal_exponents(self):
        with pytest.raises(ValueError):
            z_ab_entropy([0.5, 0.5], 0.5, 1.0, 1.0)

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            z_ab_entropy([0.5, 0.5], 1.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            z_ab_entropy([0.5, 0.5], 0.0, 1.0, 0.0)


class TestLambertW:
    def test_special_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-12)
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_defining_equation(self, rng):
        x = np.concatenate([np.geomspace(1e-10, 1e8, 200), [0.5, 2.0, 10.0]])
        w = lambert_w0(x)
        assert np.max(np.abs(w * np.exp(w) - x) / x) < 1e-13

    def test_against_scipy(self):
        from scipy.special import lambertw as scipy_w

        x = np.concatenate(
            [np.geomspace(1e-12, 1e8, 300), -np.geomspace(1e-12, 0.99 * math.exp(-1), 200)]
        )
        ours = lambert_w0(x)
        ref = scipy_w(x).real
        assert np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-300)) < 1e-13

    def test_identity_on_log_grid(self):
        x = np.geomspace(math.exp(-1), 1e6, 1000)
        w = lambert_w0(x * np.log(x))
        rel = np.abs(w - np.log(x)) / np.maximum(np.abs(np.log(x)), 1e-300)
        assert np.max(rel) < 1e-12

    def test_strictly_increasing(self):
        grid = np.linspace(-math.exp(-1), 20.0, 50_001)
        w = lambert_w0(grid)
        assert (np.diff(w) > 0).all()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.4)


class TestDeformedLogExp:
    def test_log_of_one_is_zero(self):
        for q in (0.3, 0.9, 1.0, 1.7):
            assert q_log(1.0, q) == pytest.approx(0.0, abs=1e-15)

    def test_q_to_one_limit(self):
        for x in (0.2, 1.7, 40.0):
            for q in (1 - 1e-8, 1 + 1e-8):
                assert q_log(x, q) == pytest.approx(math.log(x), abs=1e-6)

    def test_half_q_value(self):
        assert q_log(4.0, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_roundtrip(self):
        for q in (0.4, 0.8, 1.0, 1.5):
            for x in (0.05, 0.5, 1.0, 3.0, 100.0):
                bracket = 1.0 + (1.0 - q) * q_log(x, q)
                if bracket > 0:
                    assert q_exp(q_log(x, q), q) == pytest.approx(x, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            q_log(0.0, 0.5)
        with pytest.raises(ValueError):
            q_log(-1.0, 0.5)
        with pytest.raises(ValueError):
            q_log(1.0, 0.0)


class TestGroupLogarithm:
    @pytest.mark.parametrize("glog", [identity_group_log(), tsallis_group_log(0.5), tsallis_group_log(1.8)])
    def test_roundtrip_and_zero(self, glog):
        grid = np.linspace(-0.9, 5.0, 200)
        with np.errstate(invalid="ignore", divide="ignore"):
            back = glog.G(np.asarray(glog.G_inverse(grid), dtype=np.float64))
        ok = np.isfinite(back)
        assert np.max(np.abs(back[ok] - grid[ok])) < 1e-10
        assert glog.log(1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("glog", [identity_group_log(), tsallis_group_log(0.5)])
    def test_exp_log_roundtrip(self, glog):
        x = np.geomspace(1e-3, 1e3, 200)
        assert np.max(np.abs(glog.exp(glog.log(x)) - x) / x) < 1e-10

    def test_log_strictly_increasing(self):
        for glog in (identity_group_log(), tsallis_group_log(0.5), tsallis_group_log(2.0)):
            x = np.geomspace(1e-3, 1e3, 500)
            assert (np.diff(glog.log(x)) > 0).all()


class TestZEntropyGeneral:
    def test_identity_gives_renyi(self, rng):
        glog = identity_group_log()
        for alpha in (0.5, 2.0):
            for _ in range(10):
                p = random_distribution(rng, 6)
                assert z_entropy_general(p, glog, alpha) == pytest.approx(
                    renyi(p, alpha), abs=1e-12
                )

    def test_degenerate_is_zero(self):
        glog = tsallis_group_log(0.5)
        assert z_entropy_general([1.0, 0.0], glog, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_power_growth_matches_two_param(self, rng):
        # growth W(x) = x^beta induces G(t) = (1-alpha)(e^(t/(beta(1-alpha))) - 1)
        # once the normalization factor beta is dropped; scaling back by beta
        # must reproduce the two-parameter entropy
        alpha, beta = 0.5, 2.0

        def G(t):
            return (1.0 - alpha) * np.expm1(np.asarray(t) / (beta * (1.0 - alpha)))

        def G_inv(s):
            return beta * (1.0 - alpha) * np.log1p(np.asarray(s) / (1.0 - alpha))

        glog = GroupLogarithm(G=G, G_inverse=G_inv, name="power-growth")
        for _ in range(10):
            p = random_distribution(rng, 5)
            assert beta * z_entropy_general(p, glog, alpha) == pytest.approx(
                two_param_entropy(p, alpha, beta), abs=1e-10
            )

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            z_entropy_general([0.5, 0.5], identity_group_log(), 1.0)


class TestPowerSumUnderflow:
    """Orders at which sum p_i^alpha falls below the smallest normal float."""

    UNIFORM = np.full(5040, 1 / 5040)  # sum p^100 = 5040^-99, about 1e-366

    def test_uniform_law_keeps_its_log(self):
        assert renyi(self.UNIFORM, 100.0) == pytest.approx(math.log(5040), rel=1e-14)
        assert z_entropy_general(self.UNIFORM, identity_group_log(), 100.0) == pytest.approx(
            math.log(5040), rel=1e-14)

    @pytest.mark.parametrize("n, alpha", [(5040, 100.0), (720, 500.0), (24, 1e4)])
    def test_two_param_on_a_uniform_law(self, n, alpha):
        assert two_param_entropy(np.full(n, 1 / n), alpha, 1.0) == pytest.approx(n - 1, rel=1e-12)

    @pytest.mark.parametrize("alpha", [90.0, 500.0, 1e4])
    def test_renyi_matches_50_digits(self, rng, alpha):
        mpmath = pytest.importorskip("mpmath")
        p = random_distribution(rng, 720)
        with mpmath.workdps(50):
            exact = mpmath.log(mpmath.fsum(mpmath.mpf(v) ** alpha for v in p)) / (1 - mpmath.mpf(alpha))
            assert renyi(p, alpha) == pytest.approx(float(exact), rel=1e-12)

    def test_largest_order_gives_min_entropy(self, rng):
        p = random_distribution(rng, 720)
        assert renyi(p, 1e308) == pytest.approx(-math.log(p.max()), rel=1e-14)


class TestRelativeZ:
    def test_equal_distributions_vanish(self, rng):
        glog = identity_group_log()
        for _ in range(10):
            p = random_distribution(rng, 5)
            assert relative_z(p, p, glog, 2.0) == pytest.approx(0.0, abs=1e-12)
            assert relative_z(p, p, tsallis_group_log(0.5), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_identity_alpha_two_value(self):
        # (0.25/0.9 + 0.25/0.1)^(1/(2-1)) = 2.7778, log gives +1.0216512...
        value = relative_z([0.5, 0.5], [0.9, 0.1], identity_group_log(), 2.0)
        assert value == pytest.approx(1.0216512475319814, abs=1e-12)

    def test_identity_matches_renyi_divergence(self, rng):
        def renyi_divergence(p, q, alpha):
            return math.log(float(np.sum(p**alpha * q ** (1 - alpha)))) / (alpha - 1.0)

        glog = identity_group_log()
        for alpha in (0.5, 2.0, 3.0):
            for _ in range(10):
                p = random_distribution(rng, 6)
                q = random_distribution(rng, 6)
                assert relative_z(p, q, glog, alpha) == pytest.approx(
                    renyi_divergence(p, q, alpha), abs=1e-12
                )
                if alpha > 1:
                    assert relative_z(p, q, glog, alpha) >= -1e-12

    def test_rejects_zeros_and_mismatch(self):
        glog = identity_group_log()
        with pytest.raises(ValueError):
            relative_z([0.5, 0.5], [1.0, 0.0], glog, 2.0)
        with pytest.raises(ValueError):
            relative_z([1.0, 0.0], [0.5, 0.5], glog, 2.0)
        with pytest.raises(ValueError):
            relative_z([0.5, 0.5], [0.4, 0.3, 0.3], glog, 2.0)


ENTROPY_FUNCS = [
    ("shannon", lambda p: shannon(p)),
    ("renyi-0.5", lambda p: renyi(p, 0.5)),
    ("renyi-2", lambda p: renyi(p, 2.0)),
    ("tsallis-0.5", lambda p: tsallis(p, 0.5)),
    ("two-param", lambda p: two_param_entropy(p, 0.5, 2.0)),
    ("z-ab", lambda p: z_ab_entropy(p, 0.5, 1.3, 0.2)),
]


class TestSharedAxioms:
    @pytest.mark.parametrize("name,func", ENTROPY_FUNCS)
    def test_uniform_maximality(self, name, func, rng):
        w = 6
        uniform_value = func([1.0 / w] * w)
        for _ in range(100):
            p = random_distribution(rng, w)
            assert func(p) <= uniform_value + 1e-10, name

    @pytest.mark.parametrize("name,func", ENTROPY_FUNCS)
    def test_expansibility(self, name, func, rng):
        for _ in range(20):
            p = random_distribution(rng, 5)
            padded = np.concatenate([p, [0.0]])
            assert func(padded) == pytest.approx(func(p), abs=1e-12), name


class TestCompositionAxiomFixtures:
    """Symmetry, associativity, null element for textbook combination rules."""

    LAWS = [
        CompositionLaw(phi=lambda x, y: x + y, name="additive"),
        CompositionLaw(phi=lambda x, y: x + y + 0.7 * x * y, name="multiplicative"),
        CompositionLaw(phi=lambda x, y: (x + y) / (1.0 + x * y), name="hyperbolic"),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
    def test_symmetry(self, law, rng):
        pts = rng.uniform(0.0, 0.9, size=(50, 2))
        for x, y in pts:
            assert law(x, y) == pytest.approx(law(y, x), abs=1e-12)

    @pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
    def test_associativity(self, law, rng):
        pts = rng.uniform(0.0, 0.9, size=(50, 3))
        for x, y, z in pts:
            assert law(x, law(y, z)) == pytest.approx(law(law(x, y), z), abs=1e-9)

    @pytest.mark.parametrize("law", LAWS, ids=lambda l: l.name)
    def test_null_composability(self, law, rng):
        for x in rng.uniform(0.0, 0.9, size=50):
            assert law(x, 0.0) == pytest.approx(x, abs=1e-12)


class TestDistributionType:
    def test_valid(self):
        d = Distribution(probs=np.array([0.25, 0.75]))
        assert len(d) == 2
        assert shannon(d) == pytest.approx(-(0.25 * math.log(0.25) + 0.75 * math.log(0.75)))

    def test_invalid_sum(self):
        with pytest.raises(ValueError):
            Distribution(probs=np.array([0.25, 0.74]))

    def test_singleton_allowed(self):
        assert shannon(Distribution(probs=np.array([1.0]))) == 0.0
