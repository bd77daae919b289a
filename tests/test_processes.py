"""Reference process generators: determinism and distributional checks."""

import math

import numpy as np
import pytest

from ordent import (
    ProcessSpec,
    fbm,
    fgn,
    fgn_autocovariance,
    generate,
    logistic,
    noisy_cubic,
    noisy_logistic,
    noisy_skew_tent,
    replace_spec,
    white_noise,
)

ALL_SPECS = [
    white_noise(20_000, seed=1),
    fgn(20_000, hurst=0.75, seed=2),
    fbm(20_000, hurst=0.2, seed=3),
    logistic(20_000, seed=4),
    noisy_logistic(20_000, seed=5),
    noisy_cubic(20_000, seed=6),
    noisy_skew_tent(20_000, seed=7),
]


class TestReproducibility:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_same_seed_same_bits(self, spec):
        a = generate(spec).samples
        b = generate(spec).samples
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_different_seed_differs(self, spec):
        if spec.kind == "logistic":
            pytest.skip("noise-free map ignores the seed")
        a = generate(spec).samples
        b = generate(replace_spec(spec, seed=spec.seed + 1)).samples
        assert not np.array_equal(a, b)

    def test_meta_carries_spec(self):
        ts = generate(white_noise(100, seed=42))
        assert ts.meta["kind"] == "white-noise"
        assert ts.meta["seed"] == 42


class TestValidation:
    def test_bad_hurst(self):
        with pytest.raises(ValueError):
            fgn(100, hurst=0.0)
        with pytest.raises(ValueError):
            fbm(100, hurst=1.0)

    def test_bad_logistic_params(self):
        with pytest.raises(ValueError):
            logistic(100, a=4.5)
        with pytest.raises(ValueError):
            logistic(100, x0=1.5)
        with pytest.raises(ValueError):
            noisy_logistic(100, eps=-0.1)
        with pytest.raises(ValueError):
            noisy_logistic(100, a_range=(3.9, 3.8))

    def test_bad_amplitude(self):
        with pytest.raises(ValueError):
            noisy_cubic(100, amp=-0.1)

    def test_too_short(self):
        with pytest.raises(ValueError):
            white_noise(1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProcessSpec(kind="pink-noise", t=100)


class TestWhiteNoise:
    def test_range_and_moments(self):
        x = generate(white_noise(200_000, seed=11)).samples
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert x.mean() == pytest.approx(0.5, abs=0.005)
        assert x.var() == pytest.approx(1.0 / 12.0, abs=0.002)


class TestLogistic:
    def test_hand_iteration(self):
        x = generate(logistic(4, a=4.0, x0=0.3)).samples
        assert x == pytest.approx([0.3, 0.84, 0.5376, 0.99434496], abs=1e-12)

    def test_stays_in_unit_interval(self):
        x = generate(logistic(100_000, x0=0.3)).samples
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_noisy_clamped(self):
        x = generate(noisy_logistic(100_000, a=3.835, eps=0.001, seed=12)).samples
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_a_range_draw_is_deterministic(self):
        spec = noisy_logistic(1_000, a_range=(3.83, 3.84), seed=13)
        a = generate(spec).samples
        b = generate(spec).samples
        assert np.array_equal(a, b)


class TestMaps:
    def test_cubic_invariant_interval(self):
        bound = 2.0 / math.sqrt(3.0)
        x = generate(noisy_cubic(100_000, amp=0.0, seed=14)).samples
        assert np.abs(x).max() <= bound + 1e-12

    def test_cubic_noise_amplitude(self):
        clean = generate(noisy_cubic(50_000, amp=0.0, seed=15)).samples
        noisy = generate(noisy_cubic(50_000, amp=0.15, seed=15)).samples
        assert np.abs(noisy - clean).max() <= 0.075 + 1e-12

    def test_skew_tent_interval_and_noise(self):
        clean = generate(noisy_skew_tent(50_000, amp=0.0, seed=16)).samples
        assert clean.min() >= 0.0 and clean.max() <= 1.0
        noisy = generate(noisy_skew_tent(50_000, amp=0.2, seed=16)).samples
        assert np.abs(noisy - clean).max() <= 0.10 + 1e-12

    def test_skew_tent_does_not_collapse(self):
        x = generate(noisy_skew_tent(100_000, amp=0.0, seed=17)).samples
        assert (x[-1000:] > 0).any()
        assert np.unique(np.round(x[-10_000:], 6)).size > 1000


def autocov_standard_error(hurst, lag, t, truncation=20_000):
    """Bartlett formula for Var(gamma_hat(k)) of a stationary Gaussian series."""
    j = np.arange(-truncation, truncation + 1)
    g = fgn_autocovariance(j, hurst)
    g_plus = fgn_autocovariance(j + lag, hurst)
    g_minus = fgn_autocovariance(j - lag, hurst)
    return math.sqrt(np.sum(g * g + g_plus * g_minus) / t)


class TestFgnCovariance:
    @pytest.mark.parametrize("hurst", [0.5, 0.75])
    def test_matches_target_within_three_se(self, hurst):
        lags = np.arange(21)
        target = fgn_autocovariance(lags, hurst)
        reps = 8
        t = 200_000
        estimates = np.empty((reps, lags.size))
        for r in range(reps):
            x = generate(fgn(t, hurst=hurst, seed=100 + r)).samples
            for k in lags:
                estimates[r, k] = np.mean(x[: t - k] * x[k:]) if k else np.mean(x * x)
        mean = estimates.mean(axis=0)
        for k in lags:
            sem = autocov_standard_error(hurst, int(k), t) / math.sqrt(reps)
            assert abs(mean[k] - target[k]) <= 3.0 * sem, (k, mean[k], target[k], sem)

    def test_h_half_is_white_gaussian(self):
        target = fgn_autocovariance(np.arange(5), 0.5)
        assert target[0] == 1.0
        assert (target[1:] == 0.0).all()
        x = generate(fgn(200_000, hurst=0.5, seed=18)).samples
        for k in (1, 2, 3):
            se = 1.0 / math.sqrt(x.size)
            assert abs(np.mean(x[:-k] * x[k:])) < 3.0 * se

    @pytest.mark.parametrize("make", [fgn, fbm], ids=["fgn", "fbm"])
    def test_cached_embedding_gives_the_same_samples(self, make):
        from ordent.processgen import _circulant_coefficients

        spec = make(3_000, hurst=0.3, seed=21)
        _circulant_coefficients.cache_clear()
        first = generate(spec).samples
        assert _circulant_coefficients.cache_info().currsize == 1
        second = generate(spec).samples
        assert _circulant_coefficients.cache_info().hits >= 1
        assert np.array_equal(first, second)
        coeff = _circulant_coefficients(spec.t - (make is fbm), 0.3)
        assert not coeff.flags.writeable

    def test_durbin_levinson_agrees_with_embedding(self):
        # force the O(t^2) path and compare second-order statistics
        from ordent.processgen import _fgn_durbin_levinson

        cov = fgn_autocovariance(np.arange(2_000), 0.75)
        rng = np.random.default_rng(19)
        x = _fgn_durbin_levinson(cov, rng)
        assert x.shape == (2_000,)
        assert np.var(x) == pytest.approx(1.0, abs=0.15)
        lag1 = np.mean(x[:-1] * x[1:])
        assert lag1 == pytest.approx(fgn_autocovariance([1], 0.75)[0], abs=0.1)


class TestFbm:
    def test_starts_at_zero(self):
        x = generate(fbm(100, hurst=0.7, seed=20)).samples
        assert x[0] == 0.0
        assert x.size == 100

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.7])
    def test_increment_variance_scaling(self, hurst):
        x = generate(fbm(200_000, hurst=hurst, seed=21)).samples
        for span in (1, 2, 4, 8, 16):
            second_moment = np.mean((x[span:] - x[:-span]) ** 2)
            target = float(span) ** (2.0 * hurst)
            assert abs(second_moment - target) <= 0.10 * target


class TestWeakStationarity:
    @pytest.mark.parametrize(
        "spec",
        [
            white_noise(90_000, seed=22),
            fgn(90_000, hurst=0.75, seed=23),
            fbm(90_000, hurst=0.5, seed=24),
            logistic(90_000, seed=25),
            noisy_skew_tent(90_000, seed=26),
            noisy_cubic(90_000, seed=27),
        ],
        ids=lambda s: s.kind,
    )
    def test_ascent_probability_agrees_across_thirds(self, spec):
        # P(x_t < x_{t+k}) estimated on disjoint thirds; the block-based
        # standard error accommodates serial dependence
        x = generate(spec).samples
        third = x.size // 3
        for k in (1, 2, 3, 4):
            freqs, sems = [], []
            for i in range(3):
                seg = x[i * third : (i + 1) * third]
                indicator = (seg[:-k] < seg[k:]).astype(float)
                blocks = np.array_split(indicator, 30)
                block_means = np.array([b.mean() for b in blocks])
                freqs.append(block_means.mean())
                sems.append(block_means.std(ddof=1) / math.sqrt(len(blocks)))
            for i in range(3):
                for j in range(i + 1, 3):
                    diff = abs(freqs[i] - freqs[j])
                    combined = math.hypot(sems[i], sems[j])
                    assert diff <= 3.0 * max(combined, 1e-4), (spec.kind, k, diff, combined)
