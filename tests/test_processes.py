"""Reference process generators: determinism and distributional checks."""

import hashlib
import inspect
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
from ordent import processgen
from ordent.processgen import steady_samples

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


class TestSteadySamples:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("k", [0, 1, 37])
    def test_drops_the_first_k_of_a_longer_run(self, spec, k):
        spec = replace_spec(spec, t=3_000)
        expected = generate(replace_spec(spec, t=spec.t + k)).samples[k:]
        assert np.array_equal(steady_samples(spec, k), expected)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_none_resolves_to_the_kind_default(self, spec):
        spec = replace_spec(spec, t=3_000)
        maps = ("logistic", "noisy-logistic", "noisy-cubic", "noisy-skew-tent")
        k = 1000 if spec.kind in maps else 0
        assert spec.default_transient == k
        expected = generate(replace_spec(spec, t=spec.t + k)).samples[k:]
        assert np.array_equal(steady_samples(spec), expected)

    def test_rejects_negative_transient(self):
        with pytest.raises(ValueError, match="transient must be >= 0, got -1"):
            steady_samples(logistic(100), -1)


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


class TestParameterTable:
    @pytest.mark.parametrize("kind", processgen.KINDS)
    def test_table_names_the_constructor_keywords(self, kind):
        constructor = getattr(processgen, kind.replace("-", "_"))
        keywords = tuple(inspect.signature(constructor).parameters)
        assert tuple(k for k in keywords if k not in ("t", "seed")) == processgen.PARAMETERS[kind]

    def test_spec_refuses_a_field_its_kind_does_not_read(self):
        with pytest.raises(ValueError, match="process 'white-noise' does not read a$"):
            ProcessSpec(kind="white-noise", t=10, a=3.0)
        with pytest.raises(ValueError, match="process 'logistic' does not read eps$"):
            ProcessSpec(kind="logistic", t=10, a=3.9, x0=0.3, eps=0.1)

    def test_replace_spec_refuses_a_foreign_field(self):
        with pytest.raises(ValueError, match="process 'white-noise' does not read"):
            replace_spec(white_noise(10), a=3.0, hurst=0.2)
        with pytest.raises(ValueError, match="process 'fgn' does not read amp$"):
            replace_spec(fgn(10, 0.3), amp=0.2)


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

    @pytest.mark.parametrize("a, x0", [
        (4.0, 0.3), (4.0, 0.0), (4.0, 0.5), (4.0, 1.0), (math.nextafter(4.0, 0.0), 0.3),
        (math.nextafter(4.0, 0.0), 0.5), (3.7, 0.61), (2.5, 0.9),
    ])
    def test_orbit_is_the_plain_map_loop(self, a, x0):
        # drawn through the noisy loop with zero noise, whose clamp never fires at a <= 4
        expected = [x0]
        for _ in range(4_999):
            expected.append(a * expected[-1] * (1.0 - expected[-1]))
        x = generate(logistic(5_000, a=a, x0=x0)).samples
        assert x.tobytes() == np.array(expected).tobytes()

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
    @pytest.mark.parametrize("hurst", [0.5, 0.75, 0.95])
    def test_matches_target_within_three_se(self, hurst):
        lags = np.arange(21)
        target = fgn_autocovariance(lags, hurst)
        reps = 8
        t = 200_000
        # Bartlett's sum diverges for H >= 3/4; at 0.95 it runs over every lag of the series
        truncation = t if hurst > 0.75 else 20_000
        estimates = np.empty((reps, lags.size))
        for r in range(reps):
            x = generate(fgn(t, hurst=hurst, seed=100 + r)).samples
            for k in lags:
                estimates[r, k] = np.mean(x[: t - k] * x[k:]) if k else np.mean(x * x)
        mean = estimates.mean(axis=0)
        for k in lags:
            sem = autocov_standard_error(hurst, int(k), t, truncation) / math.sqrt(reps)
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
        from ordent.processgen import _fgn_plan

        # fgn draws 3000 samples, a 5-smooth length, so its plan is (head, tail);
        # fbm draws 2999 increments, whose plan adds Bluestein's kernel and twiddle
        spec = make(3_000, hurst=0.3, seed=21)
        _fgn_plan.cache_clear()
        first = generate(spec).samples
        assert _fgn_plan.cache_info().currsize == 1
        second = generate(spec).samples
        assert _fgn_plan.cache_info().currsize == 1
        assert _fgn_plan.cache_info().hits == 1
        assert np.array_equal(first, second)
        plan = _fgn_plan(spec.t - (make is fbm), 0.3)
        assert len(plan) == (2 if make is fgn else 4)
        assert not any(array.flags.writeable for array in plan)


GRID_HURST = np.round(np.arange(0.01, 1.0, 0.01), 2).tolist()


def embedding_eigenvalues(t, hurst, middle):
    """The 2t eigenvalues of the row cov[0 .. t-1], middle, cov[t-1 .. 1]: its full-length FFT."""
    cov = fgn_autocovariance(np.arange(t), hurst)
    return np.fft.fft(np.concatenate((cov, [middle], cov[-1:0:-1]))).real


def full_fft_coefficients(t, hurst):
    """sqrt(eigenvalue / 2t) of all 2t eigenvalues, and whether the row has cov[t] in
    the middle: 0.0 where that row is nonnegative definite, else cov[t] (the minimal one)."""
    eigenvalues = embedding_eigenvalues(t, hurst, 0.0)
    minimal = bool((eigenvalues < -1e-9 * eigenvalues.max()).any())
    if minimal:
        # [t], not t: a 0-d lag takes numpy's scalar power, whose last bits differ
        eigenvalues = embedding_eigenvalues(t, hurst, fgn_autocovariance([t], hurst)[0])
    return np.sqrt(np.maximum(eigenvalues, 0.0) / (2 * t)), minimal


class TestCirculantEmbedding:
    @pytest.mark.parametrize("t", [2, 3, 10, 1_000, 6_000])
    def test_coefficients_at_every_hurst(self, t):
        # the real half spectrum: eigenvalues 0 .. t of the full-length FFT
        from ordent.processgen import _circulant_coefficients

        for hurst in GRID_HURST:
            coeff = _circulant_coefficients(t, hurst)
            assert coeff.shape == (t + 1,)
            assert np.isfinite(coeff).all() and (coeff >= 0.0).all(), hurst
            assert not coeff.flags.writeable
            expected = full_fft_coefficients(t, hurst)[0][: t + 1]
            np.testing.assert_allclose(coeff, expected, rtol=0, atol=1e-12 * expected.max())

    @pytest.mark.parametrize("t", [2, 3, 10, 1_000, 6_000])
    def test_zero_middle_row_kept_wherever_it_is_valid(self, t):
        # the embedding has 0.0 in the middle wherever that row is nonnegative definite,
        # elsewhere cov[t] (the minimal one): the full-length FFT's decision at every H
        from ordent.processgen import _circulant_coefficients

        minimal = 0
        for hurst in GRID_HURST:
            full, want_minimal = full_fft_coefficients(t, hurst)
            expected = full[: t + 1]
            other_middle = 0.0 if want_minimal else fgn_autocovariance([t], hurst)[0]
            other = np.sqrt(np.maximum(embedding_eigenvalues(t, hurst, other_middle)[: t + 1], 0.0)
                            / (2 * t))
            coeff = _circulant_coefficients(t, hurst)
            np.testing.assert_allclose(coeff, expected, rtol=0, atol=1e-12 * expected.max())
            assert np.abs(coeff - expected).max() <= np.abs(coeff - other).max(), hurst
            minimal += want_minimal
        assert minimal > 0  # e.g. every H >= 0.8 at t = 2, H >= 0.92 at t = 6000

    @pytest.mark.parametrize("t", [1, 2, 3, 4_999, 60_000])
    @pytest.mark.parametrize("hurst", [0.01, 0.5, 0.7, 0.99])
    def test_one_pass_covariance_keeps_the_bits(self, t, hurst):
        from ordent.processgen import _fgn_covariance

        got = _fgn_covariance(t, hurst)
        assert got.tobytes() == fgn_autocovariance(np.arange(t + 1), hurst).tobytes()


def direct_fgn(t, hurst, seed):
    """fGn by the full-length FFT of the circulant embedding, from generate's draws."""
    coeff, _ = full_fft_coefficients(t, hurst)
    rng = np.random.default_rng(seed)
    z = np.empty(2 * t, dtype=np.complex128)
    z[0] = rng.standard_normal()
    z[t] = rng.standard_normal()
    v = rng.standard_normal((t - 1, 2))
    half = (v[:, 0] + 1j * v[:, 1]) / math.sqrt(2.0)
    z[1:t] = half
    z[t + 1 :] = np.conj(half[::-1])
    return np.fft.fft(coeff * z).real[:t]


class TestChirpTransform:
    # t not 5-smooth (Bluestein): odd and even, prime (7, 11, 4999) and composite;
    # t 5-smooth (numpy's direct DFT): 2, 3, 1000, 6000, 15000, 60000;
    # at H = 0.95 and t = 2, 3, 7 and 11 the minimal (cov[t]) row is in use
    @pytest.mark.parametrize("t", [7, 11, 14, 4998, 4999, 14999, 59999,
                                   2, 3, 1_000, 6_000, 15_000, 60_000])
    @pytest.mark.parametrize("hurst", [0.2, 0.7, 0.95])
    def test_matches_the_direct_transform(self, t, hurst):
        x = generate(fgn(t, hurst, seed=t)).samples
        expected = direct_fgn(t, hurst, seed=t)
        assert x.shape == (t,)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("spec, sha256", [
        (fgn(4_999, 0.7, seed=9),
         "d85e0564f72071bc1904c311dc014c7ddb2b2ec7f99666a2623de7d60b4225b4"),
        (fbm(60_000, 0.7, seed=0),  # the entropy-sweep draw: 59,999 increments
         "acb14307273311b443d1bde19a0e9ad7c1500ccd132bdefbc6e2727501cea802"),
    ], ids=["fgn-4999", "fbm-60000"])
    def test_lengths_off_5_smooth_keep_their_bits(self, spec, sha256):
        samples = generate(spec).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == sha256

    # fbm(t) draws t - 1 increments: 59,999 is prime and 60,000 is 5-smooth;
    # fgn at H = 0.95 is where the samples sit furthest from the direct transform
    @pytest.mark.parametrize("make, t, hurst", [(fbm, 60_000, 0.7), (fgn, 60_000, 0.75),
                                                (fbm, 60_001, 0.7), (fgn, 60_000, 0.95)],
                             ids=["fbm-60000", "fgn-60000", "fbm-60001", "fgn-60000-h95"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fbm_census_is_unchanged(self, make, t, hurst, seed):
        from ordent import census_lengths

        if make is fbm:
            direct = np.concatenate(([0.0], np.cumsum(direct_fgn(t - 1, hurst, seed))))
        else:
            direct = direct_fgn(t, hurst, seed)
        got = census_lengths(generate(make(t, hurst, seed=seed)).samples, range(3, 8))
        want = census_lengths(direct, range(3, 8))
        for a, b in zip(got, want):
            assert np.array_equal(a.codes, b.codes) and np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("t", [2, 3, 1_000, 14_999, 59_999, 60_000])
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_hermitian_half_keeps_the_bits_of_the_complex_expression(self, t, seed):
        from ordent.processgen import _hermitian_half

        rng = np.random.default_rng(seed)
        want = np.empty(t + 1, dtype=np.complex128)
        want[0] = rng.standard_normal()
        want[t] = rng.standard_normal()
        v = rng.standard_normal((t - 1, 2))
        want[1:t] = (v[:, 0] + 1j * v[:, 1]) / math.sqrt(2.0)
        got = _hermitian_half(t, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()

    def test_plan_is_read_only(self):
        from ordent.processgen import _fgn_plan

        plan = _fgn_plan(4_999, 0.7)
        assert plan[2].size == 7_500  # least 5-smooth size >= 4999 + 2500 - 1
        assert not any(array.flags.writeable for array in plan)

    @pytest.mark.parametrize("n, smooth", [(1, 1), (7, 8), (11, 12), (89_998, 90_000),
                                           (2_999_999, 3_000_000), (4_097, 4_320)])
    def test_next_5_smooth(self, n, smooth):
        from ordent.processgen import _is_5_smooth, _next_5_smooth

        assert _next_5_smooth(n) == smooth
        assert all(not _is_5_smooth(k) for k in range(n, smooth))


class TestOrbitCache:
    @pytest.mark.parametrize("name, args", [
        ("_cubic_orbit", (5_000, 0.1)),
        ("_skew_tent_orbit", (5_000, 0.3)),
    ])
    def test_cached_orbit_is_the_loop_and_read_only(self, name, args):
        from ordent import processgen

        orbit = getattr(processgen, name)
        cached = orbit(*args)
        assert orbit(*args) is cached
        assert np.array_equal(cached, orbit.__wrapped__(*args))
        assert not cached.flags.writeable

    @pytest.mark.parametrize("spec", [noisy_cubic(4_000, seed=2), noisy_skew_tent(4_000, seed=2)])
    def test_noisy_samples_do_not_alias_the_cache(self, spec):
        samples = generate(spec).samples
        before = samples.copy()
        samples[:] = -1.0
        assert np.array_equal(generate(spec).samples, before)

    def test_logistic_samples_are_writable(self):
        samples = generate(logistic(4_000, a=3.9, x0=0.2)).samples
        assert samples.flags.writeable


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
