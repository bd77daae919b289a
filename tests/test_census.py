"""Pattern counting, transitions, and distinct-pattern growth curves."""

import importlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ordent import patterns
from ordent.census import _count, missing_code_blocks

from ordent import (
    MAX_PATTERN_LENGTH,
    PatternDistribution,
    census,
    census_lengths,
    decode_pattern,
    encode_pattern,
    fbm,
    finite_pc_curve,
    forbidden_patterns,
    generate,
    logistic,
    noisy_logistic,
    pattern_of,
    replace_spec,
    transition_matrix,
    white_noise,
)


def brute_force_codes(x, length):
    return [encode_pattern(pattern_of(x[k : k + length])) for k in range(len(x) - length + 1)]


@pytest.fixture(scope="module")
def logistic_orbit():
    # drop the approach to the attractor before counting
    return generate(logistic(1_101_000, x0=0.3, seed=0)).samples[1000:]


class TestCensus:
    def test_white_noise_equidistribution(self):
        series = generate(white_noise(100_000, seed=1))
        dist = census(series, 3)
        assert dist.allowed_count == 6
        for code in range(6):
            assert dist.probability(code) == pytest.approx(1.0 / 6.0, abs=0.01)

    @pytest.mark.parametrize("pattern", [(0, 1), (1, 0), (0, 1, 2, 3)])
    def test_rank_tuple_of_another_length_raises(self, pattern):
        dist = census(np.random.default_rng(0).standard_normal(5000), 3)
        with pytest.raises(ValueError, match="ranks"):
            dist.probability(pattern)
        assert dist.probability(6) == 0.0 and dist.probability(np.int64(720)) == 0.0

    def test_logistic_misses_descending_pattern(self, logistic_orbit):
        dist = census(logistic_orbit[:100_000], 3)
        assert dist.allowed_count == 5
        assert encode_pattern((2, 1, 0)) not in dist.codes
        assert dist.probability((2, 1, 0)) == 0.0

    def test_logistic_probabilities_match_arcsine_law(self, logistic_orbit):
        # closed-form cell measures under the stationary density
        expected = {
            (0, 1, 2): 1 / 3,
            (0, 2, 1): 1 / 15,
            (2, 0, 1): 4 / 15,
            (1, 0, 2): 2 / 15,
            (1, 2, 0): 1 / 5,
        }
        dist = census(logistic_orbit, 3)
        for pattern, mu in expected.items():
            assert dist.probability(pattern) == pytest.approx(mu, abs=0.002)

    def test_ramp_has_single_pattern(self):
        for length in (2, 3, 5):
            dist = census(np.linspace(0.0, 1.0, 50), length)
            assert dist.allowed_count == 1
            assert dist.probability(tuple(range(length))) == 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            census(np.arange(3.0), 4)

    def test_probability_normalization(self):
        dist = census(generate(white_noise(5_000, seed=2)), 4)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.counts.sum() == dist.total

    def test_from_counts_roundtrip(self):
        dist = PatternDistribution(length=3, codes=[0, 2], counts=[3, 1])
        assert dist.allowed_count == 2
        assert dist.total == 4
        assert dist.probs.tolist() == [0.75, 0.25]

    @given(st.data())
    def test_from_codes_matches_counter(self, data):
        length = data.draw(st.integers(2, MAX_PATTERN_LENGTH))
        pool = data.draw(
            st.lists(st.integers(0, math.factorial(length) - 1), min_size=1, max_size=8)
        )
        codes = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=200))
        dist = PatternDistribution.from_codes(np.array(codes, dtype=np.int64), length)
        expected = sorted(Counter(codes).items())
        assert list(zip(dist.codes.tolist(), dist.counts.tolist())) == expected
        assert dist.codes.dtype == dist.counts.dtype == np.int64
        assert dist.total == len(codes)

    @pytest.mark.parametrize(
        "codes, counts",
        [
            ([], []),
            ([0, 1], [1]),
            ([[0, 1]], [[1, 1]]),
            ([1, 0], [1, 1]),
            ([2, 2], [1, 1]),
            ([0, 1], [1, 0]),
            ([0, 6], [1, 1]),
        ],
        ids=["empty", "sizes", "2-d", "descending", "repeated", "zero-count", "out-of-range"],
    )
    def test_constructor_rejects_malformed_census(self, codes, counts):
        with pytest.raises(ValueError):
            PatternDistribution(length=3, codes=codes, counts=counts)


def brute_force_census(x, length):
    return sorted(Counter(brute_force_codes(x, length)).items())


def census_pairs(dist):
    return list(zip(dist.codes.tolist(), dist.counts.tolist()))


class TestCensusLengths:
    """Every length from one pass of lag sums, against ``census`` and the ``pattern_of`` oracle."""

    @given(st.data())
    def test_matches_census_and_brute_force(self, data):
        # integer levels give ties; 1..70 windows put small L above and large L
        # below the L! <= windows line, so both count branches run
        n_levels = data.draw(st.integers(1, 6))
        x = np.array(data.draw(st.lists(st.integers(0, n_levels - 1), min_size=8, max_size=80)),
                     dtype=np.float64)
        lengths = data.draw(st.lists(st.integers(2, min(x.size, 9)), min_size=1, max_size=6))
        dists = census_lengths(x, lengths)
        assert [d.length for d in dists] == lengths
        for length, dist in zip(lengths, dists):
            assert census_pairs(dist) == census_pairs(census(x, length))
            assert census_pairs(dist) == brute_force_census(x, length)
            assert dist.codes.dtype == dist.counts.dtype == np.int64

    @given(st.data())
    def test_matches_brute_force_across_chunk_seams(self, data):
        # 7 windows per block: the last block may hold fewer samples than the longest window
        x = np.array(data.draw(st.lists(st.integers(0, 3), min_size=6, max_size=60)), dtype=float)
        lengths = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns, "_CHUNK", 7)
            dists = census_lengths(x, lengths)
        for length, dist in zip(lengths, dists):
            assert census_pairs(dist) == brute_force_census(x, length)

    def test_unsorted_and_repeated_lengths(self, rng):
        x = rng.standard_normal(3000)
        lengths = [7, 3, 5, 3, 2]
        dists = census_lengths(x, lengths)
        assert [d.length for d in dists] == lengths
        for length, dist in zip(lengths, dists):
            assert census_pairs(dist) == census_pairs(census(x, length))

    @pytest.mark.parametrize("length", [4, 5, 6])
    @pytest.mark.parametrize("below", [0, 1], ids=["L!-windows", "L!-1-windows"])
    def test_regime_boundary(self, rng, monkeypatch, length, below):
        # L! windows count into bins read through the inverse table; L! - 1
        # windows go through np.unique and invert only the distinct codes
        calls = []
        inverse_codes = patterns._inverse_codes
        for module in (patterns, importlib.import_module("ordent.census")):
            monkeypatch.setattr(module, "_inverse_codes",
                                lambda codes, n: calls.append(n) or inverse_codes(codes, n))
        windows = math.factorial(length) - below
        for x in (rng.standard_normal(windows + length - 1),
                  rng.integers(0, 3, windows + length - 1).astype(float)):
            expected = brute_force_census(x, length)
            assert census_pairs(census(x, length)) == expected
            (dist,) = census_lengths(x, [length])
            assert census_pairs(dist) == expected
            assert dist.total == windows
        assert calls == [length] * 4 * below  # census and census_lengths, per series

    @pytest.mark.parametrize("length", [3, 8])
    def test_both_count_branches_on_long_series(self, rng, length):
        # 5000 windows: L = 3 counts by bincount over 3!, L = 8 by np.unique over 8!
        x = rng.integers(0, 6, 5000).astype(float)
        (dist,) = census_lengths(x, [length])
        assert census_pairs(dist) == brute_force_census(x, length)

    def test_max_length(self):
        x = np.concatenate((np.arange(30.0), -np.arange(30.0)))
        dists = census_lengths(x, [MAX_PATTERN_LENGTH, 2])
        assert census_pairs(dists[0]) == brute_force_census(x, MAX_PATTERN_LENGTH)
        assert census_pairs(dists[1]) == census_pairs(census(x, 2))
        assert dists[0].codes[-1] == math.factorial(MAX_PATTERN_LENGTH) - 1

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short for windows of 4"):
            census(np.arange(3.0), 4)
        with pytest.raises(ValueError, match="too short for windows of 4"):
            census_lengths(np.arange(3.0), [2, 4, 3])

    @pytest.mark.parametrize("lengths", [[], [1], [3, MAX_PATTERN_LENGTH + 1]])
    def test_rejects_bad_lengths(self, lengths):
        with pytest.raises(ValueError):
            census_lengths(np.arange(50.0), lengths)


class TestCount:
    @pytest.mark.parametrize("size", [6, 7, 1000])
    def test_both_branches_match_counter(self, rng, size):
        # 7 codes: bincount over sizes 6 and 7, np.unique over 1000
        codes = rng.integers(0, 6, 7)
        distinct, counts = _count(codes, size)
        assert list(zip(distinct.tolist(), counts.tolist())) == sorted(Counter(codes.tolist()).items())

    @pytest.mark.parametrize("codes", [
        [0, 6, 1, 2, 3, 4, 5],
        [0, 1, 2, 3, 4, 5, 10**15],
        [0, 1, 2, -1, 4, 5, 3],
        [0, 6],
        [10**15, 0],
    ], ids=["bincount", "bincount-huge", "bincount-negative", "unique", "unique-huge"])
    def test_from_codes_rejects_codes_out_of_range(self, codes):
        # checked before counting, so a huge code never sizes a bincount
        with pytest.raises(ValueError, match=r"codes must lie in \[0, 6\)"):
            PatternDistribution.from_codes(np.array(codes), 3)

    @pytest.mark.parametrize("length", [5, 6])
    def test_tally_blocks_smaller_than_the_code_range(self, rng, length):
        # 16 windows per block against 5! and 6! bins over 2000 windows: each
        # block is added into the bins by np.add.at
        x = rng.integers(0, 8, 2000).astype(float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns, "_CHUNK", 16)
            (dist,) = census_lengths(x, [length])
        assert census_pairs(dist) == brute_force_census(x, length)


class TestForbiddenPatterns:
    def test_logistic(self, logistic_orbit):
        dist = census(logistic_orbit[:100_000], 3)
        assert forbidden_patterns(dist).tolist() == [encode_pattern((2, 1, 0))]

    def test_white_noise_has_none(self):
        for length in (2, 3, 4, 5):
            dist = census(generate(white_noise(300_000, seed=3)), length)
            assert forbidden_patterns(dist).size == 0

    def test_noisy_periodic_logistic(self):
        series = generate(noisy_logistic(101_000, a=3.835, eps=0.001, seed=4)).samples[1000:]
        dist = census(series, 3)
        allowed = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        missing = sorted(encode_pattern(p) for p in ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
        found = forbidden_patterns(dist)
        assert found.dtype == np.int64
        np.testing.assert_array_equal(found, missing)
        assert {tuple(r) for r in decode_pattern(dist.codes, 3).tolist()} == allowed

    def test_refuses_huge_lengths(self):
        dist = PatternDistribution(length=12, codes=[0], counts=[1])
        with pytest.raises(ValueError):
            forbidden_patterns(dist)
        with pytest.raises(ValueError):
            missing_code_blocks(dist, 100)  # at the call, before any block is asked for

    @pytest.mark.parametrize("block", [1, 7, 24, 1000])
    def test_blocks_join_to_the_whole_array(self, rng, block):
        dist = census(rng.integers(0, 3, 60).astype(float), 4)
        blocks = list(missing_code_blocks(dist, block))
        assert len(blocks) == -(-24 // block) and all(b.size <= block for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), forbidden_patterns(dist))


class TestTransitionMatrix:
    @pytest.mark.parametrize("pattern", [(0, 1), (1, 0), (0, 1, 2, 3)])
    def test_rank_tuple_of_another_length_raises(self, pattern):
        tm = transition_matrix(np.random.default_rng(0).standard_normal(5000), 3)
        with pytest.raises(ValueError, match="ranks"):
            tm.row(pattern)
        with pytest.raises(ValueError, match="ranks"):
            tm.probability(pattern, (0, 1, 2))
        with pytest.raises(ValueError, match="ranks"):
            tm.probability((0, 1, 2), pattern)
        assert tm.row(6) == {} and tm.probability(6, 0) == 0.0

    def test_logistic_row_matches_exact_values(self, logistic_orbit):
        tm = transition_matrix(logistic_orbit, 3)
        row = tm.row((0, 1, 2))
        expected = {(0, 1, 2): 0.5, (0, 2, 1): 0.1, (2, 0, 1): 0.4}
        assert len(row) == 3
        for pattern, prob in expected.items():
            assert row[encode_pattern(pattern)] == pytest.approx(prob, abs=0.01)

    def test_periodic_series_is_deterministic(self):
        series = np.tile([0.0, 1.0], 50)
        tm = transition_matrix(series, 2)
        for row in tm.rows.values():
            assert len(row) == 1
            assert list(row.values()) == [1.0]

    def test_white_noise_l2_conditionals(self):
        # brute-force expectation over iid triples (x1, x2, x3):
        #   P(next ascending | ascending) = P(x1<x2<x3) / P(x1<x2) = (1/6)/(1/2) = 1/3
        series = generate(white_noise(500_000, seed=6))
        tm = transition_matrix(series, 2)
        up, down = encode_pattern((0, 1)), encode_pattern((1, 0))
        assert tm.probability(up, up) == pytest.approx(1 / 3, abs=0.01)
        assert tm.probability(up, down) == pytest.approx(2 / 3, abs=0.01)
        assert tm.probability(down, up) == pytest.approx(2 / 3, abs=0.01)
        assert tm.probability(down, down) == pytest.approx(1 / 3, abs=0.01)

    def test_row_patterns_are_the_source_patterns(self, logistic_orbit):
        tm = transition_matrix(logistic_orbit, 3)
        patterns = tm.row_patterns()
        assert patterns == [tuple(r) for r in decode_pattern(sorted(tm.rows), 3).tolist()]
        # every window but the last is the source of a transition
        sources = census(logistic_orbit[:-1], 3)
        assert patterns == [tuple(r) for r in decode_pattern(sources.codes, 3).tolist()]
        assert len(patterns) == 5  # the logistic map forbids one of the 3! patterns

    def test_rows_normalized(self, logistic_orbit):
        tm = transition_matrix(logistic_orbit[:50_000], 3)
        for row in tm.rows.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= v <= 1.0 for v in row.values())

    def test_stationary_frequencies_fixed_point(self, logistic_orbit):
        # pi^T P = pi^T within sampling tolerance on a deterministic orbit
        x = logistic_orbit[:1_000_000]
        dist = census(x, 3)
        tm = transition_matrix(x, 3)
        codes = dist.codes.tolist()
        pi = dist.probs
        p_matrix = np.array([[tm.probability(r, c) for c in codes] for r in codes])
        assert np.max(np.abs(pi @ p_matrix - pi)) < 1e-3

    def test_too_short(self):
        with pytest.raises(ValueError):
            transition_matrix(np.arange(3.0), 3)

    @staticmethod
    def assert_brute_force_rows(x, length):
        """Rows equal to counted pattern pairs, sources and each row's targets ascending."""
        codes = brute_force_codes(x, length)
        pairs = Counter(zip(codes[:-1], codes[1:]))
        totals = Counter(codes[:-1])
        expected = {}
        for (src, dst), n in sorted(pairs.items()):
            expected.setdefault(src, {})[dst] = n / totals[src]
        tm = transition_matrix(x, length)
        assert [(src, list(row.items())) for src, row in tm.rows.items()] == \
            [(src, list(row.items())) for src, row in expected.items()]
        assert any(len(row) > 1 for row in tm.rows.values())

    @staticmethod
    def flipped_tiles(rng):
        # a repeated block with a few flipped samples: rows with one and with several targets
        x = np.tile(rng.integers(0, 3, 40), 30).astype(float)
        x[rng.integers(0, x.size, 25)] += 0.5
        return x

    @pytest.mark.parametrize("length", [2, 4, 7, 13, 19])
    def test_matches_brute_force(self, rng, length):
        # 1181..1198 pairs, each a window of L + 1: L = 2, 4 count them into
        # (L + 1)! bins by bincount; L = 7, 13, 19 by np.unique (L = 19 is the
        # longest, 20! the last factorial in the int64 range)
        self.assert_brute_force_rows(self.flipped_tiles(rng), length)

    def test_rejects_length_20_before_counting(self, monkeypatch):
        def no_census(*args):
            raise AssertionError("counted windows for an unsupported length")

        monkeypatch.setattr(importlib.import_module("ordent.census"), "census_lengths", no_census)
        with pytest.raises(ValueError, match=r"2\.\.19, got 20"):
            transition_matrix(np.arange(100.0), MAX_PATTERN_LENGTH)

    @pytest.mark.parametrize("chunk", [7, 16])
    @pytest.mark.parametrize("length", [2, 4, 7])
    def test_matches_brute_force_across_chunk_seams(self, rng, monkeypatch, chunk, length):
        # the window of L + 1 that pairs each block's last window of L with the
        # next block's first is counted once; L = 2 adds blocks into 3! bins by
        # bincount, L = 4 into 5! bins by np.add.at, L = 7 counts by np.unique
        monkeypatch.setattr(patterns, "_CHUNK", chunk)
        self.assert_brute_force_rows(self.flipped_tiles(rng), length)

    def test_bincount_side_at_the_widest_int8_codes(self, rng, monkeypatch):
        # the census at L + 1 = 6 adds 1000-window blocks of int16 codes into
        # its 720 bins by bincount
        monkeypatch.setattr(patterns, "_CHUNK", 1000)
        self.assert_brute_force_rows(rng.integers(0, 6, 20_000).astype(float), 5)


class TestFinitePcCurve:
    def test_white_noise_saturates_at_log_factorial(self):
        grid = sorted({int(v) for v in np.geomspace(6, 100_000, 25)})
        curve = finite_pc_curve(white_noise(grid[-1], seed=7), 6, grid, realizations=5)
        assert curve.values[-1] == pytest.approx(math.log(720), abs=1e-3)
        assert curve.saturation == pytest.approx(6.5793, abs=1e-4)

    def test_values_below_cap_and_monotone(self):
        grid = sorted({int(v) for v in np.geomspace(7, 40_000, 20)})
        curve = finite_pc_curve(white_noise(grid[-1], seed=8), 7, grid, realizations=3)
        assert (curve.values <= math.lgamma(8.0) + 1e-12).all()
        for row in curve.per_realization:
            assert (np.diff(row) >= -1e-12).all()

    def test_single_window_grid_point(self):
        curve = finite_pc_curve(white_noise(10, seed=9), 4, [4, 10], realizations=2)
        assert curve.values[0] == 0.0

    @pytest.mark.parametrize("spec", [fbm(2, 0.9), noisy_logistic(2)], ids=lambda s: s.kind)
    def test_matches_brute_force_on_cli_default_grid(self, spec):
        # persistent fbm shows one pattern for a long stretch before others appear
        length = 6
        grid = sorted({int(round(v)) for v in np.geomspace(length, 15_000, 40)})
        curve = finite_pc_curve(replace_spec(spec, t=grid[-1]), length, grid, realizations=2)
        for r in range(2):
            x = generate(replace_spec(spec, t=grid[-1], seed=r)).samples
            codes = brute_force_codes(x, length)
            expected = [math.log(len(set(codes[: t - length + 1]))) for t in grid]
            assert curve.per_realization[r].tolist() == expected

    def test_logistic_curve_ends_at_log_allowed_count(self):
        # the logistic map at L = 3 allows 5 of the 6 patterns
        grid = list(range(3, 3003, 100))
        curve = finite_pc_curve(logistic(grid[-1], x0=0.3), 3, grid, realizations=1)
        assert curve.values[-1] == pytest.approx(math.log(5), abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            finite_pc_curve(white_noise(10), 3, [10, 5], realizations=1)
        with pytest.raises(ValueError):
            finite_pc_curve(white_noise(10), 3, [2, 10], realizations=1)
        with pytest.raises(ValueError):
            finite_pc_curve(white_noise(10), 3, [3, 10], realizations=0)
        with pytest.raises(ValueError, match="exceeds the series length 9"):
            finite_pc_curve(white_noise(9), 3, [3, 10], realizations=1)

    def test_counts_the_first_t_samples_of_each_realization(self):
        # realization r is the spec at seed spec.seed + r, spec.t samples long,
        # and the grid need not reach its end
        spec, length, grid = fbm(3_000, 0.7, seed=2), 5, [5, 40, 300, 2_000]
        curve = finite_pc_curve(spec, length, grid, realizations=2)
        for r in range(2):
            codes = brute_force_codes(generate(replace_spec(spec, seed=2 + r)).samples, length)
            expected = [math.log(len(set(codes[: t - length + 1]))) for t in grid]
            assert curve.per_realization[r].tolist() == expected

    def test_meta_reports_the_drawn_spec(self):
        spec = noisy_logistic(100, seed=9)
        curve = finite_pc_curve(spec, 3, [10, 100], realizations=2)
        assert curve.meta == {"process": spec.describe(), "realizations": 2}

    def test_mean_and_std_shapes(self):
        grid = [5, 50, 500]
        curve = finite_pc_curve(white_noise(grid[-1], seed=10), 3, grid, realizations=4)
        assert curve.values.shape == (3,)
        assert curve.stddev.shape == (3,)
        assert curve.per_realization.shape == (4, 3)
