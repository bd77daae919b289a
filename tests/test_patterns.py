"""Rank-sequence extraction and Lehmer coding."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ordent import (
    MAX_PATTERN_LENGTH,
    TimeSeries,
    decode_pattern,
    encode_pattern,
    extract_patterns,
    pattern_of,
)
from ordent import patterns

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestPatternOf:
    def test_worked_example(self):
        assert pattern_of((0.3, -0.5, 1.2, 0.7)) == (1, 0, 3, 2)

    def test_monotone_window(self):
        assert pattern_of((1.0, 2.0, 3.0)) == (0, 1, 2)

    def test_tie_earlier_index_first(self):
        # equal values keep input order: index 0 sorts before index 1
        assert pattern_of((5.0, 5.0, 1.0)) == (2, 0, 1)

    def test_all_equal(self):
        assert pattern_of((2.0, 2.0, 2.0, 2.0)) == (0, 1, 2, 3)

    def test_too_short(self):
        with pytest.raises(ValueError):
            pattern_of((1.0,))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            pattern_of((1.0, float("nan"), 2.0))
        with pytest.raises(ValueError):
            pattern_of((1.0, float("inf"), 2.0))

    @given(st.lists(finite_floats, min_size=2, max_size=12))
    def test_returns_permutation(self, window):
        ranks = pattern_of(window)
        assert sorted(ranks) == list(range(len(window)))

    @given(st.lists(finite_floats, min_size=2, max_size=12, unique=True))
    def test_order_consistency(self, window):
        ranks = pattern_of(window)
        values = [window[r] for r in ranks]
        assert values == sorted(values)

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=10))
    def test_monotone_map_invariance(self, window):
        # any strictly increasing transform leaves the rank sequence alone
        transformed = [math.exp(0.01 * v) + 3.0 * v for v in window]
        assert pattern_of(transformed) == pattern_of([float(v) for v in window])


class TestEncoding:
    def test_identity_is_zero(self):
        assert encode_pattern((0, 1, 2)) == 0

    def test_reversal_is_last(self):
        # oracle: index within the lexicographically sorted list of S_3
        perms = sorted(itertools.permutations(range(3)))
        assert encode_pattern((2, 1, 0)) == perms.index((2, 1, 0)) == 5

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
    def test_bijective_and_lexicographic(self, length):
        perms = sorted(itertools.permutations(range(length)))
        codes = [encode_pattern(p) for p in perms]
        assert codes == list(range(math.factorial(length)))
        for code, p in zip(codes, perms):
            assert decode_pattern(code, length) == p

    def test_roundtrip_exhaustive_l4(self):
        for p in itertools.permutations(range(4)):
            assert decode_pattern(encode_pattern(p), 4) == p

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            encode_pattern((0, 0, 1))
        with pytest.raises(ValueError):
            encode_pattern((1, 2, 3))

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7])
    def test_array_decode_is_lexicographic(self, length):
        rows = decode_pattern(np.arange(math.factorial(length)), length)
        assert rows.dtype == np.int8 and rows.shape == (math.factorial(length), length)
        assert [tuple(r) for r in rows.tolist()] == list(itertools.permutations(range(length)))

    def test_array_decode_roundtrip_at_max_length(self, rng):
        codes = rng.integers(0, math.factorial(MAX_PATTERN_LENGTH), 500, dtype=np.int64)
        codes[:2] = 0, math.factorial(MAX_PATTERN_LENGTH) - 1
        rows = decode_pattern(codes, MAX_PATTERN_LENGTH)
        assert [encode_pattern(r) for r in rows.tolist()] == codes.tolist()
        assert tuple(rows[7].tolist()) == decode_pattern(int(codes[7]), MAX_PATTERN_LENGTH)

    def test_decode_range_check(self):
        with pytest.raises(ValueError):
            decode_pattern(6, 3)
        with pytest.raises(ValueError):
            decode_pattern(-1, 3)
        with pytest.raises(ValueError, match="code 6"):
            decode_pattern(np.array([0, 5, 6]), 3)
        with pytest.raises(ValueError):
            decode_pattern(np.array([-1]), 3)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            decode_pattern(0, MAX_PATTERN_LENGTH + 1)

    def test_large_length_roundtrip(self):
        p = tuple(reversed(range(MAX_PATTERN_LENGTH)))
        code = encode_pattern(p)
        assert code == math.factorial(MAX_PATTERN_LENGTH) - 1
        assert decode_pattern(code, MAX_PATTERN_LENGTH) == p


def brute_force_codes(x, length):
    """Reference extractor: pattern_of on every window, one at a time."""
    return [
        encode_pattern(pattern_of(x[start : start + length]))
        for start in range(len(x) - length + 1)
    ]


# tie-heavy integer levels or continuous values, with enough samples for a window
lengths = st.integers(min_value=2, max_value=MAX_PATTERN_LENGTH)
levels = st.integers(min_value=1, max_value=4)


def series_for(length, values):
    """Between ``length`` and ``length + 60`` samples drawn from ``values``."""
    return st.lists(values, min_size=length, max_size=length + 60).map(
        lambda v: np.array(v, dtype=np.float64)
    )


class TestExtractPatterns:
    def test_window_count(self):
        codes = extract_patterns(np.arange(10.0), 3)
        assert codes.shape == (8,)

    def test_constant_series(self):
        codes = extract_patterns(np.full(6, 2.5), 3)
        assert (codes == encode_pattern((0, 1, 2))).all()

    def test_worked_example_window(self):
        codes = extract_patterns(np.array([0.3, -0.5, 1.2, 0.7]), 4)
        assert codes.tolist() == [encode_pattern((1, 0, 3, 2))]

    @given(st.data(), lengths)
    def test_matches_brute_force(self, data, length):
        x = data.draw(series_for(length, finite_floats))
        assert extract_patterns(x, length).tolist() == brute_force_codes(x, length)

    @given(st.data(), lengths, levels)
    def test_matches_brute_force_with_ties(self, data, length, n_levels):
        x = data.draw(series_for(length, st.integers(0, n_levels - 1)))
        assert extract_patterns(x, length).tolist() == brute_force_codes(x, length)

    @pytest.mark.parametrize("length", [2, 3, 5, 7])
    def test_matches_brute_force_on_long_series(self, rng, length):
        # more windows than patterns: codes go through the table over all L!
        for x in (rng.standard_normal(6000), rng.integers(0, 4, 6000).astype(float)):
            assert extract_patterns(x, length).tolist() == brute_force_codes(x, length)

    @pytest.mark.parametrize("length", [3, 9])
    @pytest.mark.parametrize("chunk", [1, 4])
    def test_matches_brute_force_across_chunks(self, rng, monkeypatch, length, chunk):
        # a seam after every window, or chunks shorter than an L = 9 window;
        # L = 3 maps through the L! table, L = 9 through np.unique
        monkeypatch.setattr(patterns, "_CHUNK", chunk)
        x = rng.integers(0, 5, 400).astype(float)
        assert extract_patterns(x, length).tolist() == brute_force_codes(x, length)

    @pytest.mark.parametrize("length", [5, 6, 7, 8, 12, 13])
    def test_int64_codes_at_every_buffer_width(self, length):
        # the encoder's buffers are int8 up to L = 5, int16 up to 7, int32 up
        # to 12: the top code L! - 1 sits at each width's edge
        x = np.concatenate((np.arange(3.0 * length), -np.arange(3.0 * length)))
        codes = extract_patterns(x, length)
        assert codes.dtype == np.int64
        assert codes.max() == math.factorial(length) - 1
        assert codes.tolist() == brute_force_codes(x, length)

    def test_extreme_codes_at_max_length(self):
        x = np.arange(2.0 * MAX_PATTERN_LENGTH)
        top = math.factorial(MAX_PATTERN_LENGTH) - 1
        assert (extract_patterns(x, MAX_PATTERN_LENGTH) == 0).all()
        assert (extract_patterns(-x, MAX_PATTERN_LENGTH) == top).all()

    def test_too_short(self):
        with pytest.raises(ValueError):
            extract_patterns(np.arange(3.0), 4)

    def test_accepts_timeseries(self):
        ts = TimeSeries(samples=np.arange(5.0))
        assert extract_patterns(ts, 2).shape == (4,)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries(samples=np.array([1.0, np.nan]))

    def test_non_finite_error_names_first_index(self):
        x = np.array([0.0, 1.0, np.inf, np.nan])
        with pytest.raises(ValueError, match="index 2"):
            extract_patterns(x, 2)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            TimeSeries(samples=np.zeros((2, 2)))

    def test_length(self):
        assert len(TimeSeries(samples=np.arange(7.0))) == 7
