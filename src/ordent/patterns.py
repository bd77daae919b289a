"""Ordinal patterns: rank sequences of sliding windows and their integer codes.

A window of L real samples is summarized by the permutation that sorts it:
the rank sequence (r0, ..., r_{L-1}) such that x[r0] <= x[r1] <= ... with
ties broken in favor of the earlier index.  Patterns are packed into single
integers (their lexicographic rank among all L! permutations) so that large
series can be counted with plain array machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

# L! must fit in a signed 64-bit integer, which caps the pattern length.
MAX_PATTERN_LENGTH = 20

# A pattern code is a plain int in [0, L!): the lexicographic rank of the
# rank sequence among all permutations of {0, ..., L-1}.
PatternCode = int

# A pattern itself is a tuple of ints forming a permutation of 0..L-1.
OrdinalPattern = tuple

# windows coded per pass: the encoder's temporary arrays stay small and in cache
_CHUNK = 1 << 16


@dataclass
class TimeSeries:
    """A finite real-valued sample sequence plus optional generator metadata."""

    samples: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        self.samples = as_samples(self.samples)

    def __len__(self) -> int:
        return self.samples.size


def as_samples(ts) -> np.ndarray:
    """Coerce a TimeSeries or array-like into a validated 1-D float array."""
    if isinstance(ts, TimeSeries):
        return ts.samples
    x = np.ascontiguousarray(ts, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(f"series holds a non-finite sample ({x[first]}) at index {first}")
    return x


def check_length(length: int) -> None:
    if length < 2:
        raise ValueError(f"pattern length must be >= 2, got {length}")
    if length > MAX_PATTERN_LENGTH:
        raise ValueError(
            f"pattern length {length} unsupported: {length}! exceeds 64-bit range "
            f"(max {MAX_PATTERN_LENGTH})"
        )


def pattern_of(window: Sequence[float]) -> OrdinalPattern:
    """Rank sequence of one window.

    Returns the tuple (r0, ..., r_{L-1}) of indices ordered by increasing
    value; equal values keep their original order (earlier index counts as
    smaller).

    >>> pattern_of((0.3, -0.5, 1.2, 0.7))
    (1, 0, 3, 2)
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError(f"window must hold at least 2 values, got {w.size}")
    check_length(w.size)
    if not np.isfinite(w).all():
        raise ValueError("window contains NaN or infinite entries")
    # Stable sort = ties resolved by original index, i.e. (value, index) order.
    return tuple(int(i) for i in np.argsort(w, kind="stable"))


def validate_pattern(pattern: Sequence[int]) -> tuple:
    p = tuple(int(v) for v in pattern)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{p} is not a permutation of 0..{len(p) - 1}")
    check_length(len(p))
    return p


def encode_pattern(pattern: Sequence[int]) -> PatternCode:
    """Lexicographic rank of a pattern among all permutations of its length.

    Inverse of :func:`decode_pattern`; the map is a bijection onto [0, L!).
    """
    p = validate_pattern(pattern)
    length = len(p)
    code = 0
    for i in range(length - 1):
        smaller_after = sum(1 for j in range(i + 1, length) if p[j] < p[i])
        code += smaller_after * factorial(length - 1 - i)
    return code


def decode_pattern(code, length: int):
    """Pattern whose lexicographic rank is ``code`` among length-``length`` permutations.

    An array of n codes gives an (n, length) int8 array of rank rows.
    """
    check_length(length)
    codes = np.asarray(code)
    bad = (codes < 0) | (codes >= factorial(length))
    if bad.any():
        raise ValueError(f"code {codes[bad][0]} out of range for length {length}")
    if codes.ndim == 0:
        return tuple(int(c) for c in _lehmer_columns(np.int64(codes), length))
    return np.column_stack(_lehmer_columns(codes.astype(np.int64).reshape(-1), length))


def _lehmer_columns(codes: np.ndarray, length: int) -> list:
    """The permutations that ``codes`` rank, one int8 column (or scalar) per position.

    Splits each code into its Lehmer digits (digit i counts the later entries
    smaller than entry i), then undoes the digits right to left.
    """
    perm = []
    rest = codes
    for i in range(length):
        digit, rest = np.divmod(rest, factorial(length - 1 - i))
        perm.append(digit.astype(np.int8))
    for i in range(length - 2, -1, -1):
        for j in range(i + 1, length):
            perm[j] += perm[j] >= perm[i]
    return perm


def _rank_codes(x: np.ndarray, length: int, out: np.ndarray) -> None:
    """Lehmer codes of the windows' rank vectors into ``out``, from lag comparisons alone.

    Digit i of the window starting at k counts the later samples that are
    smaller than x[k + i]: S_m[k + i] with m = L - 1 - i, where
    S_m[a] = #{1 <= d <= m : x[a + d] < x[a]} is a running sum of the lag-d
    comparison bits.  The strict comparison makes an equal later sample count
    as larger, i.e. the earlier index is the smaller one.
    """
    t = x.size
    later_smaller = np.zeros(t - 1, dtype=np.int8)  # S_m, updated in place for m = 1, 2, ...
    term = np.empty_like(out)
    out[:] = 0
    for m in range(1, length):
        later_smaller[: t - m] += x[m:] < x[: t - m]
        first = length - 1 - m  # position i = L - 1 - m of window 0
        np.multiply(later_smaller[first : first + out.size], np.int64(factorial(m)), out=term)
        out += term


def _inverse_codes(codes: np.ndarray, length: int) -> np.ndarray:
    """Lehmer code of the inverse of each coded permutation, column by column."""
    weights = np.array([factorial(length - 1 - i) for i in range(length)], dtype=np.int64)
    perm = _lehmer_columns(codes, length)
    # the inverse's digit at position perm[q] counts the earlier, larger entries
    out = np.zeros(codes.size, dtype=np.int64)
    for q in range(1, length):
        earlier_larger = np.zeros(codes.size, dtype=np.int8)
        for p in range(q):
            earlier_larger += perm[p] > perm[q]
        out += earlier_larger * weights[perm[q]]
    return out


def extract_patterns(ts, length: int) -> np.ndarray:
    """Codes of all sliding windows of ``length`` samples.

    Returns an int64 array of T - L + 1 pattern codes, where entry k encodes
    the window starting at sample k.

    The windows are coded by their rank vectors (no sort), and only the
    distinct rank codes are turned into codes of the sorting permutation,
    which is the inverse of the rank vector.
    """
    x = as_samples(ts)
    check_length(length)
    if x.size < length:
        raise ValueError(f"series of length {x.size} too short for windows of {length}")
    n = x.size - length + 1
    codes = np.empty(n, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        _rank_codes(x[start : stop - 1 + length], length, codes[start:stop])
    n_patterns = factorial(length)
    if n_patterns > n:
        distinct, inverse = np.unique(codes, return_inverse=True)
        return _inverse_codes(distinct, length)[inverse]
    # a table over all L! codes costs no more than the windows themselves
    seen = np.zeros(n_patterns, dtype=bool)
    seen[codes] = True
    distinct = np.flatnonzero(seen)
    table = np.empty(n_patterns, dtype=np.int64)
    table[distinct] = _inverse_codes(distinct, length)
    for start in range(0, n, _CHUNK):
        codes[start : start + _CHUNK] = table[codes[start : start + _CHUNK]]
    return codes
