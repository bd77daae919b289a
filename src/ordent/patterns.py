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
    return np.column_stack(_lehmer_columns(codes.reshape(-1), length))


def _lehmer_columns(codes: np.ndarray, length: int) -> list:
    """The permutations that ``codes`` rank, one int8 column (or scalar) per position.

    Splits each code into its Lehmer digits (digit i counts the later entries
    smaller than entry i), then undoes the digits right to left.
    """
    perm = []
    rest = codes.astype(np.min_scalar_type(factorial(length) - 1))  # unsigned: // beats divmod
    for i in range(length - 1):
        weight = factorial(length - 1 - i)
        digit = rest // weight
        rest -= digit * weight
        perm.append(digit.astype(np.int8))
    perm.append(rest.astype(np.int8))
    for i in range(length - 2, -1, -1):
        for j in range(i + 1, length):
            perm[j] += perm[j] >= perm[i]
    return perm


def _rank_code_blocks(x: np.ndarray, lengths: Sequence[int]):
    """Lehmer codes of the windows' rank vectors for every length in ``lengths``, block by block.

    Digit i of the window starting at k counts the later samples that are
    smaller than x[k + i]: S_m[k + i] with m = L - 1 - i, where
    S_m[a] = #{1 <= d <= m : x[a + d] < x[a]} is a running sum of the lag-d
    comparison bits.  The strict comparison makes an equal later sample count
    as larger, i.e. the earlier index is the smaller one.

    Indexed by its last sample e, the window of length m + 1 has the code of
    the window of length m that ends at e plus S_m[e - m] * m! (the successive
    patterns of Unakafova & Keller, Entropy 15 (2013) 4392).  So one pass over
    the lags m = 1 .. max(lengths) - 1 serves every length, _CHUNK windows at
    a time, and each length's codes are read off after its last lag.

    Yields ``(i, start, codes)``: the codes of the windows of length
    ``lengths[i]`` that start at ``start``, ``start + 1``, ..., at most
    _CHUNK of them, in a buffer that the next step overwrites.  The buffer
    has the narrowest signed dtype that holds max(lengths)! (int8 up to
    L = 5, int16 up to 7, int32 up to 12), so a consumer that does arithmetic
    on the codes casts them to int64 first.  ``x`` must hold at least
    max(lengths) samples.
    """
    t = x.size
    low, top = min(lengths), max(lengths)
    width = min(_CHUNK + top - 1, t)  # samples behind one block of windows
    later_smaller = np.empty(width - 1, dtype=np.int8)  # S_m, updated in place for m = 1, 2, ...
    code_type = np.min_scalar_type(-factorial(top))
    ends = np.empty(width - low + 1, dtype=code_type)  # codes by last sample, from sample low - 1 on
    term = np.empty_like(ends)
    for start in range(0, t - low + 1, _CHUNK):
        xs = x[start : start + width]
        s = xs.size
        later_smaller[:] = 0
        ends[:] = 0
        for m in range(1, min(top, s)):  # the last block can be too short for the longest windows
            later_smaller[: s - m] += xs[m:] < xs[: s - m]
            first = max(m, low - 1)  # the first last sample that needs S_m
            n = s - first
            np.multiply(later_smaller[first - m : s - m], code_type.type(factorial(m)), out=term[:n])
            ends[first - low + 1 : s - low + 1] += term[:n]
            for i, length in enumerate(lengths):
                if length == m + 1:
                    yield i, start, ends[length - low : length - low + min(_CHUNK, s - m)]


def _inverse_codes(codes: np.ndarray, length: int) -> np.ndarray:
    """Lehmer code (int64) of the inverse of each coded permutation, column by column."""
    code_type = np.min_scalar_type(-factorial(length))
    weights = np.array([factorial(length - 1 - i) for i in range(length)], dtype=code_type)
    perm = _lehmer_columns(codes, length)
    # the inverse's digit at position perm[q] counts the earlier, larger entries
    out = np.zeros(codes.size, dtype=code_type)
    for q in range(1, length):
        earlier_larger = np.zeros(codes.size, dtype=np.int8)
        for p in range(q):
            earlier_larger += perm[p] > perm[q]
        out += earlier_larger * weights[perm[q]]
    return out.astype(np.int64)


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
    codes = np.empty(x.size - length + 1, dtype=np.int64)
    for _, start, block in _rank_code_blocks(x, [length]):
        codes[start : start + block.size] = block
    _relabel(codes, factorial(length), lambda distinct: _inverse_codes(distinct, length))
    return codes


def _relabel(codes: np.ndarray, size: int, image) -> np.ndarray:
    """Replace each code in [0, size) by ``image(distinct)`` at its place among the
    ascending distinct codes, in place; returns the distinct codes.

    The distinct codes come from a table over all ``size`` codes when
    ``size <= codes.size`` (it costs no more than the codes themselves, and
    the gather runs _CHUNK codes at a time), from ``np.unique`` otherwise.
    """
    if size > codes.size:
        distinct, inverse = np.unique(codes, return_inverse=True)
        codes[:] = image(distinct)[inverse]
        return distinct
    seen = np.zeros(size, dtype=bool)
    seen[codes] = True
    distinct = np.flatnonzero(seen)
    table = np.empty(size, dtype=np.int64)
    table[distinct] = image(distinct)
    for start in range(0, codes.size, _CHUNK):
        codes[start : start + _CHUNK] = table[codes[start : start + _CHUNK]]
    return distinct
