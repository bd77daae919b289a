"""Counting ordinal patterns: distributions, transitions, and growth curves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .patterns import (
    MAX_PATTERN_LENGTH,
    PatternCode,
    _inverse_codes,
    _inverse_table,
    _lehmer_codes,
    _rank_code_blocks,
    as_samples,
    check_length,
    decode_pattern,
    encode_pattern,
    extract_patterns,
)

# enumerating missing patterns builds all L! candidate codes
_MISSING_LENGTH_LIMIT = 10


@dataclass
class PatternDistribution:
    """Pattern census of one length: strictly ascending int64 ``codes``, positive ``counts``."""

    length: int
    codes: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        check_length(self.length)
        self.codes = np.asarray(self.codes, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        codes = self.codes
        if codes.ndim != 1 or codes.shape != self.counts.shape or codes.size == 0:
            raise ValueError("codes and counts must be non-empty 1-D arrays of one size")
        if (np.diff(codes) <= 0).any() or codes[0] < 0 or codes[-1] >= math.factorial(self.length):
            raise ValueError(f"codes must ascend strictly within [0, {self.length}!)")
        if (self.counts <= 0).any():
            raise ValueError("counts must be positive")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.total

    @property
    def allowed_count(self) -> int:
        return int(self.codes.size)

    def probability(self, pattern) -> float:
        """Relative frequency of one pattern (a code or a rank tuple); 0.0 if unseen."""
        code = _as_code(pattern, self.length)
        i = int(np.searchsorted(self.codes, code))
        if i < self.codes.size and self.codes[i] == code:
            return float(self.counts[i] / self.total)
        return 0.0

    @classmethod
    def from_codes(cls, codes: np.ndarray, length: int) -> "PatternDistribution":
        distinct, counts = _count(np.asarray(codes, dtype=np.int64), math.factorial(length))
        return cls(length=length, codes=distinct, counts=counts)


def _count(codes: np.ndarray, size: int) -> tuple:
    """Distinct codes of ``codes``, all in [0, size), ascending, and how often each occurs.

    The counting rule of every census: ``np.bincount`` over all ``size``
    codes when ``size <= codes.size``, ``np.unique`` otherwise.  The range
    is checked first, so a stray huge code raises instead of sizing the
    bincount.
    """
    if codes.size and (codes.min() < 0 or codes.max() >= size):
        raise ValueError(f"codes must lie in [0, {size})")
    if size <= codes.size:
        counts = np.bincount(codes, minlength=size)
        distinct = np.flatnonzero(counts)
        return distinct, counts[distinct]
    return np.unique(codes, return_counts=True)


class _Tally:
    """Counts of the ``n`` rank codes of one length that arrive block by block.

    When ``L! <= n`` each block is added into L! bins and no codes are
    kept: by ``np.bincount`` when the block holds at least L! codes, by
    ``np.add.at`` otherwise, so a block costs O(block) whatever L! is.
    When ``L! > n`` the blocks are kept (copied, since the producer reuses
    its buffer) and counted once by ``_count``.
    """

    def __init__(self, length: int, n: int):
        self.length = length
        self.size = math.factorial(length)
        self.bins = np.zeros(self.size, dtype=np.int64) if self.size <= n else None
        self.kept = []

    def add(self, codes: np.ndarray) -> None:
        if self.bins is None:
            self.kept.append(codes.copy())
        elif self.size <= codes.size:
            self.bins += np.bincount(codes, minlength=self.size)
        else:
            np.add.at(self.bins, codes, 1)

    def distribution(self) -> PatternDistribution:
        """The census: the bins read in pattern-code order through the cached
        involution ``_inverse_table``, or the distinct kept rank codes inverted
        by ``_inverse_codes`` and sorted."""
        if self.bins is None:
            ranks = self.kept[0] if len(self.kept) == 1 else np.concatenate(self.kept)
            distinct, counts = _count(ranks, self.size)
            codes = _inverse_codes(distinct, self.length)
            order = np.argsort(codes)
            codes, counts = codes[order], counts[order]
        else:
            by_pattern = self.bins[_inverse_table(self.length)]
            codes = np.flatnonzero(by_pattern)
            counts = by_pattern[codes]
        return PatternDistribution(length=self.length, codes=codes, counts=counts)


def _as_code(pattern, length: int) -> PatternCode:
    """The code of a pattern given as a code or as a rank tuple of ``length`` entries."""
    if isinstance(pattern, (int, np.integer)):
        return int(pattern)
    ranks = tuple(pattern)
    if len(ranks) != length:
        raise ValueError(f"pattern {ranks} has {len(ranks)} ranks, not {length}")
    return encode_pattern(ranks)


def census(ts, length: int) -> PatternDistribution:
    """Count every sliding window of ``length`` samples."""
    codes = extract_patterns(ts, length)
    return PatternDistribution.from_codes(codes, length)


def census_lengths(ts, lengths: Sequence[int]) -> list:
    """The census of every length in ``lengths``, in the order given.

    Equal to ``[census(ts, L) for L in lengths]``, from one pass of lag
    comparisons: the rank codes of every length come block by block from
    the running lag sums of the longest one (``patterns._rank_code_blocks``).
    Each length counts its rank codes by the rule of every census (into L!
    bins, block by block, when L! is at most the window count, so no codes
    are kept; ``np.unique`` otherwise; see ``_Tally``) and turns them into
    pattern codes: the bins through the cached table of all L! codes, on the
    ``np.unique`` side only the distinct codes.  A repeated length is
    counted once and its distribution shared.
    """
    x = as_samples(ts)
    lengths = [int(length) for length in lengths]
    if not lengths:
        raise ValueError("lengths must be non-empty")
    for length in lengths:
        check_length(length)
    wanted = sorted(set(lengths))
    if x.size < wanted[-1]:
        raise ValueError(f"series of length {x.size} too short for windows of {wanted[-1]}")
    tallies = [_Tally(length, x.size - length + 1) for length in wanted]
    for i, _, ranks in _rank_code_blocks(x, wanted):
        tallies[i].add(ranks)
    dists = {length: tally.distribution() for length, tally in zip(wanted, tallies)}
    return [dists[length] for length in lengths]


def forbidden_patterns(dist: PatternDistribution) -> np.ndarray:
    """Codes never observed in the census, ascending (int64).

    These are *missing* patterns: absence in a finite sample does not prove
    a pattern can never occur for the underlying process.
    """
    (codes,) = missing_code_blocks(dist, math.factorial(dist.length))
    return codes


def missing_code_blocks(dist: PatternDistribution, block: int) -> Iterator[np.ndarray]:
    """The codes of ``forbidden_patterns(dist)``, ascending, as one array per
    ``block`` consecutive codes of [0, L!), so that all of them are never held
    at once.  A length above the limit raises here, not on the first block."""
    if dist.length > _MISSING_LENGTH_LIMIT:
        raise ValueError(
            f"enumerating missing patterns at length {dist.length} would require "
            f"{math.factorial(dist.length)} candidates; use length <= {_MISSING_LENGTH_LIMIT}"
        )
    missing = np.ones(math.factorial(dist.length), dtype=bool)
    missing[dist.codes] = False
    return (lo + np.flatnonzero(missing[lo:lo + block]) for lo in range(0, missing.size, block))


@dataclass
class TransitionMatrix:
    """Row-normalized frequencies of pattern(t) -> pattern(t+1) transitions."""

    length: int
    rows: dict  # code -> {code -> probability}

    def row(self, pattern) -> dict:
        return dict(self.rows.get(_as_code(pattern, self.length), {}))

    def probability(self, source, target) -> float:
        row = self.rows.get(_as_code(source, self.length), {})
        return row.get(_as_code(target, self.length), 0.0)

    def row_patterns(self) -> list:
        return [tuple(r) for r in decode_pattern(sorted(self.rows), self.length).tolist()]


def transition_matrix(ts, length: int) -> TransitionMatrix:
    """Estimate one-step pattern transition probabilities from consecutive windows.

    Windows k and k + 1 of L samples are the first and the last L samples of
    window k of L + 1, whose pattern gives both of theirs: without the index
    L it is the source, without the index 0 and shifted down by one the
    target.  So the transitions are the census at L + 1, cut into (source,
    target) pairs; L + 1 must be a pattern length, so L lies in 2..19.
    """
    if not 2 <= length < MAX_PATTERN_LENGTH:
        raise ValueError(f"transition length must lie in 2..{MAX_PATTERN_LENGTH - 1}, got {length}")
    x = as_samples(ts)
    if x.size < length + 1:
        raise ValueError(
            f"series of length {x.size} too short for transitions at window {length}"
        )
    (joint,) = census_lengths(x, [length + 1])
    return TransitionMatrix(length, _transition_rows(joint.codes, joint.counts, length))


def _transition_rows(codes: np.ndarray, weights: np.ndarray, length: int) -> dict:
    """``{source: {target: probability}}`` of the length + 1 patterns ``codes``,
    seen with ``weights`` (counts or probabilities), each cut into its
    (source, target) pair as ``transition_matrix`` describes."""
    perms = decode_pattern(codes, length + 1)
    src = _lehmer_codes(perms[perms != length].reshape(-1, length))
    dst = _lehmer_codes(perms[perms != 0].reshape(-1, length) - 1)
    order = np.lexsort((dst, src))
    src, dst, weights = src[order], dst[order], weights[order]
    first = np.flatnonzero((np.diff(src, prepend=-1) != 0) | (np.diff(dst, prepend=-1) != 0))
    return _rows(src[first], dst[first], np.add.reduceat(weights, first))


def _rows(src: np.ndarray, dst: np.ndarray, counts: np.ndarray) -> dict:
    """``{source: {target: probability}}`` of the distinct (source, target) code
    pairs, ascending, seen ``counts`` times."""
    first = np.flatnonzero(np.diff(src, prepend=-1))  # where each source's row starts
    totals = np.add.reduceat(counts, first)
    probs = counts / np.repeat(totals, np.diff(first, append=src.size))
    rows: dict = {}
    for source, target, p in zip(src.tolist(), dst.tolist(), probs.tolist()):
        rows.setdefault(source, {})[target] = p
    return rows


@dataclass
class CensusCurve:
    """ln(distinct pattern count) vs series length, averaged over realizations."""

    length: int
    t_grid: np.ndarray
    values: np.ndarray  # mean of per-realization ln counts
    stddev: np.ndarray
    per_realization: np.ndarray  # shape (realizations, len(t_grid))
    meta: dict | None = None

    @property
    def final_value(self) -> float:
        return float(self.values[-1])

    @property
    def saturation(self) -> float:
        """ln L!, the ceiling of the curve."""
        return math.lgamma(self.length + 1.0)


def finite_pc_curve(
    spec,
    length: int,
    t_grid: Sequence[int],
    realizations: int = 10,
    workers: int = 1,
) -> CensusCurve:
    """Distinct-pattern growth ln A(L, T) on a grid of series lengths.

    Realization r is ``spec`` with seed spec.seed + r, spec.t samples long;
    the grid must lie within that length.  A(L, T) counts the distinct codes
    among the windows that lie inside the first T samples, i.e. the codes
    whose first occurrence starts at or before T - L.
    """
    from .complexity import _realization_rows
    from .processgen import generate

    check_length(length)
    grid = np.asarray(list(t_grid), dtype=np.int64)
    if grid.size == 0 or (np.diff(grid) <= 0).any():
        raise ValueError("t_grid must be a non-empty strictly increasing sequence")
    if grid[0] < length:
        raise ValueError(f"smallest grid length {grid[0]} is below the window length {length}")
    if grid[-1] > spec.t:
        raise ValueError(f"largest grid length {grid[-1]} exceeds the series length {spec.t}")

    def one_realization(realization) -> np.ndarray:
        series = generate(realization).samples
        _, first = np.unique(extract_patterns(series, length), return_index=True)
        counts = np.searchsorted(np.sort(first), grid - length, side="right")
        return np.log(counts.astype(np.float64))

    per_real = _realization_rows(one_realization, spec, realizations, workers)
    stddev = per_real.std(axis=0, ddof=1) if realizations > 1 else np.zeros(grid.size)
    return CensusCurve(
        length=length,
        t_grid=grid,
        values=per_real.mean(axis=0),
        stddev=stddev,
        per_realization=per_real,
        meta={"process": spec.describe(), "realizations": realizations},
    )
