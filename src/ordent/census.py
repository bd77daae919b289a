"""Counting ordinal patterns: distributions, transitions, and growth curves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .patterns import (
    PatternCode,
    _inverse_codes,
    _rank_code_blocks,
    _relabel,
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
        code = _as_code(pattern)
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
    """Counts of ``n`` codes in [0, size) that arrive block by block.

    When ``size <= n`` each block is added into ``size`` bins and no codes
    are kept: by ``np.bincount`` when the block holds at least ``size``
    codes, by ``np.add.at`` otherwise, so a block costs O(block) whatever
    ``size`` is.  When ``size > n`` the blocks are kept (copied, since the
    producer reuses its buffer) and counted once by ``_count``.
    """

    def __init__(self, size: int, n: int):
        self.size = size
        self.bins = np.zeros(size, dtype=np.int64) if size <= n else None
        self.kept = []

    def add(self, codes: np.ndarray) -> None:
        if self.bins is None:
            self.kept.append(codes.copy())
        elif self.size <= codes.size:
            self.bins += np.bincount(codes, minlength=self.size)
        else:
            np.add.at(self.bins, codes, 1)

    def counted(self) -> tuple:
        if self.bins is None:
            codes = self.kept[0] if len(self.kept) == 1 else np.concatenate(self.kept)
            return _count(codes, self.size)
        distinct = np.flatnonzero(self.bins)
        return distinct, self.bins[distinct]


def _as_code(pattern) -> PatternCode:
    if isinstance(pattern, (int, np.integer)):
        return int(pattern)
    return encode_pattern(pattern)


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
    are kept; ``np.unique`` otherwise; see ``_Tally``) and turns only the
    distinct ones into pattern codes.  A repeated length is counted once and
    its distribution shared.
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
    tallies = [_Tally(math.factorial(length), x.size - length + 1) for length in wanted]
    for i, _, ranks in _rank_code_blocks(x, wanted):
        tallies[i].add(ranks)
    dists = {}
    for length, tally in zip(wanted, tallies):
        distinct, counts = tally.counted()
        codes = _inverse_codes(distinct, length)
        order = np.argsort(codes)
        dists[length] = PatternDistribution(length=length, codes=codes[order], counts=counts[order])
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
        return dict(self.rows.get(_as_code(pattern), {}))

    def probability(self, source, target) -> float:
        return self.rows.get(_as_code(source), {}).get(_as_code(target), 0.0)

    def row_patterns(self) -> list:
        return [tuple(r) for r in decode_pattern(sorted(self.rows), self.length).tolist()]


def transition_matrix(ts, length: int) -> TransitionMatrix:
    """Estimate one-step pattern transition probabilities from consecutive windows.

    Pairs are counted by the rule of every census.  With at least (L!)^2
    pairs, the pair codes ``r[k] * L! + r[k + 1]`` of consecutive rank codes
    are tallied block by block into (L!)^2 bins (the last rank code of a block
    pairs with the first of the next), and only the distinct rank codes become
    pattern codes.  With fewer, the pattern codes are relabelled by their
    ascending distinct values, whose pairs fit one int64 at any length, and
    counted by ``np.unique``.
    """
    x = as_samples(ts)
    if x.size < length + 1:
        raise ValueError(
            f"series of length {x.size} too short for transitions at window {length}"
        )
    size = math.factorial(length)
    if size**2 > x.size - length:
        index = extract_patterns(x, length)
        distinct = _relabel(index, size, lambda d: np.arange(d.size))
        pairs, counts = _count(index[:-1] * distinct.size + index[1:], distinct.size**2)
        src, dst = np.divmod(pairs, distinct.size)
        return TransitionMatrix(length, _rows(distinct[src], distinct[dst], counts))
    tally = _Tally(size**2, x.size - length)
    carry = np.empty(0, dtype=np.int64)
    for _, _, block in _rank_code_blocks(x, [length]):
        ranks = np.concatenate((carry, block))  # int64, whatever the block's dtype
        tally.add(ranks[:-1] * size + ranks[1:])
        carry = ranks[-1:]
    pairs, counts = tally.counted()
    distinct, index = np.unique(np.concatenate(np.divmod(pairs, size)), return_inverse=True)
    src, dst = np.split(_inverse_codes(distinct, length)[index], 2)
    order = np.lexsort((dst, src))
    return TransitionMatrix(length, _rows(src[order], dst[order], counts[order]))


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
    seed: int = 0,
    workers: int = 1,
) -> CensusCurve:
    """Distinct-pattern growth ln A(L, T) on a grid of series lengths.

    Each realization r uses seed + r.  A(L, T) counts the distinct codes
    among the windows that lie inside the first T samples, i.e. the codes
    whose first occurrence starts at or before T - L.
    """
    from .processgen import generate, replace_spec

    check_length(length)
    grid = np.asarray(list(t_grid), dtype=np.int64)
    if grid.size == 0 or (np.diff(grid) <= 0).any():
        raise ValueError("t_grid must be a non-empty strictly increasing sequence")
    if grid[0] < length:
        raise ValueError(f"smallest grid length {grid[0]} is below the window length {length}")
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")

    def one_realization(r: int) -> np.ndarray:
        series = generate(replace_spec(spec, t=int(grid[-1]), seed=seed + r)).samples
        _, first = np.unique(extract_patterns(series, length), return_index=True)
        counts = np.searchsorted(np.sort(first), grid - length, side="right")
        return np.log(counts.astype(np.float64))

    from .complexity import _run_indexed

    rows = _run_indexed(one_realization, realizations, workers)
    per_real = np.vstack(rows)
    values = per_real.mean(axis=0)
    stddev = per_real.std(axis=0, ddof=1) if realizations > 1 else np.zeros(grid.size)
    return CensusCurve(
        length=length,
        t_grid=grid,
        values=values,
        stddev=stddev,
        per_realization=per_real,
        meta={"process": spec.describe(), "realizations": realizations, "seed": seed},
    )
