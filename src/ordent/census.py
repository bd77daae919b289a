"""Counting ordinal patterns: distributions, transitions, and growth curves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .patterns import (
    PatternCode,
    check_length,
    decode_pattern,
    encode_pattern,
    extract_patterns,
    as_samples,
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
        distinct, counts = np.unique(np.asarray(codes, dtype=np.int64), return_counts=True)
        return cls(length=length, codes=distinct, counts=counts)


def _as_code(pattern) -> PatternCode:
    if isinstance(pattern, (int, np.integer)):
        return int(pattern)
    return encode_pattern(pattern)


def census(ts, length: int) -> PatternDistribution:
    """Count every sliding window of ``length`` samples."""
    codes = extract_patterns(ts, length)
    return PatternDistribution.from_codes(codes, length)


def forbidden_patterns(dist: PatternDistribution) -> np.ndarray:
    """Codes never observed in the census, ascending (int64).

    These are *missing* patterns: absence in a finite sample does not prove
    a pattern can never occur for the underlying process.
    """
    if dist.length > _MISSING_LENGTH_LIMIT:
        raise ValueError(
            f"enumerating missing patterns at length {dist.length} would require "
            f"{math.factorial(dist.length)} candidates; use length <= {_MISSING_LENGTH_LIMIT}"
        )
    candidates = np.arange(math.factorial(dist.length), dtype=np.int64)
    return np.setdiff1d(candidates, dist.codes, assume_unique=True)


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
    """Estimate one-step pattern transition probabilities from consecutive windows."""
    x = as_samples(ts)
    if x.size < length + 1:
        raise ValueError(
            f"series of length {x.size} too short for transitions at window {length}"
        )
    codes = extract_patterns(x, length)
    # pairs of compact indices fit one int64 column at any length
    distinct, index = np.unique(codes, return_inverse=True)
    pairs, counts = np.unique(index[:-1] * distinct.size + index[1:], return_counts=True)
    src, dst = np.divmod(pairs, distinct.size)
    row_totals = np.bincount(src, weights=counts, minlength=distinct.size)
    probs = counts / row_totals[src]
    rows: dict = {}
    for source, target, p in zip(distinct[src].tolist(), distinct[dst].tolist(), probs.tolist()):
        rows.setdefault(source, {})[target] = p
    return TransitionMatrix(length=length, rows=rows)


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
