"""Closed-form ordinal analysis of the full-range logistic map x -> 4x(1-x).

The increasing change of variable x = sin^2(pi y / 2) carries the full tent
map T(y) = 1 - |1 - 2y| to the logistic map and the arcsine law, with CDF
F(x) = (2/pi) arcsin(sqrt(x)), to Lebesgue measure in y.  Logistic
patterns are therefore exactly tent patterns, ties included.  On each
dyadic piece [k, k+1] / 2^(L-1) every iterate T^0 .. T^(L-1) is affine with
integer coefficients, so a pattern changes only where two of these lines
cross; the crossings are rationals at which the tie rule is applied in
exact integer arithmetic.  Cells, pattern probabilities and transitions
all follow from that one piecewise-affine law (``_tent_law``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .census import TransitionMatrix, _transition_rows
from .patterns import OrdinalPattern, _lehmer_codes, decode_pattern

# the longest pattern length of the exact law: cells up to it, transitions
# (cut from the law one length up) up to one less; every value the law
# compares stays far inside int64 there
MAX_LENGTH = 14

Interval = Tuple[float, float]


def arcsine_cdf(x):
    """F(x) = (2/pi) arcsin(sqrt(x)) on [0, 1]."""
    arr = np.asarray(x, dtype=np.float64)
    out = (2.0 / math.pi) * np.arcsin(np.sqrt(arr))
    return float(out) if arr.ndim == 0 else out


def measure_of(intervals: Sequence[Interval]) -> float:
    """Arcsine measure of a union of pairwise-disjoint subintervals of [0, 1]."""
    total = 0.0
    for a, b in intervals:
        if b < a:
            raise ValueError(f"interval [{a}, {b}] is reversed")
        if a < -1e-12 or b > 1.0 + 1e-12:
            raise ValueError(f"interval [{a}, {b}] lies outside [0, 1]")
        a = min(max(a, 0.0), 1.0)
        b = min(max(b, 0.0), 1.0)
        total += arcsine_cdf(b) - arcsine_cdf(a)
    return total


def _tent_law(length: int):
    """The order-``length`` patterns of the tent map on [0, 1], exactly.

    On piece k the iterate T^i is ``2^(L-1) T^i(y) = s_i Z + v_i`` with
    ``Z = 2^(L-1) y - k`` in [0, 1], slope ``s_i = +-2^i`` and left value
    ``v_i`` integers.  Lines i, j cross at ``Z = p / d`` with
    ``p = v_j - v_i`` and ``d = s_i - s_j``; every point used here is such a
    ratio of integers, and ``d`` times a line's value there is an integer.

    Returns ``(y, at, codes)``: the breakpoints (piece ends and crossings)
    ascending from 0.0 to 1.0, the tie-rule pattern code at each of them,
    and the code of each open segment between consecutive breakpoints,
    which is that of its midpoint.  Segment widths in y are the
    probabilities.
    """
    pieces = 1 << (length - 1)
    s = np.empty((length, pieces), dtype=np.int64)
    v = np.empty((length, pieces), dtype=np.int64)
    s[0], v[0] = 1, np.arange(pieces)
    for i in range(1, length):
        # T^(i-1) maps the piece into one half of [0, 1]: the one its midpoint is in
        low = 2 * v[i - 1] + s[i - 1] < pieces
        s[i] = np.where(low, 2 * s[i - 1], -2 * s[i - 1])
        v[i] = np.where(low, 2 * v[i - 1], 2 * pieces - 2 * v[i - 1])

    first, second = np.triu_indices(length, 1)
    d = s[first] - s[second]
    p = (v[second] - v[first]) * np.sign(d)
    d = np.abs(d)
    inside = (0 < p) & (p < d)
    # every piece's left end, the right end of the last one, then the crossings
    piece = np.concatenate((np.arange(pieces), [pieces - 1], np.nonzero(inside)[1]))
    num = np.concatenate((np.zeros(pieces, np.int64), [1], p[inside]))
    den = np.concatenate((np.ones(pieces, np.int64), [1], d[inside]))
    # one correctly rounded division: equal ratios give equal floats, distinct
    # ones (at least 2^-41 apart at L = 14) keep their order
    y, keep = np.unique((piece * den + num) / (den * pieces), return_index=True)
    piece, num, den = piece[keep], num[keep], den[keep]

    def codes_at(k, n, m):
        values = (s[:, k] * n + v[:, k] * m).T  # m times the iterates at Z = n / m of piece k
        return _lehmer_codes(np.argsort(values, axis=1, kind="stable").astype(np.int8))

    # a segment lies in its left end's piece, which its right end closes or shares
    right = (piece[1:] - piece[:-1]) * den[1:] + num[1:]
    mid_num = num[:-1] * den[1:] + right * den[:-1]
    mid_den = 2 * den[:-1] * den[1:]
    return y, codes_at(piece, num, den), codes_at(piece[:-1], mid_num, mid_den)


def _probabilities(y: np.ndarray, codes: np.ndarray):
    """The segment codes that occur, ascending, and the y-widths of their segments summed."""
    distinct, which = np.unique(codes, return_inverse=True)
    return distinct, np.bincount(which, weights=np.diff(y))


def _law(length: int):
    """The codes of positive probability, ascending, and their probabilities."""
    y, _, codes = _tent_law(length)
    return _probabilities(y, codes)


@dataclass
class OrdinalCellSet:
    """Pattern-labeled interval partition of [0, 1] for the full-range map.

    Interval endpoints are carried as closed pairs [a, b]; which cell a
    shared breakpoint belongs to follows from the tie rule (evaluate the
    orbit pattern at the point itself), recorded in ``boundary_owner``.
    Isolated points whose pattern matches neither neighbor appear as
    degenerate [x, x] intervals.  ``measure`` holds each cell's arcsine
    measure: the y-widths of its segments, summed as ``_law`` sums them.
    """

    length: int
    cells: List[Tuple[OrdinalPattern, List[Interval]]]
    boundary_owner: Dict[float, OrdinalPattern]
    measure: Dict[OrdinalPattern, float] = field(default_factory=dict)

    def intervals_for(self, pattern) -> List[Interval]:
        key = tuple(pattern)
        for pat, intervals in self.cells:
            if pat == key:
                return list(intervals)
        return []

    def patterns(self) -> List[OrdinalPattern]:
        return [pat for pat, _ in self.cells]

    def boundaries(self) -> List[float]:
        """Interior breakpoints separating cells, in increasing order."""
        pts = sorted(self.boundary_owner)
        return [p for p in pts if 0.0 < p < 1.0]

    def measures(self) -> Dict[OrdinalPattern, float]:
        return dict(self.measure)


def ordinal_cells(length: int) -> OrdinalCellSet:
    """The order-``length`` pattern cells (lengths 2..MAX_LENGTH), from the tent law."""
    if not 2 <= length <= MAX_LENGTH:
        raise ValueError(f"cell construction supported for lengths 2..{MAX_LENGTH}, got {length}")
    y, at, codes = _tent_law(length)
    # merge equal neighboring segments: keep the ends and the breakpoints between cells
    ends = np.flatnonzero(np.diff(codes)) + 1
    ends = np.concatenate(([0], ends, [y.size - 1]))
    x = np.sin(0.5 * math.pi * y[ends]) ** 2
    x[0], x[-1] = 0.0, 1.0
    x = x.tolist()
    merged = codes[ends[:-1]]
    owner = at[ends]
    isolated = (owner != np.append(merged, -1)) & (owner != np.insert(merged, 0, -1))

    cell_map: Dict[int, List[Interval]] = {}
    for code, a, b in zip(merged.tolist(), x[:-1], x[1:]):
        cell_map.setdefault(code, []).append((a, b))
    for code, point, alone in zip(owner.tolist(), x, isolated.tolist()):
        if alone:  # a tie point whose pattern matches neither neighboring cell
            cell_map.setdefault(code, []).append((point, point))
    cells = sorted(cell_map.items(), key=lambda kv: kv[1][0][0])

    # a cell of tie points alone has no segment, so no width: measure 0
    law = dict(zip(*(a.tolist() for a in _probabilities(y, codes))))
    ranks = decode_pattern(np.append([code for code, _ in cells], owner), length)
    patterns = [tuple(r) for r in ranks.tolist()]
    return OrdinalCellSet(
        length=length,
        cells=[(pat, sorted(iv)) for pat, (_, iv) in zip(patterns, cells)],
        boundary_owner=dict(zip(x, patterns[len(cells):])),
        measure={pat: law.get(code, 0.0) for pat, (code, _) in zip(patterns, cells)},
    )


def exact_transition_probs(length: int) -> TransitionMatrix:
    """Pattern-to-pattern transition probabilities under the arcsine measure.

    Row r is mu(P_r intersect f^-1 P_r') / mu(P_r): the law one length up cut
    into (source, target) pairs, exactly as ``transition_matrix`` cuts a
    census; only transitions of positive probability appear, and rows sum
    to 1 because the measure is invariant under the map.
    """
    if not 2 <= length < MAX_LENGTH:
        raise ValueError(f"exact transitions supported for lengths 2..{MAX_LENGTH - 1}, got {length}")
    codes, probs = _law(length + 1)
    return TransitionMatrix(length, _transition_rows(codes, probs, length))
