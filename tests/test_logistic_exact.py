"""Closed-form cells, arcsine measures, and exact transitions of the full-range map."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ordent import (
    arcsine_cdf,
    census_lengths,
    decode_pattern,
    encode_pattern,
    exact_transition_probs,
    generate,
    logistic,
    measure_of,
    ordinal_cells,
    transition_matrix,
)
from ordent.cli import main as cli_main
from ordent.logistic_exact import _law

SQRT5 = math.sqrt(5.0)
SQRT3 = math.sqrt(3.0)
ORDER3_BOUNDARIES = [0.25, (5 - SQRT5) / 8, 0.75, (5 + SQRT5) / 8]


def _pairs(tm):
    return {(src, dst) for src, row in tm.rows.items() for dst in row}


def _tent_pattern(y, length):
    """The tie-rule pattern of the exact tent orbit of the rational ``y``."""
    orbit = [y]
    for _ in range(length - 1):
        orbit.append(2 * orbit[-1] if orbit[-1] <= Fraction(1, 2) else 2 - 2 * orbit[-1])
    return tuple(sorted(range(length), key=lambda i: (orbit[i], i)))


class TestArcsineMeasure:
    def test_cdf_endpoints(self):
        assert arcsine_cdf(0.0) == 0.0
        assert arcsine_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
        grid = np.linspace(0.0, 1.0, 1000)
        assert (np.diff(arcsine_cdf(grid)) > 0).all()

    def test_worked_interval_measures(self):
        assert measure_of([(0.0, 0.25)]) == pytest.approx(10 / 30, abs=1e-12)
        assert measure_of([(0.0, (2 - SQRT3) / 4)]) == pytest.approx(5 / 30, abs=1e-12)
        assert measure_of([((2 - SQRT3) / 4, (3 - SQRT5) / 8)]) == pytest.approx(
            1 / 30, abs=1e-12
        )
        assert measure_of([((3 - SQRT5) / 8, 0.25)]) == pytest.approx(4 / 30, abs=1e-12)

    def test_total_measure(self):
        assert measure_of([(0.0, 1.0)]) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            measure_of([(-0.2, 0.5)])
        with pytest.raises(ValueError):
            measure_of([(0.5, 1.2)])
        with pytest.raises(ValueError):
            measure_of([(0.7, 0.3)])


class TestOrdinalCells:
    def test_order3_boundaries(self):
        cells = ordinal_cells(3)
        found = cells.boundaries()
        assert len(found) == 4
        for got, expected in zip(found, ORDER3_BOUNDARIES):
            assert got == pytest.approx(expected, abs=1e-9)

    def test_order3_cells(self):
        cells = ordinal_cells(3)
        nonempty = [pat for pat, iv in cells.cells if iv]
        assert len(nonempty) == 5
        assert cells.intervals_for((2, 1, 0)) == []
        # identity cell carries the fixed point 3/4 as an isolated point
        identity = cells.intervals_for((0, 1, 2))
        assert len(identity) == 2
        (a0, b0), (a1, b1) = identity
        assert (a0, b0) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.25, abs=1e-9))
        assert a1 == b1 == pytest.approx(0.75, abs=1e-9)

    def test_order2_cells(self):
        # fixed point of the map at 3/4 splits ascending from descending
        cells = ordinal_cells(2)
        up = cells.intervals_for((0, 1))
        down = cells.intervals_for((1, 0))
        assert up[0][0] == pytest.approx(0.0) and up[0][1] == pytest.approx(0.75, abs=1e-10)
        assert down[0][0] == pytest.approx(0.75, abs=1e-10) and down[0][1] == pytest.approx(1.0)
        assert cells.boundary_owner[up[0][1]] == (0, 1)

    def test_order3_measures(self):
        expected = {
            (0, 1, 2): 1 / 3,
            (0, 2, 1): 1 / 15,
            (2, 0, 1): 4 / 15,
            (1, 0, 2): 2 / 15,
            (1, 2, 0): 1 / 5,
        }
        measures = ordinal_cells(3).measures()
        for pattern, mu in expected.items():
            assert measures[pattern] == pytest.approx(mu, abs=1e-10)

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_partition_completeness(self, length):
        cells = ordinal_cells(length)
        assert sum(cells.measures().values()) == pytest.approx(1.0, abs=1e-12)
        # interiors tile [0, 1]: breakpoints plus interval lengths add up
        widths = sum(b - a for _, iv in cells.cells for a, b in iv)
        assert widths == pytest.approx(1.0, abs=1e-9)

    def test_refinement_consistency(self):
        # every order-4 cell interior sits inside exactly one order-3 cell
        coarse = ordinal_cells(3)
        fine = ordinal_cells(4)
        for _, intervals in fine.cells:
            for a, b in intervals:
                if b - a < 1e-9:
                    continue
                mid = 0.5 * (a + b)
                hosts = [
                    pat
                    for pat, civ in coarse.cells
                    for ca, cb in civ
                    if ca - 1e-12 <= mid <= cb + 1e-12 and cb - ca > 1e-9
                ]
                assert len(hosts) == 1

    def test_rejects_unsupported_length(self):
        with pytest.raises(ValueError):
            ordinal_cells(15)
        with pytest.raises(ValueError):
            ordinal_cells(1)


class TestCellMeasures:
    @pytest.mark.parametrize("length", range(2, 15))
    def test_measures_are_the_law(self, length):
        # each cell's measure is its pattern's law probability; a cell of tie points alone has 0
        cells = ordinal_cells(length)
        measures = cells.measures()
        codes, probs = _law(length)
        law = dict(zip(map(tuple, decode_pattern(codes, length).tolist()), probs.tolist()))
        for pattern, intervals in cells.cells:
            expected = 0.0 if all(a == b for a, b in intervals) else law[pattern]
            assert measures[pattern] == expected, pattern
        assert len(measures) == len(cells.cells)
        assert abs(math.fsum(measures.values()) - 1.0) <= 1e-15
        # the arcsine CDF of the cell ends agrees, to its own rounding
        for pattern, intervals in cells.cells:
            assert abs(measures[pattern] - measure_of(intervals)) <= 1e-12, pattern


class TestExactTransitions:
    def test_worked_example_row(self):
        tm = exact_transition_probs(3)
        row = tm.row((0, 1, 2))
        assert row[encode_pattern((0, 1, 2))] == pytest.approx(0.5, abs=1e-9)
        assert row[encode_pattern((0, 2, 1))] == pytest.approx(0.1, abs=1e-9)
        assert row[encode_pattern((2, 0, 1))] == pytest.approx(0.4, abs=1e-9)
        assert set(row) == {
            encode_pattern((0, 1, 2)),
            encode_pattern((0, 2, 1)),
            encode_pattern((2, 0, 1)),
        }

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_rows_sum_to_one(self, length):
        tm = exact_transition_probs(length)
        for code, row in tm.rows.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12), code

    def test_rejects_unsupported_length(self):
        with pytest.raises(ValueError):
            exact_transition_probs(14)

    def test_matches_empirical_orbit(self):
        # simulation oracle: long-orbit frequencies vs closed-form probabilities
        orbit = generate(logistic(1_001_000, x0=0.3, seed=0)).samples[1000:]
        tm_exact = exact_transition_probs(3)
        tm_emp = transition_matrix(orbit, 3)
        for src, row in tm_exact.rows.items():
            for dst, prob in row.items():
                assert tm_emp.probability(src, dst) == pytest.approx(prob, abs=0.01)

    def test_key_sets_match_empirical_orbit(self):
        # the exact law has no slivers: every transition it lists occurs, and only those
        orbit = generate(logistic(1_001_000, x0=0.3, seed=0)).samples[1000:]
        for length in (2, 3, 4, 5):
            exact, emp = exact_transition_probs(length), transition_matrix(orbit, length)
            assert _pairs(exact) == _pairs(emp), length

    def test_pattern_probabilities_match_orbit_within_three_se(self):
        # block-based standard errors absorb the serial dependence of the orbit
        orbit = generate(logistic(1_001_000, x0=0.3, seed=0)).samples[1000:]
        measures = ordinal_cells(3).measures()
        from ordent import extract_patterns

        all_codes = extract_patterns(orbit, 3)
        blocks = np.array_split(all_codes, 100)
        for pattern, mu in measures.items():
            code = encode_pattern(pattern)
            block_freqs = np.array([(b == code).mean() for b in blocks])
            sem = block_freqs.std(ddof=1) / math.sqrt(len(blocks))
            assert abs(block_freqs.mean() - mu) <= 3.0 * max(sem, 1e-5), pattern


class TestBreakpointOwners:
    @pytest.mark.parametrize("length", [3, 4, 5, 6])
    def test_owners_follow_exact_tie_rule(self, length):
        # breakpoints are rationals in y = (2/pi) arcsin(sqrt x) whose denominators
        # divide 2^(L-1) (s_i - s_j), at most 3 * 2^(2L-3)
        cells = ordinal_cells(length)
        for x, owner in cells.boundary_owner.items():
            y = Fraction(arcsine_cdf(x)).limit_denominator(3 << (2 * length - 3))
            assert owner == _tent_pattern(y, length), x

    @pytest.mark.parametrize("length", [3, 4, 5, 6])
    def test_point_cells_are_isolated_tie_points(self, length):
        cells = ordinal_cells(length)
        neighbors = {}
        for pat, intervals in cells.cells:
            for a, b in intervals:
                if b > a:
                    neighbors.setdefault(a, set()).add(pat)
                    neighbors.setdefault(b, set()).add(pat)
        points = {(a, pat) for pat, iv in cells.cells for a, b in iv if a == b}
        for x, owner in cells.boundary_owner.items():
            assert ((x, owner) in points) == (owner not in neighbors[x]), x
        assert all(x in cells.boundary_owner for x, _ in points)

    def test_known_tie_points(self):
        # the period-2 point y = 4/5 has x0 == x2, so the earlier index ranks lower
        owners = ordinal_cells(3).boundary_owner
        x = min(owners, key=lambda p: abs(p - (5 + SQRT5) / 8))
        assert x == pytest.approx((5 + SQRT5) / 8, abs=1e-12)
        assert owners[x] == (1, 0, 2)
        cells = ordinal_cells(4)
        (point,) = cells.intervals_for((1, 3, 0, 2))
        assert point == (x, x)


class TestExactLaw:
    # distinct allowed patterns A(L) of the full-range map, L = 3..14
    ALLOWED = [5, 12, 31, 75, 178, 414, 949, 2137, 4767, 10525, 23042, 50096]

    def test_allowed_counts_and_total(self):
        for length, allowed in zip(range(3, 15), self.ALLOWED):
            codes, probs = _law(length)
            assert codes.size == allowed
            assert (probs > 0).all()
            assert abs(probs.sum() - 1.0) <= 1e-15

    def test_longest_lengths(self):
        cells = ordinal_cells(14)
        assert sum(any(b > a for a, b in iv) for _, iv in cells.cells) == 50096
        tm = exact_transition_probs(13)
        assert len(tm.rows) == 23042
        for row in tm.rows.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)

    def test_orbit_census_within_law(self):
        orbit = generate(logistic(201_000, x0=0.3, seed=0)).samples[1000:]
        lengths = range(3, 13)
        for length, dist in zip(lengths, census_lengths(orbit, lengths)):
            codes, _ = _law(length)
            assert np.isin(dist.codes, codes).all(), length
            if length <= 9:  # 2e5 samples show every allowed pattern up to L = 9
                assert dist.codes.tolist() == codes.tolist(), length

    def test_saturated_rate_is_log_allowed_over_length(self, tmp_path):
        out = tmp_path / "rate.json"
        with pytest.warns(UserWarning, match="undersampled"):
            assert cli_main(["rate", "--process", "logistic", "--class", "exponential",
                             "--c", "1", "--alpha", "0", "--t", "200000", "-R", "1",
                             "--l-min", "3", "--l-max", "8", "--format", "json",
                             "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(r["L"], r["z_over_l"]) for r in rows] == [
            (L, math.log(_law(L)[0].size) / L) for L in range(3, 9)]
