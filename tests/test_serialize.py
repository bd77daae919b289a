"""Table and series writers: bytes against a per-value reference, block edges, one open."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordent import serialize
from ordent.cli import main
from ordent.patterns import decode_pattern
from ordent.serialize import SCHEMA_VERSION, format_value, write_series_csv, write_table_csv


def reference_csv(columns, rows, meta=None):
    """The table written one value at a time: floats as format(v, '.17g'), ranks joined by '-'."""

    def cell(v):
        if isinstance(v, (tuple, list)):
            return "-".join(str(int(x)) for x in v)
        return format_value(v)

    lines = [f"# schema_version={SCHEMA_VERSION}"]
    lines += [f"# {k}={format_value(v)}" for k, v in (meta or {}).items()]
    lines.append(",".join(columns))
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def written(columns, data, meta=None):
    buf = io.StringIO()
    write_table_csv(buf, columns, data, meta)
    return buf.getvalue()


FLOATS = [1.0, 5e-324, -0.125, 3.0, -2.5e300, 0.1, 1 / 3, -0.0, 2.0**53, float("inf")]


def test_columns_of_every_kind_match_reference():
    codes = np.array([0, 7, 39916799, 479001599, 12345678, 1, 2, 3, 4, 5], dtype=np.int64)
    ranks = decode_pattern(codes, 12)  # L = 12: ranks 10 and 11 have two digits
    labels = ["white-noise", "fbm:0.7", "a", "b", "c", "d", "e", "f", "g", "h"]
    counts = np.array([1, 2, 3, 10**12, 5, 6, 7, 8, 9, 0], dtype=np.int64)
    probs = np.array(FLOATS)
    meta = {"L": 12, "log_max_patterns": 19.987214495661885, "source": "x.bin", "p": 1.0}
    rows = list(zip(labels, codes.tolist(), ranks.tolist(), counts.tolist(), probs.tolist()))
    columns = ("label", "code", "ranks", "count", "probability")
    got = written(columns, (labels, codes, ranks, counts, probs), meta)
    assert got == reference_csv(columns, rows, meta)
    assert "\nwhite-noise,0,0-1-2-3-4-5-6-7-8-9-10-11,1,1\n" in got
    assert ",11-10-9-8-7-6-5-4-3-2-1-0," in got
    assert ",4.9406564584124654e-324\n" in got


def test_python_row_tables_match_reference():
    """The small command tables arrive as zip(*rows) of Python values."""
    rows = [("fbm:0.7", 3, 0.5, "factorial", 0.9283), ("white-noise", 7, 1.0, "factorial", -1e-17)]
    columns = ("process", "L", "alpha", "class", "z_over_l")
    assert written(columns, zip(*rows), {"t": 60000}) == reference_csv(columns, rows, {"t": 60000})


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_block_edges(monkeypatch, n):
    monkeypatch.setattr(serialize, "_BLOCK", 3)
    codes = np.arange(n, dtype=np.int64) * 3
    ranks = decode_pattern(codes, 4)
    probs = np.linspace(-1.0, 1.0, n) / 3
    rows = list(zip(codes.tolist(), ranks.tolist(), probs.tolist()))
    columns = ("code", "ranks", "probability")
    got = written(columns, (codes, ranks, probs), {"L": 4})
    assert got == reference_csv(columns, rows, {"L": 4})
    if n == 0:
        assert got == f"# schema_version={SCHEMA_VERSION}\n# L=4\ncode,ranks,probability\n"


SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1]
COLUMN_KINDS = {
    "int64": (st.integers(-2**63, 2**63 - 1) | st.sampled_from([-2**63, 2**63 - 1, -1, 0, 9, 10]), np.int64),
    "uint64": (st.integers(0, 2**64 - 1) | st.sampled_from([2**64 - 1, 2**63, 0, 10]), np.uint64),
    "int8": (st.integers(-128, 127) | st.sampled_from([-128, 127, -1, 0]), np.int8),
    "float64": (st.floats() | st.sampled_from(SPECIAL_FLOATS), np.float64),
    "float32": (st.floats(width=32), np.float32),
    "bool": (st.booleans(), bool),
    "str": (st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=6)
            | st.sampled_from(["", "é", "fbm:0.7"]), str),
}


@st.composite
def tables(draw):
    """1 to 4 columns of n rows: any kind of COLUMN_KINDS, or (n, k) rank rows with k <= 20."""
    n = draw(st.integers(0, 10))
    columns = []
    for kind in draw(st.lists(st.sampled_from([*COLUMN_KINDS, "ranks"]), min_size=1, max_size=4)):
        if kind == "ranks":
            k = draw(st.integers(1, 20))
            ranks = draw(st.lists(st.integers(0, 19), min_size=n * k, max_size=n * k))
            columns.append(np.array(ranks, dtype=np.int8).reshape(n, k))
        else:
            elements, dtype = COLUMN_KINDS[kind]
            columns.append(np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype))
    return columns


@settings(deadline=None)
@given(tables(), st.integers(1, 4))
def test_any_table_matches_reference(columns, block):
    """Every dtype the writer meets, block sizes down to one row, against format_value."""
    names = [f"c{i}" for i in range(len(columns))]
    rows = list(zip(*[c.tolist() for c in columns]))
    with mock.patch.object(serialize, "_BLOCK", block):
        assert written(names, columns, {"n": len(rows)}) == reference_csv(names, rows, {"n": len(rows)})


def test_nul_in_a_cell_is_refused():
    with pytest.raises(ValueError, match="NUL"):
        written(("label",), (np.array(["ok", "a\0b"]),))


def test_trailing_nul_in_a_list_cell_is_refused():
    # a <U array of these cells would hold "x": the check runs before any conversion
    with pytest.raises(ValueError, match="NUL"):
        written(("label",), (["x\0", "y"],))


def test_trailing_nul_in_an_object_array_cell_is_refused():
    with pytest.raises(ValueError, match="NUL"):
        written(("label", "n"), (np.array(["x\0", "y"], dtype=object), [1, 2]))


@pytest.mark.parametrize("n", [1, 3, 7])
def test_series_csv_blocks(monkeypatch, n):
    monkeypatch.setattr(serialize, "_BLOCK", 3)
    samples = np.array(FLOATS[:n]) * -7.0
    buf = io.StringIO()
    write_series_csv(buf, samples)
    assert buf.getvalue() == "\n".join(format(v, ".17g") for v in samples) + "\n"


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_join_rank_rows_blocks(n):
    # blocks of 3 codes, with an empty block first and after every block
    codes = np.arange(n, dtype=np.int64) * 11
    blocks = [codes[:0]] + [b for lo in range(0, n, 3) for b in (codes[lo:lo + 3], codes[:0])]
    got = "".join(serialize.join_rank_rows(blocks, lambda c: decode_pattern(c, 5)))
    assert got == "|".join("-".join(map(str, decode_pattern(int(c), 5))) for c in codes)


def test_join_rank_rows_two_digit_ranks_across_blocks():
    """L = 12 ranks reach 10 and 11; 10 codes over blocks of 4 end in a short block."""
    codes = np.linspace(0, math.factorial(12) - 1, 10).astype(np.int64)
    blocks = (codes[lo:lo + 4] for lo in range(0, codes.size, 4))
    got = "".join(serialize.join_rank_rows(blocks, lambda c: decode_pattern(c, 12)))
    assert got == "|".join("-".join(map(str, decode_pattern(int(c), 12))) for c in codes)
    assert got.startswith("0-1-2-3-4-5-6-7-8-9-10-11|") and got.endswith("|11-10-9-8-7-6-5-4-3-2-1-0")


def test_census_out_file_equals_stdout(tmp_path, capsys, monkeypatch):
    """A file written block by block holds every block, not only the last one."""
    monkeypatch.setattr(serialize, "_BLOCK", 1000)
    rng = np.random.default_rng(9)
    series = tmp_path / "tied.csv"
    write_series_csv(str(series), rng.integers(0, 16, 20_000).astype(np.float64))
    out = tmp_path / "census.csv"
    argv = ["census", "--input", str(series), "--length", "9"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == stdout
    assert stdout.count("\n") > 3 * 1000
