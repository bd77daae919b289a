"""Table and series writers: bytes against a per-value reference, block edges, one open."""

import io

import numpy as np
import pytest

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


@pytest.mark.parametrize("n", [1, 3, 7])
def test_series_csv_blocks(monkeypatch, n):
    monkeypatch.setattr(serialize, "_BLOCK", 3)
    samples = np.array(FLOATS[:n]) * -7.0
    buf = io.StringIO()
    write_series_csv(buf, samples)
    assert buf.getvalue() == "\n".join(format(v, ".17g") for v in samples) + "\n"


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_join_rank_rows_blocks(monkeypatch, n):
    monkeypatch.setattr(serialize, "_BLOCK", 3)
    codes = np.arange(n, dtype=np.int64) * 11
    got = serialize.join_rank_rows(codes, lambda c: decode_pattern(c, 5))
    assert got == "|".join("-".join(map(str, decode_pattern(int(c), 5))) for c in codes)


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
