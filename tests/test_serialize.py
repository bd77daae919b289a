"""Table and series writers: bytes against a per-value reference, block edges, one open."""

import io
import json
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


FLOATS = [1.0, 5e-324, -0.125, 3.0, -2.5e300, 0.1, 1 / 3, -0.0, 2.0**53, float("inf"),
          math.nan, -math.nan]


def test_columns_of_every_kind_match_reference():
    codes = np.array([0, 7, 39916799, 479001599, 12345678, 1, 2, 3, 4, 5, 6, 8], dtype=np.int64)
    ranks = decode_pattern(codes, 12)  # L = 12: ranks 10 and 11 have two digits
    # beside the ranks: negative integers, and uint64 up to its maximum
    shifts = np.array([-2**63, -1, 0, 9, -10, 2**63 - 1, 5, -5, 0, 0, 1, -1], dtype=np.int64)
    wide = np.array([2**64 - 1, 0, 1, 2**63, 10, 9, 99, 100, 7, 7, 7, 2**64 - 2], dtype=np.uint64)
    labels = ["white-noise", "fbm:0.7", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]
    counts = np.array([1, 2, 3, 10**12, 5, 6, 7, 8, 9, 0, 1, 1], dtype=np.int64)
    probs = np.array(FLOATS)  # -0.0 and both NaN signs among them
    meta = {"L": 12, "log_max_patterns": 19.987214495661885, "source": "x.bin", "p": 1.0}
    table = (labels, codes, shifts, ranks, wide, counts, probs)
    rows = list(zip(*[c if isinstance(c, list) else c.tolist() for c in table]))
    columns = ("label", "code", "shift", "ranks", "wide", "count", "probability")
    got = written(columns, table, meta)
    assert got == reference_csv(columns, rows, meta)
    assert "\nwhite-noise,0,-9223372036854775808,0-1-2-3-4-5-6-7-8-9-10-11,18446744073709551615,1,1\n" in got
    assert ",11-10-9-8-7-6-5-4-3-2-1-0," in got
    assert ",4.9406564584124654e-324\n" in got
    assert ",100,8,-0\n" in got and got.count(",nan\n") == 2


def test_python_row_tables_match_reference():
    """The small command tables arrive as zip(*rows) of Python values."""
    rows = [("fbm:0.7", 3, 0.5, "factorial", 0.9283), ("white-noise", 7, 1.0, "factorial", -1e-17)]
    columns = ("process", "L", "alpha", "class", "z_over_l")
    assert written(columns, zip(*rows), {"t": 60000}) == reference_csv(columns, rows, {"t": 60000})


@pytest.mark.parametrize("length", [4, 11])
@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_block_edges(monkeypatch, n, length):
    """Blocks of 3 rows.  At L = 11 each block sizes its own cells: the codes
    widen from one digit to eight, and the leading four ranks of each pattern
    print one digit apiece until the last block, where they print ``10``."""
    monkeypatch.setattr(serialize, "_BLOCK", 3)
    if length == 4:
        codes = np.arange(n, dtype=np.int64) * 3
        ranks = decode_pattern(codes, 4)
    else:
        codes = np.array([0, 1, 2, 10**5, 10**6, 10**7, math.factorial(11) - 1][:n], dtype=np.int64)
        ranks = decode_pattern(codes, 11)[:, :4]
    probs = np.linspace(-1.0, 1.0, n) / 3
    rows = list(zip(codes.tolist(), ranks.tolist(), probs.tolist()))
    columns = ("code", "ranks", "probability")
    got = written(columns, (codes, ranks, probs), {"L": length})
    assert got == reference_csv(columns, rows, {"L": length})
    if n == 0:
        assert got == f"# schema_version={SCHEMA_VERSION}\n# L={length}\ncode,ranks,probability\n"
    if length == 11 and n == 7:
        assert "\n0,0-1-2-3,-0.33333333333333331\n" in got
        assert got.endswith("\n39916799,10-9-8-7,0.33333333333333331\n")


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


@pytest.mark.parametrize("samples", [
    np.array([0.0]),
    np.array([-0.0, 1.5, np.pi, -1e308, 5e-324]),
    np.arange(10.0)[::3],  # strided: written as its contiguous copy
    np.arange(7, dtype=np.int32),  # cast to float64 first
    np.linspace(0.0, 1.0, 100_003).astype(">f8"),  # big-endian: written little-endian
])
def test_series_binary_is_header_and_little_endian_bytes(tmp_path, samples):
    path = str(tmp_path / "s.bin")
    serialize.write_series_binary(path, samples)
    want = np.ascontiguousarray(samples, dtype="<f8")
    with open(path, "rb") as fh:
        assert fh.read() == serialize._HEADER.pack(serialize._MAGIC, 1, 0) + want.tobytes()
    assert np.array_equal(serialize.read_series_binary(path), want)


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


def reference_json(payload):
    """The document ``write_json`` stands for, materialized and dumped at once."""
    body = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(body, indent=2) + "\n"


@pytest.mark.parametrize("blocks", [
    [], [[]], [[], []], [[1]], [[{"a": [1, 2]}], [], [{"b": 2.5}, "c"]], [[1, 2, 3], [4], []],
])
def test_json_array_from_blocks(blocks):
    buf = io.StringIO()
    serialize.write_json(buf, {"meta": {"L": 3}, "rows": iter(blocks), "after": [[], {}]})
    joined = [item for block in blocks for item in block]
    assert buf.getvalue() == reference_json({"meta": {"L": 3}, "rows": joined, "after": [[], {}]})


@pytest.mark.parametrize("n", [0, 1, 3, 4, 7])
def test_json_records_match_reference(monkeypatch, n):
    monkeypatch.setattr(serialize, "_BLOCK", 3)
    codes = np.arange(n, dtype=np.int64) * 5 - 2**40
    ranks = decode_pattern(np.arange(n) * 7, 5)
    values = np.array([-0.0, 5e-324, 1e308] * 3)[:n]
    labels = np.array(["fbm:0.7", "é", ""] * 3)[:n]
    intervals = tuple(((0.25 * i, 0.5), (1.0, 1.0)) for i in range(n))
    columns = ("code", "ranks", "value", "label", "intervals")
    table = (codes, ranks, values, labels, intervals)
    assert [len(b) for b in serialize.json_records(columns, table)] == [3] * (n // 3) + [n % 3] * (n % 3 > 0)
    records = [
        {"code": int(codes[i]), "ranks": [int(r) for r in ranks[i]], "value": float(values[i]),
         "label": str(labels[i]), "intervals": intervals[i]}
        for i in range(n)
    ]
    buf = io.StringIO()
    serialize.write_json(buf, {"rows": serialize.json_records(columns, table)})
    assert buf.getvalue() == reference_json({"rows": records})


@pytest.mark.parametrize("argv", [
    "census --process logistic --t 2000 --length 5 --format json",
    "census --process logistic --t 2000 --length 5 --report-missing --format json",
    "oracle --length 5 --what cells",
    "oracle --length 5 --what transitions",
    "oracle --length 5 --what both",
    "rate --process white-noise --t 2000 --l-min 2 --l-max 5 --format json",
])
def test_json_tables_reach_the_encoder_a_block_at_a_time(capsys, monkeypatch, argv):
    monkeypatch.setattr(serialize, "_BLOCK", 3)
    nested, sizes = serialize._nested_json, []

    def spy(value):
        if isinstance(value, list) and value and isinstance(value[0], dict):
            sizes.append(len(value))
        return nested(value)

    monkeypatch.setattr(serialize, "_nested_json", spy)
    assert main(argv.split()) == 0
    document = json.loads(capsys.readouterr().out)
    tables = [v for v in document.values() if isinstance(v, list) and v and isinstance(v[0], dict)]
    assert sum(sizes) == sum(map(len, tables)) > 3
    assert max(sizes) <= 3


@pytest.mark.parametrize("block", [3, 1 << 14])
@pytest.mark.parametrize("process, t, length", [
    ("logistic", 5000, 5),  # missing patterns, across many blocks of 3 codes
    ("white-noise", 2000, 3),  # none missing: an empty list
])
def test_census_missing_json_streams(capsys, monkeypatch, block, process, t, length):
    monkeypatch.setattr(serialize, "_BLOCK", block)
    assert main(["census", "--process", process, "--t", str(t), "--length", str(length),
                 "--report-missing", "--format", "json"]) == 0
    text = capsys.readouterr().out
    document = json.loads(text)
    seen = {p["code"] for p in document["patterns"]}
    missing = [c for c in range(math.factorial(length)) if c not in seen]
    assert [m["code"] for m in document["missing"]] == missing
    assert [m["ranks"] for m in document["missing"]] == [list(decode_pattern(c, length)) for c in missing]
    assert (process == "logistic") == bool(missing)
    assert text == reference_json({k: v for k, v in document.items() if k != "schema_version"})
