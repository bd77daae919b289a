"""File formats: sample series (CSV / binary), result tables (CSV / JSON)."""

from __future__ import annotations

import contextlib
import json
import os
import struct
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

SCHEMA_VERSION = 1

_MAGIC = b"ORDENTS1"
_HEADER = struct.Struct("<8sII")  # magic, version, reserved

# rows formatted and written at once; bounds the text held in memory
_BLOCK = 1 << 14


def write_series_binary(path: str, samples: np.ndarray) -> None:
    """Raw little-endian float64 samples behind a fixed 16-byte header."""
    data = np.ascontiguousarray(samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, 0))
        data.tofile(fh)  # straight from the array, without a bytes copy


def read_series_binary(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, _ = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise ValueError(f"{path}: unsupported version {version}")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload % 8:
            raise ValueError(
                f"{path}: truncated payload: {payload} bytes is not a whole number "
                "of 8-byte samples"
            )
        return np.fromfile(fh, dtype="<f8", count=payload // 8)


def write_series_csv(path_or_fh, samples: np.ndarray) -> None:
    """One sample per line, full round-trip precision."""
    _write_blocks(path_or_fh, [], [np.asarray(samples, dtype=np.float64)])


def read_series(path: str) -> np.ndarray:
    """Load a series from the binary format or a one-column CSV."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
        return read_series_binary(path)
    values = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text.split(",")[0]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse {text!r} as a number")
    if not values:
        raise ValueError(f"{path}: no samples found")
    return np.asarray(values, dtype=np.float64)


def format_value(v) -> str:
    """A '#' metadata value: floats at round-trip precision, anything else by str."""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_table_csv(path_or_fh, columns: Sequence[str], data: Iterable, meta: dict | None = None) -> None:
    """Comma-separated table with '#'-prefixed header comments.

    ``data`` holds the table by columns, in the order of ``columns``: each is
    a 1-D sequence, or an ``(n, k)`` integer array of rank rows that prints as
    ``a-b-...``.  Floats print as ``format(v, ".17g")``, integers as ``str``.
    A ``meta`` value that is an iterator of str is written piece by piece, so
    a long comment line is never held whole.
    """
    _write_blocks(path_or_fh, _head(columns, meta or {}), [_column(c) for c in data])


def _head(columns: Sequence[str], meta: dict):
    """The header of a CSV table as pieces of text: '#' comment lines, then the column names."""
    yield f"# schema_version={SCHEMA_VERSION}\n"
    for key, value in meta.items():
        if isinstance(value, Iterator):
            yield f"# {key}="
            yield from value
            yield "\n"
        else:
            yield f"# {key}={format_value(value)}\n"
    yield ",".join(columns) + "\n"


def _column(cells) -> np.ndarray:
    """One table column as an array, refusing a str cell that holds a NUL.

    The cells are checked as given: the ``<U`` array that numpy makes of str
    drops a trailing NUL without a trace.
    """
    if not isinstance(cells, np.ndarray) or cells.dtype.kind in "OU":
        if any("\0" in v for v in cells if isinstance(v, str)):
            raise ValueError("a table cell contains a NUL character")
    return np.asarray(cells)


def join_rank_rows(blocks: Iterable[np.ndarray], decode) -> Iterator[str]:
    """Pattern codes, given as arrays of codes one after another, as
    ``a-b-...|c-d-...`` text, yielded one array at a time.

    ``decode`` maps an array of codes to ``(n, L)`` rank rows.  Only one
    array's rows and text are alive at once; the pieces join to the whole line.
    """
    sep = ""
    for codes in blocks:
        if len(codes):
            yield sep + _rows_text([decode(codes)], "|")[:-1]
            sep = "|"


def _rows_text(cols: list, end: str = "\n") -> str:
    """The rows of ``cols``, cells joined by ',' and rows closed by ``end``.

    Every column writes its cells straight into its slice of one ``(n, width)``
    uint8 matrix whose rows start as the separators over NUL cell slots; the
    NULs that shorter cells leave in their slots are dropped at the end.  The
    matrix is a view of a bytearray, so its bytes are read without a copy.
    """
    cells = [_cells(col) for col in cols]
    line = b",".join(blank for blank, _ in cells) + end.encode()
    text = bytearray(line) * len(cols[0])
    block = np.frombuffer(text, np.uint8).reshape(len(cols[0]), len(line))
    at = 0
    for blank, write in cells:
        write(block[:, at:at + len(blank)])
        at += len(blank) + 1
    return text.translate(None, b"\0").decode()


def _cells(col: np.ndarray):
    """``(blank, write)`` for one column: its cell slots as they start (NUL, and
    the '-' between rank cells), and a function that writes the cells into the
    ``(n, len(blank))`` uint8 slice it is given.

    Integers and ``(n, k)`` rank rows (``a-b-...``) in decimal; floats as
    ``"%.17g"`` and anything else by ``str`` in UTF-8, each distinct value
    formatted once (floats told apart by bit pattern: ``-0.0``, every NaN).
    """
    if col.dtype.kind in "iu":
        low = int(col.min(initial=0))
        top = max(int(col.max(initial=0)), -low)
        sign = int(low < 0)
        width = sign + len(str(top))
        if col.ndim == 1:
            return b"\0" * width, lambda out: _write_ints(col, sign, top, out)
        # each cell behind one slot, the '-' from the second cell on; the reshape
        # splits only the contiguous last axis, so it is a view of the block
        k = col.shape[1]
        shape = (len(col), k, width + 1)
        return (b"\0" + b"-".join([b"\0" * width] * k),
                lambda out: _write_ints(col, sign, top, out.reshape(shape)[..., 1:]))
    if col.dtype.kind == "f":
        bits, inverse = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        # "%.17g" text is at most 24 characters and holds no space
        text = ("%-24.17g" * len(values) % tuple(values)).encode()
        table = np.frombuffer(text.replace(b" ", b"\0"), "S24")
    else:
        distinct, inverse = np.unique(col.astype(str), return_inverse=True)
        table = np.char.encode(distinct, "utf-8")
    rows = table.view(np.uint8).reshape(len(table), table.itemsize)
    text = np.dtype((np.void, max(int(rows.any(axis=0).sum()), 1)))  # the longest text
    texts = np.ascontiguousarray(rows[:, :text.itemsize]).view(text)[:, 0]

    def write(out):
        out.view(text)[:, 0] = texts[inverse]

    return b"\0" * text.itemsize, write


def _write_ints(a: np.ndarray, sign: int, top: int, out: np.ndarray) -> None:
    """The decimal text of ``a`` into ``out`` of shape ``a.shape + (w,)``: with
    ``sign`` set (some value is negative) a '-' slot first, then the digits
    right-aligned over NULs.

    ``top`` bounds ``|a|``; the digits are taken in the narrowest unsigned dtype
    that holds it.
    """
    rest = a.astype(np.min_scalar_type(top))  # unsigned: negatives wrap, negation below unwraps
    if sign:
        negative = a < 0
        np.negative(rest, where=negative, out=rest)
        out[..., 0] = negative * ord("-")
    last = out.shape[-1] - 1  # slot of the units digit
    for j in range(last, sign - 1, -1):
        tens = rest // 10 if j > sign else 0
        digit = rest - tens * 10 + ord("0")
        out[..., j] = digit if j == last else digit * (rest > 0)
        rest = tens


def _write_blocks(path_or_fh, head: Iterable[str], cols: list) -> None:
    """The ``head`` text, then the rows of ``cols`` formatted and written _BLOCK at a time."""
    n = len(cols[0]) if cols else 0
    with _destination(path_or_fh) as fh:
        for piece in head:  # one write each: a '# missing=' line comes in blocks
            _write_text(fh, piece)
        for lo in range(0, n, _BLOCK):
            _write_text(fh, _rows_text([c[lo:lo + _BLOCK] for c in cols]))


def json_records(columns: Sequence[str], table: Sequence) -> Iterator[list]:
    """The rows of a column table, as ``write_table_csv`` takes it, as lists of
    ``{column: cell}`` records, ``_BLOCK`` rows to a list: a value for ``write_json``.

    A numpy column goes through ``.tolist()``, so an ``(n, k)`` rank array gives
    one list per record; a plain list or tuple is sliced as it is.
    """
    n = len(table[0]) if table else 0
    for lo in range(0, n, _BLOCK):
        records = [{} for _ in range(min(_BLOCK, n - lo))]
        # filled a column at a time: about 3x faster than dict(zip(columns, row)) per row
        for name, col in zip(columns, table):
            cells = col[lo:lo + _BLOCK]
            for record, cell in zip(records, cells.tolist() if isinstance(cells, np.ndarray) else cells):
                record[name] = cell
        yield records


def write_json(path_or_fh, payload: dict) -> None:
    """``payload`` after a ``schema_version`` key, as ``json.dumps(..., indent=2)`` prints it.

    A value that is an iterator of lists is written as one JSON array, one
    list at a time, so the whole array is never held; the bytes are those
    of the joined list.
    """
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    with _destination(path_or_fh) as fh:
        sep = "{\n  "
        for key, value in body.items():
            fh.write(sep + json.dumps(key) + ": ")
            sep = ",\n  "
            if isinstance(value, Iterator):
                _write_json_array(fh, value)
            else:
                fh.write(_nested_json(value))
        fh.write("\n}\n")


def _nested_json(value) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` prints it one level down."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _write_json_array(fh, blocks: Iterator) -> None:
    """The lists of ``blocks`` as one JSON array one level down, list by list."""
    sep = "["
    for items in blocks:
        if items:
            fh.write(sep + _nested_json(items)[1:-len("\n  ]")])  # the items, indented
            sep = ","
    fh.write("[]" if sep == "[" else "\n  ]")


@contextlib.contextmanager
def _destination(path_or_fh):
    """stdout for None, an open handle as given, a path opened once for writing."""
    if path_or_fh is None:
        yield sys.stdout
    elif hasattr(path_or_fh, "write"):
        yield path_or_fh
    else:
        with open(path_or_fh, "w") as fh:
            yield fh


def _write_text(path_or_fh, text: str) -> None:
    with _destination(path_or_fh) as fh:
        fh.write(text)
