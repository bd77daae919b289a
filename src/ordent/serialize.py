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
        fh.write(data.tobytes())


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
    """The rows of ``cols``, cells joined by ',' and rows closed by ``end``: the
    columns' NUL-padded cell matrices side by side, with the NULs dropped."""
    n = len(cols[0])
    parts = []
    for col in cols:
        parts += [_cells(col), np.full((n, 1), ord(","), np.uint8)]
    parts[-1] = np.full((n, 1), ord(end), np.uint8)
    return np.hstack(parts).tobytes().translate(None, b"\0").decode()


def _cells(col: np.ndarray) -> np.ndarray:
    """One column as an ``(n, w)`` uint8 matrix of cell text padded with NUL bytes.

    Integers and ``(n, k)`` rank rows (``a-b-...``) in decimal; floats as
    ``"%.17g"`` and anything else by ``str`` in UTF-8, each distinct value
    formatted once (floats told apart by bit pattern: ``-0.0``, every NaN).
    """
    if col.ndim == 2:
        cells = _int_cells(col)
        cells[:, 1:, 0] = ord("-")
        return cells.reshape(len(col), col.shape[1] * cells.shape[2])
    if col.dtype.kind in "iu":
        return _int_cells(col)
    if col.dtype.kind == "f":
        bits, inverse = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        # "%.17g" text is at most 24 characters and holds no space
        text = ("%-24.17g" * len(values) % tuple(values)).encode()
        table = np.frombuffer(text.replace(b" ", b"\0"), "S24")
    else:
        distinct, inverse = np.unique(col.astype(str), return_inverse=True)
        table = np.char.encode(distinct, "utf-8")
    return table.view(np.uint8).reshape(len(table), table.itemsize)[inverse]


def _int_cells(a: np.ndarray) -> np.ndarray:
    """Decimal text of an integer array along a new last axis: a free NUL slot, a '-' slot
    if any value is negative, digits."""
    low = int(a.min(initial=0))
    top = max(int(a.max(initial=0)), -low)
    sign = int(low < 0)
    last = sign + len(str(top))  # slot of the units digit
    out = np.zeros(a.shape + (last + 1,), np.uint8)
    rest = a.astype(np.min_scalar_type(top))  # unsigned: negatives wrap, negation below unwraps
    if sign:
        negative = a < 0
        np.negative(rest, where=negative, out=rest)
        out[..., 1] = negative * ord("-")
    for j in range(last, sign, -1):
        shown = rest > 0
        tens = rest // 10
        out[..., j] = (rest - tens * 10 + ord("0")) * (shown | (j == last))
        rest = tens
    return out


def _write_blocks(path_or_fh, head: Iterable[str], cols: list) -> None:
    """The ``head`` text, then the rows of ``cols`` formatted and written _BLOCK at a time."""
    n = len(cols[0]) if cols else 0
    with _destination(path_or_fh) as fh:
        for piece in head:  # one write each: a '# missing=' line comes in blocks
            _write_text(fh, piece)
        for lo in range(0, n, _BLOCK):
            _write_text(fh, _rows_text([c[lo:lo + _BLOCK] for c in cols]))


def write_json(path_or_fh, payload: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    _write_text(path_or_fh, json.dumps(body, indent=2, default=_jsonify) + "\n")


def _jsonify(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


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
