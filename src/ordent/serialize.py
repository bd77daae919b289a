"""File formats: sample series (CSV / binary), result tables (CSV / JSON)."""

from __future__ import annotations

import contextlib
import json
import struct
import sys
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 1

_MAGIC = b"ORDENTS1"
_HEADER = struct.Struct("<8sII")  # magic, version, reserved

# rows formatted by one %-operation; bounds the text held in memory at once
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
        payload = fh.read()
    if len(payload) % 8:
        raise ValueError(
            f"{path}: truncated payload: {len(payload)} bytes is not a whole number "
            "of 8-byte samples"
        )
    return np.frombuffer(payload, dtype="<f8").copy()


def write_series_csv(path_or_fh, samples: np.ndarray) -> None:
    """One sample per line, full round-trip precision."""
    _write_blocks(path_or_fh, [], "%.17g\n", [np.asarray(samples, dtype=np.float64)])


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
    """
    head = [f"# schema_version={SCHEMA_VERSION}\n"]
    head += [f"# {key}={format_value(value)}\n" for key, value in (meta or {}).items()]
    head.append(",".join(columns) + "\n")
    cols = [np.asarray(c) for c in data]
    _write_blocks(path_or_fh, head, ",".join(map(_cell_format, cols)) + "\n", cols)


def join_rank_rows(codes: np.ndarray, decode) -> str:
    """Pattern codes as one ``a-b-...|c-d-...`` string.

    ``decode`` maps an array of codes to ``(n, L)`` rank rows; it is called
    on _BLOCK codes at a time, so only the text is held whole.
    """
    blocks = (decode(codes[lo:lo + _BLOCK]) for lo in range(0, len(codes), _BLOCK))
    return "|".join(_format_rows(_cell_format(b), [b], "|") for b in blocks)


def _cell_format(col: np.ndarray) -> str:
    if col.ndim == 2:
        return "-".join(["%d"] * col.shape[1])
    if col.dtype.kind == "f":
        return "%.17g"
    if col.dtype.kind in "iu":
        return "%d"
    return "%s"


def _format_rows(row: str, cols: list, sep: str = "") -> str:
    """Every row of ``cols`` through the %-format ``row``, joined by ``sep``, in one operation."""
    cells = np.hstack([c.reshape(len(c), -1).astype(object) for c in cols])
    return sep.join([row] * len(cells)) % tuple(cells.ravel())


def _write_blocks(path_or_fh, head: list, row: str, cols: list) -> None:
    """The ``head`` lines, then the rows of ``cols`` formatted and written _BLOCK at a time."""
    n = len(cols[0]) if cols else 0
    with _destination(path_or_fh) as fh:
        for line in head:  # one write each: a '# missing=' line can be tens of MB
            _write_text(fh, line)
        for lo in range(0, n, _BLOCK):
            _write_text(fh, _format_rows(row, [c[lo:lo + _BLOCK] for c in cols]))


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
