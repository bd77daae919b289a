"""File formats: sample series (CSV / binary), result tables (CSV / JSON)."""

from __future__ import annotations

import io
import json
import struct
import sys
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 1

_MAGIC = b"ORDENTS1"
_HEADER = struct.Struct("<8sII")  # magic, version, reserved


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
    lines = "\n".join(format(v, ".17g") for v in samples)
    _write_text(path_or_fh, lines + "\n")


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
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (tuple, list)):
        return "-".join(str(int(x)) for x in v)
    return str(v)


def write_table_csv(path_or_fh, columns: Sequence[str], rows: Iterable[Sequence], meta: dict | None = None) -> None:
    """Comma-separated table with '#'-prefixed header comments."""
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key, value in (meta or {}).items():
        buf.write(f"# {key}={format_value(value)}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(format_value(v) for v in row) + "\n")
    _write_text(path_or_fh, buf.getvalue())


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


def _write_text(path_or_fh, text: str) -> None:
    if path_or_fh is None:
        sys.stdout.write(text)
    elif hasattr(path_or_fh, "write"):
        path_or_fh.write(text)
    else:
        with open(path_or_fh, "w") as fh:
            fh.write(text)
