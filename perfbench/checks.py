"""Independent checks of every output the benchmark collects.

Each check returns ``(attempted, failed)``: one operation per output row,
counted over the union of rows the program printed and rows the reference
expects, so a missing, extra or wrong row is one failed operation.  The
references use numpy only (stable argsort rank rows, ties resolved toward the
earlier index) except entropy-sweep, which compares against values recorded
by `make_reference.py` plus invariants every correct run satisfies.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads as wl

ENTROPY_REFERENCE = Path(__file__).resolve().parent / "reference" / "entropy_sweep.json"
ENTROPY_RTOL = 1e-9
PC_RTOL = 1e-9
COUNT_RTOL = 1e-12


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def table_rows(text: str) -> list:
    """Data rows of an ordent CSV table: '#' comments and the header dropped."""
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")][1:]


# ------------------------------------------------------------ entropy-sweep


def entropy_rows(text: str) -> dict:
    """(process, L, alpha) -> z_over_l."""
    rows = table_rows(text)
    return {(r[0], int(r[1]), r[2]): float(r[4]) for r in rows}


def load_entropy_reference(path=ENTROPY_REFERENCE) -> dict:
    """ordent seed -> {(process, L, alpha): z_over_l}."""
    data = json.loads(Path(path).read_text())
    keys = [tuple(k) for k in data["keys"]]
    return {int(seed): dict(zip(keys, values)) for seed, values in data["values"].items()}


def entropy_violations(rows: dict) -> set:
    """Rows breaking an invariant: Z/L in [0, 1], non-increasing in alpha,
    and no process above white noise at the same (L, alpha)."""
    bad = {k for k, v in rows.items() if not 0.0 <= v <= 1.0}
    by_curve = defaultdict(list)
    for (process, length, alpha), v in rows.items():
        by_curve[(process, length)].append((float(alpha), alpha, v))
    for (process, length), points in by_curve.items():
        points.sort()
        for (_, _, lo), (_, alpha, hi) in zip(points, points[1:]):
            if hi > lo:
                bad.add((process, length, alpha))
    for (process, length, alpha), v in rows.items():
        ceiling = rows.get(("white-noise", length, alpha))
        if ceiling is not None and v > ceiling:
            bad.add((process, length, alpha))
    return bad


def check_entropy(text: str, reference: dict) -> tuple:
    rows = entropy_rows(text)
    keys = set(rows) | set(reference)
    bad = {k for k in keys if k not in rows or k not in reference
           or not close(rows[k], reference[k], ENTROPY_RTOL)}
    return len(keys), len(bad | entropy_violations(rows))


# ----------------------------------------------------------------- rank rows


def rank_row_ids(x: np.ndarray, length: int, chunk: int = 1 << 16) -> np.ndarray:
    """Per window, the stable-argsort rank row read as a base-``length`` number."""
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(x, dtype=np.float64), length)
    place = length ** np.arange(length - 1, -1, -1, dtype=np.int64)
    ids = np.empty(windows.shape[0], dtype=np.int64)
    for lo in range(0, windows.shape[0], chunk):
        ids[lo:lo + chunk] = np.argsort(windows[lo:lo + chunk], axis=1, kind="stable") @ place
    return ids


def id_rows(ids: np.ndarray, length: int) -> np.ndarray:
    """Inverse of the base-``length`` packing: one rank row per id."""
    rows = np.empty((ids.size, length), dtype=np.int64)
    rest = ids.copy()
    for j in range(length - 1, -1, -1):
        rest, rows[:, j] = np.divmod(rest, length)
    return rows


def lexicographic_codes(rows: np.ndarray) -> np.ndarray:
    """Rank of each permutation row among all permutations in lexicographic order."""
    length = rows.shape[1]
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(length - 1):
        smaller_after = (rows[:, i + 1:] < rows[:, i:i + 1]).sum(axis=1)
        codes += smaller_after * math.factorial(length - 1 - i)
    return codes


def window_codes(x: np.ndarray, length: int) -> np.ndarray:
    uniq, inverse = np.unique(rank_row_ids(x, length), return_inverse=True)
    return lexicographic_codes(id_rows(uniq, length))[inverse]


# -------------------------------------------------------------- long-census


def census_reference(x: np.ndarray, length: int) -> dict:
    """ranks text -> (code, count, probability) over every sliding window."""
    uniq, counts = np.unique(rank_row_ids(x, length), return_counts=True)
    rows = id_rows(uniq, length)
    codes = lexicographic_codes(rows)
    total = int(counts.sum())
    return {"-".join(map(str, r)): (int(c), int(n), int(n) / total)
            for r, c, n in zip(rows.tolist(), codes.tolist(), counts.tolist())}


def check_census(text: str, reference: dict) -> tuple:
    rows = table_rows(text)
    printed = {r[1]: (int(r[0]), int(r[2]), float(r[3])) for r in rows}
    keys = set(printed) | set(reference)
    bad = set()
    for k in keys:
        got, want = printed.get(k), reference.get(k)
        if got is None or want is None or got[:2] != want[:2] or not close(got[2], want[2], COUNT_RTOL):
            bad.add(k)
    return len(keys), len(bad)


def transitions_reference(x: np.ndarray, length: int) -> dict:
    """(source code, target code) -> probability of consecutive windows."""
    codes = window_codes(x, length)
    n_all = math.factorial(length)
    pairs, counts = np.unique(codes[:-1] * n_all + codes[1:], return_counts=True)
    src, dst = np.divmod(pairs, n_all)
    totals = defaultdict(int)
    for s, n in zip(src.tolist(), counts.tolist()):
        totals[s] += n
    return {(s, d): n / totals[s] for s, d, n in zip(src.tolist(), dst.tolist(), counts.tolist())}


def check_transitions(text: str, reference: dict) -> tuple:
    printed = {(int(s), int(d)): float(p) for s, d, p in json.loads(text)}
    keys = set(printed) | set(reference)
    bad = {k for k in keys if k not in printed or k not in reference
           or not close(printed[k], reference[k], COUNT_RTOL)}
    return len(keys), len(bad)


# ----------------------------------------------------------------- pc-curve


def _spec(token: str, t: int, seed: int):
    from ordent import processgen

    kind, _, hurst = token.partition(":")
    if kind in ("fgn", "fbm"):
        return getattr(processgen, kind)(t, float(hurst), seed=seed)
    return getattr(processgen, kind.replace("-", "_"))(t, seed=seed)


def pc_reference(seed: int, processes=wl.PC_PROCESSES, length=wl.PC_LENGTH, t_max=wl.PC_T_MAX,
                 realizations=wl.PC_REALIZATIONS, points=wl.PC_GRID_POINTS) -> dict:
    """(process, T) -> (mean, stddev) of ln A(L, T), the distinct rank rows among
    the windows inside the first T samples of realization seed + r."""
    from ordent import processgen

    grid = np.array(sorted({int(round(v)) for v in np.geomspace(length, t_max, points)}))
    out = {}
    for token in processes:
        logs = np.empty((realizations, grid.size))
        for r in range(realizations):
            x = processgen.generate(_spec(token, t_max, seed + r)).samples
            _, first = np.unique(rank_row_ids(x, length), return_index=True)
            distinct = np.searchsorted(np.sort(first), grid - length, side="right")
            logs[r] = np.log(distinct)
        std = logs.std(axis=0, ddof=1) if realizations > 1 else np.zeros(grid.size)
        for t, m, s in zip(grid.tolist(), logs.mean(axis=0).tolist(), std.tolist()):
            out[(token, t)] = (m, s)
    return out


def check_pc_curve(text: str, reference: dict) -> tuple:
    rows = table_rows(text)
    printed = {(r[0], int(r[2])): (float(r[3]), float(r[4])) for r in rows}
    keys = set(printed) | set(reference)
    bad = {k for k in keys if k not in printed or k not in reference
           or not all(close(a, b, PC_RTOL) or abs(a - b) < 1e-12
                      for a, b in zip(printed[k], reference[k]))}
    return len(keys), len(bad)


# ----------------------------------------------------------------- dispatch


class Verifier:
    """Checks one workload's outputs, computing each reference once per input."""

    def __init__(self, workload: str):
        self.workload = workload
        self._refs = {}

    def _reference(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def __call__(self, key, name: str, text: str) -> tuple:
        if self.workload == "entropy-sweep":
            table = self._reference("table", load_entropy_reference)
            return check_entropy(text, table.get(int(key), {}))
        if self.workload == "pc-curve":
            return check_pc_curve(text, self._reference(key, lambda: pc_reference(int(key))))
        x = self._reference(key, lambda: wl.read_recording(key))
        if name == "census":
            ref = self._reference((key, name), lambda: census_reference(x, wl.CENSUS_LENGTH))
            return check_census(text, ref)
        ref = self._reference((key, name), lambda: transitions_reference(x, wl.TRANSITION_LENGTH))
        return check_transitions(text, ref)
