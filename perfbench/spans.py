"""Out-of-package span tracer for ordent.

`Tracer.install()` replaces each layer entry point with a timing wrapper at
every binding inside the imported ``ordent`` modules (a function imported
with ``from .x import f`` is bound in several modules, and ``ordent.census``
on the package is the re-exported function, so modules are reached through
``sys.modules``).  Leaving the ``with`` block puts every original back.

A span is (id, parent id, name, start, end, info).  Pool tasks submitted
through ``complexity._run_indexed`` run on worker threads; their span takes
the submitting pool span as parent, so self times stay per layer.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    info: object


def _windows_info(tracer, args, kwargs, result):
    length = args[1] if len(args) > 1 else kwargs["length"]
    kept = getattr(args[0], "samples", args[0]) if tracer.keep_inputs else None
    return (int(length), int(result.size), kept)


def _from_codes_info(tracer, args, kwargs, result):
    return (int(result.length), int(result.total))


def _pc_curve_info(tracer, args, kwargs, result):
    return (int(result.length), int(result.t_grid[-1]), int(result.per_realization.shape[0]))


# (module, attribute, span name, info extractor).  The extractor runs after
# the span closes, so its cost falls outside every span but the caller's.
TARGETS = (
    ("ordent.cli", "main", "cli.main", None),
    ("ordent.processgen", "generate", "processgen.generate",
     lambda tr, a, k, r: a[0] if a else k["spec"]),
    ("ordent.patterns", "extract_patterns", "patterns.extract_patterns", _windows_info),
    ("ordent.patterns", "decode_pattern", "patterns.decode_pattern", None),
    ("ordent.census", "census", "census.census", None),
    ("ordent.census", "transition_matrix", "census.transition_matrix", None),
    ("ordent.census", "finite_pc_curve", "census.finite_pc_curve", _pc_curve_info),
    ("ordent.entropies", "renyi", "entropies.renyi", None),
    ("ordent.entropies", "lambert_w0", "entropies.lambert_w0", None),
    ("ordent.complexity", "entropy_rate", "complexity.entropy_rate", None),
    ("ordent.serialize", "read_series", "serialize.read_series",
     lambda tr, a, k, r: a[0] if a else k["path"]),
    ("ordent.serialize", "write_table_csv", "serialize.write_table_csv", None),
    ("ordent.serialize", "_write_text", "serialize._write_text",
     lambda tr, a, k, r: len(a[1] if len(a) > 1 else k["text"])),  # ASCII output
)


class Tracer:
    """Collects spans in memory; thread-safe for appends under the GIL."""

    def __init__(self):
        self.spans: List[Span] = []
        self.keep_inputs = False  # retain encoder inputs for the tie census
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None, info=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; ``parent`` overrides the thread's own."""
        kwargs = kwargs or {}
        stack = self._stack()
        saved = None
        if parent is not None:
            saved, stack[:] = stack[:], [parent]
        sid = next(self._ids)
        up = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if saved is not None:
                stack[:] = saved
        self.spans.append(
            Span(sid, up, name, start, end, info(self, args, kwargs, result) if info else None)
        )
        return result

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    def _wrap_pool(self, run_indexed):
        @functools.wraps(run_indexed)
        def traced(fn, n, workers):
            def submit():
                submitter = self._stack()[-1]

                def task(i):
                    return self.call("complexity.pool.task", fn, (i,), parent=submitter)

                return run_indexed(task, n, workers)

            return self.call("complexity.pool", submit)

        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap every target at every ordent binding; restore all on exit."""
        import ordent  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ordent" or key.startswith("ordent."))]
        replaced = []  # (owner, attribute, original)

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, value))
                        setattr(module, attr, wrapper)

        try:
            for module_name, attr, name, info in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                rebind(original, self._wrap(name, original, info))
            complexity = sys.modules["ordent.complexity"]
            original = complexity._run_indexed
            rebind(original, self._wrap_pool(original))
            dist_cls = sys.modules["ordent.census"].PatternDistribution
            descriptor = dist_cls.__dict__["from_codes"]
            replaced.append((dist_cls, "from_codes", descriptor))
            dist_cls.from_codes = classmethod(
                self._wrap("census.from_codes", descriptor.__func__, _from_codes_info)
            )
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)


# --------------------------------------------------------------- summaries


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def _tied_windows(x, length: int, chunk: int = 1 << 16):
    """(windows with at least one tie, windows) for sliding windows of ``length``."""
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(x, dtype=np.float64), length)
    tied = 0
    for lo in range(0, windows.shape[0], chunk):
        block = np.sort(windows[lo:lo + chunk], axis=1)
        tied += int((np.diff(block, axis=1) == 0).any(axis=1).sum())
    return tied, windows.shape[0]


def layer_metrics(spans: List[Span], ops: int) -> Dict[str, float]:
    """Per-layer figures per operation, from the spans of ``ops`` traced operations."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names):
        return sum(own[s.sid] for n in names for s in by_name[n]) / ops

    def calls(name):
        return len(by_name[name]) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    gen = by_name["processgen.generate"]
    distinct = defaultdict(set)
    for s in gen:
        distinct[[s.sid, *_ancestors(s, by_id)][-1]].add(s.info)
    extract = by_name["patterns.extract_patterns"]
    windows = sum(s.info[1] for s in extract)
    extract_self = sum(own[s.sid] for s in extract)
    tied = scanned = 0
    for s in extract:
        if s.info[2] is not None:
            t, n = _tied_windows(s.info[2], s.info[0])
            tied, scanned = tied + t, scanned + n
    sampling = [total / math.factorial(length) for length, total in
                (s.info for s in by_name["census.from_codes"])]

    pc_windows = pc_expected = 0
    pc_ids = {s.sid for s in by_name["census.finite_pc_curve"]}
    for s in by_name["census.finite_pc_curve"]:
        length, t_max, realizations = s.info
        pc_expected += realizations * (t_max - length + 1)
    for s in extract:
        if any(a in pc_ids for a in _ancestors(s, by_id)):
            pc_windows += s.info[1]

    pools = by_name["complexity.pool"]
    busy = sum(s.end - s.start for s in by_name["complexity.pool.task"])
    span_wall = sum(s.end - s.start for s in pools)
    writes = ("serialize.write_table_csv", "serialize._write_text")
    return {
        "processgen.generate.self_s": self_s("processgen.generate"),
        "processgen.generate.calls": calls("processgen.generate"),
        "processgen.generate.samples": sum(s.info.t for s in gen) / ops,
        "processgen.generate.redundancy": ratio(len(gen), sum(len(v) for v in distinct.values())),
        "patterns.extract_patterns.self_s": self_s("patterns.extract_patterns"),
        "patterns.extract_patterns.calls": calls("patterns.extract_patterns"),
        "patterns.windows": windows / ops,
        "patterns.windows_per_s": ratio(windows, extract_self),
        "patterns.decode_pattern.self_s": self_s("patterns.decode_pattern"),
        "patterns.decode_pattern.calls": calls("patterns.decode_pattern"),
        "census.from_codes.self_s": self_s("census.from_codes"),
        "census.transition_matrix.self_s": self_s("census.transition_matrix"),
        "census.finite_pc_curve.self_s": self_s("census.finite_pc_curve"),
        "census.pc_scan_ratio": ratio(pc_windows, pc_expected),
        "census.sampling_ratio.min": min(sampling, default=0.0),
        "census.tied_window_share": ratio(tied, scanned),
        "entropies.renyi.self_s": self_s("entropies.renyi"),
        "entropies.lambert_w0.self_s": self_s("entropies.lambert_w0"),
        "complexity.entropy_rate.self_s": self_s("complexity.entropy_rate"),
        "complexity.pool.parallelism": ratio(busy, span_wall),
        "serialize.read_series.self_s": self_s("serialize.read_series"),
        "serialize.bytes_read": sum(os.path.getsize(s.info) for s in by_name["serialize.read_series"]) / ops,
        "serialize.write.self_s": self_s(*writes),
        "serialize.bytes_written": sum(s.info for s in by_name["serialize._write_text"]) / ops,
        "cli.self_s": self_s("cli.main"),
    }


def _ancestors(span: Span, by_id: Dict[int, Span]):
    """Ids of the span's ancestors, nearest first."""
    while span.parent in by_id:
        span = by_id[span.parent]
        yield span.sid
