"""Command-line front end: generation, censuses, growth curves, entropies.

All commands are seeded and emit sorted, fixed-format tables, so a given
command line reproduces its output byte for byte.  Exit codes: 0 on
success, 1 on data/computation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import complexity, logistic_exact, processgen, serialize
from .census import census as run_census
from .census import _MISSING_LENGTH_LIMIT, census_lengths, finite_pc_curve, missing_code_blocks
from .patterns import MAX_PATTERN_LENGTH, decode_pattern


class UsageError(Exception):
    """Invalid parameters detected before any computation starts."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        _series_args(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


@functools.cache  # built once per process: it reads no environment
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordent",
        description="Ordinal-pattern statistics and growth-class entropies for time series.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="produce a sample series")
    _add_process_args(p, single=True)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout, csv only)")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("census", help="pattern counts and probabilities")
    _add_process_args(p, single=True, optional=True)
    p.add_argument("--input", default=None, help="series file (csv or binary) instead of a process")
    p.add_argument("--length", "-L", type=int, required=True, help="pattern length")
    p.add_argument("--transient", type=int, default=None,
                   help="samples dropped before counting (default: 1000 for map processes)")
    p.add_argument("--report-missing", action="store_true",
                   help="also list patterns never observed")
    _add_output_args(p)
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("pc-curve", help="distinct-pattern growth vs series length")
    _add_process_args(p, single=False, t_dest="top", t_help="top of the automatic grid (default 15000)")
    p.add_argument("--length", "-L", type=int, required=True)
    p.add_argument("--t-grid", default=None, help="comma-separated series lengths (no automatic grid)")
    p.add_argument("--t-max", dest="top", type=int, metavar="T", help="same as --t")
    p.add_argument("--grid-points", type=int, help="points of the automatic grid (default 40)")
    p.add_argument("--realizations", "-R", type=int, default=10)
    _add_output_args(p)
    p.set_defaults(handler=cmd_pc_curve)

    p = sub.add_parser("entropy", help="class entropy per variable for each (process, L, alpha)")
    _add_process_args(p, single=False)
    p.add_argument("--l-min", type=int, help="(default 3)")
    p.add_argument("--l-max", type=int, help="(default 7)")
    p.add_argument("--alpha", default="0.5,1,1.5", help="comma-separated Renyi orders (0 = topological)")
    _add_class_args(p)
    p.add_argument("--realizations", "-R", type=int, default=10)
    p.add_argument("--transient", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("rate", help="entropy-over-length sequence for one process")
    _add_process_args(p, single=True)
    p.add_argument("--l-min", type=int, help="(default 3)")
    p.add_argument("--l-max", type=int, help="(default 7)")
    p.add_argument("--alpha", default="1.0", help="one Renyi order (0 = topological)")
    _add_class_args(p)
    p.add_argument("--realizations", "-R", type=int, default=10)
    p.add_argument("--transient", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=cmd_rate)

    p = sub.add_parser("classify", help="fit the growth class of allowed-pattern counts")
    _add_process_args(p, single=True, optional=True)
    p.add_argument("--input", default=None, help="CSV of length,ln_allowed rows")
    p.add_argument("--l-min", type=int, help="(default 3)")
    p.add_argument("--l-max", type=int, help="(default 7)")
    p.add_argument("--transient", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("oracle", help="closed-form logistic-map cells and transitions (JSON)")
    p.add_argument("--length", "-L", type=int, default=3)
    p.add_argument("--what", choices=("cells", "transitions", "both"), default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_oracle)

    return parser


def _add_process_args(p: argparse.ArgumentParser, single: bool, optional: bool = False,
                      t_dest: str = "t", t_help: str = "series length (default 10000)") -> None:
    if single:
        p.add_argument("--process", default=None, required=not optional, help="process kind")
    else:
        p.add_argument("--process", action="append", required=True,
                       help="process kind; repeat for several (fgn/fbm accept kind:HURST)")
    p.add_argument("--t", dest=t_dest, type=int, metavar="T", help=t_help)
    p.add_argument("--seed", type=int, help="(default 0)")
    for name in dict.fromkeys(n for names in processgen.PARAMETERS.values() for n in names):
        kinds = ", ".join(k for k, names in processgen.PARAMETERS.items() if name in names)
        pair = {"nargs": 2, "metavar": ("LO", "HI")} if name == "a_range" else {}
        p.add_argument("--" + name.replace("_", "-"), type=float, help=f"read by {kinds}", **pair)


def _add_class_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="growth", default="factorial",
                   choices=("exponential", "factorial", "subfactorial"))
    p.add_argument("--c", type=float, default=None, help="growth constant for exponential/subfactorial")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _process_specs(args, tokens: Sequence[str], t: int) -> List[processgen.ProcessSpec]:
    """One spec per --process token, built by its kind's constructor from the given options
    that the kind reads (processgen.PARAMETERS).  ``kind:H`` sets hurst, so --hurst reaches
    bare tokens only, and a map parameter drawn from --a-range leaves --a unread.  A given
    option that no token reads, or a token whose spec repeats an earlier one, is a usage error."""
    given = {name: getattr(args, name) for names in processgen.PARAMETERS.values()
             for name in names if getattr(args, name) is not None}
    if "a_range" in given:
        given["a_range"] = tuple(given["a_range"])  # argparse gives a list
    unread, specs = set(given), []
    for token in tokens:
        kind, colon, param = token.partition(":")
        if kind not in processgen.PARAMETERS:  # before getattr: processgen has other functions
            raise UsageError(f"unknown process {kind!r}; choose from {sorted(processgen.KINDS)}")
        reads = processgen.PARAMETERS[kind]
        params = {name: given[name] for name in reads
                  if name in given and not (colon and name == "hurst")}
        if "a_range" in params:
            params.pop("a", None)
        unread -= params.keys()
        if colon:
            if "hurst" not in reads:
                raise UsageError(f"process {kind!r} reads no Hurst exponent, so {token!r} is refused")
            try:
                params["hurst"] = float(param)
            except ValueError:
                raise UsageError(f"cannot parse parameter {param!r} in process {token!r}")
        elif "hurst" in reads and "hurst" not in params:
            raise UsageError(f"process {kind!r} needs --hurst or the {kind}:H shorthand")
        try:
            spec = getattr(processgen, kind.replace("-", "_"))(t, seed=args.seed, **params)
        except ValueError as exc:
            raise UsageError(str(exc))
        if spec in specs:
            raise UsageError(f"process {token!r} repeats an earlier --process")
        specs.append(spec)
    if unread:
        names = ", ".join("--" + name.replace("_", "-") for name in sorted(unread))
        raise UsageError(f"no named process reads {names}")
    return specs


# the options that shape a generated series, and their defaults
_SERIES_DEFAULTS = {"t": 10000, "seed": 0, "transient": None, "l_min": 3, "l_max": 7}


def _series_args(args) -> None:
    """Check the options of a command's series source and fill in their defaults.

    The options parse to None when not given, so that with --input, where
    nothing is generated for them to shape, a given one is refused."""
    reading = getattr(args, "input", None) is not None
    if hasattr(args, "input") and reading == (args.process is not None):
        raise UsageError("give exactly one of --input or --process")
    for name, default in _SERIES_DEFAULTS.items():
        if not hasattr(args, name):
            continue
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif reading:
            raise UsageError(f"--{name.replace('_', '-')} applies to a --process series, not to --input")
    if getattr(args, "transient", None) is not None and args.transient < 0:
        raise UsageError(f"transient must be >= 0, got {args.transient}")


def _workers() -> int:
    cap = os.environ.get("ORDENT_THREADS")
    if hasattr(os, "sched_getaffinity"):
        available = len(os.sched_getaffinity(0))
    else:
        available = os.cpu_count() or 1
    if cap is None:
        return available
    try:
        return max(1, min(available, int(cap)))
    except ValueError:
        raise UsageError(f"ORDENT_THREADS={cap!r} is not an integer")


def _parse_alphas(text: str) -> List[float]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    try:
        alphas = [float(tok) for tok in tokens]
    except ValueError:
        raise UsageError(f"cannot parse alpha list {text!r}")
    if not alphas:
        raise UsageError(f"no alpha in {text!r}")
    for i, a in enumerate(alphas):
        if not 0 <= a < math.inf:
            raise UsageError(f"alpha must be finite and >= 0, got {a:g}")
        if a in alphas[:i]:
            raise UsageError(f"alpha {tokens[i]!r} repeats an earlier one")
    return alphas


def _growth_from_args(args) -> complexity.ComplexityClass:
    try:
        if args.growth == "exponential":
            return complexity.ComplexityClass.exponential(args.c if args.c is not None else 1.0)
        if args.growth == "subfactorial":
            if args.c is None:
                raise UsageError("subfactorial class needs --c in (0, 1)")
            return complexity.ComplexityClass.sub_factorial(args.c)
        if args.c is not None:
            raise UsageError("the factorial class reads no --c")
        return complexity.ComplexityClass.factorial()
    except ValueError as exc:
        raise UsageError(str(exc))


# ----------------------------------------------------------------- commands


def cmd_generate(args) -> int:
    if args.format == "binary" and args.out is None:
        raise UsageError("binary output requires --out")
    (spec,) = _process_specs(args, [args.process], args.t)
    series = processgen.generate(spec)
    if args.format == "binary":
        serialize.write_series_binary(args.out, series.samples)
    else:
        serialize.write_series_csv(args.out, series.samples)
    x = series.samples
    print(
        f"generated {spec.kind}: t={x.size} min={x.min():.6g} max={x.max():.6g} seed={spec.seed}",
        file=sys.stderr if args.out is None else sys.stdout,
    )
    return 0


def cmd_census(args) -> int:
    _check_length(args.length)
    if args.report_missing and args.length > _MISSING_LENGTH_LIMIT:
        raise UsageError(f"--report-missing needs length <= {_MISSING_LENGTH_LIMIT}, got {args.length}")
    specs = _process_specs(args, [] if args.process is None else [args.process], args.t)
    if args.input is not None:
        samples = serialize.read_series(args.input)
        source = args.input
    else:
        if args.t < args.length:
            raise UsageError(f"--t must be at least the pattern length {args.length}, got {args.t}")
        samples = processgen.steady_samples(specs[0], args.transient)
        source = specs[0].kind

    dist = run_census(samples, args.length)
    meta = {
        "L": args.length,
        "T": samples.size,
        "allowed_count": dist.allowed_count,
        "log_max_patterns": math.lgamma(args.length + 1.0),
        "source": source,
    }
    columns = ("code", "ranks", "count", "probability")
    table = (dist.codes, decode_pattern(dist.codes, args.length), dist.counts, dist.probs)
    caveat = "missing patterns are not necessarily forbidden"

    if args.format == "json":
        payload = {"meta": meta, "patterns": serialize.json_records(columns, table)}
        if args.report_missing:
            payload["missing"] = (
                records for codes in missing_code_blocks(dist, serialize._BLOCK)
                for records in serialize.json_records(
                    ("code", "ranks"), (codes, decode_pattern(codes, args.length)))
            )
            payload["caveat"] = caveat
        serialize.write_json(args.out, payload)
    else:
        if args.report_missing:
            meta["missing"] = serialize.join_rank_rows(
                missing_code_blocks(dist, serialize._BLOCK),
                lambda codes: decode_pattern(codes, args.length))
            meta["caveat"] = caveat
        serialize.write_table_csv(args.out, columns, table, meta)
    return 0


def cmd_pc_curve(args) -> int:
    _check_length(args.length)
    _check_realizations(args.realizations)
    if args.t_grid is not None:
        for flag, value in (("--t/--t-max", args.top), ("--grid-points", args.grid_points)):
            if value is not None:
                raise UsageError(f"{flag} shapes the automatic grid; --t-grid replaces it")
        try:
            grid = sorted({int(tok) for tok in args.t_grid.split(",") if tok.strip()})
        except ValueError:
            raise UsageError(f"cannot parse t grid {args.t_grid!r}")
    else:
        top = 15000 if args.top is None else args.top
        if top < args.length:
            raise UsageError(f"--t/--t-max must be at least the pattern length {args.length}, got {top}")
        points = 40 if args.grid_points is None else args.grid_points
        if points < 1:
            raise UsageError(f"grid points must be >= 1, got {points}")
        grid = sorted({int(round(v)) for v in np.geomspace(args.length, top, points)})
    if not grid or grid[0] < args.length:
        raise UsageError("t grid must start at or above the pattern length")
    # every series is as long as the grid's top
    specs = _process_specs(args, args.process, grid[-1])

    rows = []
    for spec in specs:
        curve = finite_pc_curve(spec, args.length, grid, realizations=args.realizations,
                                workers=_workers())
        label = _process_label(spec)
        for t, mean, std in zip(curve.t_grid, curve.values, curve.stddev):
            rows.append((label, args.length, int(t), float(mean), float(std)))
    rows.sort(key=lambda r: (r[0], r[2]))
    meta = {"L": args.length, "realizations": args.realizations, "seed": args.seed, "transient": 0,
            "log_max_patterns": math.lgamma(args.length + 1.0)}
    _write_rows(args, ("process", "L", "T", "g_mean", "g_stddev"), rows, meta)
    return 0


def cmd_entropy(args) -> int:
    specs = _process_specs(args, args.process, args.t)
    alphas = _parse_alphas(args.alpha)
    growth = _growth_from_args(args)
    lengths = _length_range(args)
    _check_realizations(args.realizations)
    grid = [(spec, alpha) for spec in specs for alpha in alphas]
    # One level is pooled, so pools never nest. A grid with more cells than
    # threads runs its cells as the jobs of one pool, each cell's realizations
    # inline; a smaller grid would leave threads idle behind its slowest cell,
    # so each cell pools its own realizations instead.
    workers = _workers()
    grid_workers, cell_workers = (workers, 1) if len(grid) > workers else (1, workers)

    def job(i: int) -> complexity.RateEstimate:
        spec, alpha = grid[i]
        return complexity.entropy_rate(
            spec, growth, alpha, lengths, realizations=args.realizations,
            transient=args.transient, workers=cell_workers,
        )

    rows = []
    for (spec, alpha), estimate in zip(grid, complexity._run_indexed(job, len(grid), grid_workers)):
        label = _process_label(spec)
        for L, value in zip(estimate.lengths, estimate.values):
            rows.append((label, L, alpha, growth.label, float(value)))
    rows.sort(key=lambda r: (r[0], r[2], r[1]))
    meta = {"t": args.t, "realizations": args.realizations, "seed": args.seed}
    _write_rows(args, ("process", "L", "alpha", "class", "z_over_l"), rows, meta)
    return 0


def cmd_rate(args) -> int:
    (spec,) = _process_specs(args, [args.process], args.t)
    alphas = _parse_alphas(args.alpha)
    if len(alphas) != 1:
        raise UsageError(f"rate takes one alpha, got {args.alpha!r}")
    growth = _growth_from_args(args)
    lengths = _length_range(args)
    _check_realizations(args.realizations)
    estimate = complexity.entropy_rate(
        spec, growth, alphas[0], lengths, realizations=args.realizations,
        transient=args.transient, workers=_workers(),
    )
    meta = {
        "process": _process_label(spec), "alpha": alphas[0], "class": growth.label,
        "t": args.t, "realizations": args.realizations, "seed": args.seed,
        "final": estimate.final,
    }
    rows = [(L, float(v)) for L, v in zip(estimate.lengths, estimate.values)]
    _write_rows(args, ("L", "z_over_l"), rows, meta)
    return 0


def cmd_classify(args) -> int:
    specs = _process_specs(args, [] if args.process is None else [args.process], args.t)
    if args.input is not None:
        pairs = _read_growth_pairs(args.input)
    else:
        lengths = _length_range(args)
        samples = processgen.steady_samples(specs[0], args.transient)
        pairs = [(L, math.log(dist.allowed_count))
                 for L, dist in zip(lengths, census_lengths(samples, lengths))]
    try:
        fit = complexity.classify_growth(pairs)
    except ValueError as exc:
        raise UsageError(str(exc))
    meta = {
        "kind": fit.kind,
        "c_hat": fit.c_hat,
        "model": fit.model,
    }
    for name, value in sorted(fit.rss.items()):
        meta[f"rss[{name}]"] = value
    rows = [(L, y, float(r)) for (L, y), r in zip(pairs, fit.residuals)]
    _write_rows(args, ("L", "ln_allowed", "residual"), rows, meta)
    return 0


def cmd_oracle(args) -> int:
    longest = logistic_exact.MAX_LENGTH  # transitions are cut from the law one length up
    if args.what != "cells":
        longest -= 1
    if not 2 <= args.length <= longest:
        raise UsageError(f"oracle --what {args.what} supports lengths 2..{longest}, got {args.length}")
    payload: dict = {"L": args.length}
    if args.what in ("cells", "both"):
        cells = logistic_exact.ordinal_cells(args.length)
        patterns = cells.patterns()
        table = (patterns, [iv for _, iv in cells.cells], [cells.measure[p] for p in patterns])
        payload["cells"] = serialize.json_records(("ranks", "intervals", "measure"), table)
        payload["boundaries"] = cells.boundaries()
    if args.what in ("transitions", "both"):
        # sources ascending, and targets ascending within each: the order census._rows fills
        rows = logistic_exact.exact_transition_probs(args.length).rows
        ranks = decode_pattern(np.fromiter((dst for row in rows.values() for dst in row), np.int64),
                               args.length).tolist()
        ends = np.cumsum([len(row) for row in rows.values()]).tolist()
        targets = [[{"ranks": r, "probability": p}
                    for r, p in zip(ranks[end - len(row):end], row.values())]
                   for row, end in zip(rows.values(), ends)]
        table = (decode_pattern(np.fromiter(rows, np.int64, len(rows)), args.length), targets)
        payload["transitions"] = serialize.json_records(("source", "targets"), table)
    serialize.write_json(args.out, payload)
    return 0


def _write_rows(args, columns: Sequence[str], rows: list, meta: dict) -> None:
    """A command's table as CSV with '#' metadata comments, or as JSON meta plus rows."""
    table = list(zip(*rows))
    if args.format == "json":
        serialize.write_json(args.out, {"meta": meta, "rows": serialize.json_records(columns, table)})
    else:
        serialize.write_table_csv(args.out, columns, table, meta)


def _check_length(length: int) -> None:
    if not 2 <= length <= MAX_PATTERN_LENGTH:
        raise UsageError(f"pattern length must lie in 2..{MAX_PATTERN_LENGTH}, got {length}")


def _length_range(args) -> List[int]:
    if not 2 <= args.l_min <= args.l_max <= MAX_PATTERN_LENGTH:
        raise UsageError(f"need l-min <= l-max in 2..{MAX_PATTERN_LENGTH}, got {args.l_min}..{args.l_max}")
    if args.t < args.l_max:  # every caller generates a --process series of args.t samples
        raise UsageError(f"--t must be at least --l-max {args.l_max}, got {args.t}")
    return list(range(args.l_min, args.l_max + 1))


def _check_realizations(realizations: int) -> None:
    if realizations < 1:
        raise UsageError(f"realizations must be >= 1, got {realizations}")


def _process_label(spec: processgen.ProcessSpec) -> str:
    return spec.kind if spec.hurst is None else f"{spec.kind}:{spec.hurst:g}"


def _read_growth_pairs(path: str) -> List[tuple]:
    """(L, ln_allowed) rows, ascending in L: the points classify_growth fits, in its order.

    A non-integer, repeated or out-of-range L is a data error."""
    pairs, header = {}, True
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            first, header = header, False
            parts = text.split(",")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'L,ln_allowed', got {text!r}")
            try:
                length, value = float(parts[0]), float(parts[1])
            except ValueError:
                if first:
                    continue  # header row, after any '#' comment lines
                raise ValueError(f"{path}:{lineno}: cannot parse {text!r}")
            if not length.is_integer():
                raise ValueError(f"{path}:{lineno}: length {parts[0].strip()!r} is not an integer")
            if not 2 <= length <= MAX_PATTERN_LENGTH:
                raise ValueError(f"{path}:{lineno}: length {int(length)} outside 2..{MAX_PATTERN_LENGTH}")
            if int(length) in pairs:
                raise ValueError(f"{path}:{lineno}: length {int(length)} repeated")
            pairs[int(length)] = value
    return sorted(pairs.items())


if __name__ == "__main__":
    sys.exit(main())
