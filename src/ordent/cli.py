"""Command-line front end: generation, censuses, growth curves, entropies.

All commands are seeded and emit sorted, fixed-format tables, so a given
command line reproduces its output byte for byte.  Exit codes: 0 on
success, 1 on data/computation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import complexity, logistic_exact, processgen, serialize
from .census import census as run_census
from .census import finite_pc_curve, forbidden_patterns, missing_code_blocks
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
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


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
    _add_process_args(p, single=False)
    p.add_argument("--length", "-L", type=int, required=True)
    p.add_argument("--t-grid", default=None, help="comma-separated series lengths")
    p.add_argument("--t-max", type=int, default=15000, help="largest series length for the automatic grid")
    p.add_argument("--grid-points", type=int, default=40)
    p.add_argument("--realizations", "-R", type=int, default=10)
    _add_output_args(p)
    p.set_defaults(handler=cmd_pc_curve)

    p = sub.add_parser("entropy", help="class entropy per variable for each (process, L, alpha)")
    _add_process_args(p, single=False)
    p.add_argument("--l-min", type=int, default=3)
    p.add_argument("--l-max", type=int, default=7)
    p.add_argument("--alpha", default="0.5,1,1.5", help="comma-separated Renyi orders (0 = topological)")
    _add_class_args(p)
    p.add_argument("--realizations", "-R", type=int, default=10)
    p.add_argument("--transient", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("rate", help="entropy-over-length sequence for one process")
    _add_process_args(p, single=True)
    p.add_argument("--l-min", type=int, default=3)
    p.add_argument("--l-max", type=int, default=7)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_class_args(p)
    p.add_argument("--realizations", "-R", type=int, default=10)
    p.add_argument("--transient", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=cmd_rate)

    p = sub.add_parser("classify", help="fit the growth class of allowed-pattern counts")
    _add_process_args(p, single=True, optional=True)
    p.add_argument("--input", default=None, help="CSV of length,ln_allowed rows")
    p.add_argument("--l-min", type=int, default=3)
    p.add_argument("--l-max", type=int, default=7)
    p.add_argument("--transient", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("oracle", help="closed-form logistic-map cells and transitions (JSON)")
    p.add_argument("--length", "-L", type=int, default=3)
    p.add_argument("--what", choices=("cells", "transitions", "both"), default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_oracle)

    return parser


def _add_process_args(p: argparse.ArgumentParser, single: bool, optional: bool = False) -> None:
    if single:
        p.add_argument("--process", default=None, required=not optional, help="process kind")
    else:
        p.add_argument("--process", action="append", required=True,
                       help="process kind; repeat for several (fgn/fbm accept kind:HURST)")
    p.add_argument("--t", type=int, default=10000, help="series length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hurst", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--a-range", type=float, nargs=2, default=None, metavar=("LO", "HI"))
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--amp", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--y0", type=float, default=None)


def _add_class_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="growth", default="factorial",
                   choices=("exponential", "factorial", "subfactorial"))
    p.add_argument("--c", type=float, default=None, help="growth constant for exponential/subfactorial")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _spec_token(args, token: str):
    kind = token
    hurst = args.hurst
    if ":" in token:
        kind, param = token.split(":", 1)
        try:
            hurst = float(param)
        except ValueError:
            raise UsageError(f"cannot parse parameter {param!r} in process {token!r}")
    overrides = {}
    if kind in ("fgn", "fbm"):
        if hurst is None:
            raise UsageError(f"process {kind!r} needs --hurst or the {kind}:H shorthand")
        overrides["hurst"] = hurst
    for name in ("a", "eps", "x0", "amp", "y0"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "a_range", None) is not None:
        overrides["a_range"] = tuple(args.a_range)
    try:
        return _make_spec(kind, args.t, args.seed, overrides)
    except ValueError as exc:
        raise UsageError(str(exc))


def _make_spec(kind: str, t: int, seed: int, overrides: dict) -> processgen.ProcessSpec:
    def picked(*names):
        return {k: overrides[k] for k in names if k in overrides}

    if kind == "white-noise":
        return processgen.white_noise(t, seed=seed)
    if kind == "fgn":
        return processgen.fgn(t, overrides["hurst"], seed=seed)
    if kind == "fbm":
        return processgen.fbm(t, overrides["hurst"], seed=seed)
    if kind == "logistic":
        return processgen.logistic(t, seed=seed, **picked("a", "x0"))
    if kind == "noisy-logistic":
        return processgen.noisy_logistic(t, seed=seed, **picked("a", "eps", "x0", "a_range"))
    if kind == "noisy-cubic":
        return processgen.noisy_cubic(t, seed=seed, **picked("amp", "y0"))
    if kind == "noisy-skew-tent":
        return processgen.noisy_skew_tent(t, seed=seed, **picked("amp", "y0"))
    raise UsageError(f"unknown process {kind!r}; choose from {sorted(processgen.KINDS)}")


def _default_transient(spec: processgen.ProcessSpec, requested: Optional[int]) -> int:
    if requested is not None:
        if requested < 0:
            raise UsageError(f"transient must be >= 0, got {requested}")
        return requested
    return spec.default_transient


def _series_for(spec: processgen.ProcessSpec, transient: int) -> np.ndarray:
    spec = processgen.replace_spec(spec, t=spec.t + transient)
    return processgen.generate(spec).samples[transient:]


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
    try:
        alphas = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse alpha list {text!r}")
    if not alphas or any(a < 0 for a in alphas):
        raise UsageError("alpha list must contain values >= 0")
    return alphas


def _growth_from_args(args) -> complexity.ComplexityClass:
    try:
        if args.growth == "exponential":
            return complexity.ComplexityClass.exponential(args.c if args.c is not None else 1.0)
        if args.growth == "subfactorial":
            if args.c is None:
                raise UsageError("subfactorial class needs --c in (0, 1)")
            return complexity.ComplexityClass.sub_factorial(args.c)
        return complexity.ComplexityClass.factorial()
    except ValueError as exc:
        raise UsageError(str(exc))


# ----------------------------------------------------------------- commands


def cmd_generate(args) -> int:
    spec = _spec_token(args, args.process)
    series = processgen.generate(spec)
    if args.format == "binary":
        if args.out is None:
            raise UsageError("binary output requires --out")
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
    if (args.input is None) == (args.process is None):
        raise UsageError("give exactly one of --input or --process")
    _check_length(args.length)
    if args.input is not None:
        samples = serialize.read_series(args.input)
        source = args.input
    else:
        spec = _spec_token(args, args.process)
        samples = _series_for(spec, _default_transient(spec, args.transient))
        source = spec.kind

    dist = run_census(samples, args.length)
    meta = {
        "L": args.length,
        "T": samples.size,
        "allowed_count": dist.allowed_count,
        "log_max_patterns": math.lgamma(args.length + 1.0),
        "source": source,
    }
    ranks = decode_pattern(dist.codes, args.length)
    caveat = "missing patterns are not necessarily forbidden"

    if args.format == "json":
        payload = {
            "meta": meta,
            "patterns": [
                {"code": c, "ranks": r, "count": n, "probability": q}
                for c, r, n, q in zip(dist.codes.tolist(), ranks.tolist(),
                                      dist.counts.tolist(), dist.probs.tolist())
            ],
        }
        if args.report_missing:
            missing = forbidden_patterns(dist)
            payload["missing"] = [
                {"code": c, "ranks": r}
                for c, r in zip(missing.tolist(), decode_pattern(missing, args.length).tolist())
            ]
            payload["caveat"] = caveat
        serialize.write_json(args.out, payload)
    else:
        if args.report_missing:
            meta["missing"] = serialize.join_rank_rows(
                missing_code_blocks(dist, serialize._BLOCK),
                lambda codes: decode_pattern(codes, args.length))
            meta["caveat"] = caveat
        serialize.write_table_csv(args.out, ("code", "ranks", "count", "probability"),
                                  (dist.codes, ranks, dist.counts, dist.probs), meta)
    return 0


def cmd_pc_curve(args) -> int:
    _check_length(args.length)
    _check_realizations(args.realizations)
    specs = [_spec_token(args, token) for token in args.process]
    if args.t_grid is not None:
        try:
            grid = sorted({int(tok) for tok in args.t_grid.split(",") if tok.strip()})
        except ValueError:
            raise UsageError(f"cannot parse t grid {args.t_grid!r}")
    else:
        grid = sorted(
            {
                int(round(v))
                for v in np.geomspace(args.length, args.t_max, args.grid_points)
            }
        )
    if not grid or grid[0] < args.length:
        raise UsageError("t grid must start at or above the pattern length")

    rows = []
    for spec in specs:
        curve = finite_pc_curve(
            spec, args.length, grid, realizations=args.realizations,
            seed=args.seed, workers=_workers(),
        )
        label = _process_label(spec)
        for t, mean, std in zip(curve.t_grid, curve.values, curve.stddev):
            rows.append((label, args.length, int(t), float(mean), float(std)))
    rows.sort(key=lambda r: (r[0], r[2]))
    meta = {"L": args.length, "realizations": args.realizations, "seed": args.seed, "transient": 0,
            "log_max_patterns": math.lgamma(args.length + 1.0)}
    _write_rows(args, ("process", "L", "T", "g_mean", "g_stddev"), rows, meta)
    return 0


def cmd_entropy(args) -> int:
    specs = [_spec_token(args, token) for token in args.process]
    alphas = _parse_alphas(args.alpha)
    growth = _growth_from_args(args)
    lengths = _length_range(args)
    _check_realizations(args.realizations)
    rows = []
    for spec in specs:
        transient = _default_transient(spec, args.transient)
        for alpha in alphas:
            estimate = complexity.entropy_rate(
                spec, growth, alpha, lengths, t=args.t,
                realizations=args.realizations, seed=args.seed,
                transient=transient, workers=_workers(),
            )
            label = _process_label(spec)
            for L, value in zip(estimate.lengths, estimate.values):
                rows.append((label, L, alpha, growth.label, float(value)))
    rows.sort(key=lambda r: (r[0], r[2], r[1]))
    meta = {"t": args.t, "realizations": args.realizations, "seed": args.seed}
    _write_rows(args, ("process", "L", "alpha", "class", "z_over_l"), rows, meta)
    return 0


def cmd_rate(args) -> int:
    spec = _spec_token(args, args.process)
    growth = _growth_from_args(args)
    lengths = _length_range(args)
    _check_realizations(args.realizations)
    estimate = complexity.entropy_rate(
        spec, growth, args.alpha, lengths, t=args.t,
        realizations=args.realizations, seed=args.seed,
        transient=_default_transient(spec, args.transient), workers=_workers(),
    )
    meta = {
        "process": _process_label(spec), "alpha": args.alpha, "class": growth.label,
        "t": args.t, "realizations": args.realizations, "seed": args.seed,
        "final": estimate.final,
    }
    rows = [(L, float(v)) for L, v in zip(estimate.lengths, estimate.values)]
    _write_rows(args, ("L", "z_over_l"), rows, meta)
    return 0


def cmd_classify(args) -> int:
    if (args.input is None) == (args.process is None):
        raise UsageError("give exactly one of --input or --process")
    if args.input is not None:
        pairs = _read_growth_pairs(args.input)
    else:
        spec = _spec_token(args, args.process)
        lengths = _length_range(args)
        samples = _series_for(spec, _default_transient(spec, args.transient))
        pairs = [(L, math.log(run_census(samples, L).allowed_count)) for L in lengths]
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
    if not 2 <= args.length <= 5:
        raise UsageError(f"oracle supports lengths 2..5, got {args.length}")
    payload: dict = {"L": args.length}
    if args.what in ("cells", "both"):
        cells = logistic_exact.ordinal_cells(args.length)
        payload["cells"] = [
            {
                "ranks": list(pattern),
                "intervals": [[a, b] for a, b in intervals],
                "measure": logistic_exact.measure_of(intervals),
            }
            for pattern, intervals in cells.cells
        ]
        payload["boundaries"] = cells.boundaries()
    if args.what in ("transitions", "both"):
        if args.length > 4:
            raise UsageError("exact transitions support lengths 2..4")
        matrix = logistic_exact.exact_transition_probs(args.length)
        payload["transitions"] = [
            {
                "source": list(decode_pattern(src, args.length)),
                "targets": [
                    {"ranks": list(decode_pattern(dst, args.length)), "probability": prob}
                    for dst, prob in sorted(row.items())
                ],
            }
            for src, row in sorted(matrix.rows.items())
        ]
    serialize.write_json(args.out, payload)
    return 0


def _write_rows(args, columns: Sequence[str], rows: list, meta: dict) -> None:
    """A command's table as CSV with '#' metadata comments, or as JSON meta plus rows."""
    if args.format == "json":
        serialize.write_json(args.out, {"meta": meta, "rows": [dict(zip(columns, r)) for r in rows]})
    else:
        serialize.write_table_csv(args.out, columns, zip(*rows), meta)


def _check_length(length: int) -> None:
    if not 2 <= length <= MAX_PATTERN_LENGTH:
        raise UsageError(f"pattern length must lie in 2..{MAX_PATTERN_LENGTH}, got {length}")


def _length_range(args) -> List[int]:
    if not 2 <= args.l_min <= args.l_max <= MAX_PATTERN_LENGTH:
        raise UsageError(f"need l-min <= l-max in 2..{MAX_PATTERN_LENGTH}, got {args.l_min}..{args.l_max}")
    return list(range(args.l_min, args.l_max + 1))


def _check_realizations(realizations: int) -> None:
    if realizations < 1:
        raise UsageError(f"realizations must be >= 1, got {realizations}")


def _process_label(spec: processgen.ProcessSpec) -> str:
    if spec.kind in ("fgn", "fbm"):
        return f"{spec.kind}:{spec.hurst:g}"
    return spec.kind


def _read_growth_pairs(path: str) -> List[tuple]:
    pairs, header = [], True
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
                pairs.append((int(float(parts[0])), float(parts[1])))
            except ValueError:
                if first:
                    continue  # header row, after any '#' comment lines
                raise ValueError(f"{path}:{lineno}: cannot parse {text!r}")
    return pairs


if __name__ == "__main__":
    sys.exit(main())
