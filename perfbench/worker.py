"""Child process of run.py: one set-up, or the measured closed loop.

    python3 perfbench/worker.py setup   --workload W --seed N --workdir D
    python3 perfbench/worker.py measure --workload W --seed N --workdir D --seconds S --trace 0|1

Imports ordent from the checkout's ``src`` and prints one JSON object.  The
measure step runs in a process of its own so that its peak RSS covers the
workload alone, not the set-up that generated its inputs.
"""

from time import perf_counter

_STARTED = perf_counter()  # set-up time counts every import below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import process_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_ordent():
    """The checkout's ordent, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ordent

    if Path(ordent.__file__).resolve().parent != src / "ordent":
        raise SystemExit(f"imported ordent from {ordent.__file__}, not from {src}")
    return ordent


def closed_loop(ops, seconds: float, workdir: Path, tracer=None) -> list:
    """Run operations back to back until ``seconds`` have passed (at least one)."""
    records = []
    start = perf_counter()
    while True:
        key, op = next(ops)
        c0, t0 = process_time(), perf_counter()
        outputs = op() if tracer is None else tracer.call("op", op)
        t1, c1 = perf_counter(), process_time()
        if tracer is not None:
            tracer.keep_inputs = False
        records.append({"key": key, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                        "outputs": {name: _store(workdir, text) for name, text in outputs.items()}})
        if t1 - start >= seconds:
            return records


def _store(workdir: Path, text: str) -> str:
    """Save each distinct output once; operations refer to it by digest."""
    digest = hashlib.sha256(text.encode()).hexdigest()[:20]
    path = workdir / f"{digest}.out"
    if not path.exists():
        path.write_text(text)
    return digest


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_ordent()
    import workloads

    if args.step == "setup":
        workloads.prepare(args.workload, args.seed, args.workdir)
        print(json.dumps({"setup_s": perf_counter() - _STARTED}))
        return

    ops = workloads.operations(args.workload, args.seed, args.workdir)
    result = {}
    if args.trace:
        from spans import Tracer, layer_metrics

        untraced = closed_loop(ops, args.seconds / 2, args.workdir)
        tracer = Tracer()
        tracer.keep_inputs = True
        with tracer.install():
            traced = closed_loop(ops, args.seconds / 2, args.workdir, tracer)
        layers = layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in untraced))
        result["per_layer"] = layers
        result["ops"] = untraced + traced
    else:
        result["ops"] = closed_loop(ops, args.seconds, args.workdir)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
