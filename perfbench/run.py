"""ordent benchmark: one workload, one closed-loop client, verified outputs.

    python3 perfbench/run.py --workload entropy-sweep --seed 0 --seconds 45 --trace 0

Run from the repository root.  Set-up runs SETUP_REPEATS times in fresh
processes (import plus input generation; the median is ``setup_s``).  A
separate process then runs operations back to back for ``--seconds`` with
``ORDENT_THREADS`` set to the usable core count, and every output is checked
against an independent reference (checks.py); a wrong row counts as a
failed operation.  The last stdout line is the result object; with
``--trace 0`` it holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run (spans.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150  # beyond --seconds, for one operation's overrun and imports


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_facts(threads: int) -> dict:
    import numpy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"l{_read(index / 'level')}"] = _read(index / "size")
    return {"usable_cores": len(os.sched_getaffinity(0)), "cpu_model": model,
            "l2": caches.get("l2", ""), "l3": caches.get("l3", ""),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "ORDENT_THREADS": threads}


def run_worker(step: str, args, workdir: Path, env: dict, timeout: float, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), step, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {step} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verify(workload: str, ops: list, workdir: Path) -> tuple:
    """(attempted, failed) over every operation's outputs; equal outputs are checked once."""
    from checks import Verifier

    check = Verifier(workload)
    verdicts = {}
    attempted = failed = 0
    for op in ops:
        for name, digest in sorted(op["outputs"].items()):
            key = (op["key"], name, digest)
            if key not in verdicts:
                verdicts[key] = check(op["key"], name, (workdir / f"{digest}.out").read_text())
            attempted += verdicts[key][0]
            failed += verdicts[key][1]
    return attempted, failed


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ordent" / "__init__.py").is_file():
        print(f"no ordent sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, ORDENT_THREADS=str(threads))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [run_worker("setup", args, workdir, env, CHILD_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        result = run_worker("measure", args, workdir, env, args.seconds + CHILD_TIMEOUT_S,
                            "--seconds", str(args.seconds), "--trace", str(args.trace))
        attempted, failed = verify(args.workload, result["ops"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [op["wall_s"] for op in result["ops"]]
    print("machine " + json.dumps(machine_facts(threads)))
    print(f"{args.workload} seed {args.seed}: {len(walls)} operations in the closed loop, "
          f"wall_s min {min(walls):.4f} median {statistics.median(walls):.4f} max {max(walls):.4f}; "
          f"{failed} of {attempted} output rows failed; set-up x{SETUP_REPEATS}: "
          + ", ".join(f"{s:.4f}" for s in setups))
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(op["cpu_s"] for op in result["ops"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
    if set(values) != {m["name"] for m in listed}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
