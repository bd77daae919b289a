"""Record the entropy-sweep reference: the program's output for every pooled seed.

    python3 perfbench/make_reference.py

The benchmark compares every entropy-sweep output with these values
(relative tolerance 1e-9).  Re-record only when a change to ordent is meant
to change entropy values, and say so where the change is described.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> None:
    keys, values = None, {}
    for k in range(wl.ENTROPY_POOL):
        seed = k * wl.ENTROPY_REALIZATIONS
        rows = checks.entropy_rows(wl.run_cli(wl.entropy_argv(seed)))
        broken = checks.entropy_violations(rows)
        if broken:
            raise SystemExit(f"seed {seed}: invariants fail for {sorted(broken)}")
        keys = keys or sorted(rows)
        if sorted(rows) != keys:
            raise SystemExit(f"seed {seed}: rows differ from the first seed's")
        values[str(seed)] = [rows[key] for key in keys]
        print(f"seed {seed}: {len(rows)} rows", file=sys.stderr)
    lines = [f'"command": {json.dumps("ordent " + " ".join(wl.entropy_argv("SEED")))}',
             f'"keys": {json.dumps(keys)}',
             '"values": {\n' + ",\n".join(f"{json.dumps(s)}: {json.dumps(v)}"
                                          for s, v in values.items()) + "\n}"]
    checks.ENTROPY_REFERENCE.parent.mkdir(exist_ok=True)
    checks.ENTROPY_REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
