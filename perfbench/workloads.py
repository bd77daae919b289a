"""The benchmark's workloads: inputs made from a seed and the operation each repeats.

One client runs operations in a closed loop: each starts only after the
previous one returns.  An operation calls ``ordent.cli.main(argv)`` in
process with stdout captured (long-census also calls
``ordent.transition_matrix``) and returns its outputs as text keyed by name,
for `checks.py` to verify.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from functools import partial
from pathlib import Path

import numpy as np

WORKLOADS = ("entropy-sweep", "long-census", "pc-curve")

# entropy-sweep: criterion-13 shape with the realization count scaled down so
# a run holds many operations.  Its reference covers ordent seeds
# ENTROPY_REALIZATIONS * k for k < ENTROPY_POOL (disjoint realization seeds).
ENTROPY_PROCESSES = ("white-noise", "fbm:0.7", "noisy-cubic")
ENTROPY_ALPHAS = "0.5,1,1.5"
ENTROPY_LENGTHS = (3, 7)
ENTROPY_T = 60000
ENTROPY_REALIZATIONS = 2
ENTROPY_POOL = 64

# pc-curve: the README command plus the two processes whose curve the
# flat-curve early stop under-reports.
PC_PROCESSES = ("white-noise", "fgn:0.75", "fbm:0.2", "fbm:0.9", "noisy-logistic")
PC_LENGTH = 6
PC_T_MAX = 15000
PC_GRID_POINTS = 40  # the CLI default
PC_REALIZATIONS = 10

# long-census: fGn (H = 0.75) sampled by a 12-bit converter with a +-4 sigma
# full scale, so a few percent of windows hold ties.
CENSUS_SAMPLES = 2_000_000
CENSUS_HURST = 0.75
CENSUS_LENGTH = 9
TRANSITION_LENGTH = 4
ADC_BITS = 12
ADC_FULL_SCALE = 4.0
CENSUS_FILE = "long-census.bin"


def entropy_argv(seed: int) -> list:
    argv = ["entropy"]
    for process in ENTROPY_PROCESSES:
        argv += ["--process", process]
    return argv + [
        "--l-min", str(ENTROPY_LENGTHS[0]), "--l-max", str(ENTROPY_LENGTHS[1]),
        "--alpha", ENTROPY_ALPHAS, "--class", "factorial", "--t", str(ENTROPY_T),
        "-R", str(ENTROPY_REALIZATIONS), "--seed", str(seed),
    ]


def pc_argv(seed: int) -> list:
    argv = ["pc-curve"]
    for process in PC_PROCESSES:
        argv += ["--process", process]
    return argv + [
        "--length", str(PC_LENGTH), "--t-max", str(PC_T_MAX),
        "--realizations", str(PC_REALIZATIONS), "--seed", str(seed),
    ]


def census_argv(path) -> list:
    return ["census", "--input", str(path), "--length", str(CENSUS_LENGTH), "--format", "csv"]


def adc_recording(seed: int) -> np.ndarray:
    """fGn quantized to the converter's integer codes, as float64 samples."""
    from ordent import processgen

    x = processgen.generate(processgen.fgn(CENSUS_SAMPLES, CENSUS_HURST, seed=seed)).samples
    levels = 2**ADC_BITS - 1
    scaled = (np.clip(x, -ADC_FULL_SCALE, ADC_FULL_SCALE) + ADC_FULL_SCALE) / (2 * ADC_FULL_SCALE)
    return np.round(scaled * levels)


def read_recording(path) -> np.ndarray:
    """Samples of a series file in ordent's binary format, read without ordent."""
    return np.fromfile(path, dtype="<f8", offset=16)


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's input files; only long-census has any."""
    if workload == "long-census":
        from ordent import serialize

        serialize.write_series_binary(str(workdir / CENSUS_FILE), adc_recording(seed))


def run_cli(argv) -> str:
    """ordent.cli.main(argv) with stdout captured; a failed command prints nothing."""
    from ordent import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return buf.getvalue() if status == 0 else ""


def transitions_text(matrix) -> str:
    """A TransitionMatrix as sorted [source, target, probability] rows."""
    return json.dumps(sorted([src, dst, p] for src, row in matrix.rows.items()
                             for dst, p in row.items()))


def _census_op(path, samples) -> dict:
    import ordent

    census = run_cli(census_argv(path))
    return {"census": census, "transitions": transitions_text(ordent.transition_matrix(samples, TRANSITION_LENGTH))}


def operations(workload: str, seed: int, workdir: Path):
    """Endless (key, operation) pairs; ``key`` names the inputs a check needs."""
    if workload == "entropy-sweep":
        order = np.random.default_rng(seed).permutation(ENTROPY_POOL)
        for k in itertools.cycle(order):
            s = int(k) * ENTROPY_REALIZATIONS
            yield s, (lambda argv=entropy_argv(s): {"csv": run_cli(argv)})
    elif workload == "pc-curve":
        for i in itertools.count():
            s = seed * 100_000 + i * PC_REALIZATIONS
            yield s, (lambda argv=pc_argv(s): {"csv": run_cli(argv)})
    elif workload == "long-census":
        path = workdir / CENSUS_FILE
        op = partial(_census_op, path, read_recording(path))
        while True:
            yield str(path), op
    else:
        raise ValueError(f"unknown workload {workload!r}")
