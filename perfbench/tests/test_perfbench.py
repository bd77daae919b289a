"""Tests of the benchmark itself: tracing changes no output, the tracer puts
every binding back, and each reference check flags a corrupted row."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

ENTROPY_ARGV = ["entropy", "--process", "white-noise", "--process", "fbm:0.7",
                "--process", "noisy-cubic", "--l-min", "3", "--l-max", "4",
                "--alpha", "0.5,1", "--t", "3000", "-R", "2", "--seed", "4"]
PC_SHAPE = dict(processes=("white-noise", "fgn:0.75"), length=4, t_max=2000,
                realizations=3, points=12)
PC_ARGV = ["pc-curve", "--process", "white-noise", "--process", "fgn:0.75", "--length", "4",
           "--t-max", "2000", "--grid-points", "12", "--realizations", "3", "--seed", "5"]


@pytest.fixture
def recording(tmp_path):
    """A short quantized series with ties, written in ordent's binary format."""
    from ordent import serialize

    x = np.round(np.random.default_rng(3).standard_normal(20000) * 40)
    path = tmp_path / "rec.bin"
    serialize.write_series_binary(str(path), x)
    return path, x


def _census_outputs(path, x):
    import ordent

    census = wl.run_cli(["census", "--input", str(path), "--length", "5", "--format", "csv"])
    return census, wl.transitions_text(ordent.transition_matrix(x, 3))


def _bindings():
    import ordent  # noqa: F401

    mods = {k: dict(vars(m)) for k, m in sys.modules.items()
            if m is not None and (k == "ordent" or k.startswith("ordent."))}
    dist = sys.modules["ordent.census"].PatternDistribution.__dict__["from_codes"]
    return mods, dist


def test_traced_output_is_byte_identical(monkeypatch, recording):
    monkeypatch.setenv("ORDENT_THREADS", "2")
    plain = [wl.run_cli(ENTROPY_ARGV), wl.run_cli(PC_ARGV), *_census_outputs(*recording)]
    tracer = spans.Tracer()
    with tracer.install():
        traced = [tracer.call("op", wl.run_cli, (ENTROPY_ARGV,)),
                  tracer.call("op", wl.run_cli, (PC_ARGV,)),
                  *tracer.call("op", _census_outputs, recording)]
    assert all(plain) and traced == plain

    names = {s.name for s in tracer.spans}
    expected = {name for _, _, name, _ in spans.TARGETS} | {
        "op", "census.from_codes", "complexity.pool", "complexity.pool.task"}
    assert expected <= names
    by_id = {s.sid: s for s in tracer.spans}
    tasks = [s for s in tracer.spans if s.name == "complexity.pool.task"]
    assert tasks and all(by_id[s.parent].name == "complexity.pool" for s in tasks)
    metrics = spans.layer_metrics(tracer.spans, ops=3)
    # entropy: 12 calls on 6 specs (one per alpha); pc-curve: 6 calls on 6
    assert metrics["processgen.generate.redundancy"] == pytest.approx(18 / 12)
    assert metrics["complexity.pool.parallelism"] > 0
    assert metrics["serialize.bytes_written"] == pytest.approx(sum(map(len, plain[:3])) / 3)


def test_install_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.install():
            import ordent

            assert ordent.census is not before[0]["ordent"]["census"]
            assert sys.modules["ordent.cli"].run_census is not before[0]["ordent.cli"]["run_census"]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after[1] is before[1]
    for name, attrs in before[0].items():
        assert all(after[0][name][k] is v for k, v in attrs.items()), name


def test_self_time_subtracts_overlapping_children():
    s = spans.Span
    tree = [s(1, None, "a", 0.0, 10.0, None), s(2, 1, "b", 1.0, 4.0, None),
            s(3, 1, "b", 3.0, 6.0, None), s(4, 1, "b", 9.0, 12.0, None)]
    assert spans.self_times(tree) == {1: 4.0, 2: 3.0, 3: 3.0, 4: 3.0}


def test_entropy_check_flags_a_corrupted_row():
    text = wl.run_cli(ENTROPY_ARGV)
    reference = checks.entropy_rows(text)
    assert checks.check_entropy(text, reference) == (len(reference), 0)
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
    corrupted = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert checks.check_entropy(corrupted, reference) == (len(reference), 1)
    # a value above white noise breaks an invariant even where it matches the reference
    key = next(k for k in reference if k[0] == "noisy-cubic")
    raised = {**reference, key: 0.99}
    assert key in checks.entropy_violations(raised)


def test_committed_entropy_reference_is_whole():
    table = checks.load_entropy_reference()
    assert sorted(table) == [k * wl.ENTROPY_REALIZATIONS for k in range(wl.ENTROPY_POOL)]
    for rows in table.values():
        assert len(rows) == 45 and not checks.entropy_violations(rows)


def test_pc_curve_check_flags_a_corrupted_row():
    text = wl.run_cli(PC_ARGV)
    reference = checks.pc_reference(5, **PC_SHAPE)
    assert checks.check_pc_curve(text, reference) == (len(reference), 0)
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[3] = repr(float(fields[3]) - 0.01)
    corrupted = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert checks.check_pc_curve(corrupted, reference) == (len(reference), 1)


def test_census_checks_flag_a_corrupted_row(recording):
    path, x = recording
    census, transitions = _census_outputs(path, x)
    ref = checks.census_reference(x, 5)
    assert checks.check_census(census, ref) == (len(ref), 0)
    lines = census.splitlines()
    code, ranks, count, prob = lines[-1].split(",")
    bumped = "\n".join(lines[:-1] + [",".join((code, ranks, str(int(count) + 1), prob))])
    assert checks.check_census(bumped, ref) == (len(ref), 1)
    assert checks.check_census("\n".join(lines[:-1]), ref) == (len(ref), 1)

    tref = checks.transitions_reference(x, 3)
    assert checks.check_transitions(transitions, tref) == (len(tref), 0)
    rows = json.loads(transitions)
    rows[0][2] += 1e-6
    assert checks.check_transitions(json.dumps(rows), tref) == (len(tref), 1)


def test_reference_codes_follow_pattern_of():
    from ordent import encode_pattern, pattern_of

    x = np.array([3.0, 1.0, 3.0, 2.0, 1.0, 5.0, 5.0, 0.0])
    rows = checks.id_rows(checks.rank_row_ids(x, 4), 4)
    expected = [pattern_of(x[i:i + 4]) for i in range(x.size - 3)]
    assert [tuple(r) for r in rows.tolist()] == expected
    assert checks.lexicographic_codes(rows).tolist() == [encode_pattern(p) for p in expected]
