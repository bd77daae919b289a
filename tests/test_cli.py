"""Command-line interface: schemas, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ordent
from ordent.cli import main
from ordent.serialize import read_series, read_series_binary, write_series_csv


def run(*args):
    return main(list(args))


def run_module(*args):
    """``python -m ordent.cli`` in a child process that imports the ordent under test."""
    src = str(Path(ordent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "ordent.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestGenerate:
    def test_csv_length_and_summary(self, tmp_path, capsys):
        out = tmp_path / "wn.csv"
        assert run("generate", "--process", "white-noise", "--t", "1000",
                   "--seed", "1", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1000
        assert "t=1000" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run("generate", "--process", "fbm", "--hurst", "0.2",
                       "--t", "5000", "--seed", "7", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_binary_roundtrip(self, tmp_path):
        out = tmp_path / "wn.bin"
        assert run("generate", "--process", "white-noise", "--t", "256",
                   "--seed", "3", "--format", "binary", "--out", str(out)) == 0
        raw = out.read_bytes()
        assert raw[:8] == b"ORDENTS1"
        assert len(raw) == 16 + 256 * 8
        samples = read_series_binary(str(out))
        assert samples.shape == (256,)
        assert read_series(str(out)).tolist() == samples.tolist()

    def test_bad_params_exit_2(self, capsys):
        assert run("generate", "--process", "fgn", "--hurst", "1.5", "--t", "100") == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_process_exit_2(self):
        assert run("generate", "--process", "pink-noise", "--t", "100") == 2


class TestCensus:
    def test_logistic_table(self, tmp_path):
        out = tmp_path / "census.csv"
        assert run("census", "--process", "logistic", "--t", "100000",
                   "--length", "3", "--out", str(out)) == 0
        text = out.read_text()
        assert text.startswith("# schema_version=1\n")
        assert "# allowed_count=5" in text
        data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert data_rows[0] == "code,ranks,count,probability"
        assert len(data_rows) == 1 + 5
        assert not any(row.startswith("5,") for row in data_rows[1:])  # (2,1,0) absent

    def test_report_missing_caveat(self, tmp_path):
        out = tmp_path / "census.csv"
        assert run("census", "--process", "logistic", "--t", "50000",
                   "--length", "3", "--report-missing", "--out", str(out)) == 0
        text = out.read_text()
        assert "missing patterns are not necessarily forbidden" in text
        assert "2-1-0" in text

    def test_json_schema(self, tmp_path):
        out = tmp_path / "census.json"
        assert run("census", "--process", "white-noise", "--t", "20000",
                   "--length", "4", "--format", "json", "--out", str(out),
                   "--report-missing") == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["meta"]["allowed_count"] == 24
        assert payload["missing"] == []
        assert len(payload["patterns"]) == 24
        for entry in payload["patterns"]:
            assert entry["probability"] == pytest.approx(1 / 24, abs=0.01)

    def test_census_from_file(self, tmp_path):
        series = tmp_path / "series.csv"
        write_series_csv(str(series), np.linspace(0.0, 1.0, 100))
        out = tmp_path / "census.csv"
        assert run("census", "--input", str(series), "--length", "3",
                   "--out", str(out)) == 0
        assert "# allowed_count=1" in out.read_text()

    def test_malformed_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot-a-number\n2.0\n")
        assert run("census", "--input", str(bad), "--length", "2") == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["census", "--input", "ABSENT", "--length", "1"], id="1"),
            pytest.param(["census", "--input", "ABSENT", "--length", "21"], id="21"),
            pytest.param(["census", "--input", "ABSENT", "--length", "25"], id="25"),
            pytest.param(["classify", "--process", "white-noise", "--l-max", "21"],
                         id="classify-21"),
            pytest.param(["pc-curve", "--process", "white-noise", "--length", "21"],
                         id="pc-curve-21"),
            pytest.param(["entropy", "--process", "white-noise", "--l-min", "1"], id="entropy-1"),
            pytest.param(["rate", "--process", "white-noise", "--l-max", "21"], id="rate-21"),
        ],
    )
    def test_length_out_of_range_exit_2_before_reading(self, tmp_path, capsys, argv):
        absent = str(tmp_path / "absent.csv")
        assert run(*[absent if a == "ABSENT" else a for a in argv]) == 2
        assert "2..20" in capsys.readouterr().err

    def test_truncated_binary_payload_exit_1(self, tmp_path, capsys):
        path = tmp_path / "short.bin"
        assert run("generate", "--process", "white-noise", "--t", "10",
                   "--format", "binary", "--out", str(path)) == 0
        path.write_bytes(path.read_bytes()[:-3])
        assert run("census", "--input", str(path), "--length", "3") == 1
        err = capsys.readouterr().err
        assert "truncated payload" in err and "77 bytes" in err

    def test_non_finite_sample_names_index_exit_1(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("1.0\n# comment\n2.0\n0.5\ninf\n3.0\nnan\n")
        assert run("census", "--input", str(series), "--length", "2") == 1
        assert "index 3" in capsys.readouterr().err

    def test_input_and_process_conflict(self):
        assert run("census", "--input", "x.csv", "--process", "white-noise",
                   "--length", "3") == 2


class TestPcCurve:
    def test_white_noise_saturation(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("pc-curve", "--process", "white-noise", "--length", "4",
                   "--t-max", "5000", "--grid-points", "12",
                   "--realizations", "3", "--out", str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("process")]
        assert all(r[0] == "white-noise" and r[1] == "4" for r in rows)
        assert "# transient=0\n" in out.read_text()
        final_g = float(rows[-1][3])
        assert final_g == pytest.approx(math.log(24), abs=1e-9)

    def test_multiple_processes(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("pc-curve", "--process", "white-noise", "--process", "fgn:0.75",
                   "--length", "3", "--t-grid", "10,100,1000",
                   "--realizations", "2", "--out", str(out)) == 0
        labels = {l.split(",")[0] for l in out.read_text().splitlines()
                  if l and not l.startswith("#") and not l.startswith("process")}
        assert labels == {"white-noise", "fgn:0.75"}


class TestEntropyAndRate:
    def test_entropy_alpha_ordering(self, tmp_path):
        out = tmp_path / "entropy.csv"
        assert run("entropy", "--process", "white-noise", "--l-min", "3",
                   "--l-max", "5", "--alpha", "0.5,1,1.5", "--t", "5000",
                   "--realizations", "2", "--out", str(out)) == 0
        values = {}
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("process") or not line:
                continue
            proc, L, alpha, growth, z = line.split(",")
            values[(int(L), float(alpha))] = float(z)
        for L in (3, 4, 5):
            assert values[(L, 0.5)] >= values[(L, 1.0)] >= values[(L, 1.5)]

    def test_rate_final_value(self, tmp_path):
        out = tmp_path / "rate.json"
        assert run("rate", "--process", "white-noise", "--l-min", "3", "--l-max", "6",
                   "--alpha", "0", "--t", "20000", "--realizations", "2",
                   "--class", "factorial", "--format", "json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["final"] == payload["rows"][-1]["z_over_l"]
        zs = [row["z_over_l"] for row in payload["rows"]]
        assert zs == sorted(zs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--process", "logistic", "--t", "60000", "--transient", "-30000"],
            ["entropy", "--process", "logistic", "--transient", "-1"],
            ["rate", "--process", "white-noise", "-R", "0"],
            ["entropy", "--process", "white-noise", "-R", "0"],
        ],
        ids=["rate-transient", "entropy-transient", "rate-R", "entropy-R"],
    )
    def test_bad_transient_or_realizations_exit_2(self, capsys, argv):
        assert run(*argv) == 2
        assert "usage error" in capsys.readouterr().err

    def test_subfactorial_requires_c(self):
        assert run("rate", "--process", "white-noise", "--class", "subfactorial",
                   "--t", "1000") == 2


class TestClassify:
    def test_from_synthetic_file(self, tmp_path):
        data = tmp_path / "growth.csv"
        rows = ["L,ln_allowed"] + [f"{L},{0.5 * L * math.log(L):.17g}" for L in range(3, 9)]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        assert run("classify", "--input", str(data), "--format", "json",
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["kind"] == "subfactorial"
        assert payload["meta"]["c_hat"] == pytest.approx(0.5, abs=1e-9)

    def test_from_process(self, tmp_path):
        out = tmp_path / "fit.json"
        assert run("classify", "--process", "white-noise", "--t", "60000",
                   "--l-min", "3", "--l-max", "6", "--format", "json",
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["kind"] == "factorial"

    def test_reads_its_own_csv(self, tmp_path, capsys):
        """The header row follows the '#' comment lines, so it is not line 1."""
        out = tmp_path / "fit.csv"
        assert run("classify", "--process", "noisy-logistic", "--t", "20000", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("classify", "--input", str(out)) == 0
        fit = ("# kind=", "# c_hat=", "# model=", "# rss[")
        first = [line for line in out.read_text().splitlines() if line.startswith(fit)]
        second = [line for line in capsys.readouterr().out.splitlines() if line.startswith(fit)]
        assert len(first) == 6 and second == first


class TestOracle:
    def test_cells_and_transitions_json(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert run("oracle", "--length", "3", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        cells = {tuple(c["ranks"]): c for c in payload["cells"]}
        assert len(cells) == 5
        assert cells[(0, 1, 2)]["measure"] == pytest.approx(1 / 3, abs=1e-10)
        row = next(t for t in payload["transitions"] if t["source"] == [0, 1, 2])
        probs = {tuple(e["ranks"]): e["probability"] for e in row["targets"]}
        assert probs[(0, 1, 2)] == pytest.approx(0.5, abs=1e-9)
        assert probs[(0, 2, 1)] == pytest.approx(0.1, abs=1e-9)
        assert probs[(2, 0, 1)] == pytest.approx(0.4, abs=1e-9)

    def test_unsupported_length_exit_2(self):
        assert run("oracle", "--length", "7") == 2


class TestWorkerCap:
    def test_env_caps_worker_count(self, monkeypatch):
        from ordent.cli import _workers

        monkeypatch.setenv("ORDENT_THREADS", "1")
        assert _workers() == 1
        monkeypatch.setenv("ORDENT_THREADS", "garbage")
        from ordent.cli import UsageError

        with pytest.raises(UsageError):
            _workers()

    def test_default_is_the_usable_cores(self, monkeypatch):
        import os

        from ordent.cli import _workers

        monkeypatch.delenv("ORDENT_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _workers() == 3
        monkeypatch.setenv("ORDENT_THREADS", "8")
        assert _workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _workers() == 8

    def test_threaded_pc_curve_matches_serial(self, tmp_path, monkeypatch):
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("ORDENT_THREADS", threads)
            out = tmp_path / f"curve-{threads}.csv"
            assert run("pc-curve", "--process", "white-noise", "--length", "3",
                       "--t-grid", "10,100,1000", "--realizations", "4",
                       "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestEntryPoint:
    def test_no_command_shows_help(self):
        assert run() == 2

    def test_console_script(self, tmp_path):
        result = run_module("generate", "--process", "white-noise", "--t", "50",
                            "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 0

    def test_argparse_usage_error_exit_2(self):
        result = run_module("census")
        assert result.returncode == 2


@pytest.mark.parametrize("argv, sha256", [
    ("census --process white-noise --t 20000 --length 5",
     "834ef912552defcefceac3f686d76851620b46338a85e6955351374f47f27dc2"),
    ("census --process white-noise --t 2000 --length 8 --report-missing",
     "cf5844133ac72f6c3f015dd47143fe3ae6223a1048cc8c650f9c9b9919e07be0"),
    ("generate --process white-noise --t 2000",
     "b2a28b5510b0dee540a1d9cc938351b0fd7d3d225908a3d536022808651287fa"),
], ids=["census-L5", "census-L8-missing", "generate"])
def test_golden_csv_bytes(capsys, argv, sha256):
    """Pinned CSV output. These runs rest only on the PCG64 uniform stream,
    integer counts and float division, not on FFTs or libm."""
    assert run(*argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_golden_entropy_bytes(capsys):
    """Pinned class entropies of the FFT, map-orbit and noisy-map generators at
    L = 3..7. Unlike the pins above these rest on numpy's FFT and on libm
    (exp, log), so another numpy or platform may need them re-recorded."""
    argv = ("entropy --process fbm:0.7 --process noisy-cubic --process noisy-skew-tent "
            "--process logistic --l-min 3 --l-max 7 --alpha 0,1,2 --t 5000 -R 2 --seed 3")
    with pytest.warns(UserWarning, match="undersampled"):
        assert run(*argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e5009e605101064b3f7a1d9d1f89e5c01b34a02a965469fe6b3a84cd03f31dbc")
