"""Command-line interface: schemas, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ordent
from ordent import OrdinalCellSet, census, generate, noisy_cubic
from ordent.cli import main
from ordent.serialize import read_series, read_series_binary, write_series_csv


def run(*args):
    return main(list(args))


def run_module(*args, module="ordent.cli"):
    """``python -m <module>`` in a child process that imports the ordent under test."""
    src = str(Path(ordent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
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

    def test_binary_without_out_exit_2_before_generating(self, capsys, no_work):
        assert run("generate", "--process", "fgn:0.7", "--t", "2000000", "--format", "binary") == 2
        assert "usage error: binary output requires --out" in capsys.readouterr().err

    def test_t_and_seed_defaults_are_10000_and_0(self, capsys):
        outputs = []
        for extra in ([], ["--t", "10000", "--seed", "0"]):
            assert run("rate", "--process", "white-noise", "-R", "1", "--l-max", "3", *extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "# t=10000\n" in outputs[0] and "# seed=0\n" in outputs[0]


@pytest.fixture
def no_work(monkeypatch):
    """Fail any generation or series read: a refused command line does neither."""
    def refuse(*args, **kwargs):
        raise AssertionError("generated or read a series for a refused command line")

    monkeypatch.setattr("ordent.processgen.generate", refuse)
    monkeypatch.setattr("ordent.serialize.read_series", refuse)


class TestProcessOptions:
    @pytest.mark.parametrize("process, option", [
        ("logistic", ["--a", "3.9"]),
        ("logistic", ["--x0", "0.2"]),
        ("noisy-logistic", ["--a", "3.9"]),
        ("noisy-logistic", ["--x0", "0.2"]),
        ("noisy-logistic", ["--eps", "0.05"]),
        ("noisy-logistic", ["--a-range", "3.6", "3.7"]),
        ("noisy-cubic", ["--amp", "0.3"]),
        ("noisy-cubic", ["--y0", "0.2"]),
        ("noisy-skew-tent", ["--amp", "0.3"]),
        ("noisy-skew-tent", ["--y0", "0.2"]),
        ("fgn", ["--hurst", "0.3"]),
        ("fbm", ["--hurst", "0.3"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
    def test_option_changes_a_kind_that_reads_it(self, capsys, process, option):
        outputs = []
        for extra in ([] if "--hurst" not in option else ["--hurst", "0.8"]), option:
            assert run("generate", "--process", process, "--t", "200", "--seed", "4", *extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("argv, option", [
        (["generate", "--process", "white-noise", "--a", "3.9"], "--a"),
        (["generate", "--process", "white-noise", "--hurst", "0.3"], "--hurst"),
        (["generate", "--process", "white-noise", "--eps", "0.5"], "--eps"),
        (["generate", "--process", "logistic", "--eps", "0.2"], "--eps"),
        (["generate", "--process", "logistic", "--a-range", "3.8", "3.9"], "--a-range"),
        (["census", "--process", "noisy-skew-tent", "-L", "3", "--x0", "0.2"], "--x0"),
        (["census", "--process", "logistic", "-L", "3", "--amp", "0.1"], "--amp"),
        (["rate", "--process", "noisy-cubic", "--a", "2"], "--a"),
        (["classify", "--process", "fgn:0.6", "--y0", "0.2"], "--y0"),
        (["entropy", "--process", "white-noise", "--process", "logistic", "--eps", "0.1"], "--eps"),
        (["pc-curve", "--process", "fbm:0.3", "-L", "3", "--amp", "0.2"], "--amp"),
        (["generate", "--process", "fgn:0.3", "--hurst", "0.9"], "--hurst"),
        (["census", "--input", "series.csv", "-L", "3", "--amp", "0.2"], "--amp"),
        (["classify", "--input", "growth.csv", "--hurst", "0.5"], "--hurst"),
        (["census", "--process", "noisy-logistic", "-L", "3", "--a", "3.9", "--a-range", "3.8", "3.9"],
         "--a"),
    ], ids=lambda v: f"{v[0]}:{v[2]}" if isinstance(v, list) else v.lstrip("-"))
    def test_option_no_named_process_reads_exit_2(self, capsys, no_work, argv, option):
        assert run(*argv) == 2
        assert f"usage error: no named process reads {option}\n" == capsys.readouterr().err

    def test_a_reaches_the_kind_without_a_range(self, capsys):
        assert run("entropy", "--process", "logistic", "--process", "noisy-logistic", "--a", "3.9",
                   "--a-range", "3.8", "3.9", "--t", "300", "-R", "1", "--l-max", "3",
                   "--alpha", "1") == 0

    @pytest.mark.parametrize("argv, token", [
        (["entropy", "--process", "white-noise", "--process", "white-noise"], "white-noise"),
        (["pc-curve", "--process", "fgn:0.7", "--process", "fgn:0.70", "-L", "3"], "fgn:0.70"),
        (["entropy", "--process", "fgn", "--process", "fgn:0.7", "--hurst", "0.7"], "fgn:0.7"),
    ], ids=["same-token", "same-hurst", "hurst-option-and-shorthand"])
    def test_repeated_process_exit_2(self, capsys, no_work, argv, token):
        assert run(*argv) == 2
        assert f"usage error: process {token!r} repeats an earlier --process\n" == capsys.readouterr().err

    @pytest.mark.parametrize("process", ["white-noise:0.3", "noisy-logistic:0.5"])
    def test_hurst_shorthand_on_a_kind_without_hurst_exit_2(self, capsys, no_work, process):
        assert run("generate", "--process", process) == 2
        assert f"reads no Hurst exponent, so '{process}' is refused" in capsys.readouterr().err

    def test_not_a_constructor_is_an_unknown_process(self, capsys, no_work):
        assert run("generate", "--process", "steady-samples") == 2
        assert "usage error: unknown process 'steady-samples'" in capsys.readouterr().err

    def test_hurst_reaches_bare_tokens(self, capsys):
        assert run("entropy", "--process", "fgn", "--process", "fbm:0.3", "--hurst", "0.8",
                   "--t", "2000", "-R", "1", "--l-max", "4", "--alpha", "1") == 0
        labels = {line.split(",")[0] for line in capsys.readouterr().out.splitlines()
                  if line and not line.startswith(("#", "process"))}
        assert labels == {"fgn:0.8", "fbm:0.3"}


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

    @pytest.mark.parametrize("command", [["census", "-L", "3"], ["classify"]])
    def test_transient_with_input_exit_2_before_any_read(self, capsys, no_work, command):
        assert run(*command, "--input", "missing.csv", "--transient", "500") == 2
        assert "usage error: --transient applies to a --process series" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        (["census", "-L", "3"], ["--t", "50"]), (["census", "-L", "3"], ["--seed", "9"]),
        (["classify"], ["--t", "9"]), (["classify"], ["--seed", "4"]),
        (["classify"], ["--l-min", "5"]), (["classify"], ["--l-max", "6"]),
    ], ids=["census-t", "census-seed", "classify-t", "classify-seed", "classify-l-min",
            "classify-l-max"])
    def test_series_option_with_input_exit_2_before_any_read(self, capsys, tmp_path, no_work,
                                                             command, option):
        series = tmp_path / "series.csv"
        series.write_text("3,1.0\n4,2.0\n5,3.0\n")
        assert run(*command, "--input", str(series), *option) == 2
        err = capsys.readouterr().err
        assert f"usage error: {option[0]} applies to a --process series, not to --input" in err

    def test_input_and_process_conflict(self):
        assert run("census", "--input", "x.csv", "--process", "white-noise",
                   "--length", "3") == 2

    @pytest.mark.parametrize("source", [["--process", "white-noise", "--t", "3000000"],
                                        ["--input", "series.csv"]], ids=["process", "input"])
    def test_report_missing_above_limit_exit_2_before_any_work(self, capsys, monkeypatch, source):
        def no_work(*args, **kwargs):
            raise AssertionError("read or generated a series for a length --report-missing refuses")

        monkeypatch.setattr("ordent.processgen.generate", no_work)
        monkeypatch.setattr("ordent.serialize.read_series", no_work)
        assert run("census", *source, "--length", "11", "--report-missing") == 2
        assert "usage error: --report-missing needs length <= 10, got 11" in capsys.readouterr().err


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

    def test_t_and_t_max_set_one_grid_top(self, capsys):
        outputs = []
        for flag in ("--t", "--t-max"):
            assert run("pc-curve", "--process", "fgn:0.75", "--length", "3", flag, "2000",
                       "--grid-points", "6", "--realizations", "2") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[-1].split(",")[2] == "2000"

    @pytest.mark.parametrize("option, flag", [
        (["--t", "50"], "--t/--t-max"), (["--t-max", "50"], "--t/--t-max"),
        (["--grid-points", "0"], "--grid-points"), (["--grid-points", "40"], "--grid-points"),
    ], ids=["t", "t-max", "grid-points-0", "grid-points-40"])
    def test_automatic_grid_option_with_t_grid_exit_2(self, capsys, no_work, option, flag):
        assert run("pc-curve", "--process", "white-noise", "--length", "3",
                   "--t-grid", "10,100", "-R", "2", *option) == 2
        assert f"usage error: {flag} shapes the automatic grid" in capsys.readouterr().err

    def test_t_help_names_the_grid_top(self, capsys):
        with pytest.raises(SystemExit):
            run("pc-curve", "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert "--t T top of the automatic grid (default 15000)" in text

    @pytest.mark.parametrize("option", [["--t", "0"], ["--t", "-5"], ["--t-max", "2"]],
                             ids=["t-0", "t-negative", "t-max-below-L"])
    def test_grid_top_below_the_length_exit_2(self, capsys, no_work, option):
        assert run("pc-curve", "--process", "white-noise", "--length", "3", *option) == 2
        err = capsys.readouterr().err
        assert f"usage error: --t/--t-max must be at least the pattern length 3, got {option[1]}" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_grid_points_below_1_exit_2(self, capsys, points):
        assert run("pc-curve", "--process", "white-noise", "--length", "3",
                   "--grid-points", points) == 2
        assert f"usage error: grid points must be >= 1, got {points}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["rate", "entropy"])
    def test_bad_alpha_exit_2_before_any_generation(self, capsys, monkeypatch, command, alpha):
        def no_generation(spec):
            raise AssertionError("generated a series for a bad alpha")

        monkeypatch.setattr("ordent.processgen.generate", no_generation)
        assert run(command, "--process", "white-noise", "--t", "1000", f"--alpha={alpha}") == 2
        assert "usage error: alpha must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rate", "entropy"])
    def test_c_with_factorial_class_exit_2(self, capsys, no_work, command):
        assert run(command, "--process", "white-noise", "--t", "3000", "--c", "0.3") == 2
        assert "usage error: the factorial class reads no --c" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas, token", [("0.5,0.5", "0.5"), ("0,1,1.0", "1.0")])
    def test_repeated_alpha_exit_2(self, capsys, no_work, alphas, token):
        assert run("entropy", "--process", "white-noise", "--alpha", alphas) == 2
        assert f"usage error: alpha {token!r} repeats an earlier one\n" == capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["rate", "--process", "white-noise", "--t", "4", "--l-max", "7"], "--l-max 7, got 4"),
        (["entropy", "--process", "white-noise", "--t", "6"], "--l-max 7, got 6"),
        (["classify", "--process", "white-noise", "--t", "5"], "--l-max 7, got 5"),
        (["census", "--process", "white-noise", "--t", "3", "-L", "5"], "the pattern length 5, got 3"),
    ], ids=["rate", "entropy", "classify", "census"])
    def test_t_below_the_longest_length_exit_2_before_generating(self, capsys, recwarn, no_work,
                                                                 argv, message):
        assert run(*argv) == 2
        assert f"usage error: --t must be at least {message}\n" == capsys.readouterr().err
        assert not recwarn.list

    def test_t_at_the_longest_length_runs(self, capsys):
        assert run("census", "--process", "white-noise", "--t", "5", "-L", "5") == 0
        assert capsys.readouterr().out.endswith("\n86,3-2-1-0-4,1,1\n")
        with pytest.warns(UserWarning, match="undersampled"):
            assert run("rate", "--process", "white-noise", "--t", "7", "--l-max", "7", "-R", "1") == 0
        assert capsys.readouterr().out.endswith("\n7,0\n")  # one window: one pattern

    def test_order_whose_power_sum_underflows(self, capsys):
        # at L = 7 every p^100 underflows, so sum p^100 reads 0.0
        assert run("entropy", "--process", "white-noise", "--alpha", "1.5,100", "--l-min", "7",
                   "--l-max", "7", "--t", "60000", "-R", "1") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line.startswith("white-noise,")]
        z = {float(alpha): float(value) for _, _, alpha, _, value in rows}
        assert 0 < z[100.0] <= z[1.5]

    def test_rate_takes_one_alpha(self, capsys):
        assert run("rate", "--process", "white-noise", "--alpha", "0.5,1") == 2
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

    def test_rows_are_the_fitted_points_in_ascending_length(self, tmp_path):
        data = tmp_path / "growth.csv"
        data.write_text("5,4.2\n3,1.6\n4,2.9\n6,5.5\n")
        out = tmp_path / "fit.json"
        assert run("classify", "--input", str(data), "--format", "json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        meta, rows = payload["meta"], payload["rows"]
        assert [(r["L"], r["ln_allowed"]) for r in rows] == [(3, 1.6), (4, 2.9), (5, 4.2), (6, 5.5)]
        model = {"c*L": lambda L: meta["c_hat"] * L,
                 "c*L*lnL": lambda L: meta["c_hat"] * L * math.log(L),
                 "lnL!": lambda L: math.lgamma(L + 1.0)}[meta["model"]]
        for r in rows:
            assert r["residual"] == pytest.approx(r["ln_allowed"] - model(r["L"]), abs=1e-12)

    @pytest.mark.parametrize("text, line", [
        ("L,ln_allowed\n3,1.6\n4,2.9\n4,3.1\n6,5.5\n", 4),
        ("3.7,1.6\n4,2.9\n5,4.2\n", 1),
        ("# note\nL,ln_allowed\n3,1.6\n4.5,2.9\n5,4.2\n", 4),
    ], ids=["repeated", "fractional-first", "fractional"])
    def test_bad_length_exit_1(self, tmp_path, capsys, text, line):
        data = tmp_path / "growth.csv"
        data.write_text(text)
        assert run("classify", "--input", str(data)) == 1
        assert f"{data}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "-3", "1", "21"])
    def test_length_outside_pattern_range_exit_1(self, tmp_path, capsys, length):
        data = tmp_path / "growth.csv"
        data.write_text(f"L,ln_allowed\n3,1.6\n4,2.9\n{length},0\n6,5.5\n")
        assert run("classify", "--input", str(data)) == 1
        assert f"{data}:4: length {length} outside 2..20" in capsys.readouterr().err

    def test_process_rows_are_the_census_counts(self, tmp_path):
        out = tmp_path / "fit.json"
        assert run("classify", "--process", "noisy-cubic", "--t", "8000", "--seed", "2",
                   "--l-min", "3", "--l-max", "7", "--format", "json", "--out", str(out)) == 0
        rows = json.loads(out.read_text())["rows"]
        series = generate(noisy_cubic(9000, seed=2)).samples[1000:]
        assert [(r["L"], r["ln_allowed"]) for r in rows] == [
            (L, math.log(census(series, L).allowed_count)) for L in range(3, 8)]


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

    @pytest.mark.parametrize("argv, sha256", [
        ("oracle --length 3", "e0fe0a4701bb18bc44853c3a4a5f35435d5484554969431f34a935a03e3a97bf"),
        ("oracle --length 9 --what transitions",
         "04cacfc0fd3415ba3857258b2cf3e4667a7504fc4f5c08e63bc4d3b18cc4a09f"),
        ("oracle --length 9 --what cells",
         "f005fd7c9ddaad1c569d87c4896fe5c3044d79487e6db743ad1b563a1b26fa83"),
        ("oracle --length 11 --what both",
         "956bbfd418bed3a8bfc227e26ffa77262b0576cc6671e595540c36407f80a7a5"),
    ], ids=["L3", "L9-transitions", "L9-cells", "L11-both"])
    def test_golden_json_bytes(self, capsys, argv, sha256):
        assert run(*argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_unsupported_length_exit_2(self):
        assert run("oracle", "--length", "15") == 2

    def test_length_checked_before_any_work(self, monkeypatch, tmp_path):
        from ordent import logistic_exact

        def fail(length):
            raise AssertionError(f"cells built for length {length}")

        monkeypatch.setattr(logistic_exact, "ordinal_cells", fail)
        assert run("oracle", "--length", "14") == 2  # transitions stop at 13
        assert run("oracle", "--length", "15", "--what", "cells") == 2
        built = []  # an empty stand-in: the JSON of the 64140 real cells takes seconds
        monkeypatch.setattr(logistic_exact, "ordinal_cells",
                            lambda length: built.append(length) or OrdinalCellSet(length, [], {}))
        assert run("oracle", "--length", "14", "--what", "cells",
                   "--out", str(tmp_path / "cells.json")) == 0
        assert built == [14]


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

    @pytest.mark.parametrize("grid", [
        ("--process", "white-noise", "--process", "fbm:0.7", "--process", "noisy-cubic",
         "--alpha", "0,1,2"),
        ("--process", "fbm:0.7", "--alpha", "0,1"),
    ], ids=["3x3", "1x2"])
    def test_threaded_entropy_grid_matches_serial(self, tmp_path, monkeypatch, grid):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads swap often, so shared caches see interleaved calls
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("ORDENT_THREADS", threads)
                out = tmp_path / f"entropy-{threads}.csv"
                assert run("entropy", *grid, "--l-min", "3", "--l-max", "4", "--t", "3000",
                           "-R", "3", "--seed", "5", "--out", str(out)) == 0
                outputs.append(out.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1] == outputs[2]

    @staticmethod
    def _pool_calls(monkeypatch, *argv):
        """(n, workers) of each _run_indexed call made by one command on 2 threads."""
        from ordent import complexity

        calls = []
        original = complexity._run_indexed

        def recorded(fn, n, workers):
            calls.append((n, workers))
            return original(fn, n, workers)

        monkeypatch.setattr(complexity, "_run_indexed", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("ORDENT_THREADS", "2")
        assert run(*argv, "--l-min", "3", "--l-max", "4", "--t", "3000", "-R", "3",
                   "--out", os.devnull) == 0
        return calls

    def test_entropy_grid_larger_than_pool_runs_as_pool_jobs(self, monkeypatch):
        """More cells than threads: the cells share one pool; each runs its realizations inline."""
        calls = self._pool_calls(monkeypatch, "entropy", "--process", "white-noise",
                                 "--process", "noisy-cubic", "--alpha", "0.5,1")
        assert calls[0] == (4, 2)
        assert sorted(calls[1:]) == [(3, 1)] * 4

    @pytest.mark.parametrize("alphas", ["1", "0.5,1"])
    def test_entropy_grid_within_pool_pools_each_cells_realizations(self, monkeypatch, alphas):
        """No more cells than threads: the grid runs inline and each cell pools its realizations."""
        calls = self._pool_calls(monkeypatch, "entropy", "--process", "fbm:0.7", "--alpha", alphas)
        cells = len(alphas.split(","))
        assert calls == [(cells, 1)] + [(3, 2)] * cells

    def test_undersampled_warning_reaches_the_caller_from_worker_threads(self, monkeypatch):
        from ordent import complexity

        threads = []
        original = complexity.entropy_rate

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(complexity, "entropy_rate", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("ORDENT_THREADS", "2")
        with pytest.warns(UserWarning, match="undersampled"):
            assert run("entropy", "--process", "white-noise", "--alpha", "0.5,1,1.5",
                       "--l-min", "6", "--l-max", "6", "--t", "2000", "-R", "1",
                       "--out", os.devnull) == 0
        assert len(threads) == 3
        assert all(t is not threading.main_thread() for t in threads)


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

    def test_package_runs_as_module(self, capsys):
        result = run_module("oracle", "--length", "3", module="ordent")
        assert result.returncode == 0
        assert run("oracle", "--length", "3") == 0
        assert result.stdout == capsys.readouterr().out

    def test_package_usage_error_exit_2(self):
        result = run_module("census", module="ordent")
        assert result.returncode == 2
        assert "usage:" in result.stderr

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 745. GiB for an array", "Unable to allocate 745. GiB for an array"),
        ("", "MemoryError"),  # Python's own allocation failures carry no message
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_a_one_line_error_exit_1(self, capsys, monkeypatch, message, line):
        def out_of_memory(spec):
            raise MemoryError(message)

        monkeypatch.setattr("ordent.processgen.generate", out_of_memory)
        assert run("pc-curve", "--process", "white-noise", "--length", "3",
                   "--t-max", "100000000000", "--grid-points", "2", "-R", "1") == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_import_leaves_the_thread_pool_unloaded(self):
        # the pool is imported where it runs (complexity._run_indexed), so that
        # `import ordent` stays cheap for short commands
        src = str(Path(ordent.__file__).resolve().parents[1])
        code = "import sys, ordent; print('concurrent.futures' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.stdout == "False\n", result.stderr


@pytest.mark.parametrize("argv, sha256", [
    ("census --process white-noise --t 20000 --length 5",
     "834ef912552defcefceac3f686d76851620b46338a85e6955351374f47f27dc2"),
    ("census --process white-noise --t 2000 --length 8 --report-missing",
     "cf5844133ac72f6c3f015dd47143fe3ae6223a1048cc8c650f9c9b9919e07be0"),
    ("census --process white-noise --t 20000 --length 5 --format json",
     "acf11df35176430b26cd1761a6ec436bb84650142d268f37de6a258257586199"),
    ("census --process white-noise --t 2000 --length 8 --report-missing --format json",
     "b230cfc7c41782eafc707bb1a92417acdd98713badb3fe8ad19fe5e5ed57e104"),
    ("generate --process white-noise --t 2000",
     "b2a28b5510b0dee540a1d9cc938351b0fd7d3d225908a3d536022808651287fa"),
    ("generate --process noisy-logistic --t 2000",
     "a3cb48627e4b26c386de62fc0a6faab3cc0cfdb2a1ad1d735f72a97ab76b59d1"),
], ids=["census-L5", "census-L8-missing", "census-L5-json", "census-L8-missing-json", "generate",
         "generate-noisy-logistic"])
def test_golden_csv_bytes(capsys, argv, sha256):
    """Pinned CSV output, and the JSON form of the census tables. These runs
    rest only on the PCG64 uniform stream, integer counts and IEEE float
    arithmetic, not on FFTs or libm."""
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_pc_curve_bytes(capsys, monkeypatch, threads):
    """Pinned distinct-pattern curves of a uniform, an FFT and a noisy-map
    generator; like the entropy pin they rest on numpy's FFT and on libm."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("ORDENT_THREADS", threads)
    argv = ("pc-curve --process white-noise --process fgn:0.75 --process noisy-logistic "
            "--length 4 --t-max 3000 --grid-points 12 --realizations 3 --seed 5")
    assert run(*argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bb1b5eda660db149f1835d9bc418b99939d3ffc6d20ee5604cc5a0ff562d78d3")
