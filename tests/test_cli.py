"""Command-line interface: exit codes, config resolution, artifacts."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isingbell
from isingbell.cli import main
from isingbell.optimize import TrigSeries, write_series_json


COMMANDS = ("tqd", "simulate", "optimize", "sweep-detuning", "sweep-duration", "evaluate-series")
REPRO_IDS = ("fig1b", "fig2", "fig3a", "fig3b", "fig4c", "table1")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_line(out: str) -> dict:
    for line in out.splitlines():
        if line.startswith("config: "):
            return json.loads(line[len("config: "):])
    raise AssertionError("no config line printed")


class TestLimit:
    def test_prints_the_ceiling(self, capsys):
        code, out, _ = run(capsys, "limit")
        assert code == 0
        value = float(out.strip())
        assert out.strip() == "0.316563835510"
        assert 0.0 < value < 1.0
        assert round(value, 4) == 0.3166

    def test_idempotent(self, capsys):
        _, out1, _ = run(capsys, "limit")
        _, out2, _ = run(capsys, "limit")
        assert out1 == out2


class TestTqd:
    def test_artifacts_and_fidelity(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code, stdout, _ = run(capsys, "tqd", "--out", str(out))
        assert code == 0
        for name in ("tqd_waveform.csv", "tqd_trajectory.csv", "tqd_summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "tqd_summary.json").read_text())
        assert summary["fidelity"] == pytest.approx(0.9993, abs=5e-4)
        assert summary["config"]["kind"] == "symmetric"
        rows = (out / "tqd_trajectory.csv").read_text().splitlines()[2:]
        assert (summary["method"], summary["steps"]) == ("piecewise-exponential", len(rows) - 1)
        assert 0.0 <= summary["error_estimate"] <= 1e-7
        assert any(line.startswith("fidelity: ") for line in stdout.splitlines())

    def test_invalid_duration_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "tqd", "--T", "0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error:" in err

    def test_nonsymmetric_kind(self, tmp_path, capsys):
        out = tmp_path / "n"
        code, stdout, _ = run(capsys, "tqd", "--kind", "nonsymmetric", "--out", str(out))
        assert code == 0
        assert config_line(stdout)["kind"] == "nonsymmetric"


class TestConfigResolution:
    def test_flags_override_file_override_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 5.0, "e": 0.2}))
        code, stdout, _ = run(capsys, "tqd", "--config", str(cfg), "--T", "8",
                              "--out", str(tmp_path / "o"))
        assert code == 0
        resolved = config_line(stdout)
        assert resolved["T"] == 8.0      # flag wins
        assert resolved["e"] == 0.2      # file beats default
        assert resolved["kind"] == "symmetric"  # untouched default

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"banana": 1}))
        code, _, err = run(capsys, "tqd", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("text, key", [
        ("5", None),
        ("null", None),
        ('{"T": null}', "T"),
        ('{"T": [1, 2]}', "T"),
        ('{"e": "x"}', "e"),
        ('{"kind": "sideways"}', "kind"),
    ], ids=["int", "null", "T-null", "T-list", "e-string", "kind-choice"])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(capsys, "tqd", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("error: ")
        if key is not None:
            assert repr(key) in err

    @pytest.mark.parametrize("command, text, key", [
        ("optimize", '{"mode": "x"}', "mode"),
        ("evaluate-series", '{"convention": "x"}', "convention"),
    ], ids=["optimize-mode", "evaluate-series-convention"])
    def test_choice_outside_its_choices_is_usage_error(self, tmp_path, capsys, command, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"config key {key!r} must be one of" in err
        # rejected before any work: no config echo, no output directory
        assert stdout == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [(c,) for c in COMMANDS] + [("repro", r) for r in REPRO_IDS],
                             ids=list(COMMANDS) + [f"repro-{r}" for r in REPRO_IDS])
    def test_flags_are_the_config_keys(self, tmp_path, capsys, command):
        """Every parameter is both a flag and a config key: the parser's
        flags equal the keys a config file may set (the echoed config's keys
        but ``experiment`` and ``out``); a ``repro`` flag of another dataset
        is rejected."""
        assert main([*command, "--help"]) == 0
        flags = set(re.findall(r"^  --([\w-]+)", capsys.readouterr().out, re.M)) - {"out", "config"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"banana": 1}')
        code, _, err = run(capsys, *command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        keys = set(ast.literal_eval(err.split("expected a subset of ")[1].strip())) - {"experiment", "out"}
        if command[0] != "repro":
            assert flags == keys
            return
        assert keys <= flags
        for flag in sorted(flags - keys):
            code, _, err = run(capsys, *command, f"--{flag}", "1", "--out", str(tmp_path / "o"))
            assert code == 2 and f"repro {command[1]} takes no --{flag}" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "tqd", "--config", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "o"))
        assert code == 2

    def test_echoed_config_replays_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "A"
        code, stdout, _ = run(capsys, "simulate", "--T", "1.0", "--out", str(out))
        assert code == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_line(stdout)))
        code, _, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        # the replay writes to the recorded `out`, not the default directory
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_config_of_another_experiment_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "simulate"}))
        code, _, err = run(capsys, "tqd", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "'simulate', not 'tqd'" in err

    @pytest.mark.parametrize("argv", [("tqd",), ("simulate",), ("evaluate-series",), ("repro", "fig1b")],
                             ids=["tqd", "simulate", "evaluate-series", "repro-fig1b"])
    def test_no_command_takes_a_step_count(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, "--steps", "4000", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "--steps" in err
        # a config echoed before the step count was automatic
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": None}))
        code, _, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown config keys ['steps']" in err

    def test_config_embedded_in_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(capsys, "simulate", "--T", "1.0", "--out", str(out))
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["config"]["T"] == 1.0
        header = (out / "simulate_trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("# config:")
        assert json.loads(header[len("# config:"):])["experiment"] == "simulate"


class TestSimulate:
    def test_constant_drive_reference_value(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "simulate", "--out", str(tmp_path / "o"))
        assert code == 0
        fid = float(stdout.splitlines()[-1].split()[-1])
        assert fid == pytest.approx(0.922771653834, rel=1e-9)

    def test_methods_agree(self, tmp_path, capsys):
        _, out_rk4, _ = run(capsys, "simulate", "--out", str(tmp_path / "a"))
        _, out_exp, _ = run(capsys, "simulate", "--method", "piecewise-exponential",
                            "--out", str(tmp_path / "b"))
        f1 = float(out_rk4.splitlines()[-1].split()[-1])
        f2 = float(out_exp.splitlines()[-1].split()[-1])
        assert f1 == pytest.approx(f2, abs=1e-7)

    @pytest.mark.parametrize("method", ["rk4", "piecewise-exponential"])
    def test_summary_records_the_chosen_step_count(self, tmp_path, capsys, method):
        out = tmp_path / "o"
        code, _, _ = run(capsys, "simulate", "--method", method, "--out", str(out))
        assert code == 0
        summary = json.loads((out / "simulate_summary.json").read_text())
        rows = (out / "simulate_trajectory.csv").read_text().splitlines()[2:]
        assert summary["method"] == method
        assert summary["steps"] == len(rows) - 1
        assert 0.0 <= summary["max_drift"] <= 1e-8

    def test_strong_detuning_is_resolved(self, tmp_path, capsys):
        # the step bound includes the detuning: 35,415 RK4 steps, not 10,000
        fids = []
        for method in ("rk4", "piecewise-exponential"):
            code, out, _ = run(capsys, "simulate", "--delta", "30", "--T", "10", "--method", method,
                               "--out", str(tmp_path / method))
            assert code == 0
            fids.append(float(out.splitlines()[-1].split()[-1]))
        assert fids[0] == pytest.approx(fids[1], abs=1e-7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_idle_pulse_of_huge_duration_is_usage_error(self, tmp_path, capsys):
        # |H| >= 4 even with no field, so the step policy refuses it up front
        code, _, err = run(capsys, "simulate", "--T", "1e300", "--omega", "0", "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.count("error: ") == 1 and "Traceback" not in err and "Warning" not in err

    # overflow and divide-by-zero warnings would reach the user's terminal
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ("simulate", "--T", "2.5", "--omega", "1e308"),
        ("tqd", "--e", "1e300", "--T", "1"),
        ("evaluate-series", "--series", "{series}"),
        ("tqd", "--T", "1e-200"),
        ("tqd", "--T", "1e200"),
    ], ids=["simulate", "tqd", "evaluate-series", "tqd-short", "tqd-long"])
    def test_pulse_too_strong_for_the_step_policy_is_usage_error(self, tmp_path, capsys, argv):
        series_path = tmp_path / "series.json"
        series_path.write_text('{"p": 0, "a": [1e308], "b": [0]}')
        argv = [a.format(series=series_path) for a in argv]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.count("error: ") == 1 and "pulse area" in err and "Traceback" not in err


class TestOptimize:
    def test_small_piecewise_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "optimize", "--T", "2", "--segments", "60",
                              "--restarts", "0", "--out", str(out))
        assert code == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert 0.5 < report["fidelity"] <= 1.0
        assert len(report["waveform"]["segments"]) == 60
        assert (out / "optimize_waveform.csv").exists()
        assert "saturation" in stdout

    def test_trig_mode_writes_series(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, _, _ = run(capsys, "optimize", "--mode", "trig", "--joint", "--T", "2.5",
                         "--p", "1", "--segments", "100", "--restarts", "0",
                         "--out", str(out))
        assert code == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert report["waveform"]["kind"] == "trig-series"
        assert len(report["waveform"]["coefficients"]["a"]) == 3

    @pytest.mark.parametrize("argv, message", [
        (("--mode", "piecewise", "--p", "7"), "optimize --mode piecewise takes no --p"),
        (("--mode", "piecewise", "--no-joint"), "optimize --mode piecewise takes no --joint"),
        (("--mode", "trig", "--joint", "--delta", "0.7"), "optimize --mode trig --joint takes no --delta"),
    ], ids=["piecewise-p", "piecewise-joint", "joint-delta"])
    def test_flag_the_mode_does_not_read_is_usage_error(self, tmp_path, capsys, argv, message):
        code, stdout, err = run(capsys, "optimize", *argv, "--T", "2", "--segments", "20",
                                "--restarts", "0", "--out", str(tmp_path / "o"))
        assert code == 2
        assert message in err
        assert stdout == "" and not (tmp_path / "o").exists()

    def test_config_keys_the_mode_does_not_read_are_kept(self, tmp_path, capsys):
        # the echoed config holds every parameter, so a replayed file may set p in piecewise mode
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "piecewise", "p": 7, "joint": True, "T": 2}))
        code, stdout, _ = run(capsys, "optimize", "--config", str(cfg), "--segments", "20",
                              "--restarts", "0", "--out", str(tmp_path / "o"))
        assert code == 0
        assert config_line(stdout)["p"] == 7

    def test_joint_report_records_no_unused_detuning(self, tmp_path, capsys):
        # joint mode shapes delta, so a config file's constant delta is echoed but not used
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.7}))
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "optimize", "--mode", "trig", "--joint", "--p", "1", "--T", "2.5",
                              "--segments", "40", "--restarts", "0", "--config", str(cfg), "--out", str(out))
        assert code == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert report["problem"]["delta_value"] == 0.0
        assert config_line(stdout)["delta"] == report["config"]["delta"] == 0.7

    @pytest.mark.parametrize("argv", [
        ("optimize", "--T", "2", "--segments", "20", "--restarts", "-3"),
        ("sweep-detuning", "--T", "2", "--deltas=0", "--segments", "20", "--restarts", "-1"),
    ], ids=["optimize", "sweep-detuning"])
    def test_negative_restarts_is_usage_error(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "restarts must be >= 0" in err

    def test_negative_harmonic_count_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "optimize", "--mode", "trig", "--p", "-1", "--T", "2.5", "--segments", "20",
                           "--restarts", "0", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: harmonic count p must be >= 0, got -1" in err

    @pytest.mark.parametrize("argv, artifact", [
        (("optimize", "--T", "2.5", "--delta", "5"), "optimize_report.json"),
        (("sweep-detuning", "--T", "2.5", "--deltas=0,5"), "sweep_detuning.csv"),
    ], ids=["optimize", "sweep-detuning"])
    def test_detuning_outside_the_box_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, artifact):
        # a sweep checks every cell before it runs any
        cells_run = []
        monkeypatch.setattr("isingbell.optimize._sweep_cell", lambda *args: cells_run.append(args))
        out = tmp_path / "o"
        code, _, err = run(capsys, *argv, "--segments", "20", "--restarts", "0", "--out", str(out))
        assert code == 2
        assert "delta_value must be finite and within [-1.0, 1.0], got 5.0" in err
        assert cells_run == [] and not (out / artifact).exists()

    def test_impossible_duration_exits_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "optimize", "--T", "0.01", "--segments", "10",
                           "--restarts", "1", "--out", str(tmp_path / "o"))
        assert code == 3
        assert "error:" in err


class TestSweeps:
    def test_duration_sweep_artifact(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "sweep-duration", "--T", "1.0,1.5",
                              "--segments", "40", "--restarts", "1", "--out", str(out))
        assert code == 0
        lines = (out / "sweep_duration.csv").read_text().splitlines()
        assert lines[1] == "T,delta,fidelity"
        rows = [line.split(",") for line in lines[2:]]
        assert [float(r[0]) for r in rows] == [1.0, 1.5]
        fids = [float(r[2]) for r in rows]
        assert fids[1] >= fids[0] - 1e-9

    def test_detuning_sweep_artifact(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "sweep-detuning", "--T", "1.5",
                              "--deltas=-0.1,0.0,0.1", "--segments", "40",
                              "--restarts", "1", "--out", str(out))
        assert code == 0
        assert "best:" in stdout
        lines = (out / "sweep_detuning.csv").read_text().splitlines()
        assert len(lines) == 2 + 3

    def test_all_failed_detuning_sweep_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # T = 0.01 is too short for any cell; exit 3 with a real message, not 2
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "sweep-detuning", "--T", "0.01", "--deltas=0",
                           "--segments", "20", "--restarts", "1")
        assert code == 3
        assert "all 1 sweep cells failed" in err and "best fidelity" in err


class TestEvaluateSeries:
    def test_builtin_benchmark(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "evaluate-series", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "series_eval.json").read_text())
        assert doc["fidelity"] >= 0.99
        assert doc["series"]["p"] == 3
        assert doc["config"]["convention"] == "xi-units"

    def test_wrong_convention_degrades(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "evaluate-series", "--convention", "per-duration",
                              "--out", str(tmp_path / "o"))
        assert code == 0
        fid = float(stdout.splitlines()[-1].split()[-1])
        assert fid < 0.9

    def test_series_from_file(self, tmp_path, capsys):
        series_path = tmp_path / "series.json"
        write_series_json(TrigSeries(p=0, a=[0.7], b=[0.0]), series_path)
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "evaluate-series", "--series", str(series_path),
                              "--T", "2.5", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "series_eval.json").read_text())
        assert doc["series"]["a"] == [0.7]

    @pytest.mark.parametrize("text, named", [
        ('{"p": 3}', "'a'"),
        ('{"p": 1, "a": [0, 0, 0]}', "'b'"),
        ("[1, 2]", "JSON object"),
        ('{"p": [1], "a": [0, 0, 0], "b": [0, 0, 0]}', "'p'"),
    ], ids=["no-a", "no-b", "list", "p-list"])
    def test_malformed_series_is_usage_error(self, tmp_path, capsys, text, named):
        series_path = tmp_path / "series.json"
        series_path.write_text(text)
        code, _, err = run(capsys, "evaluate-series", "--series", str(series_path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("error: ") and named in err


class TestRepro:
    def test_unknown_id(self, tmp_path, capsys):
        code, _, err = run(capsys, "repro", "fig9", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown reproduction id" in err

    @pytest.mark.parametrize("argv", [("table1", "--segments", "50"), ("fig1b", "--restarts", "3")])
    def test_flag_the_dataset_does_not_take_is_usage_error(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, "repro", *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"repro {argv[0]} takes no {argv[1]}" in err

    def test_table1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "repro", "table1", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "table1.json").read_text())
        assert doc["fidelity"]["xi-units"] >= 0.99
        assert doc["fidelity"]["per-duration"] < 0.9
        assert doc["convention_succeeded"] == ["xi-units"]
        assert "convention succeeded: xi-units" in stdout

    def test_fig1b_takes_e(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "repro", "fig1b", "--e", "0.2", "--out", str(tmp_path / "o"))
        assert code == 0
        assert config_line(stdout)["e"] == 0.2

    def test_fig1b_curve(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "repro", "fig1b", "--out", str(out))
        assert code == 0
        lines = (out / "fig1b.csv").read_text().splitlines()
        data = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        assert data.shape == (100, 3)
        assert data[0, 0] == pytest.approx(0.01)
        assert data[-1, 0] == pytest.approx(15.0)
        # short end pinned near the ceiling, long end saturating toward 1
        assert abs(data[0, 1] - 0.3166) < 0.02
        assert data[-1, 1] > 0.999 and data[-1, 2] > 0.999


class TestOutputHygiene:
    def test_writes_confined_to_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only_here"
        code, _, _ = run(capsys, "simulate", "--T", "0.5", "--out", str(out))
        assert code == 0
        created = {p.name for p in tmp_path.iterdir()}
        assert created == {"only_here"}

    def test_default_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "simulate", "--T", "0.5")
        assert code == 0
        assert (tmp_path / "isingbell_out" / "simulate_summary.json").exists()

    @pytest.mark.parametrize("argv", [
        ("tqd", "--T", "0"),
        ("optimize", "--restarts", "-1", "--T", "2.5", "--segments", "20"),
        ("optimize", "--mode", "trig", "--p", "-1", "--T", "2.5", "--segments", "20", "--restarts", "0"),
        ("sweep-detuning", "--deltas=", "--segments", "20"),
        ("sweep-duration", "--T=2,1", "--segments", "20", "--restarts", "0"),
        ("repro", "fig1b", "--e", "-1"),
        ("evaluate-series", "--series", "/nonexistent.json"),
        ("simulate", "--omega", "nan"),
        ("evaluate-series", "--T", "0"),
        ("repro", "fig2", "--restarts", "-1"),
        ("repro", "fig3b", "--segments", "5"),
        ("tqd", "--T", "1e200"),
        ("simulate", "--T", "1e300", "--omega", "0"),
    ], ids=["tqd-T", "optimize-restarts", "trig-p", "sweep-detuning-empty", "sweep-duration-descending",
            "fig1b-e", "evaluate-series-missing", "simulate-nan", "evaluate-series-T", "fig2-restarts",
            "fig3b-segments", "tqd-step-ceiling", "simulate-step-ceiling"])
    def test_usage_error_echoes_nothing(self, tmp_path, capsys, argv):
        # the library rejects the inputs before the config echo and the output directory
        out = tmp_path / "o"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error: ")
        assert stdout == "" and not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["optimize", "--help"]) == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_quietly(self, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(isingbell.__file__).parents[1]), env.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            proc = subprocess.run([sys.executable, "-m", "isingbell", "limit"], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


COLD_START = """
import json, sys
import isingbell, isingbell.cli
loaded = ["scipy.optimize" in sys.modules]
out = sys.argv[1]
for argv in (["limit"], ["tqd", "--T", "0.5", "--out", out], ["simulate", "--out", out],
             ["evaluate-series", "--out", out]):
    code = isingbell.cli.main(argv)
    loaded.append(("scipy.optimize" in sys.modules, code))
code = isingbell.cli.main(["optimize", "--T", "2.5", "--segments", "20", "--restarts", "0", "--out", out])
print(json.dumps({"loaded": loaded, "optimize": [code, "scipy.optimize" in sys.modules]}))
"""


def test_shortcut_commands_never_load_scipy(tmp_path):
    """scipy.optimize loads on the first L-BFGS-B call, not with the package."""
    env = {**os.environ, **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(isingbell.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path / "o")], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == [False] + [[False, 0]] * 4
    assert result["optimize"] == [0, True]
