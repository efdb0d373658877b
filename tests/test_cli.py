import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from quench_bench import cli
from quench_bench.cli import main
from quench_bench.mps import memory_estimate


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_import_leaves_out_scipy_stats_and_optimize():
    # a fresh interpreter, since this one may have imported them already
    package_root = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, quench_bench.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def write_config(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def write_synthetic_timing(path: Path) -> str:
    a, b, c = 0.01, 1e-12, 1e-9
    rng = np.random.default_rng(12)
    lines = ["N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers"]
    points = [(n, chi) for n in (25, 36, 64, 100, 144) for chi in (100, 200, 400, 600)]
    points += [(25, 100), (25, 100), (30, 100), (25, 600), (36, 600),
               (25, 141), (30, 600), (49, 100), (25, 200), (144, 600)]
    for n, chi in points:
        t = (a + b * n**1.5 * chi**3 + c * n**2 * chi**2) * (1 + 0.05 * rng.standard_normal())
        lines.append(f"{n},{chi},1.0,{t!r},gpu-synthetic,1")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestEstimateShots:
    def test_paper_value_plain(self, runner):
        result = invoke(runner, ["estimate", "shots", "--p", "0.5", "--alpha", "0.05"])
        assert result.exit_code == 0
        assert result.output.strip() == "1600"

    def test_json(self, runner):
        result = invoke(runner, ["estimate", "shots", "--json"])
        assert json.loads(result.output)["shots"] == 1600

    def test_error_object_and_exit_code(self, runner):
        result = runner.invoke(main, ["estimate", "shots", "--alpha", "-1", "--json"])
        assert result.exit_code == 1
        err = json.loads(result.stderr)
        assert err["error"]["type"] == "InvalidPrecision"


class TestEstimateQpu:
    def test_table_row(self, runner):
        result = invoke(runner, ["estimate", "qpu", "--register", "15x15", "--json"])
        payload = json.loads(result.output)
        assert payload["m_usable"] == 1600
        hours = payload["wall_seconds"] / 3600.0
        assert abs(hours - 6.3) / max(hours, 6.3) < 0.25
        assert abs(payload["energy_kwh"] - 20.0) / max(payload["energy_kwh"], 20.0) < 0.25

    def test_atom_count_form(self, runner):
        result = invoke(runner, ["estimate", "qpu", "--register", "225", "--json"])
        assert json.loads(result.output)["counts"]["N_register"] == 225

    def test_exact_count_above_a_million_attempts(self, runner):
        result = invoke(
            runner, ["estimate", "qpu", "--register", "30x30", "--alpha", "0.5", "--json"]
        )
        payload = json.loads(result.output)
        assert payload["m_usable"] == 16
        assert payload["n_attempts"] == 1084611  # smallest n per binom.sf


class TestSimulate:
    def test_exact_zero_pulse_single_snapshot(self, runner, tmp_path):
        out = tmp_path / "run"
        result = invoke(
            runner,
            ["simulate", "exact", "--size", "2x2", "--t-pulse", "0ns", "--out", str(out), "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"]["passed"] is True
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len([r for r in rows if not r.startswith(("#", "time_ns"))]) == 4

    def test_tdvp_writes_all_artifacts(self, runner, tmp_path):
        out = tmp_path / "run"
        result = invoke(
            runner,
            [
                "simulate", "tdvp", "--size", "2x2", "--t-pulse", "10ns",
                "--max-chi", "8", "--out", str(out), "--json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"]["passed"] is True
        assert (out / "trajectory.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "verdict.json").exists()
        assert (out / "manifest.json").exists()
        timing = (out / "timing.csv").read_text().splitlines()
        assert timing[-1].startswith("4,4,1.0,")  # a 4-site MPS holds chi = 4, not the cap 8

    def test_tdvp_timing_records_chi_reached(self, runner, tmp_path):
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--size", "3x3", "--t-pulse", "40ns", "--max-chi", "64"]
        invoke(runner, args + ["--out", str(out), "--json"])
        timing = (out / "timing.csv").read_text().splitlines()
        assert timing[-1].startswith("9,16,1.0,")  # a 9-site MPS saturates at 2^4
        run = json.loads((out / "verdict.json").read_text())["run"]
        assert 0 < run["live_bytes_peak"] <= run["memory_model_bytes"]
        assert run["memory_model_bytes"] == memory_estimate(9, 64).total

    def test_tdvp_reports_truncation(self, runner, tmp_path):
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--size", "3x3", "--t-pulse", "20ns", "--max-chi", "2"]
        invoke(runner, args + ["--out", str(out), "--json"])
        run = json.loads((out / "verdict.json").read_text())["run"]
        assert run["truncation_weight"] > 0.0
        assert run["lanczos_converged"] is True

    def test_tdvp_reports_unconverged_lanczos(self, runner, tmp_path):
        config = write_config(tmp_path / "k2.ini", "[mps]\nk_max = 2\n")
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--config", config, "--size", "3x3", "--t-pulse", "5ns"]
        invoke(runner, args + ["--out", str(out), "--json"])
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["run"]["lanczos_converged"] is False
        assert verdict["verdict"]["passed"] is False

    @pytest.mark.parametrize("t_pulse, dt, converged", [("40ns", "1ns", True),
                                                        ("2000ns", "1000ns", False)])
    def test_exact_reports_lanczos_convergence(self, runner, tmp_path, t_pulse, dt, converged):
        out = tmp_path / "run"
        args = ["simulate", "exact", "--size", "3x3", "--t-pulse", t_pulse, "--dt", dt]
        invoke(runner, args + ["--out", str(out), "--json"])
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["run"]["lanczos_converged"] is converged
        assert verdict["verdict"]["passed"] is converged

    @pytest.mark.parametrize("key, named", [("max_chi", "chi=0"), ("k_max", "k=0")])
    def test_tdvp_cap_below_one_fails_before_run(self, runner, tmp_path, monkeypatch, key, named):
        def forbidden(*args, **kwargs):
            raise AssertionError("the quench ran")

        monkeypatch.setattr(cli, "run_quench", forbidden)
        config = write_config(tmp_path / "bad.ini", f"[mps]\n{key} = 0\n")
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--config", config, "--size", "2x2", "--out", str(out)]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 1
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "InvalidConfig" and named in err["message"]
        assert not out.exists()

    def test_memory_budget_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate", "tdvp", "--size", "3x3", "--t-pulse", "5ns", "--max-chi", "64",
                "--memory-budget-gb", "1e-6", "--out", str(tmp_path / "x"), "--json",
            ],
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "MemoryBudgetExceeded"

    def test_reproducible_artifacts(self, runner, tmp_path):
        args = ["simulate", "tdvp", "--size", "2x2", "--t-pulse", "8ns", "--max-chi", "4"]
        invoke(runner, args + ["--out", str(tmp_path / "a")])
        invoke(runner, args + ["--out", str(tmp_path / "b")])
        for name in ("trajectory.csv", "verdict.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # manifests differ only in the timestamp
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        ma.pop("created_utc")
        mb.pop("created_utc")
        assert ma == mb

    def test_bad_duration_suffix(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "exact", "--size", "2x2", "--t-pulse", "10", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1


class TestConfigHandling:
    def test_config_file_and_flag_override(self, runner, tmp_path):
        config = write_config(
            tmp_path / "quench.ini",
            "[lattice]\nLx = 2\nLy = 2\n\n[quench]\nt_pulse_ns = 6\ndt_ns = 1\n",
        )
        out = tmp_path / "run"
        result = invoke(
            runner,
            ["simulate", "exact", "--config", config, "--t-pulse", "3ns", "--out", str(out), "--json"],
        )
        assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["quench"]["t_pulse_ns"] == 3.0  # flag beats file
        assert manifest["config"]["lattice"]["Lx"] == 2
        assert str(config) in manifest["inputs"]

    @pytest.mark.parametrize("key", ["omega_mhz = 0.0", "h_x = -2.5", "c6_ghz_um6 = 0"])
    def test_nonpositive_physics_rejected(self, runner, tmp_path, key):
        config = write_config(tmp_path / "bad.ini", f"[physics]\n{key}\n")
        result = runner.invoke(
            main, ["simulate", "exact", "--config", config, "--out", str(tmp_path / "x"), "--json"]
        )
        assert result.exit_code == 1
        err = json.loads(result.stderr)["error"]
        assert err["type"] == "InvalidConfig"
        assert key.split(" = ")[0] in err["message"]

    @pytest.mark.parametrize(
        "args",
        [
            ["rearrange", "--fill-p", "1.5", "--trials", "5"],
            ["rearrange", "--fill-p", "-0.1", "--trials", "5"],
            ["rearrange", "--trials", "0"],
            ["estimate", "qpu", "--register", "0"],
            ["estimate", "qpu", "--register", "abc"],
            ["estimate", "qpu", "--register", "3xa"],
            ["estimate", "qpu", "--confidence", "1.5"],
            ["estimate", "qpu", "--shot-rate", "0"],
            ["estimate", "shots", "--p", "2"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "15x15", "--chi", "0"],
            ["simulate", "exact", "--size", "3xb", "--out", "{out}"],
            ["simulate", "exact", "--t-pulse", "1.2.3ns", "--out", "{out}"],
            ["simulate", "tdvp", "--size", "2x2", "--t-pulse", "5ns", "--max-chi", "0",
             "--out", "{out}"],
            ["simulate", "tdvp", "--config", "{k_max_0}", "--size", "2x2", "--t-pulse", "5ns",
             "--out", "{out}"],
            ["estimate", "crossover", "--samples", "{timing}", "--chi", "1000", "--n-step", "0"],
            ["estimate", "crossover", "--samples", "{timing}", "--chi", "1000", "--n-min", "700"],
            ["fit", "mps", "--samples", "{bad_timing}"],
            *(
                ["estimate", "classical", "--samples", "{timing}", "--size", "15x15",
                 "--chi", "1000", "--power-log", log]
                for log in ("{log_no_watts}", "{log_abc_watts}", "{log_empty}")
            ),
            ["fit", "nqs", "--samples", "{nqs_no_workers}"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "15x15", "--chi", "1000",
             "--gpu-power-kw", "-1"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "15x15", "--chi", "1000",
             "--gpu-power-kw", "nan"],
            ["estimate", "crossover", "--samples", "{timing}", "--chi", "1000",
             "--gpu-power-kw", "-1"],
            ["estimate", "qpu", "--qpu-power-kw", "-3"],
            ["simulate", "exact", "--size", "2x2", "--t-pulse", "3.5ns", "--dt", "1ns",
             "--out", "{out}"],
            ["simulate", "tdvp", "--size", "2x2", "--t-pulse", "2.5ns", "--dt", "1ns",
             "--out", "{out}"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "15x15", "--chi", "1000",
             "--t-pulse", "0.4ns", "--dt", "1ns"],
            ["simulate", "tdvp", "--size", "2x2", "--t-pulse", "5ns", "--memory-budget-gb", "nan",
             "--out", "{out}"],
            ["simulate", "tdvp", "--size", "2x2", "--t-pulse", "5ns", "--memory-budget-gb", "-1",
             "--out", "{out}"],
            ["estimate", "qpu", "--register", "15x15", "--shot-rate", "inf"],
        ],
    )
    def test_bad_flag_rejected(self, runner, tmp_path, args):
        timing = write_synthetic_timing(tmp_path / "timing.csv")
        bad_timing = tmp_path / "bad_timing.csv"
        bad_timing.write_text(
            "N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n36,64,1.0,abc,cpu-x,1\n"
        )
        logs = {}
        for name, rows in (
            ("log_no_watts", "2025-01-01T00:00:00Z\n"),
            ("log_abc_watts", "2025-01-01T00:00:00Z,abc\n"),
            ("log_empty", ""),
        ):
            logs[name] = tmp_path / f"{name}.csv"
            logs[name].write_text("timestamp_iso8601,watts\n" + rows)
        nqs_no_workers = tmp_path / "nqs_no_workers.csv"
        nqs_no_workers.write_text(
            "N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n100,0,1.0,2.0,gpu-a100,0\n"
        )
        k_max_0 = write_config(tmp_path / "k0.ini", "[mps]\nk_max = 0\n")
        args = [
            a.format(out=tmp_path / "x", timing=timing, bad_timing=bad_timing, k_max_0=k_max_0,
                     nqs_no_workers=nqs_no_workers, **logs)
            for a in args
        ]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "InvalidConfig"

    def test_nan_alpha_rejected(self, runner):
        result = runner.invoke(main, ["estimate", "qpu", "--alpha", "nan", "--json"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "InvalidPrecision"

    def test_infinite_alpha_rejected(self, runner):
        result = runner.invoke(
            main, ["estimate", "qpu", "--register", "15x15", "--alpha", "inf", "--json"]
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "InvalidPrecision"

    def test_unknown_key_rejected(self, runner, tmp_path):
        config = write_config(tmp_path / "bad.ini", "[lattice]\nnonsense = 3\n")
        result = runner.invoke(
            main, ["simulate", "exact", "--config", config, "--out", str(tmp_path / "x"), "--json"]
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "InvalidConfig"


class TestRearrange:
    def test_perfect_probabilities(self, runner, tmp_path):
        config = write_config(
            tmp_path / "r.ini",
            "[register]\np_transf = 1.0\np_pickup = 1.0\np_acci = 0.0\np_loss = 0.0\nfill_p = 1.0\n",
        )
        result = invoke(
            runner,
            ["rearrange", "--config", config, "--register-size", "9", "--trials", "50", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["p_hat"] == 1.0
        assert payload["analytic_at_mean_counts"] == 1.0

    def test_zero_fill_counts_defective(self, runner):
        result = invoke(
            runner,
            ["rearrange", "--register-size", "6", "--trials", "20", "--fill-p", "0.0", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["p_hat"] == 0.0
        assert payload["analytic_at_mean_counts"] is None

    def test_monotone_in_register_size(self, runner):
        p_hats = []
        for size in (20, 40, 60):
            result = invoke(
                runner,
                ["rearrange", "--register-size", str(size), "--n-traps", "200",
                 "--trials", "3000", "--seed", "5", "--json"],
            )
            p_hats.append(json.loads(result.output)["p_hat"])
        assert p_hats == sorted(p_hats, reverse=True)

    @pytest.mark.parametrize("flag", ["--register-size", "--n-traps"])
    def test_zero_size_rejected(self, runner, flag):
        result = runner.invoke(main, ["rearrange", flag, "0", "--trials", "5", "--json"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "InvalidConfig"

    def test_determinism(self, runner):
        args = ["rearrange", "--register-size", "12", "--trials", "400", "--seed", "9", "--json"]
        assert invoke(runner, args).output == invoke(runner, args).output


class TestFitAndClassical:
    def test_fit_mps_recovers_truth(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(runner, ["fit", "mps", "--samples", samples, "--json"])
        payload = json.loads(result.output)
        assert abs(payload["a"] - 0.01) / 0.01 <= 0.10
        assert abs(payload["b"] - 1e-12) / 1e-12 <= 0.10
        assert abs(payload["c"] - 1e-9) / 1e-9 <= 0.10

    def test_fit_underdetermined_exit(self, runner, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n36,64,1.0,0.5,cpu,1\n"
        )
        result = runner.invoke(main, ["fit", "mps", "--samples", str(path), "--json"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "UnderdeterminedFit"

    def test_fit_nqs(self, runner, tmp_path):
        path = tmp_path / "nqs.csv"
        lines = ["N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers"]
        for n in (25, 36, 49, 64, 81, 100, 121, 144):
            lines.append(f"{n},0,1.0,{3e-7 * n**3!r},gpu,1")
        path.write_text("\n".join(lines) + "\n")
        result = invoke(runner, ["fit", "nqs", "--samples", str(path), "--json"])
        payload = json.loads(result.output)
        assert payload["c_q"] == pytest.approx(3e-7, rel=1e-6)

    def test_estimate_classical_report(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(
            runner,
            ["estimate", "classical", "--samples", samples, "--size", "15x15",
             "--chi", "1000", "--t-pulse", "4us", "--dt", "1ns", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["report"]["n_steps"] == 4000
        assert abs(payload["report"]["memory_bytes"] - 150e9) / 150e9 < 0.15

    def test_estimate_classical_flags_extrapolation(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        args = ["estimate", "classical", "--samples", samples, "--size", "15x15", "--chi", "1000"]
        payload = json.loads(invoke(runner, [*args, "--json"]).output)
        assert payload["report"]["extrapolated"] is True
        text = invoke(runner, args).output.splitlines()
        assert text[-1] == (
            "extrapolated: N=225, chi=1000 lies outside the fitted domain N 25-144, chi 100-600"
        )
        inside = ["estimate", "classical", "--samples", samples, "--size", "10x10", "--chi", "400"]
        payload = json.loads(invoke(runner, [*inside, "--json"]).output)
        assert payload["report"]["extrapolated"] is False
        assert "extrapolated" not in invoke(runner, inside).output

    def test_estimate_crossover(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(
            runner,
            ["estimate", "crossover", "--samples", samples, "--chi", "1000",
             "--n-min", "25", "--n-max", "625", "--n-step", "50",
             "--t-pulse", "4us", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["N_time"] is not None
        assert payload["N_energy"] is not None

    def test_zero_pulse_is_used(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(
            runner,
            ["estimate", "classical", "--samples", samples, "--size", "15x15",
             "--chi", "1000", "--t-pulse", "0ns", "--json"],
        )
        report = json.loads(result.output)["report"]
        assert report["n_steps"] == 0
        assert report["total_seconds"] == 0.0

    @pytest.mark.parametrize("command", [["classical", "--size", "15x15"], ["crossover"]])
    def test_zero_step_rejected(self, runner, tmp_path, command):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = runner.invoke(
            main,
            ["estimate", *command, "--samples", samples, "--chi", "1000", "--dt", "0ns", "--json"],
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "InvalidConfig"

    def test_zero_gpu_power_is_used(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(
            runner,
            ["estimate", "crossover", "--samples", samples, "--chi", "1000",
             "--n-min", "25", "--n-max", "625", "--n-step", "50",
             "--t-pulse", "4us", "--gpu-power-kw", "0", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["N_time"] is not None
        assert payload["N_energy"] is None  # a classical run at 0 W never costs more energy

    def test_crossover_none_when_classical_free(self, runner, tmp_path):
        path = tmp_path / "free.csv"
        lines = ["N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers"]
        for n, chi in [(25, 100), (36, 100), (25, 200), (36, 200)]:
            lines.append(f"{n},{chi},1.0,1e-30,cpu,1")
        path.write_text("\n".join(lines) + "\n")
        result = invoke(
            runner,
            ["estimate", "crossover", "--samples", str(path), "--chi", "100",
             "--n-min", "25", "--n-max", "100", "--n-step", "25", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["N_time"] is None
        assert payload["N_energy"] is None
