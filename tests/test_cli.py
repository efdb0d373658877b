import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from quench_bench import cli, oracle
from quench_bench.cli import main
from quench_bench.config import apply_overrides, default_config, dump_json, load_config
from quench_bench.errors import InvalidConfig
from quench_bench.mps import evolve, memory_estimate

REPO = Path(__file__).parents[1]


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def forbid_couplings(monkeypatch, module):
    """Make ``interactions`` fail where ``module`` looks it up."""

    def forbidden(*args, **kwargs):
        raise AssertionError("couplings built before the refusal check")

    monkeypatch.setattr(module, "interactions", forbidden)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads(text: str):
    """``json.loads`` that refuses NaN and Infinity, which JSON does not have."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_dump_json_refuses_non_finite():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dump_json({"x": value})


def scipy_modules_after(commands: list[list[str]]) -> list[str]:
    """The scipy modules loaded once ``commands`` ran in a fresh interpreter."""
    package_root = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import json, sys\n"
        "from quench_bench.cli import main\n"
        f"for args in {commands!r}:\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code in (0, None), (args, exit.code)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_only_the_attempt_count_loads_scipy(tmp_path):
    mps_csv = write_synthetic_timing(tmp_path / "mps.csv")
    nqs_csv = write_nqs_timing(tmp_path / "nqs.csv")
    quench = ["--size", "2x2", "--t-pulse", "4ns", "--out"]
    assert scipy_modules_after([
        ["simulate", "exact", *quench, str(tmp_path / "exact")],
        ["simulate", "tdvp", *quench, str(tmp_path / "tdvp")],
        ["rearrange", "--register-size", "6", "--trials", "20"],
        ["fit", "mps", "--samples", mps_csv],
        ["fit", "nqs", "--samples", nqs_csv],
        ["estimate", "shots", "--p", "0.5", "--alpha", "0.05"],
        ["estimate", "classical", "--samples", mps_csv, "--size", "15x15", "--chi", "1000"],
    ]) == []
    loaded = scipy_modules_after([
        ["estimate", "qpu", "--register", "15x15", "--json"],
        ["estimate", "crossover", "--samples", mps_csv, "--chi", "1000", "--json"],
    ])
    assert "scipy.special" in loaded
    never = ("scipy.linalg", "scipy.stats", "scipy.optimize")
    assert [m for m in loaded if m.startswith(never)] == []


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


def write_nqs_timing(path: Path) -> str:
    lines = ["N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers"]
    for n in (25, 36, 49, 64, 81, 100, 121, 144):
        lines.append(f"{n},0,1.0,{3e-7 * n**3!r},gpu,1")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestEstimateShots:
    def test_paper_value_plain(self, runner):
        result = invoke(runner, ["estimate", "shots", "--p", "0.5", "--alpha", "0.05"])
        assert result.exit_code == 0
        assert result.output.strip() == "1600"

    def test_json(self, runner):
        result = invoke(runner, ["estimate", "shots", "--json"])
        assert loads(result.output)["shots"] == 1600

    def test_error_object_and_exit_code(self, runner):
        result = runner.invoke(main, ["estimate", "shots", "--alpha", "-1", "--json"])
        assert result.exit_code == 1
        err = loads(result.stderr)
        assert err["error"]["type"] == "InvalidConfig"


class TestEstimateQpu:
    def test_table_row(self, runner):
        result = invoke(runner, ["estimate", "qpu", "--register", "15x15", "--json"])
        payload = loads(result.output)
        assert payload["m_usable"] == 1600
        hours = payload["wall_seconds"] / 3600.0
        assert abs(hours - 6.3) / max(hours, 6.3) < 0.25
        assert abs(payload["energy_kwh"] - 20.0) / max(payload["energy_kwh"], 20.0) < 0.25

    def test_atom_count_form(self, runner):
        result = invoke(runner, ["estimate", "qpu", "--register", "225", "--json"])
        assert loads(result.output)["counts"]["N_register"] == 225

    def test_exact_count_above_a_million_attempts(self, runner):
        result = invoke(
            runner, ["estimate", "qpu", "--register", "30x30", "--alpha", "0.5", "--json"]
        )
        payload = loads(result.output)
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
        payload = loads(result.output)
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
        payload = loads(result.output)
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
        run = loads((out / "verdict.json").read_text())["run"]
        assert 0 < run["live_bytes_peak"] <= run["memory_model_bytes"]
        assert run["memory_model_bytes"] == memory_estimate(9, 64).total
        assert run["one_site_steps"] == 9  # every bond reaches its bound at step 32 of 40
        assert type(run["apply_madds"]) is int and run["apply_madds"] > 0
        assert type(run["lanczos_solves"]) is int and 40 <= run["lanczos_solves"]

    def test_tdvp_reports_truncation(self, runner, tmp_path):
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--size", "3x3", "--t-pulse", "20ns", "--max-chi", "2"]
        invoke(runner, args + ["--out", str(out), "--json"])
        run = loads((out / "verdict.json").read_text())["run"]
        assert run["truncation_weight"] > 0.0
        assert run["lanczos_converged"] is True

    def test_tdvp_reports_unconverged_lanczos(self, runner, tmp_path):
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--size", "3x3", "--t-pulse", "2000ns", "--dt", "1000ns"]
        invoke(runner, args + ["--out", str(out), "--json"])
        verdict = loads((out / "verdict.json").read_text())
        assert verdict["run"]["lanczos_converged"] is False
        assert verdict["verdict"]["passed"] is False

    def test_tdvp_full_krylov_space_is_converged(self, runner, tmp_path):
        """The first step's tiny local solves fill their whole Krylov space
        at dt = 10 ns; that is exact, so the run passes its verdict."""
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--size", "3x3", "--t-pulse", "400ns", "--dt", "10ns"]
        invoke(runner, args + ["--out", str(out), "--json"])
        verdict = loads((out / "verdict.json").read_text())
        assert verdict["run"]["lanczos_converged"] is True
        assert verdict["verdict"]["passed"] is True

    @pytest.mark.parametrize("t_pulse, dt, converged", [("40ns", "1ns", True),
                                                        ("2000ns", "1000ns", False)])
    def test_exact_reports_lanczos_convergence(self, runner, tmp_path, t_pulse, dt, converged):
        out = tmp_path / "run"
        args = ["simulate", "exact", "--size", "3x3", "--t-pulse", t_pulse, "--dt", dt]
        invoke(runner, args + ["--out", str(out), "--json"])
        verdict = loads((out / "verdict.json").read_text())
        assert verdict["run"]["lanczos_converged"] is converged
        assert verdict["verdict"]["passed"] is converged

    @pytest.mark.parametrize("key, named", [("max_chi", "chi=0")])
    def test_tdvp_cap_below_one_fails_before_run(self, runner, tmp_path, monkeypatch, key, named):
        def forbidden(*args, **kwargs):
            raise AssertionError("the quench ran")

        monkeypatch.setattr(cli, "run_quench", forbidden)
        config = write_config(tmp_path / "bad.ini", f"[mps]\n{key} = 0\n")
        out = tmp_path / "run"
        args = ["simulate", "tdvp", "--config", config, "--size", "2x2", "--out", str(out)]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 1
        err = loads(result.stderr)["error"]
        assert err["type"] == "InvalidConfig" and named in err["message"]
        assert not out.exists()

    def test_exact_refuses_before_couplings(self, runner, tmp_path, monkeypatch):
        forbid_couplings(monkeypatch, oracle)
        args = ["simulate", "exact", "--size", "6x3", "--out", str(tmp_path / "x"), "--json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert loads(result.stderr)["error"]["type"] == "TooLargeForOracle"

    def test_memory_budget_error(self, runner, tmp_path, monkeypatch):
        forbid_couplings(monkeypatch, evolve)
        result = runner.invoke(
            main,
            [
                "simulate", "tdvp", "--size", "3x3", "--t-pulse", "5ns", "--max-chi", "64",
                "--memory-budget-gb", "1e-6", "--out", str(tmp_path / "x"), "--json",
            ],
        )
        assert result.exit_code == 1
        assert loads(result.stderr)["error"]["type"] == "MemoryBudgetExceeded"

    def test_reproducible_artifacts(self, runner, tmp_path):
        args = ["simulate", "tdvp", "--size", "2x2", "--t-pulse", "8ns", "--max-chi", "4"]
        invoke(runner, args + ["--out", str(tmp_path / "a")])
        invoke(runner, args + ["--out", str(tmp_path / "b")])
        for name in ("trajectory.csv", "verdict.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # manifests differ only in the timestamp
        ma = loads((tmp_path / "a" / "manifest.json").read_text())
        mb = loads((tmp_path / "b" / "manifest.json").read_text())
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
        manifest = loads((out / "manifest.json").read_text())
        assert manifest["config"]["quench"]["t_pulse_ns"] == 3.0  # flag beats file
        assert manifest["config"]["lattice"]["Lx"] == 2
        assert str(config) in manifest["inputs"]

    @pytest.mark.parametrize(
        "key",
        [
            "omega_mhz = 0.0", "h_x = -2.5", "c6_ghz_um6 = 0",
            "omega_mhz = inf", "h_x = inf", "c6_ghz_um6 = inf", "cutoff_factor = nan",
        ],
    )
    def test_nonpositive_physics_rejected(self, runner, tmp_path, key):
        config = write_config(tmp_path / "bad.ini", f"[physics]\n{key}\n")
        result = runner.invoke(
            main, ["simulate", "exact", "--config", config, "--out", str(tmp_path / "x"), "--json"]
        )
        assert result.exit_code == 1
        err = loads(result.stderr)["error"]
        assert err["type"] == "InvalidConfig"
        assert key.split(" = ")[0] in err["message"]

    @pytest.mark.parametrize(
        "section, key",
        [("budget", "alpha = nan"), ("register", "fill_p = inf"),
         ("mps", "memory_budget_gb = inf")],
    )
    def test_non_finite_config_rejected(self, runner, tmp_path, section, key):
        config = write_config(tmp_path / "bad.ini", f"[{section}]\n{key}\n")
        out = tmp_path / "x"
        result = runner.invoke(
            main, ["simulate", "exact", "--config", config, "--size", "2x2", "--t-pulse", "0ns",
                   "--out", str(out), "--json"]
        )
        assert result.exit_code == 1
        err = loads(result.stderr)["error"]
        assert err["type"] == "InvalidConfig"
        assert f"{section}.{key.split(' = ')[0]}" in err["message"]
        assert not out.exists()

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
            ["simulate", "exact", "--config", "{dt_inf}", "--size", "2x2", "--out", "{out}"],
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
            ["fit", "mps", "--samples", "{bad_dt_timing}"],
            ["simulate", "exact", "--size", "2x2", "--dt", "1e300s", "--out", "{out}"],
            ["simulate", "exact", "--config", "{t_pulse_inf}", "--size", "2x2", "--out", "{out}"],
            ["simulate", "exact", "--size", "2x2", "--t-pulse", "1e300s", "--out", "{out}"],
            ["rearrange", "--seed", "-1", "--trials", "5"],
            ["rearrange", "--config", "{seed_neg}", "--trials", "5"],
            ["estimate", "qpu", "--register", "-3x-3"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "-6x-6", "--chi", "1000"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "-3x3", "--chi", "1000"],
            ["estimate", "qpu", "--config", "{lattice_neg}"],
            ["estimate", "classical", "--samples", "{timing}", "--config", "{lattice_neg}",
             "--chi", "1000"],
            ["rearrange", "--config", "{lattice_neg}", "--trials", "5"],
            ["estimate", "crossover", "--samples", "{timing}", "--chi", "1000", "--n-min", "-25"],
            ["estimate", "qpu", "--shot-rate", "1e-320"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "15x15",
             "--chi", str(10**103)],
            ["estimate", "crossover", "--samples", "{timing}", "--chi", str(10**103)],
            ["estimate", "classical", "--samples", "{timing}", "--size", "15x15", "--chi", "1000",
             "--gpu-power-kw", "1e305"],
            *(
                ["rearrange", "--config", config, "--trials", "5"]
                for config in ("{dup_key}", "{dup_section}", "{no_header}", "{no_equals}",
                               "{percent}", "{not_utf8}")
            ),
            ["fit", "mps", "--samples", "{not_utf8}"],
            ["fit", "mps", "--samples", "{a_dir}"],
            *(
                ["estimate", "classical", "--samples", "{timing}", "--size", "15x15",
                 "--chi", "1000", "--power-log", log]
                for log in ("{not_utf8}", "{a_dir}")
            ),
            ["estimate", "classical", "--samples", "{timing}", "--size", "15x15", "--chi", "1000",
             "--power-log", "{log_100w}", "--gpu-power-kw", "5"],
        ],
    )
    def test_bad_flag_rejected(self, runner, tmp_path, args):
        timing = write_synthetic_timing(tmp_path / "timing.csv")
        bad_timing = tmp_path / "bad_timing.csv"
        bad_timing.write_text(
            "N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n36,64,1.0,abc,cpu-x,1\n"
        )
        bad_dt_timing = tmp_path / "bad_dt_timing.csv"
        bad_dt_timing.write_text(Path(timing).read_text().replace(",1.0,", ",abc,", 1))
        logs = {}
        for name, rows in (
            ("log_no_watts", "2025-01-01T00:00:00Z\n"),
            ("log_abc_watts", "2025-01-01T00:00:00Z,abc\n"),
            ("log_empty", ""),
        ):
            logs[name] = tmp_path / f"{name}.csv"
            logs[name].write_text("timestamp_iso8601,watts\n" + rows)
        logs["log_100w"] = tmp_path / "log_100w.csv"
        logs["log_100w"].write_text("timestamp_iso8601,watts\n2025-01-01T00:00:00Z,100\n")
        nqs_no_workers = tmp_path / "nqs_no_workers.csv"
        nqs_no_workers.write_text(
            "N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n100,0,1.0,2.0,gpu-a100,0\n"
        )
        configs = {
            name: write_config(tmp_path / f"{name}.ini", text)
            for name, text in (
                ("dt_inf", "[quench]\ndt_ns = inf\n"),
                ("t_pulse_inf", "[quench]\nt_pulse_ns = inf\n"),
                ("seed_neg", "[run]\nseed = -1\n"),
                ("lattice_neg", "[lattice]\nLx = -3\nLy = -3\n"),
                ("percent", "[register]\nfill_p = 50%\n"),
            )
        }
        # files that are not INI, not UTF-8 or not files: the error names them
        unreadable = {
            name: write_config(tmp_path / f"{name}.ini", text)
            for name, text in (
                ("dup_key", "[lattice]\nLx = 3\nLx = 4\n"),
                ("dup_section", "[lattice]\nLx = 3\n[lattice]\nLy = 3\n"),
                ("no_header", "Lx = 3\n"),
                ("no_equals", "[lattice]\nLx 3\n"),
            )
        }
        unreadable["not_utf8"] = tmp_path / "not_utf8.csv"
        unreadable["not_utf8"].write_bytes(b"timestamp_iso8601,watts\n# \xff\n")
        unreadable["a_dir"] = tmp_path / "a_dir"
        unreadable["a_dir"].mkdir()
        args = [
            a.format(out=tmp_path / "x", timing=timing, bad_timing=bad_timing,
                     bad_dt_timing=bad_dt_timing, nqs_no_workers=nqs_no_workers,
                     **logs, **configs, **unreadable)
            for a in args
        ]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 1
        error = loads(result.stderr)["error"]
        assert error["type"] == "InvalidConfig"
        for name, path in unreadable.items():
            if str(path) in args:
                assert str(path) in error["message"]
                if name.startswith(("dup", "no_")):
                    assert "line" in error["message"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "tdvp", "--config", "{lattice_zero}", "--out", "{out}"],
             "lattice sides must be >= 1, got Lx=0, Ly=3"),
            (["estimate", "classical", "--samples", "{timing}", "--config", "{lattice_zero}",
              "--chi", "1000"],
             "lattice sides must be >= 1, got Lx=0, Ly=3"),
            (["simulate", "exact", "--config", "{cutoff_half}", "--size", "2x2", "--out", "{out}"],
             None),
            (["estimate", "shots", "--alpha", "0"], None),
            (["estimate", "qpu", "--alpha", "0"], None),
        ],
        ids=["lattice-tdvp", "lattice-classical", "cutoff-exact", "alpha-shots", "alpha-qpu"],
    )
    def test_bad_value_is_invalid_config(self, runner, tmp_path, args, message):
        """A bad lattice side, cutoff or alpha is an InvalidConfig, and a bad
        ``[lattice]`` side gives the same message from every command."""
        paths = {
            "out": tmp_path / "x",
            "timing": write_synthetic_timing(tmp_path / "timing.csv"),
            "lattice_zero": write_config(tmp_path / "lattice.ini", "[lattice]\nLx = 0\n"),
            "cutoff_half": write_config(
                tmp_path / "cutoff.ini", "[physics]\ncutoff_factor = 0.5\n"
            ),
        }
        result = runner.invoke(main, [*(a.format(**paths) for a in args), "--json"])
        assert result.exit_code == 1
        error = loads(result.stderr)["error"]
        assert error["type"] == "InvalidConfig"
        if message is not None:
            assert error["message"] == message

    def test_nan_alpha_rejected(self, runner):
        result = runner.invoke(main, ["estimate", "qpu", "--alpha", "nan", "--json"])
        assert result.exit_code == 1
        assert loads(result.stderr)["error"]["type"] == "InvalidConfig"

    def test_infinite_alpha_rejected(self, runner):
        result = runner.invoke(
            main, ["estimate", "qpu", "--register", "15x15", "--alpha", "inf", "--json"]
        )
        assert result.exit_code == 1
        assert loads(result.stderr)["error"]["type"] == "InvalidConfig"

    @pytest.mark.parametrize("command", ["shots", "qpu"])
    def test_underflowing_alpha_rejected(self, runner, command):
        result = runner.invoke(main, ["estimate", command, "--alpha", "1e-200", "--json"])
        assert result.exit_code == 1
        assert loads(result.stderr)["error"]["type"] == "InvalidConfig"

    def test_documented_configs_load(self, tmp_path):
        """Every ini block of README loads, and config.example.ini restates
        the defaults."""
        blocks = re.findall(r"```ini\n(.*?)```", (REPO / "README.md").read_text(), re.DOTALL)
        assert blocks
        for i, block in enumerate(blocks):
            load_config(write_config(tmp_path / f"readme_{i}.ini", block))
        assert load_config(REPO / "config.example.ini") == default_config()

    def test_unknown_key_rejected(self, runner, tmp_path):
        config = write_config(tmp_path / "bad.ini", "[lattice]\nnonsense = 3\n")
        result = runner.invoke(
            main, ["simulate", "exact", "--config", config, "--out", str(tmp_path / "x"), "--json"]
        )
        assert result.exit_code == 1
        assert loads(result.stderr)["error"]["type"] == "InvalidConfig"

    @pytest.mark.parametrize("command", [["rearrange", "--trials", "5"], ["estimate", "qpu"]])
    @pytest.mark.parametrize(
        "section, key",
        [("mps", "memory_budget_gb = nan"), ("quench", "dt_ns = inf"),
         ("physics", "cutoff_factor = -inf")],
    )
    def test_non_finite_unread_key_rejected(self, runner, tmp_path, command, section, key):
        """A command refuses a non-finite value even of a key it never reads."""
        name, raw = key.split(" = ")
        config = write_config(tmp_path / "bad.ini", f"[{section}]\n{key}\n")
        result = runner.invoke(main, [*command, "--config", config, "--json"])
        assert result.exit_code == 1
        assert loads(result.stderr)["error"] == {
            "type": "InvalidConfig",
            "message": f"{section}.{name} must be finite, got {float(raw)}",
        }

    def test_file_and_flag_values_pass_one_check(self, runner, tmp_path):
        """A config-file value and the same value given as an override are
        refused by the same check with the same message."""
        with pytest.raises(InvalidConfig) as from_file:
            load_config(write_config(tmp_path / "bad.ini", "[lattice]\nLx = abc\n"))
        with pytest.raises(InvalidConfig) as from_flag:
            apply_overrides(default_config(), {"lattice": {"Lx": "abc"}})
        assert str(from_file.value) == str(from_flag.value) == "bad value for lattice.Lx: 'abc'"
        messages = []
        for args in (
            ["--config", write_config(tmp_path / "nan.ini", "[mps]\nmemory_budget_gb = nan\n")],
            ["--memory-budget-gb", "nan"],
        ):
            result = runner.invoke(
                main, ["simulate", "tdvp", *args, "--out", str(tmp_path / "x"), "--json"]
            )
            assert result.exit_code == 1
            messages.append(loads(result.stderr)["error"]["message"])
        assert messages == ["mps.memory_budget_gb must be finite, got nan"] * 2

    @pytest.mark.parametrize("section, key, value", [("lattice", "Lx", 2.5),
                                                     ("register", "n_traps", 100.5)])
    def test_fractional_float_for_int_key_refused(self, section, key, value):
        """int() would truncate it; a whole float is still taken as its int."""
        with pytest.raises(InvalidConfig) as refused:
            apply_overrides(default_config(), {section: {key: value}})
        assert str(refused.value) == f"bad value for {section}.{key}: {value!r}"
        whole = apply_overrides(default_config(), {section: {key: float(int(value))}})
        assert whole[section][key] == int(value) and type(whole[section][key]) is int

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "exact", "--size", "2x2", "--out", "{out}"],
            ["simulate", "tdvp", "--size", "2x2", "--out", "{out}"],
            ["estimate", "classical", "--samples", "{timing}", "--size", "3x3", "--chi", "100"],
            ["estimate", "crossover", "--samples", "{timing}", "--chi", "100"],
        ],
        ids=["exact", "tdvp", "classical", "crossover"],
    )
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--t-pulse=-5ns"], "t_pulse must be finite and non-negative, got -5 ns"),
            (["--config", "{dt_neg}"], "dt must be finite and positive, got -1 ns"),
        ],
        ids=["t-pulse-flag", "dt-config"],
    )
    def test_duration_range_checked_by_step_count(self, runner, tmp_path, command, args, message):
        """A negative pulse or step, from a flag or a file, is refused by
        ``model.step_count`` with its value in ns."""
        paths = {
            "out": tmp_path / "x",
            "timing": write_synthetic_timing(tmp_path / "timing.csv"),
            "dt_neg": write_config(tmp_path / "dt.ini", "[quench]\ndt_ns = -1\n"),
        }
        result = runner.invoke(main, [*(a.format(**paths) for a in command + args), "--json"])
        assert result.exit_code == 1
        assert loads(result.stderr)["error"] == {"type": "InvalidConfig", "message": message}
        assert not paths["out"].exists()


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
        payload = loads(result.output)
        assert payload["p_hat"] == 1.0
        assert payload["analytic_at_mean_counts"] == 1.0

    def test_zero_fill_counts_defective(self, runner):
        result = invoke(
            runner,
            ["rearrange", "--register-size", "6", "--trials", "20", "--fill-p", "0.0", "--json"],
        )
        payload = loads(result.output)
        assert payload["p_hat"] == 0.0
        assert payload["analytic_at_mean_counts"] is None
        assert [payload["counts_mean"][k] for k in ("N_transf", "N_dump", "N_idle")] == [None] * 3

    def test_monotone_in_register_size(self, runner):
        p_hats = []
        for size in (20, 40, 60):
            result = invoke(
                runner,
                ["rearrange", "--register-size", str(size), "--n-traps", "200",
                 "--trials", "3000", "--seed", "5", "--json"],
            )
            p_hats.append(loads(result.output)["p_hat"])
        assert p_hats == sorted(p_hats, reverse=True)

    @pytest.mark.parametrize("flag", ["--register-size", "--n-traps"])
    def test_zero_size_rejected(self, runner, flag):
        result = runner.invoke(main, ["rearrange", flag, "0", "--trials", "5", "--json"])
        assert result.exit_code == 1
        assert loads(result.stderr)["error"]["type"] == "InvalidConfig"

    def test_determinism(self, runner):
        args = ["rearrange", "--register-size", "12", "--trials", "400", "--seed", "9", "--json"]
        assert invoke(runner, args).output == invoke(runner, args).output


class TestFitAndClassical:
    def test_fit_mps_recovers_truth(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(runner, ["fit", "mps", "--samples", samples, "--json"])
        payload = loads(result.output)
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
        assert loads(result.stderr)["error"]["type"] == "UnderdeterminedFit"

    def test_fit_nqs(self, runner, tmp_path):
        path = write_nqs_timing(tmp_path / "nqs.csv")
        result = invoke(runner, ["fit", "nqs", "--samples", path, "--json"])
        payload = loads(result.output)
        assert payload["c_q"] == pytest.approx(3e-7, rel=1e-6)

    def test_estimate_classical_report(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(
            runner,
            ["estimate", "classical", "--samples", samples, "--size", "15x15",
             "--chi", "1000", "--t-pulse", "4us", "--dt", "1ns", "--json"],
        )
        payload = loads(result.output)
        assert payload["report"]["n_steps"] == 4000
        assert abs(payload["report"]["memory_bytes"] - 150e9) / 150e9 < 0.15

    def test_estimate_classical_text(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        args = ["estimate", "classical", "--samples", samples, "--size", "15x15",
                "--chi", "1000", "--t-pulse", "4us", "--dt", "1ns"]
        assert invoke(runner, args).output == (
            "Method                  |             N=225             \n"
            "                        |       Mem      Time    Energy \n"
            "--------------------------------------------------------\n"
            "MPS (chi=1000)          |    152 GB    59.6 h   23.9 kWh\n"
            "extrapolated: N=225, chi=1000 lies outside the fitted domain N 25-144, chi 100-600\n"
        )

    def test_estimate_classical_flags_extrapolation(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        args = ["estimate", "classical", "--samples", samples, "--size", "15x15", "--chi", "1000"]
        payload = loads(invoke(runner, [*args, "--json"]).output)
        assert payload["report"]["extrapolated"] is True
        text = invoke(runner, args).output.splitlines()
        assert text[-1] == (
            "extrapolated: N=225, chi=1000 lies outside the fitted domain N 25-144, chi 100-600"
        )
        inside = ["estimate", "classical", "--samples", samples, "--size", "10x10", "--chi", "400"]
        payload = loads(invoke(runner, [*inside, "--json"]).output)
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
        payload = loads(result.output)
        assert payload["N_time"] is not None
        assert payload["N_energy"] is not None

    def test_zero_pulse_is_used(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(
            runner,
            ["estimate", "classical", "--samples", samples, "--size", "15x15",
             "--chi", "1000", "--t-pulse", "0ns", "--json"],
        )
        report = loads(result.output)["report"]
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
        assert loads(result.stderr)["error"]["type"] == "InvalidConfig"

    def test_zero_gpu_power_is_used(self, runner, tmp_path):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        result = invoke(
            runner,
            ["estimate", "crossover", "--samples", samples, "--chi", "1000",
             "--n-min", "25", "--n-max", "625", "--n-step", "50",
             "--t-pulse", "4us", "--gpu-power-kw", "0", "--json"],
        )
        payload = loads(result.output)
        assert payload["N_time"] is not None
        assert payload["N_energy"] is None  # a classical run at 0 W never costs more energy

    def test_crossover_sweep_length_capped(self, runner, tmp_path, monkeypatch):
        samples = write_synthetic_timing(tmp_path / "timing.csv")
        base = ["estimate", "crossover", "--samples", samples, "--chi", "1000", "--json"]
        result = runner.invoke(main, [*base, "--n-max", "1000000000", "--n-step", "1"])
        assert result.exit_code == 1
        error = loads(result.stderr)["error"]
        assert error["type"] == "InvalidConfig" and "999999976 points" in error["message"]
        # the default n_min and n_step make 25..100 four sizes
        args = [*base, "--n-max", "100"]
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3)
        assert runner.invoke(main, args).exit_code == 1
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 4)
        assert "N_time" in loads(invoke(runner, args).output)

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
        payload = loads(result.output)
        assert payload["N_time"] is None
        assert payload["N_energy"] is None


VERDICT_KEYS = {"energy_drift_rel", "d8_error_rel", "passed", "e_scale", "norm_convention"}
MANIFEST_KEYS = {"tool", "tool_version", "config", "seed", "inputs"}
COST_LAW_KEYS = {"residual_relative_rms", "domain"}

#: Command, and the key set of its ``--json`` payload ("") and of each nested
#: object in it, so that a new result-type field changes a schema only on purpose.
PAYLOAD_KEYS = {
    "estimate shots": (["estimate", "shots"], {"": {"p", "alpha", "shots"}}),
    "estimate qpu": (["estimate", "qpu", "--register", "15x15"], {
        "": {"m_usable", "p_defect_free", "n_attempts", "wall_seconds", "energy_kwh", "counts"},
        "counts": {"N_transf", "N_dump", "N_traps", "N_register"},
    }),
    "estimate classical": (
        ["estimate", "classical", "--samples", "{timing}", "--size", "15x15", "--chi", "1000"], {
            "": {"report", "fit"},
            "report": {"method", "N", "chi", "t_pulse_s", "n_steps", "seconds_per_step",
                       "total_seconds", "memory_bytes", "energy_kwh", "power_watts",
                       "extrapolated"},
            "fit": {"a", "b", "c", *COST_LAW_KEYS},
        }),
    "estimate crossover": (
        ["estimate", "crossover", "--samples", "{timing}", "--chi", "1000", "--n-min", "25",
         "--n-max", "100"], {
            "": {"N_time", "N_energy", "at_boundary_time", "at_boundary_energy", "sweep"},
            "sweep": {"n_min", "n_max", "n_step", "chi"},
        }),
    "rearrange": (["rearrange", "--register-size", "6", "--trials", "20"], {
        "": {"p_hat", "std_err", "trials", "counts_mean", "analytic_at_mean_counts",
             "analytic_at_expected_counts", "layout_model"},
        "counts_mean": {"N_transf", "N_dump", "N_idle", "N_traps", "N_register",
                        "infeasible_trials"},
    }),
    "fit mps": (["fit", "mps", "--samples", "{timing}"], {
        "": {"a", "b", "c", *COST_LAW_KEYS, "n_samples"},
        "domain": {"n_min", "n_max", "chi_min", "chi_max"},
    }),
    "fit nqs": (["fit", "nqs", "--samples", "{nqs}"], {
        "": {"a_q", "b_q", "c_q", *COST_LAW_KEYS, "n_samples"},
    }),
    "simulate exact": (
        ["simulate", "exact", "--size", "2x2", "--t-pulse", "0ns", "--out", "{out}"], {
            "": {"verdict", "manifest", "run"},
            "verdict": VERDICT_KEYS,
            "manifest": MANIFEST_KEYS,
            "run": {"lanczos_converged"},
        }),
    "simulate tdvp": (
        ["simulate", "tdvp", "--size", "2x2", "--t-pulse", "5ns", "--max-chi", "4",
         "--out", "{out}"], {
            "": {"verdict", "manifest", "run"},
            "verdict": VERDICT_KEYS,
            "manifest": MANIFEST_KEYS,
            "run": {"lanczos_converged", "max_chi_used", "truncation_weight", "one_site_steps",
                    "live_bytes_peak", "memory_model_bytes", "apply_madds", "lanczos_solves"},
        }),
    "error": (["estimate", "shots", "--alpha", "-1"], {
        "": {"error"},
        "error": {"type", "message"},
    }),
}


@pytest.mark.parametrize("name", list(PAYLOAD_KEYS))
def test_payload_keys(runner, tmp_path, name):
    args, expected = PAYLOAD_KEYS[name]
    files = {
        "timing": write_synthetic_timing(tmp_path / "timing.csv"),
        "nqs": write_nqs_timing(tmp_path / "nqs.csv"),
        "out": tmp_path / "run",
    }
    result = runner.invoke(main, [*(a.format(**files) for a in args), "--json"])
    assert result.exit_code == (1 if name == "error" else 0)
    payload = loads(result.stderr if name == "error" else result.output)
    assert {path: set(payload[path] if path else payload) for path in expected} == expected
