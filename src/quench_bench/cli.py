"""Command-line entry point.

Commands:
  quench-bench simulate {exact|tdvp}   -- run a quench, write trajectory /
                                          timing / verdict artifacts
  quench-bench estimate {shots|qpu|classical|crossover}
  quench-bench rearrange               -- Monte Carlo vs analytic defect-free
  quench-bench fit {mps|nqs}           -- scaling-law fits from a timing CSV

Every subcommand supports --json for pure machine output.  Module errors are
emitted as a machine-readable error object with a nonzero exit code.  With a
fixed config and seed all numerical outputs are byte-identical on one BLAS
build and thread count; measured wall times (the timing CSV) and timestamps
(manifest.json) are the only exceptions.
"""

from __future__ import annotations

import functools
import math
import platform
import sys
from dataclasses import asdict, fields
from pathlib import Path

import click

from . import __version__, budget as budget_mod, convergence, costfit, oracle, register
from .config import (
    apply_overrides,
    build_manifest,
    dump_json,
    durations_from_config,
    lattice_from_config,
    load_config,
    manifest_core,
    manifest_digest,
    params_from_config,
    sites_from_config,
)
from .costfit import step_sample, write_timing_csv
from .errors import InvalidConfig, QuenchBenchError
from .model import write_trajectory_csv
from .mps import memory_estimate, run_quench
from .units import format_duration, parse_duration

#: Most system sizes one ``estimate crossover`` sweep may hold.
MAX_SWEEP_POINTS = 10_000


def emits_output(fn):
    """Give a command ``--json`` and print what it returns.

    The command returns ``(payload, text)``: the payload is printed as JSON
    with ``--json`` or when ``text`` is None, the text otherwise.  A module
    error becomes an error object (JSON with ``--json``) on stderr and exit
    code 1.
    """

    @click.option("--json", "as_json", is_flag=True, default=False)
    @functools.wraps(fn)
    def wrapper(*args, as_json, **kwargs):
        try:
            payload, text = fn(*args, **kwargs)
        except QuenchBenchError as exc:
            if as_json:
                error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
                click.echo(dump_json(error), err=True, nl=False)
            else:
                click.echo(f"error [{type(exc).__name__}]: {exc}", err=True)
            sys.exit(1)
        if as_json or text is None:
            click.echo(dump_json(payload), nl=False)
        else:
            click.echo(text)

    return wrapper


def _parse_size(text: str) -> tuple[int, int]:
    try:
        lx, ly = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise InvalidConfig(f"size must look like 15x15, got {text!r}") from None
    if lx < 1 or ly < 1:
        raise InvalidConfig(f"size sides must be >= 1, got {text!r}")
    return lx, ly


@click.group()
@click.version_option(version=__version__, prog_name="quench-bench")
def main() -> None:
    """Resource estimation for post-quench Ising dynamics."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@main.group()
def simulate() -> None:
    """Run exact or MPS-TDVP quench simulations."""


def _config_with_flags(config_path, t_pulse=None, dt=None, size=None, **sections) -> dict:
    """Config file overlaid with the command-line flags that were given;
    ``sections`` maps a config section to ``{key: flag value}``."""
    lx, ly = _parse_size(size) if size is not None else (None, None)
    overrides = {
        "quench": {
            "t_pulse_ns": None if t_pulse is None else parse_duration(t_pulse),
            "dt_ns": None if dt is None else parse_duration(dt),
        },
        "lattice": {"Lx": lx, "Ly": ly},
        **sections,
    }
    return apply_overrides(load_config(config_path), overrides)


def _prepare_run(config_path, t_pulse, dt, size, **sections):
    """Config, lattice, params, manifest and interaction cutoff of a
    simulate command."""
    config = _config_with_flags(config_path, t_pulse, dt, size, **sections)
    lattice = lattice_from_config(config)
    params = params_from_config(config, lattice)
    inputs = [config_path] if config_path else []
    manifest = build_manifest(config, inputs)
    cutoff = config["physics"]["cutoff_factor"] * params.spacing
    return config, lattice, params, manifest, cutoff


def _manifest_header(manifest: dict) -> str:
    return f"manifest_sha256={manifest_digest(manifest)}"


def _emit_verdict(out_dir, manifest: dict, traj, verdict, run: dict) -> dict:
    """Write trajectory.csv, manifest.json and verdict.json of a finished run
    of either backend; return the verdict payload."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv", _manifest_header(manifest))
    dump_json(manifest, out / "manifest.json")
    payload = {"verdict": verdict.as_dict(), "manifest": manifest_core(manifest), "run": run}
    dump_json(payload, out / "verdict.json")
    return payload


def _judge_run(out_dir, manifest: dict, traj, params, run: dict) -> tuple[dict, str]:
    """Judge a finished run, write its artifacts and return (payload, text)."""
    verdict = convergence.evaluate_run(traj, params)
    payload = _emit_verdict(out_dir, manifest, traj, verdict, run)
    state = "passed" if verdict.passed else "FAILED"
    return payload, (
        f"verdict {state}: energy drift {verdict.energy_drift_rel:.3e}, "
        f"D8 error {verdict.d8_error_rel:.3e}  -> {Path(out_dir)}"
    )


@simulate.command("exact")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--t-pulse", default=None, help="pulse duration with suffix, e.g. 400ns")
@click.option("--dt", default=None, help="step with suffix, e.g. 1ns")
@click.option("--size", default=None, help="lattice size, e.g. 3x3")
@emits_output
def simulate_exact(config_path, out_dir, t_pulse, dt, size):
    """Dense-statevector evolution (ground truth for small lattices)."""
    _, lattice, params, manifest, cutoff = _prepare_run(config_path, t_pulse, dt, size)
    traj = oracle.evolve_exact(lattice, params, cutoff)
    run = {"lanczos_converged": traj.lanczos_converged}
    return _judge_run(out_dir, manifest, traj, params, run)


@simulate.command("tdvp")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--t-pulse", default=None)
@click.option("--dt", default=None)
@click.option("--size", default=None)
@click.option("--max-chi", type=int, default=None)
@click.option("--memory-budget-gb", type=float, default=None)
@emits_output
def simulate_tdvp(config_path, out_dir, t_pulse, dt, size, max_chi, memory_budget_gb):
    """TDVP evolution with timing instrumentation: each step sweeps a pair
    window at every bond below its bound, so that the bond can grow, and a
    one-site window at every other site."""
    mps_overrides = {"max_chi": max_chi, "memory_budget_gb": memory_budget_gb}
    config, lattice, params, manifest, cutoff = _prepare_run(
        config_path, t_pulse, dt, size, mps=mps_overrides
    )
    mps_cfg = config["mps"]
    budget_gb = mps_cfg["memory_budget_gb"]
    # also validates max_chi before the run starts
    model_bytes = memory_estimate(lattice.n_sites, mps_cfg["max_chi"]).total
    traj = run_quench(
        lattice,
        params,
        mps_cfg["max_chi"],
        cutoff=cutoff,
        memory_budget_bytes=None if budget_gb is None else budget_gb * 1e9,
    )
    # wall timings live only in timing.csv (measurements are exempt from the
    # byte-reproducibility contract); everything in verdict.json is deterministic
    run = {
        "max_chi_used": max((r.max_chi_used for r in traj.records), default=1),
        "truncation_weight": math.fsum(r.truncation_weight_step for r in traj.records),
        "one_site_steps": sum(r.pair_windows == 0 for r in traj.records),
        "lanczos_converged": traj.lanczos_converged,
        "live_bytes_peak": max((r.live_bytes for r in traj.records), default=0),
        "memory_model_bytes": model_bytes,
        "apply_madds": sum(r.apply_madds for r in traj.records),
        "lanczos_solves": sum(r.lanczos_solves for r in traj.records),
    }
    result = _judge_run(out_dir, manifest, traj, params, run)
    if traj.records:
        sample = step_sample(lattice.n_sites, traj.records, f"cpu-{platform.machine()}")
        write_timing_csv(
            Path(out_dir) / "timing.csv", [sample], params.dt, _manifest_header(manifest)
        )
    return result


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

@main.group()
def estimate() -> None:
    """Shot, QPU, classical and crossover resource estimates."""


@estimate.command("shots")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@emits_output
def estimate_shots(p, alpha):
    """Shots needed for precision alpha on a +/-1 observable."""
    n = budget_mod.shots_for_precision(p, alpha)
    return {"p": p, "alpha": alpha, "shots": n}, str(n)


def _probs_from_config(config) -> register.DefectProbabilities:
    reg = config["register"]
    return register.DefectProbabilities(
        **{f.name: reg[f.name] for f in fields(register.DefectProbabilities)}
    )


def _fit_mps_csv(samples_path) -> tuple[list[costfit.RuntimeSample], costfit.CostModelMPS]:
    """The MPS rows of a timing CSV and the cost law fitted to them."""
    samples = [s for s in costfit.read_timing_csv(samples_path) if s.method == "MPS"]
    return samples, costfit.fit_mps(samples)


def _qpu_schedule(config, n_register: int) -> budget_mod.QpuSchedule:
    b = config["budget"]
    return budget_mod.qpu_schedule(
        n_register,
        _probs_from_config(config),
        alpha=b["alpha"],
        confidence=b["confidence"],
        shot_rate=b["shot_rate_hz"],
        qpu_power_watts=b["qpu_power_kw"] * 1e3,
    )


def _register_atoms(text: str) -> int:
    """Atom count of a size like '15x15' or of a bare count like '225'."""
    if "x" in text.lower():
        return math.prod(_parse_size(text))
    try:
        return int(text)
    except ValueError:
        raise InvalidConfig(f"register must look like 15x15 or 225, got {text!r}") from None


@estimate.command("qpu")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--register", "register_size", default=None, help="e.g. 15x15 or an atom count")
@click.option("--alpha", type=float, default=None)
@click.option("--confidence", type=float, default=None)
@click.option("--shot-rate", type=float, default=None, help="Hz")
@click.option("--qpu-power-kw", type=float, default=None)
@emits_output
def estimate_qpu(config_path, register_size, alpha, confidence, shot_rate, qpu_power_kw):
    """Wall time and energy for one quench task on the QPU."""
    config = _config_with_flags(
        config_path,
        budget={
            "alpha": alpha,
            "confidence": confidence,
            "shot_rate_hz": shot_rate,
            "qpu_power_kw": qpu_power_kw,
        },
    )
    if register_size is None:
        n_register = sites_from_config(config)
    else:
        n_register = _register_atoms(register_size)
    schedule = _qpu_schedule(config, n_register)
    payload = {
        **asdict(schedule.budget), "energy_kwh": schedule.energy_kwh, "counts": schedule.counts
    }
    return payload, (
        f"N={n_register}: {schedule.budget.n_attempts} attempts for "
        f"{schedule.budget.m_usable} usable shots "
        f"(p_df={schedule.budget.p_defect_free:.4g}) -> "
        f"{format_duration(schedule.budget.wall_seconds)}, {schedule.energy_kwh:.3g} kWh"
    )


def _gpu_power(gpu_power_kw: float | None, power_log=None) -> tuple[float, str]:
    """The GPU power (W) of a classical projection and where it comes from:
    the mean of ``power_log``, the ``--gpu-power-kw`` flag, or else the
    assumed rating ``costfit.DEFAULT_GPU_POWER_WATTS``."""
    if power_log is not None:
        return costfit.mean_power_from_log(power_log), "power log"
    if gpu_power_kw is not None:
        return gpu_power_kw * 1e3, "flag"
    default = costfit.DEFAULT_GPU_POWER_WATTS
    return default, f"assumed {default:.0f} W GPU rating"


@estimate.command("classical")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--size", default=None, help="lattice size, e.g. 15x15")
@click.option("--chi", type=int, required=True)
@click.option("--t-pulse", default=None)
@click.option("--dt", default=None)
@click.option("--gpu-power-kw", type=float, default=None)
@click.option("--power-log", type=click.Path(exists=True), default=None)
@emits_output
def estimate_classical(samples_path, config_path, size, chi, t_pulse, dt, gpu_power_kw, power_log):
    """Fit the timing samples and extrapolate one classical simulation."""
    if power_log is not None and gpu_power_kw is not None:
        raise InvalidConfig("--power-log and --gpu-power-kw both set the GPU power; give one")
    config = _config_with_flags(config_path, t_pulse, dt, size)
    n = sites_from_config(config)
    t_pulse_s, dt_s = durations_from_config(config)
    power_watts, power_source = _gpu_power(gpu_power_kw, power_log)
    _, model = _fit_mps_csv(samples_path)
    report = costfit.extrapolate(model, n, chi, t_pulse_s, dt_s, power_watts)
    text = costfit.format_resource_report(report)
    if report.extrapolated:
        d = model.domain
        text += (
            f"\nextrapolated: N={n}, chi={chi} lies outside the fitted domain "
            f"N {d['n_min']}-{d['n_max']}, chi {d['chi_min']}-{d['chi_max']}"
        )
    return {"report": report.as_dict(), "fit": model.as_dict(), "power_source": power_source}, text


@estimate.command("crossover")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--chi", type=int, required=True)
@click.option("--n-min", type=int, default=25, show_default=True)
@click.option("--n-max", type=int, default=625, show_default=True)
@click.option("--n-step", type=int, default=25, show_default=True)
@click.option("--t-pulse", default=None)
@click.option("--dt", default=None)
@click.option("--gpu-power-kw", type=float, default=None)
@emits_output
def estimate_crossover(samples_path, config_path, chi, n_min, n_max, n_step, t_pulse, dt,
                       gpu_power_kw):
    """Locate the system size where the QPU beats the classical projection."""
    if n_step < 1 or n_min > n_max:
        raise InvalidConfig(
            f"N sweep needs n_step >= 1 and n_min <= n_max, got "
            f"n_min={n_min}, n_max={n_max}, n_step={n_step}"
        )
    if n_min < 1:
        raise InvalidConfig(f"N sweep needs n_min >= 1, got n_min={n_min}")
    sweep = range(n_min, n_max + 1, n_step)
    if len(sweep) > MAX_SWEEP_POINTS:
        raise InvalidConfig(
            f"N sweep has {len(sweep)} points, more than the {MAX_SWEEP_POINTS} allowed"
        )
    config = _config_with_flags(config_path, t_pulse, dt)
    t_pulse_s, dt_s = durations_from_config(config)
    power_watts, power_source = _gpu_power(gpu_power_kw)
    _, model = _fit_mps_csv(samples_path)

    def classical_fn(n):
        return costfit.extrapolate(model, n, chi, t_pulse_s, dt_s, power_watts)

    result = costfit.crossover(classical_fn, functools.partial(_qpu_schedule, config), list(sweep))
    payload = {
        "N_time": result.n_time,
        "N_energy": result.n_energy,
        "at_boundary_time": result.at_boundary_time,
        "at_boundary_energy": result.at_boundary_energy,
        "sweep": {"n_min": n_min, "n_max": n_max, "n_step": n_step, "chi": chi},
        "power_source": power_source,
    }

    def fmt(x):
        return "NONE" if x is None else f"{x:.0f}"

    return payload, f"crossover N*_time={fmt(result.n_time)} N*_energy={fmt(result.n_energy)}"


# ---------------------------------------------------------------------------
# rearrange
# ---------------------------------------------------------------------------

@main.command("rearrange")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--register-size", type=int, default=None, help="atoms in the register")
@click.option("--n-traps", type=int, default=None)
@click.option("--fill-p", type=float, default=None)
@emits_output
def rearrange(config_path, trials, seed, register_size, n_traps, fill_p):
    """Monte Carlo defect-free estimate, side by side with the analytic model."""
    config = _config_with_flags(
        config_path, register={"fill_p": fill_p, "n_traps": n_traps}, run={"seed": seed}
    )
    n_register = sites_from_config(config) if register_size is None else register_size
    probs = _probs_from_config(config)
    reg = config["register"]
    layout = register.make_layout(n_register, reg["n_traps"])
    est = register.simulate_defect_free(
        layout, probs, trials, rng_seed=config["run"]["seed"], fill_p=reg["fill_p"]
    )
    all_infeasible = est.counts_mean["infeasible_trials"] >= trials
    analytic_mc = (
        None if all_infeasible else register.defect_free_analytic(est.counts_mean, probs)
    )
    analytic_expected = register.defect_free_analytic(
        register.expected_counts(n_register), probs
    )
    payload = {
        **asdict(est),
        # every mean count is NaN when no trial was feasible; JSON has no NaN
        "counts_mean": {k: None if math.isnan(v) else v for k, v in est.counts_mean.items()},
        "analytic_at_mean_counts": analytic_mc,
        "analytic_at_expected_counts": analytic_expected,
        "layout_model": "register_grid_plus_reservoir_rings",
    }
    ana = "n/a" if analytic_mc is None else f"{analytic_mc:.4f}"
    return payload, (
        f"N={n_register}, traps={layout.n_traps}: p_hat = {est.p_hat:.4f} +- {est.std_err:.4f} "
        f"(MC, {trials} trials) vs {ana} (analytic at mean counts)"
    )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@main.group()
def fit() -> None:
    """Scaling-law fits from timing CSVs."""


@fit.command("mps")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@emits_output
def fit_mps_cmd(samples_path):
    samples, model = _fit_mps_csv(samples_path)
    return {**model.as_dict(), "n_samples": len(samples)}, None


@fit.command("nqs")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@emits_output
def fit_nqs_cmd(samples_path):
    samples = [s for s in costfit.read_timing_csv(samples_path) if s.method == "NQS"]
    model = costfit.fit_nqs(samples)
    return {**model.as_dict(), "n_samples": len(samples)}, None


if __name__ == "__main__":
    main()
