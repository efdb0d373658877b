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
)
from .errors import InvalidConfig, QuenchBenchError
from .model import interactions, write_trajectory_csv
from .mps import memory_estimate, run_quench, write_timing_csv
from .units import format_duration, parse_duration


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except QuenchBenchError as exc:
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            if kwargs.get("as_json"):
                click.echo(dump_json(payload), err=True, nl=False)
            else:
                click.echo(f"error [{type(exc).__name__}]: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _hardware_tag() -> str:
    return f"cpu-{platform.machine()}"


def _parse_size(text: str) -> tuple[int, int]:
    try:
        lx, ly = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise InvalidConfig(f"size must look like 15x15, got {text!r}") from None
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
    config = _config_with_flags(config_path, t_pulse, dt, size, **sections)
    lattice = lattice_from_config(config)
    params = params_from_config(config, lattice)
    inputs = [config_path] if config_path else []
    manifest = build_manifest(config, config["run"]["seed"], inputs)
    return config, lattice, params, manifest


def _prepend_manifest_comment(path: Path, manifest: dict) -> None:
    body = Path(path).read_text()
    Path(path).write_text(f"# manifest_sha256={manifest_digest(manifest)}\n{body}")


def _emit_verdict(out_dir, manifest: dict, traj, verdict, as_json: bool, extra=None) -> None:
    """Write trajectory.csv, manifest.json and verdict.json of a finished run
    of either backend, and echo the verdict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    _prepend_manifest_comment(out / "trajectory.csv", manifest)
    dump_json(manifest, out / "manifest.json")
    payload = {"verdict": verdict.as_dict(), "manifest": manifest_core(manifest)}
    if extra:
        payload.update(extra)
    dump_json(payload, out / "verdict.json")
    if as_json:
        click.echo(dump_json(payload), nl=False)
    else:
        state = "passed" if verdict.passed else "FAILED"
        click.echo(
            f"verdict {state}: energy drift {verdict.energy_drift_rel:.3e}, "
            f"D8 error {verdict.d8_error_rel:.3e}  -> {out}"
        )


@simulate.command("exact")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--t-pulse", default=None, help="pulse duration with suffix, e.g. 400ns")
@click.option("--dt", default=None, help="step with suffix, e.g. 1ns")
@click.option("--size", default=None, help="lattice size, e.g. 3x3")
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def simulate_exact(config_path, out_dir, t_pulse, dt, size, as_json) -> None:
    """Dense-statevector evolution (ground truth for small lattices)."""
    config, lattice, params, manifest = _prepare_run(config_path, t_pulse, dt, size)
    cutoff = config["physics"]["cutoff_factor"] * params.spacing
    v = interactions(lattice, params, cutoff)
    traj = oracle.evolve_exact(lattice, params, v, params.t_pulse, params.dt)
    extra = {"run": {"lanczos_converged": traj.lanczos_converged}}
    verdict = convergence.evaluate_run(traj, params)
    _emit_verdict(out_dir, manifest, traj, verdict, as_json, extra)


@simulate.command("tdvp")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--t-pulse", default=None)
@click.option("--dt", default=None)
@click.option("--size", default=None)
@click.option("--max-chi", type=int, default=None)
@click.option("--memory-budget-gb", type=float, default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def simulate_tdvp(
    config_path, out_dir, t_pulse, dt, size, max_chi, memory_budget_gb, as_json
) -> None:
    """Two-site TDVP evolution with timing instrumentation."""
    mps_overrides = {"max_chi": max_chi, "memory_budget_gb": memory_budget_gb}
    config, lattice, params, manifest = _prepare_run(
        config_path, t_pulse, dt, size, mps=mps_overrides
    )
    mps_cfg = config["mps"]
    budget_bytes = (
        mps_cfg["memory_budget_gb"] * 1e9 if mps_cfg["memory_budget_gb"] is not None else None
    )
    cutoff = config["physics"]["cutoff_factor"] * params.spacing
    # also validates max_chi and k_max before the run starts
    model_bytes = memory_estimate(lattice.n_sites, mps_cfg["max_chi"], k=mps_cfg["k_max"]).total
    traj = run_quench(
        lattice,
        params,
        params.t_pulse,
        params.dt,
        max_chi=mps_cfg["max_chi"],
        k_max=mps_cfg["k_max"],
        cutoff=cutoff,
        memory_budget_bytes=budget_bytes,
    )
    # wall timings live only in timing.csv (measurements are exempt from the
    # byte-reproducibility contract); everything in verdict.json is deterministic
    max_chi_used = max((r.max_chi_used for r in traj.records), default=1)
    extra = {
        "run": {
            "max_chi_used": max_chi_used,
            "truncation_weight": math.fsum(r.truncation_weight_step for r in traj.records),
            "lanczos_converged": traj.lanczos_converged,
            "live_bytes_peak": max((r.live_bytes for r in traj.records), default=0),
            "memory_model_bytes": model_bytes,
        }
    }
    verdict = convergence.evaluate_run(traj, params)
    _emit_verdict(out_dir, manifest, traj, verdict, as_json, extra)
    if traj.records:
        write_timing_csv(
            Path(out_dir) / "timing.csv",
            lattice.n_sites,
            max_chi_used,
            params.dt,
            traj.records,
            _hardware_tag(),
            header_comment=f"manifest_sha256={manifest_digest(manifest)}",
        )


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

@main.group()
def estimate() -> None:
    """Shot, QPU, classical and crossover resource estimates."""


@estimate.command("shots")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def estimate_shots(p, alpha, as_json) -> None:
    """Shots needed for precision alpha on a +/-1 observable."""
    n = budget_mod.shots_for_precision(p, alpha)
    if as_json:
        click.echo(dump_json({"p": p, "alpha": alpha, "shots": n}), nl=False)
    else:
        click.echo(str(n))


def _probs_from_config(config) -> register.DefectProbabilities:
    reg = config["register"]
    return register.DefectProbabilities(
        p_transf=reg["p_transf"],
        p_pickup=reg["p_pickup"],
        p_acci=reg["p_acci"],
        p_loss=reg["p_loss"],
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
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def estimate_qpu(
    config_path, register_size, alpha, confidence, shot_rate, qpu_power_kw, as_json
) -> None:
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
        n_register = config["lattice"]["Lx"] * config["lattice"]["Ly"]
    else:
        n_register = _register_atoms(register_size)
    schedule = _qpu_schedule(config, n_register)
    payload = {
        "m_usable": schedule.budget.m_usable,
        "p_defect_free": schedule.budget.p_defect_free,
        "n_attempts": schedule.budget.n_attempts,
        "wall_seconds": schedule.budget.wall_seconds,
        "energy_kwh": schedule.energy_kwh,
        "counts": schedule.counts,
    }
    if as_json:
        click.echo(dump_json(payload), nl=False)
    else:
        click.echo(
            f"N={n_register}: {schedule.budget.n_attempts} attempts for "
            f"{schedule.budget.m_usable} usable shots "
            f"(p_df={schedule.budget.p_defect_free:.4g}) -> "
            f"{format_duration(schedule.budget.wall_seconds)}, {schedule.energy_kwh:.3g} kWh"
        )


@estimate.command("classical")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--size", default=None, help="lattice size, e.g. 15x15")
@click.option("--chi", type=int, required=True)
@click.option("--t-pulse", default=None)
@click.option("--dt", default=None)
@click.option("--gpu-power-kw", type=float, default=None)
@click.option("--power-log", type=click.Path(exists=True), default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def estimate_classical(
    samples_path, config_path, size, chi, t_pulse, dt, gpu_power_kw, power_log, as_json
) -> None:
    """Fit the timing samples and extrapolate one classical simulation."""
    config = _config_with_flags(config_path, t_pulse, dt, size)
    n = config["lattice"]["Lx"] * config["lattice"]["Ly"]
    t_pulse_s, dt_s = durations_from_config(config)
    if power_log is not None:
        power_watts = costfit.mean_power_from_log(power_log)
    elif gpu_power_kw is not None:
        power_watts = gpu_power_kw * 1e3
    else:
        power_watts = costfit.DEFAULT_GPU_POWER_WATTS
    _, model = _fit_mps_csv(samples_path)
    report = costfit.extrapolate(model, n, chi, t_pulse_s, dt_s, power_watts)
    payload = {"report": report.as_dict(), "fit": model.as_dict()}
    if as_json:
        click.echo(dump_json(payload), nl=False)
    else:
        click.echo(costfit.format_resource_table([report]))
        if report.extrapolated:
            d = model.domain
            click.echo(
                f"extrapolated: N={n}, chi={chi} lies outside the fitted domain "
                f"N {d['n_min']}-{d['n_max']}, chi {d['chi_min']}-{d['chi_max']}"
            )


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
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def estimate_crossover(
    samples_path, config_path, chi, n_min, n_max, n_step, t_pulse, dt, gpu_power_kw, as_json
) -> None:
    """Locate the system size where the QPU beats the classical projection."""
    if n_step < 1 or n_min > n_max:
        raise InvalidConfig(
            f"N sweep needs n_step >= 1 and n_min <= n_max, got "
            f"n_min={n_min}, n_max={n_max}, n_step={n_step}"
        )
    config = _config_with_flags(config_path, t_pulse, dt)
    t_pulse_s, dt_s = durations_from_config(config)
    power_watts = (
        gpu_power_kw * 1e3 if gpu_power_kw is not None else costfit.DEFAULT_GPU_POWER_WATTS
    )
    _, model = _fit_mps_csv(samples_path)

    def classical_fn(n):
        return costfit.extrapolate(model, n, chi, t_pulse_s, dt_s, power_watts)

    sweep = list(range(n_min, n_max + 1, n_step))
    result = costfit.crossover(classical_fn, functools.partial(_qpu_schedule, config), sweep)
    payload = {
        "N_time": result.n_time,
        "N_energy": result.n_energy,
        "at_boundary_time": result.at_boundary_time,
        "at_boundary_energy": result.at_boundary_energy,
        "sweep": {"n_min": n_min, "n_max": n_max, "n_step": n_step, "chi": chi},
    }
    if as_json:
        click.echo(dump_json(payload), nl=False)
    else:
        def fmt(x):
            return "NONE" if x is None else f"{x:.0f}"

        click.echo(f"crossover N*_time={fmt(result.n_time)} N*_energy={fmt(result.n_energy)}")


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
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def rearrange(config_path, trials, seed, register_size, n_traps, fill_p, as_json) -> None:
    """Monte Carlo defect-free estimate, side by side with the analytic model."""
    config = _config_with_flags(
        config_path, register={"fill_p": fill_p, "n_traps": n_traps}, run={"seed": seed}
    )
    n_register = register_size
    if n_register is None:
        n_register = config["lattice"]["Lx"] * config["lattice"]["Ly"]
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
        "p_hat": est.p_hat,
        "std_err": est.std_err,
        "trials": est.trials,
        "counts_mean": est.counts_mean,
        "analytic_at_mean_counts": analytic_mc,
        "analytic_at_expected_counts": analytic_expected,
        "layout_model": "register_grid_plus_reservoir_rings",
    }
    if as_json:
        click.echo(dump_json(payload), nl=False)
    else:
        ana = "n/a" if analytic_mc is None else f"{analytic_mc:.4f}"
        click.echo(
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
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def fit_mps_cmd(samples_path, as_json) -> None:
    samples, model = _fit_mps_csv(samples_path)
    payload = {**model.as_dict(), "n_samples": len(samples)}
    click.echo(dump_json(payload), nl=False)


@fit.command("nqs")
@click.option("--samples", "samples_path", type=click.Path(exists=True), required=True)
@click.option("--normalize-workers/--no-normalize-workers", default=True, show_default=True)
@click.option("--json", "as_json", is_flag=True, default=False)
@handles_errors
def fit_nqs_cmd(samples_path, normalize_workers, as_json) -> None:
    samples = [s for s in costfit.read_timing_csv(samples_path) if s.method == "NQS"]
    model = costfit.fit_nqs(samples, normalize_workers=normalize_workers)
    payload = {
        "a_q": model.a_q,
        "b_q": model.b_q,
        "c_q": model.c_q,
        "residual_relative_rms": model.fit_residual,
        "domain": model.domain,
        "n_samples": len(samples),
    }
    click.echo(dump_json(payload), nl=False)


if __name__ == "__main__":
    main()
