"""Per-layer metrics of a traced run, derived from its spans.

Times and counts are per round of the workload (one sweep on
``tdvp-saturated``; one simulate-tdvp + simulate-exact pair on
``quench-validate``; two ``rearrange`` calls and one ``estimate crossover``
on ``qpu-budget``), taken over the traced half of the run.  Set-up metrics
come from the one traced set-up.  A layer a workload does not run reads 0.
"""

from __future__ import annotations

import statistics

from quench_bench.mps import memory_estimate

from spans import SpanIndex

#: Register layouts of ``qpu-budget`` by role: "half" puts the register on
#: half the traps, so about half the loads are infeasible and get reloaded;
#: "quarter" puts it on a quarter, where loads are never infeasible.
LAYOUT_ROLES = ("half", "quarter")

UNITS = {
    "mps.apply_s": "s",
    "mps.apply_calls": "count",
    "mps.apply_gflop": "GFLOP",
    "mps.svd_s": "s",
    "mps.env_s": "s",
    "mps.step_self_s": "s",
    "mps.energy_s": "s",
    "mps.measure_s": "s",
    "mps.step_s": "s",
    "mps.step_1thread_s": "s",
    "mps.selfreport_gap_frac": "ratio",
    "mps.setup_s": "s",
    "mps.mem_bytes": "bytes",
    "mps.mem_model_bytes": "bytes",
    "mps.chi_reached": "count",
    "mps.trunc_weight": "ratio",
    "lanczos.self_s": "s",
    "lanczos.calls": "count",
    "lanczos.iters_mean": "count",
    "lanczos.iters_max": "count",
    "lanczos.unconverged": "count",
    "oracle.setup_s": "s",
    "oracle.apply_s": "s",
    "oracle.apply_calls": "count",
    "oracle.lanczos_self_s": "s",
    "oracle.measure_s": "s",
    "convergence.evaluate_s": "s",
    "cli.artifacts_s": "s",
    "register.layout_s": "s",
    **{
        f"register.{role}.{name}": unit
        for role in LAYOUT_ROLES
        for name, unit in (
            ("plan_s", "s"),
            ("plan_calls", "count"),
            ("plans_per_trial", "ratio"),
            ("trial_self_s", "s"),
            ("infeasible_trials", "count"),
        )
    },
    "budget.schedule_s": "s",
    "costfit.fit_s": "s",
    "costfit.crossover_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_metrics(
    idx: SpanIndex,
    n_rounds: int,
    trials: int,
    plain_wall_s: float,
    step_1thread_s: float,
) -> dict:
    """Every metric of ``UNITS`` from the spans of one traced run.

    ``n_rounds`` rounds ran under the "timed" span; ``trials`` is the trial
    count of each ``rearrange`` call; ``plain_wall_s`` is the median round
    time of the untraced half of the same run.
    """
    spans = idx.spans

    def timed(name, *under):
        return idx.select(name, "timed", *under)

    def per_round(x):
        return x / n_rounds

    m = {}
    for layer in ("mps", "oracle"):
        applies = timed(f"{layer}.apply")
        m[f"{layer}.apply_s"] = per_round(idx.total(applies))
        m[f"{layer}.apply_calls"] = per_round(len(applies))
    solves = {layer: timed(f"{layer}.lanczos") for layer in ("mps", "oracle")}
    m["mps.apply_gflop"] = per_round(
        sum(spans[i].attrs["apply_flops"] * spans[i].attrs["iterations"] for i in solves["mps"])
    ) / 1e9
    m["oracle.lanczos_self_s"] = per_round(idx.self_total(solves["oracle"]))
    all_solves = solves["mps"] + solves["oracle"]
    iters = [spans[i].attrs["iterations"] for i in all_solves]
    m["lanczos.self_s"] = per_round(idx.self_total(all_solves))
    m["lanczos.calls"] = per_round(len(all_solves))
    m["lanczos.iters_mean"] = statistics.fmean(iters) if iters else 0.0
    m["lanczos.iters_max"] = max(iters, default=0)
    m["lanczos.unconverged"] = per_round(
        sum(not spans[i].attrs["converged"] for i in all_solves)
    )

    for metric, name in (
        ("mps.svd_s", "mps.svd"),
        ("mps.env_s", "mps.env"),
        ("mps.energy_s", "mps.energy"),
        ("mps.measure_s", "mps.measure"),
        ("oracle.measure_s", "oracle.measure"),
        ("convergence.evaluate_s", "convergence.evaluate"),
        ("cli.artifacts_s", "cli.artifacts"),
        ("budget.schedule_s", "budget.schedule"),
        ("costfit.fit_s", "costfit.fit"),
    ):
        m[metric] = per_round(idx.total(timed(name)))
    m["costfit.crossover_s"] = per_round(idx.self_total(timed("costfit.crossover")))

    steps = [spans[i] for i in timed("mps.step")]
    m["mps.step_self_s"] = per_round(idx.self_total(timed("mps.step")))
    m["mps.step_s"] = statistics.median(s.duration for s in steps) if steps else 0.0
    m["mps.step_1thread_s"] = step_1thread_s
    m["mps.selfreport_gap_frac"] = (
        statistics.median((s.duration - s.attrs["self_wall"]) / s.duration for s in steps)
        if steps
        else 0.0
    )
    chi = max((s.attrs["chi"] for s in steps), default=0)
    m["mps.chi_reached"] = chi
    m["mps.mem_bytes"] = max((s.attrs["mem_bytes"] for s in steps), default=0)
    m["mps.mem_model_bytes"] = memory_estimate(steps[0].attrs["n_sites"], chi).total if steps else 0.0
    m["mps.trunc_weight"] = per_round(sum(s.attrs["trunc"] for s in steps))

    for metric, name in (
        ("mps.setup_s", "mps.setup"),
        ("oracle.setup_s", "oracle.setup"),
        ("register.layout_s", "register.layout"),
    ):
        m[metric] = idx.total(idx.select(name, "setup"))

    for role in LAYOUT_ROLES:
        op = f"rearrange-{role}"
        plans = timed("register.plan", op)
        infeasible = [spans[i].attrs.get("error") == "NotEnoughAtoms" for i in plans]
        m[f"register.{role}.plan_s"] = per_round(idx.total(plans))
        m[f"register.{role}.plan_calls"] = per_round(len(plans))
        m[f"register.{role}.plans_per_trial"] = per_round(len(plans)) / trials if trials else 0.0
        m[f"register.{role}.trial_self_s"] = (
            per_round(idx.self_total(timed("register.mc", op))) / trials if trials else 0.0
        )
        # a trial needed a reload when its first load was infeasible: an
        # infeasible plan that follows a feasible one (or opens the call)
        m[f"register.{role}.infeasible_trials"] = per_round(
            sum(bad and (k == 0 or not infeasible[k - 1]) for k, bad in enumerate(infeasible))
        )

    traced_wall = statistics.median(
        spans[i].duration for i in idx.select("round", "timed")
    )
    m["trace.overhead_s"] = traced_wall - plain_wall_s
    m["trace.spans"] = len(spans)
    return {name: m[name] for name in UNITS}
