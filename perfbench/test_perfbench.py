"""Tests of the benchmark itself: smoke runs, metric names, corrupted outputs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from quench_bench import convergence, costfit, oracle, register  # noqa: E402
from quench_bench.mps import TdvpEngine  # noqa: E402

import run  # noqa: E402
from spans import SolveCounter, Span, SpanIndex, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_and_reports_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(x["workload"], x["trace"]) for x in lines] == [
        (w["name"], t) for w in BENCH["workloads"] for t in (0, 1)
    ]
    for line in lines:
        result = line["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        spec = BENCH["per_layer" if line["trace"] else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qpu-budget", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def one_round(name: str, work: Path, corrupt) -> list:
    """Set up a smoke-size workload, apply ``corrupt`` to it, run one round."""
    counter, tracer = SolveCounter(), Tracer(enabled=False)
    workload = WORKLOADS[name](3, True, work, tracer, counter)
    with tracer.installed(counter):
        workload.setup()
        corrupt(workload)
        ops, _ = workload.run_round()
    return ops


def errors(ops) -> list[str]:
    return [f"{op.name}: {op.error}" for op in ops if op.error is not None]


def test_clean_rounds_pass(tmp_path):
    for name in WORKLOADS:
        assert errors(one_round(name, tmp_path, lambda w: None)) == []


def test_energy_drift_fails_a_sweep(tmp_path, monkeypatch):
    energy = TdvpEngine.energy

    def corrupt(w):
        monkeypatch.setattr(TdvpEngine, "energy", lambda self: energy(self) + 0.01 * w.e_scale)

    assert errors(one_round("tdvp-saturated", tmp_path, corrupt)) == [
        "sweep: CheckFailed: energy drift 1.000e-02 of N*Omega/2 > 1e-05"
    ]


def test_unconverged_lanczos_fails_a_sweep(tmp_path):
    def corrupt(w):
        w.engine.k_max = 2

    (error,) = errors(one_round("tdvp-saturated", tmp_path, corrupt))
    assert "unconverged Lanczos solves" in error


def test_wrong_occupations_fail_the_quench_check(tmp_path, monkeypatch):
    occupations = oracle.occupations

    def corrupt(w):
        monkeypatch.setattr(oracle, "occupations", lambda state: occupations(state) + 0.01)

    (error,) = errors(one_round("quench-validate", tmp_path, corrupt))
    assert error.startswith("check-quench: CheckFailed: final-map max |dn|")


def test_failed_verdict_fails_the_quench_check(tmp_path, monkeypatch):
    def corrupt(w):
        monkeypatch.setattr(convergence, "ENERGY_DRIFT_GATE", -1.0)

    (error,) = errors(one_round("quench-validate", tmp_path, corrupt))
    assert "verdict did not pass" in error


def test_biased_analytic_model_fails_the_mc_check(tmp_path, monkeypatch):
    analytic = register.defect_free_analytic

    def corrupt(w):
        monkeypatch.setattr(register, "defect_free_analytic",
                            lambda counts, probs: 0.5 * analytic(counts, probs))

    found = errors(one_round("qpu-budget", tmp_path, corrupt))
    assert [e.split(":")[0] for e in found] == ["rearrange-half", "rearrange-quarter"]


def test_wrong_fit_fails_the_crossover_check(tmp_path, monkeypatch):
    fit_mps = costfit.fit_mps

    def corrupt(w):
        def doubled(samples):
            m = fit_mps(samples)
            return costfit.CostModelMPS(m.a, 2 * m.b, m.c, m.fit_residual, m.domain)

        monkeypatch.setattr(costfit, "fit_mps", doubled)

    (error,) = errors(one_round("qpu-budget", tmp_path, corrupt))
    assert error.startswith("crossover: CheckFailed: crossover N_time")


def test_self_time_subtracts_direct_children():
    spans = [Span("a", 0.0, -1, {}), Span("b", 1.0, 0, {}), Span("b", 2.0, 1, {}),
             Span("c", 5.0, 0, {})]
    for s, end in zip(spans, (10.0, 4.0, 3.0, 6.0)):
        s.end = end
    idx = SpanIndex(spans)
    assert idx.select("b", "a") == [1]  # the nested "b" is inside the outer one
    assert idx.total(idx.select("b")) == 3.0
    assert idx.self_total([0]) == 10.0 - 3.0 - 1.0
    assert idx.select("c", "missing") == []


@pytest.mark.parametrize("values, tail", [([1.0] * 10, None), (list(range(12)), 1)])
def test_tail_is_the_value_with_ten_samples_beyond_it(values, tail):
    summary = run.summarize(values)
    assert summary["n"] == len(values) and summary["tail"] == tail
