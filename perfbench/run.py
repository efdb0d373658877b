"""quench-bench benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tdvp-saturated --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # every workload at tiny sizes

The last line of stdout is the result,
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``,
with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  The line before it is a report: the environment
record, per-round timings (median, tail percentile, sample count) and any
failures.  ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("tdvp-saturated", "quench-validate", "qpu-budget")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups per untraced run; setup_s reports their median.
SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def pin_blas_threads() -> int:
    """Cap every BLAS thread variable at the usable CPU count; must run
    before numpy is imported.  Returns the OpenBLAS thread count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            requested = int(os.environ.get(var, nproc))
        except ValueError:
            requested = nproc
        os.environ[var] = str(max(1, min(requested, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program() -> float:
    """Import quench_bench from this checkout's ``src``; returns seconds."""
    if not (SRC / "quench_bench").is_dir():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import quench_bench.cli  # noqa: F401  (pulls in numpy, scipy, click and every layer)

    return time.perf_counter() - t0


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas_threads: int) -> dict:
    from importlib.metadata import version

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine_tag": f"{platform.machine()}-{nproc}cpu-" + "-".join(cpu.lower().split()),
        "cpu_model": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "blas_vendor": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
    }


def measure(workload, tracer, budget_s: float) -> list:
    """Repeat rounds while the next one is predicted to end within
    ``budget_s``; at least one round runs."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with tracer.span("round"):
            ops, timings = workload.run_round()
        rounds.append({"seconds": time.perf_counter() - t0, "ops": ops, "timings": timings})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["seconds"] for r in rounds) > budget_s:
            return rounds


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it
    (the 11th-largest value), when there are more than ten samples."""
    n = len(values)
    tail = sorted(values)[n - 11] if n > 10 else None
    tail_pct = 100.0 * (n - 10) / n if n > 10 else None
    return {"median": statistics.median(values), "n": n, "tail_pct": tail_pct, "tail": tail,
            "values": values}


def single_thread_sweep(seed: int, smoke: bool) -> float:
    """One ``tdvp-saturated`` sweep in a child process with one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", "tdvp-saturated",
           "--seed", str(seed), "--single-thread-sweep"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread sweep failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["step_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 import_s: float, blas_threads: int) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (result, report)."""
    from layers import UNITS as LAYER_UNITS, per_layer_metrics
    from spans import SolveCounter, SpanIndex, Tracer
    from workloads import WORKLOADS

    work = WORK_DIR / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    counter = SolveCounter()
    off, on = Tracer(enabled=False), Tracer(enabled=True)
    workload = WORKLOADS[name](seed, smoke, work, off, counter)

    def phase(tracer, fn):
        workload.tracer = tracer
        with tracer.installed(counter):
            return fn()

    def timed_setup():
        t0 = time.perf_counter()
        workload.setup()
        return time.perf_counter() - t0

    extra_ops: list = []
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "environment": environment(blas_threads), "import_s": import_s}
    try:
        if not trace:
            setups = phase(off, lambda: [timed_setup() for _ in range(SETUP_REPEATS)])
            rounds = phase(off, lambda: measure(workload, off, seconds))
            walls = [r["seconds"] for r in rounds]
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = E2E_UNITS
            plain = rounds
            report["setup_runs_s"] = setups
        else:
            def traced_setup():
                with on.span("setup"):
                    workload.setup()

            def traced_rounds():
                with on.span("timed"):
                    return measure(workload, on, seconds / 2)

            phase(on, traced_setup)
            plain = phase(off, lambda: measure(workload, off, seconds / 2))
            rounds = plain + phase(on, traced_rounds)
            step_1thread = 0.0
            if name == "tdvp-saturated":
                workload.tracer = off
                step_1thread = workload.op(
                    extra_ops, "single-thread-sweep", lambda: single_thread_sweep(seed, smoke)
                ) or 0.0
            spans_file = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
            SPANS_DIR.mkdir(exist_ok=True)
            on.write(spans_file)
            metrics = per_layer_metrics(
                SpanIndex(on.spans),
                n_rounds=len(rounds) - len(plain),
                trials=getattr(workload, "trials", 0),
                plain_wall_s=statistics.median(r["seconds"] for r in plain),
                step_1thread_s=step_1thread,
            )
            units = LAYER_UNITS
            report["traced_rounds"] = len(rounds) - len(plain)
            report["spans_file"] = str(spans_file.relative_to(ROOT))
            report["trace_missing"] = sorted(on.missing)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r["ops"]] + extra_ops
    failures = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
    # timings come from the rounds measured with tracing off
    timings: dict[str, list[float]] = {"wall_s": [r["seconds"] for r in plain]}
    for r in plain:
        for key, value in r["timings"].items():
            timings.setdefault(key, []).append(value)
    report.update(
        rounds=len(plain),
        timings={key: summarize(values) for key, values in timings.items()},
        fail_frac=len(failures) / len(ops),
        failures=failures[:20],
    )
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, every workload traced and not")
    parser.add_argument("--single-thread-sweep", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    blas_threads = pin_blas_threads()
    import_s = import_program()

    if args.single_thread_sweep:
        from spans import SolveCounter, Tracer
        from workloads import TdvpSaturated

        workload = TdvpSaturated(args.seed, args.smoke, WORK_DIR, Tracer(False), SolveCounter())
        workload.setup()
        ops, _ = workload.run_round()
        if ops[0].error is not None:
            raise SystemExit(f"perfbench: single-thread sweep failed: {ops[0].error}")
        print(json.dumps({"step_s": ops[0].seconds}))
        return 0

    if args.workload is not None:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                      args.smoke, import_s, blas_threads)
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0

    # smoke: every workload once untraced and once traced, one round each
    all_correct = True
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            result, report = run_workload(name, args.seed, 0.0, trace, True, import_s,
                                          blas_threads)
            all_correct = all_correct and result["correct"]
            print(json.dumps({"workload": name, "trace": int(trace), "result": result,
                              "failures": report["failures"]}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
