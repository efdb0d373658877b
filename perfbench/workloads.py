"""The three quench-bench workloads: set-up, one timed round, output checks.

Each workload drives the public API of ``quench_bench`` from outside: the
``mps``, ``oracle``, ``register``, ``budget``, ``costfit`` and
``convergence`` modules, and the ``cli`` commands called in-process.  A
round is the unit of work that is repeated and timed; every call in it is an
``Op`` whose failure (an exception, a failed output check or an unconverged
Lanczos solve) counts against ``fail_frac``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from quench_bench import budget, cli, config, convergence, costfit, model, oracle, register
from quench_bench.mps import TdvpEngine, build_mpo
from quench_bench.mps.state import product_all_ground, random_state

from spans import SolveCounter, Tracer

#: Largest |E(t) - E_ref| / (N Omega / 2) accepted over the timed sweeps of a
#: saturated state.  Truncation at the chi cap moves the energy by ~5e-8 of
#: the scale per sweep at 6x6, chi = 64.
ENERGY_DRIFT_TOL = 1e-5
#: Largest final-map |<n>_tdvp - <n>_exact| accepted on the validation quench.
MAP_DIFF_TOL = 1e-3
#: Monte Carlo seed of ``rearrange``.  Fixed rather than taken from --seed:
#: a 3-sigma comparison on fresh seeds fails ~0.3% of correct runs by chance.
MC_SEED = 0


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Op:
    """One attempted operation of a round; ``error`` is None when it passed."""

    name: str
    seconds: float
    error: str | None = None


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path, tracer: Tracer,
                 counter: SolveCounter):
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.tracer = tracer
        self.counter = counter

    def setup(self) -> None:
        """Build everything the rounds need; called several times per run."""
        raise NotImplementedError

    def run_round(self) -> tuple[list[Op], dict]:
        """One timed unit of work: its ops and named timings (seconds)."""
        raise NotImplementedError

    def op(self, ops: list[Op], name: str, fn):
        """Run ``fn`` as one op under a span of the same name."""
        unconverged = self.counter.unconverged
        t0 = time.perf_counter()
        result, error = None, None
        try:
            with self.tracer.span(name):
                result = fn()
        except (Exception, SystemExit) as exc:  # the CLI exits on its own errors
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if error is None and self.counter.unconverged > unconverged:
            error = f"{self.counter.unconverged - unconverged} unconverged Lanczos solves"
        ops.append(Op(name, seconds, error))
        return result


def invoke(args: list[str]) -> str:
    """Run one ``quench-bench`` command in-process and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main.main([str(a) for a in args], standalone_mode=False)
    return out.getvalue()


def _config(side: int, max_chi: int | None = None) -> dict:
    overrides = {"lattice": {"Lx": side, "Ly": side}, "mps": {"max_chi": max_chi}}
    return config.apply_overrides(config.load_config(None), overrides)


class TdvpSaturated(Workload):
    """Sustained TDVP sweeps on a random MPS saturated at the chi cap.

    Makes the calls of ``mps.benchmark_steps`` one by one, so set-up and each
    sweep are timed apart.  The MPS seed is 7 + --seed (seed 0 gives the
    ROADMAP baseline point).
    """

    name = "tdvp-saturated"

    def __init__(self, *args):
        super().__init__(*args)
        self.side, self.chi = (3, 8) if self.smoke else (6, 64)

    def setup(self) -> None:
        self.engine = None  # free the previous set-up's engine before building the next
        cfg = _config(self.side)
        with self.tracer.span("mps.setup"):
            lattice = config.lattice_from_config(cfg)
            params = config.params_from_config(cfg, lattice)
            mpo = build_mpo(lattice, params, model.interactions(lattice, params))
            state = random_state(lattice.n_sites, self.chi, np.random.default_rng(7 + self.seed))
            self.engine = TdvpEngine(state, mpo, max_chi=self.chi)
        self.dt = params.dt
        self.e_scale = convergence.energy_scale(lattice, params)
        # the warm-up sweep fills the merged-pair operator cache
        self.e_ref = self.engine.step(self.dt).energy

    def run_round(self):
        ops: list[Op] = []
        self.op(ops, "sweep", self._sweep)
        return ops, {"tdvp_step_s": ops[0].seconds}

    def _sweep(self):
        record = self.engine.step(self.dt)
        drift = abs(record.energy - self.e_ref) / self.e_scale
        if not drift <= ENERGY_DRIFT_TOL:
            raise CheckFailed(f"energy drift {drift:.3e} of N*Omega/2 > {ENERGY_DRIFT_TOL}")
        return record


class QuenchValidate(Workload):
    """``simulate tdvp`` against ``simulate exact`` on one quench from |0...0>."""

    name = "quench-validate"

    def __init__(self, *args):
        super().__init__(*args)
        self.side, self.chi, self.t_pulse, self.dt = (
            (3, 8, "4ns", "1ns") if self.smoke else (4, 32, "40ns", "1ns")
        )
        self.out = self.work_dir / "quench"

    def setup(self) -> None:
        cfg = _config(self.side, self.chi)
        lattice = config.lattice_from_config(cfg)
        params = config.params_from_config(cfg, lattice)
        cutoff = cfg["physics"]["cutoff_factor"] * params.spacing
        # the commands rebuild these in every round; building them here times
        # the layers' set-up on the workload's own sizes
        with self.tracer.span("mps.setup"):
            v = model.interactions(lattice, params, cutoff)
            mpo = build_mpo(lattice, params, v)
            TdvpEngine(product_all_ground(lattice.n_sites, self.chi), mpo, max_chi=self.chi)
        with self.tracer.span("oracle.setup"):
            oracle.DenseHamiltonian(lattice.n_sites, v.v, params.omega, params.delta)
        # warm-up: both commands once over two steps
        for kind in ("tdvp", "exact"):
            invoke(self._args(kind, "2ns"))

    def _args(self, kind: str, t_pulse: str) -> list:
        args = ["simulate", kind, "--size", f"{self.side}x{self.side}", "--t-pulse", t_pulse,
                "--dt", self.dt, "--out", self.out / kind, "--json"]
        return args + ["--max-chi", self.chi] if kind == "tdvp" else args

    def run_round(self):
        shutil.rmtree(self.out, ignore_errors=True)
        ops: list[Op] = []
        self.op(ops, "simulate-tdvp", lambda: invoke(self._args("tdvp", self.t_pulse)))
        self.op(ops, "simulate-exact", lambda: invoke(self._args("exact", self.t_pulse)))
        step_s = self.op(ops, "check-quench", self._check)
        timings = {"quench_s": ops[0].seconds, "exact_s": ops[1].seconds}
        if step_s is not None:
            timings["tdvp_step_s"] = step_s
        return ops, timings

    def _check(self) -> float:
        """Compare the two final maps and verdicts; return the self-reported
        seconds per TDVP step from timing.csv."""
        finals = {kind: final_map(self.out / kind / "trajectory.csv") for kind in ("tdvp", "exact")}
        times = {kind: t for kind, (t, _) in finals.items()}
        maps = {kind: values for kind, (_, values) in finals.items()}
        t_end = float(self.t_pulse.removesuffix("ns"))
        if not all(math.isclose(t, t_end) for t in times.values()) or (
            maps["tdvp"].keys() != maps["exact"].keys()
        ):
            raise CheckFailed(f"trajectories end at {times} ns or differ in sites, not {t_end} ns")
        diff = max(abs(maps["tdvp"][k] - maps["exact"][k]) for k in maps["exact"])
        if not diff <= MAP_DIFF_TOL:
            raise CheckFailed(f"final-map max |dn| = {diff:.3e} > {MAP_DIFF_TOL}")
        for kind in ("tdvp", "exact"):
            verdict = json.loads((self.out / kind / "verdict.json").read_text())["verdict"]
            if verdict["passed"] is not True:
                raise CheckFailed(f"simulate {kind} verdict did not pass: {verdict}")
        return costfit.read_timing_csv(self.out / "tdvp" / "timing.csv")[0].seconds_per_step


def final_map(path: Path) -> tuple[float, dict]:
    """Last time (ns) of a trajectory CSV and its (row, col) -> <n> map."""
    last_time, values = None, {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("time_ns"):
            continue
        t, row, col, n, _energy = line.split(",")
        if t != last_time:
            last_time, values = t, {}
        values[(int(row), int(col))] = float(n)
    if not values:
        raise CheckFailed(f"{path} holds no trajectory rows")
    return float(last_time), values


class QpuBudget(Workload):
    """``rearrange`` with and without reloads, then ``estimate crossover``."""

    name = "qpu-budget"
    chi = 1000

    def __init__(self, *args):
        super().__init__(*args)
        # (role, register atoms, traps): the roles are named in layers.LAYOUT_ROLES
        self.layouts = (
            (("half", 16, 32), ("quarter", 8, 32))
            if self.smoke
            else (("half", 100, 200), ("quarter", 50, 200))
        )
        self.trials = 200 if self.smoke else 4000
        self.samples = self.work_dir / "timing.csv"

    def setup(self) -> None:
        with self.tracer.span("register.layout"):
            for _, n_register, n_traps in self.layouts:
                register.trap_distances(register.make_layout(n_register, n_traps))
        self.expected = write_cost_samples(self.samples, self.seed, self.chi)
        for _, n_register, n_traps in self.layouts:
            invoke(self._rearrange_args(n_register, n_traps, trials=10))
        invoke(self._crossover_args())

    def _rearrange_args(self, n_register: int, n_traps: int, trials: int) -> list:
        return ["rearrange", "--register-size", n_register, "--n-traps", n_traps,
                "--trials", trials, "--seed", MC_SEED, "--json"]

    def _crossover_args(self) -> list:
        return ["estimate", "crossover", "--samples", self.samples, "--chi", self.chi, "--json"]

    def run_round(self):
        ops: list[Op] = []
        for role, n_register, n_traps in self.layouts:
            args = self._rearrange_args(n_register, n_traps, self.trials)
            self.op(ops, f"rearrange-{role}", lambda args=args: check_mc(json.loads(invoke(args))))
        self.op(ops, "crossover", self._crossover)
        mc_seconds = sum(op.seconds for op in ops[:-1])
        return ops, {"mc_trials_per_s": len(self.layouts) * self.trials / mc_seconds,
                     "crossover_s": ops[-1].seconds}

    def _crossover(self) -> None:
        got = json.loads(invoke(self._crossover_args()))
        for key, want in self.expected.items():
            value = got[key]
            if (value is None) != (want is None) or (
                want is not None and not math.isclose(value, want, rel_tol=1e-9)
            ):
                raise CheckFailed(f"crossover {key} = {value}, expected {want}")


def check_mc(payload: dict) -> None:
    """The MC estimate must sit within 3 sigma of the analytic value at its
    own mean event counts."""
    p_hat, sigma = payload["p_hat"], payload["std_err"]
    analytic = payload["analytic_at_mean_counts"]
    if analytic is None or not abs(p_hat - analytic) <= 3 * sigma:
        raise CheckFailed(f"MC p_hat {p_hat} +- {sigma} vs analytic {analytic}")


def write_cost_samples(path: Path, seed: int, chi: int) -> dict:
    """Write noiseless per-step timings of a seeded cost law to ``path``.

    Returns the crossover the CLI must report for them: the crossover of the
    generating law itself, which a correct read -> fit -> extrapolate chain
    reproduces.  At the default 400 steps the b range puts the classical run
    at 0.35-0.9 of the QPU time at N = 25, so the time crossover lies inside
    the default sweep.
    """
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-5.0, -4.0)
    b = 10.0 ** rng.uniform(math.log10(1.6e-11), math.log10(4e-11))
    c = b * rng.uniform(5.0, 20.0)
    points = [(n, x) for n in (9, 16, 25, 36) for x in (8, 16, 32, 64)]
    with open(path, "w") as fh:
        fh.write("N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n")
        for n, x in points:
            fh.write(f"{n},{x},1.0,{a + b * n**1.5 * x**3 + c * n**2 * x**2!r},synthetic,1\n")

    cfg = config.load_config(None)
    law = costfit.CostModelMPS(a=a, b=b, c=c, fit_residual=0.0,
                               domain={"n_min": 9, "n_max": 36, "chi_min": 8, "chi_max": 64})
    t_pulse = cfg["quench"]["t_pulse_ns"] * 1e-9
    dt = cfg["quench"]["dt_ns"] * 1e-9
    probs = register.DefectProbabilities(
        **{k: cfg["register"][k] for k in ("p_transf", "p_pickup", "p_acci", "p_loss")}
    )
    b_cfg = cfg["budget"]

    def classical(n):
        return costfit.extrapolate(law, n, chi, t_pulse, dt, costfit.DEFAULT_GPU_POWER_WATTS)

    def qpu(n):
        return budget.qpu_schedule(n, probs, alpha=b_cfg["alpha"], confidence=b_cfg["confidence"],
                                   shot_rate=b_cfg["shot_rate_hz"],
                                   qpu_power_watts=b_cfg["qpu_power_kw"] * 1e3)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sweep extrapolates by design
        result = costfit.crossover(classical, qpu, list(range(25, 626, 25)))
    return {
        "N_time": result.n_time,
        "N_energy": result.n_energy,
        "at_boundary_time": result.at_boundary_time,
        "at_boundary_energy": result.at_boundary_energy,
    }


WORKLOADS = {w.name: w for w in (TdvpSaturated, QuenchValidate, QpuBudget)}
