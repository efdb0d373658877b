"""Run-time scaling-law fits, large-(N, chi) extrapolation and QPU crossover.

Per-step MPS cost is fitted as t(N, chi) = a + b N^{3/2} chi^3 + c N^2 chi^2
and the NQS cost as t(N) = a_q N + b_q N^2 + c_q N^3, both by non-negative
least squares (run times cannot have negative components).  Because samples
span orders of magnitude, rows are weighted by 1/t so the fit
minimizes relative rather than absolute residuals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import combinations

import numpy as np

from .config import read_text
from .errors import InvalidConfig, UnderdeterminedFit
from .model import step_count
from .mps import memory_estimate
from .units import watt_seconds_to_kwh

#: Flat GPU power draw assumed for classical energy projections (maximum
#: rated consumption under sustained load); override with a measured power log.
DEFAULT_GPU_POWER_WATTS = 400.0


@dataclass(frozen=True)
class RuntimeSample:
    n: int
    chi: int  # 0 marks NQS rows
    seconds_per_step: float
    hardware_tag: str = "cpu"
    n_workers: int = 1

    @property
    def method(self) -> str:
        return "NQS" if self.chi == 0 else "MPS"

    def __post_init__(self):
        if self.n < 1 or self.chi < 0 or self.n_workers < 1:
            raise InvalidConfig(
                f"need N >= 1, chi >= 0 and n_workers >= 1, got "
                f"N={self.n}, chi={self.chi}, n_workers={self.n_workers}"
            )
        if not 0 < self.seconds_per_step < math.inf:
            raise InvalidConfig(
                f"seconds_per_step must be positive and finite, got {self.seconds_per_step}"
            )


class _CostLaw:
    """JSON form of both cost laws: every field, with ``fit_residual`` (the
    relative RMS residual) named ``residual_relative_rms``."""

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["residual_relative_rms"] = payload.pop("fit_residual")
        return payload


@dataclass(frozen=True)
class CostModelMPS(_CostLaw):
    a: float
    b: float
    c: float
    fit_residual: float  # relative RMS
    domain: dict

    def predict(self, n: float, chi: float) -> float:
        return self.a + self.b * n**1.5 * chi**3 + self.c * n**2 * chi**2


@dataclass(frozen=True)
class CostModelNQS(_CostLaw):
    a_q: float
    b_q: float
    c_q: float
    fit_residual: float
    domain: dict

    def predict(self, n: float, chi: float = 0) -> float:
        return self.a_q * n + self.b_q * n**2 + self.c_q * n**3


@dataclass(frozen=True)
class ResourceReport:
    method: str
    n: int
    chi: int
    t_pulse: float
    n_steps: int
    seconds_per_step: float
    total_seconds: float
    memory_bytes: float | None
    energy_kwh: float
    power_watts: float
    extrapolated: bool  # (N, chi) lies outside the fitted sample domain

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["N"], payload["t_pulse_s"] = payload.pop("n"), payload.pop("t_pulse")
        return payload


@dataclass(frozen=True)
class CrossoverResult:
    n_time: float | None
    n_energy: float | None
    at_boundary_time: bool = False
    at_boundary_energy: bool = False


def _nnls(a_mat, b_vec):
    """argmin ||a_mat x - b_vec|| over x >= 0, exactly, for a full-rank matrix
    of a few columns.  The optimum is the unconstrained least-squares fit on
    its own support, so it is the best of the fits on the column subsets whose
    coefficients are all >= 0 (x = 0 when none is)."""
    n_cols = a_mat.shape[1]
    best, best_norm = np.zeros(n_cols), np.linalg.norm(b_vec)
    for size in range(1, n_cols + 1):
        for cols in map(list, combinations(range(n_cols), size)):
            x = np.linalg.lstsq(a_mat[:, cols], b_vec, rcond=None)[0]
            if np.all(x >= 0.0):
                norm = np.linalg.norm(a_mat[:, cols] @ x - b_vec)
                if norm < best_norm:
                    best, best_norm = np.zeros(n_cols), norm
                    best[cols] = x
    return best


def _nnls_fit(samples, basis_fn):
    times = np.array([s.seconds_per_step for s in samples], dtype=float)
    design = np.array([basis_fn(s) for s in samples], dtype=float)
    if len(samples) < 4:
        raise UnderdeterminedFit(f"need at least 4 samples, got {len(samples)}")
    if len({(s.n, s.chi) for s in samples}) < 2:
        raise UnderdeterminedFit("all samples share one (N, chi) point")
    weights = 1.0 / times
    a_mat = design * weights[:, None]
    b_vec = times * weights
    if np.linalg.matrix_rank(a_mat) < design.shape[1]:
        raise UnderdeterminedFit("design matrix is rank-deficient for the sampled (N, chi)")
    coeffs = _nnls(a_mat, b_vec)
    pred = design @ coeffs
    residual = float(np.sqrt(np.mean(((pred - times) / times) ** 2)))
    return coeffs, residual


def fit_mps(samples: list[RuntimeSample]) -> CostModelMPS:
    """Fit t(N, chi) = a + b N^{3/2} chi^3 + c N^2 chi^2 over MPS samples.

    Samples should span at least two distinct N and two distinct chi for the
    surface terms to be identifiable; degenerate designs raise
    UnderdeterminedFit.
    """
    coeffs, residual = _nnls_fit(
        samples, lambda s: (1.0, s.n**1.5 * s.chi**3, s.n**2 * s.chi**2)
    )
    return CostModelMPS(
        a=float(coeffs[0]),
        b=float(coeffs[1]),
        c=float(coeffs[2]),
        fit_residual=residual,
        domain=_domain(samples),
    )


def fit_nqs(samples: list[RuntimeSample]) -> CostModelNQS:
    """Fit t(N) = a_q N + b_q N^2 + c_q N^3 over NQS samples.

    The per-step seconds are divided by the GPU worker count first (run time
    scales down roughly linearly with GPUs).
    """
    samples = [
        replace(s, seconds_per_step=s.seconds_per_step / s.n_workers, n_workers=1)
        for s in samples
    ]
    coeffs, residual = _nnls_fit(
        samples, lambda s: (float(s.n), float(s.n) ** 2, float(s.n) ** 3)
    )
    return CostModelNQS(
        a_q=float(coeffs[0]),
        b_q=float(coeffs[1]),
        c_q=float(coeffs[2]),
        fit_residual=residual,
        domain=_domain(samples),
    )


def _domain(samples) -> dict:
    return {
        "n_min": min(s.n for s in samples),
        "n_max": max(s.n for s in samples),
        "chi_min": min(s.chi for s in samples),
        "chi_max": max(s.chi for s in samples),
    }


def extrapolate(
    model,
    n: int,
    chi: int,
    t_pulse: float,
    dt: float,
    power_watts: float = DEFAULT_GPU_POWER_WATTS,
) -> ResourceReport:
    """Project total run time, memory and energy for one quench simulation.

    The report's ``extrapolated`` flag is set when (N, chi) falls outside the
    fitted sample domain.  Memory follows the closed-form MPS model; NQS
    reports carry no memory figure.  N below 1, or an (N, chi) whose time or
    energy is not a finite float, raises InvalidConfig.
    """
    if n < 1:
        raise InvalidConfig(f"N must be >= 1, got {n}")
    dom = model.domain
    inside = dom["n_min"] <= n <= dom["n_max"] and dom["chi_min"] <= chi <= dom["chi_max"]
    n_steps = step_count(t_pulse, dt)
    try:
        per_step = float(model.predict(n, chi))
    except OverflowError:  # an int power of N or chi beyond the float range
        per_step = math.inf
    total = n_steps * per_step
    energy = watt_seconds_to_kwh(power_watts, total)
    if not (math.isfinite(total) and math.isfinite(energy)):
        raise InvalidConfig(f"N={n}, chi={chi} projects a cost beyond the float range")
    is_mps = isinstance(model, CostModelMPS)
    memory = memory_estimate(n, chi).total if is_mps else None
    return ResourceReport(
        method="MPS" if is_mps else "NQS",
        n=n,
        chi=chi,
        t_pulse=t_pulse,
        n_steps=n_steps,
        seconds_per_step=per_step,
        total_seconds=total,
        memory_bytes=memory,
        energy_kwh=energy,
        power_watts=power_watts,
        extrapolated=not inside,
    )


def crossover(classical_fn, qpu_fn, n_sweep: list[int]) -> CrossoverResult:
    """Smallest N where the QPU undercuts the classical projection.

    ``classical_fn(N) -> ResourceReport`` and ``qpu_fn(N) -> QpuSchedule`` are
    evaluated over the sweep; separate crossover points are located for total
    time and for energy, log-interpolated between grid points.  ``None`` means
    the QPU never wins inside the sweep; a crossover flagged ``at_boundary``
    sits at the first grid point (the true crossing is at or below it).
    """
    if not n_sweep:
        raise InvalidConfig("empty N sweep")
    n_sweep = sorted(n_sweep)
    cl_time, cl_energy, q_time, q_energy = [], [], [], []
    for n in n_sweep:
        report = classical_fn(n)
        schedule = qpu_fn(n)
        cl_time.append(report.total_seconds)
        cl_energy.append(report.energy_kwh)
        q_time.append(schedule.budget.wall_seconds)
        q_energy.append(schedule.energy_kwh)

    def locate(classical, qpu):
        wins = [q < c for q, c in zip(qpu, classical)]
        if not any(wins):
            return None, False
        first = wins.index(True)
        if first == 0:
            return float(n_sweep[0]), True
        # log-interpolate the root of log(classical) - log(qpu) in [first-1, first]
        n0, n1 = n_sweep[first - 1], n_sweep[first]
        f0 = math.log(classical[first - 1]) - math.log(qpu[first - 1])
        f1 = math.log(classical[first]) - math.log(qpu[first])
        if f1 == f0:
            return float(n1), False
        frac = -f0 / (f1 - f0)
        return float(n0 + frac * (n1 - n0)), False

    n_time, b_time = locate(cl_time, q_time)
    n_energy, b_energy = locate(cl_energy, q_energy)
    return CrossoverResult(
        n_time=n_time,
        n_energy=n_energy,
        at_boundary_time=b_time,
        at_boundary_energy=b_energy,
    )


# ---------------------------------------------------------------------------
# file interfaces
# ---------------------------------------------------------------------------

def step_sample(n_sites: int, records, hardware_tag: str = "cpu") -> RuntimeSample:
    """One timing sample from the step records of a TDVP run: the mean wall
    seconds per step, labelled with the largest bond dimension reached."""
    return RuntimeSample(
        n=n_sites,
        chi=max(r.max_chi_used for r in records),
        seconds_per_step=float(np.mean([r.wall_seconds for r in records])),
        hardware_tag=hardware_tag,
    )


def write_timing_csv(path, samples: list[RuntimeSample], dt: float, header: str) -> None:
    """Write a fresh timing CSV: the ``# header`` comment line, the column
    names and one row per sample, all at step ``dt`` (seconds)."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\nN,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n")
        for s in samples:
            fh.write(
                f"{s.n},{s.chi},{dt * 1e9!r},{s.seconds_per_step!r},{s.hardware_tag},"
                f"{s.n_workers}\n"
            )


def read_timing_csv(path) -> list[RuntimeSample]:
    """Read the timing CSV (N, chi, dt_ns, seconds_per_step, hardware_tag,
    n_workers); chi = 0 rows are NQS samples.  ``dt_ns`` must be positive and
    finite, and the same in every row: the fits pool all rows as the cost of
    one step length.  A bad row, or a file ``config.read_text`` refuses,
    raises InvalidConfig naming the file (and the line)."""
    samples = []
    first_dt = None
    for lineno, line in enumerate(read_text(path, "timing CSV").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("N,"):
            continue
        try:
            n, chi, dt_ns, sec, tag, workers = line.split(",")
            if not 0 < float(dt_ns) < math.inf:
                raise ValueError(f"dt_ns must be positive and finite, got {dt_ns}")
            if first_dt is None:
                first_dt = dt_ns
            elif float(dt_ns) != float(first_dt):
                raise ValueError(f"dt_ns {dt_ns} differs from the first row's {first_dt}")
            samples.append(
                RuntimeSample(
                    n=int(n),
                    chi=int(chi),
                    seconds_per_step=float(sec),
                    hardware_tag=tag,
                    n_workers=int(workers),
                )
            )
        except ValueError as exc:
            raise InvalidConfig(f"timing CSV {path}, line {lineno}: {exc}") from None
    return samples


def mean_power_from_log(path) -> float:
    """Mean watts from a power-log CSV (timestamp_iso8601, watts).

    A row without a finite, nonnegative watts column, a log without any
    sample row, or a file ``config.read_text`` refuses, raises InvalidConfig
    naming the file (and the line).
    """
    watts = []
    for lineno, line in enumerate(read_text(path, "power log").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("timestamp"):
            continue
        fields = line.split(",")
        try:
            value = float(fields[1])
        except (IndexError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidConfig(
                f"power log {path}, line {lineno}: expected 'timestamp,watts' "
                f"with finite nonnegative watts, got {line!r}"
            )
        watts.append(value)
    if not watts:
        raise InvalidConfig(f"power log {path} contains no samples")
    return float(np.mean(watts))


def format_resource_report(report: ResourceReport) -> str:
    """Aligned text table with Mem / Time / Energy columns for one report."""
    from .units import format_bytes, format_duration

    method = f"MPS (chi={report.chi})" if report.method == "MPS" else report.method
    mem = format_bytes(report.memory_bytes) if report.memory_bytes else "-"
    sub = f"{'':<24}| {'Mem':>9} {'Time':>9} {'Energy':>9} "
    return "\n".join([
        f"{'Method':<24}| {f'N={report.n}':^30}",
        sub,
        "-" * len(sub),
        f"{method:<24}| {mem:>9} {format_duration(report.total_seconds):>9} "
        f"{report.energy_kwh:>6.3g} kWh",
    ])
