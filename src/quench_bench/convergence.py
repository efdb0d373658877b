"""Physically motivated convergence gates for classical quench simulations.

A run counts as converged when (1) the relative energy drift stays below 5%
and (2) the dihedral-symmetry error of the observable map stays below 40%.

The initial product state has exactly zero energy, so drift is normalized by
E_scale = N * Omega / 2, the magnitude of the driving term.  The symmetry
error uses the entrywise max-norm normalized by the observable's dynamic
range (max - min), which makes the 40% threshold scale-free.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig, MemoryBudgetExceeded
from .model import LatticeSpec, ObservableMap, QuenchParams, Trajectory

ENERGY_DRIFT_GATE = 0.05
D8_ERROR_GATE = 0.40

#: The dihedral group of the square; its first four elements are the
#: subgroup a rectangle keeps.
_SQUARE_GROUP = (
    lambda m: m,
    lambda m: np.rot90(m, 2),
    np.flipud,
    np.fliplr,
    lambda m: np.rot90(m, 1),
    lambda m: np.rot90(m, 3),
    lambda m: m.T,
    lambda m: np.rot90(m.T, 2),
)


@dataclass(frozen=True)
class ConvergenceVerdict:
    energy_drift_rel: float
    d8_error_rel: float
    passed: bool
    e_scale: float

    def as_dict(self) -> dict:
        return {**asdict(self), "norm_convention": "entrywise max-norm over observable range"}


@dataclass(frozen=True)
class ChiSearchResult:
    """Outcome of ``min_converged_chi``.

    ``chi_min`` is the first grid chi whose run passed (None if none did) and
    ``run_seconds`` the summed step wall seconds of that run.  ``verdicts``
    maps each chi whose run was judged to its verdict; a chi whose run raised
    MemoryBudgetExceeded has none.  ``cause`` is None on success, else
    "MemoryBudgetExceeded" when every run was refused and "NoChiPassed"
    otherwise.
    """

    chi_min: int | None
    run_seconds: float | None
    verdicts: dict  # chi -> ConvergenceVerdict
    cause: str | None = None

    @property
    def converged(self) -> bool:
        return self.chi_min is not None


def energy_scale(lattice: LatticeSpec, params: QuenchParams) -> float:
    """N * Omega / 2: the driving-term magnitude (E(0) is exactly zero)."""
    return lattice.n_sites * params.omega / 2.0


def energy_drift(energies, e_scale: float) -> float:
    """max_t |E(t) - E(0)| / e_scale over the trajectory."""
    if e_scale <= 0:
        raise InvalidConfig(f"E_scale must be positive, got {e_scale}")
    energies = np.asarray(list(energies), dtype=float)
    if len(energies) == 0:
        raise InvalidConfig("empty energy trajectory")
    return float(np.abs(energies - energies[0]).max() / e_scale)


def d8_error(obs: ObservableMap) -> float:
    """Maximal normalized deviation of the map from its dihedral images.

    Square maps use the full 8-element group of the square; rectangular maps
    the {identity, 180-degree rotation, horizontal flip, vertical flip}
    subgroup.  The max-norm deviation is normalized by the map's dynamic
    range, making the measure invariant under affine rescaling.

    Maps whose dynamic range is below 1e-6 (relative to the map magnitude for
    maps larger than unity) count as constant and return 0: at that level the
    range is pure integrator noise, orders of magnitude below anything a
    shot-budgeted measurement could resolve, and the ratio would compare
    noise against noise.
    """
    m = np.asarray(obs.values, dtype=float)
    value_range = float(m.max() - m.min())
    if value_range <= 1e-6 * max(1.0, float(np.abs(m).max())):
        return 0.0
    group = _SQUARE_GROUP if m.shape[0] == m.shape[1] else _SQUARE_GROUP[:4]
    return max(float(np.abs(m - g(m)).max()) for g in group) / value_range


def evaluate_run(result: Trajectory, params: QuenchParams) -> ConvergenceVerdict:
    """Verdict for a finished run: drift over the trajectory and symmetry
    error of the final observable map.  A run in which any Lanczos solve did
    not converge never passes; a non-positive energy scale (Omega <= 0)
    raises InvalidConfig."""
    e_scale = energy_scale(result.lattice, params)
    drift = energy_drift(result.energies, e_scale)
    sym = d8_error(result.maps[-1])
    passed = drift < ENERGY_DRIFT_GATE and sym < D8_ERROR_GATE and result.lanczos_converged
    return ConvergenceVerdict(
        energy_drift_rel=drift, d8_error_rel=sym, passed=passed, e_scale=e_scale
    )


def min_converged_chi(
    params: QuenchParams,
    chi_grid: list[int],
    run: Callable[[int], Trajectory],
) -> ChiSearchResult:
    """Smallest grid chi whose run passes the convergence verdict.

    Calls ``run(chi)`` for each grid chi in increasing order and judges the
    trajectory it returns; no chi after the first that passes is run.  The
    memory-budget check belongs to ``run``: a chi whose run raises
    MemoryBudgetExceeded is skipped.  Returns an unconverged result when every
    candidate fails or is refused.
    """
    if not chi_grid:
        raise InvalidConfig("empty chi grid")
    if any(b <= a for a, b in zip(chi_grid, chi_grid[1:])):
        raise InvalidConfig("chi grid must be strictly increasing")
    verdicts: dict[int, ConvergenceVerdict] = {}
    budget_blocked = 0

    for chi in chi_grid:
        try:
            result = run(chi)
        except MemoryBudgetExceeded:
            budget_blocked += 1
            continue
        verdict = evaluate_run(result, params)
        verdicts[chi] = verdict
        if verdict.passed:
            run_seconds = sum(r.wall_seconds for r in result.records)
            return ChiSearchResult(chi_min=chi, run_seconds=run_seconds, verdicts=verdicts)
    cause = "MemoryBudgetExceeded" if budget_blocked == len(chi_grid) else "NoChiPassed"
    return ChiSearchResult(chi_min=None, run_seconds=None, verdicts=verdicts, cause=cause)
