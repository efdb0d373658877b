"""Square-lattice geometry, snake ordering and quench-Hamiltonian parameters.

The Hamiltonian simulated everywhere in this package is

    H = sum_{i<j} V_ij n_i n_j + (Omega/2) sum_i sigma_i^x - Delta sum_i n_i

with n = (1 + sigma^z)/2 the projector onto the excited (Rydberg) state and
van der Waals couplings V_ij = C6 / |r_i - r_j|^6.  This module owns the
geometry and the parameter set; it performs no dynamics.

All frequencies are angular (rad/s), lengths are micrometers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidConfig
from .units import TWO_PI

if TYPE_CHECKING:
    from .mps.evolve import TdvpStepRecord

#: Default interaction coefficient, 2*pi * 138 GHz um^6 (a standard 60S
#: Rydberg value).  All observables produced by this package depend only on
#: ratios fixed by h_x, so results are invariant under rescaling C6.
DEFAULT_C6 = TWO_PI * 138e9

#: Default interaction cutoff in units of the lattice spacing.  3.01 keeps
#: every coupling up to three lattice rows away (axial distance 3R), which is
#: what reproduces the observed MPO bond-profile maximum of ~3*sqrt(N) + 2 on
#: square lattices; the next shell starts at sqrt(10) R ~ 3.16 R.
DEFAULT_CUTOFF_FACTOR = 3.01


@dataclass(frozen=True)
class LatticeSpec:
    """A snake-ordered Lx x Ly square lattice with spacing ``spacing`` (um).

    Snake order starts at the bottom-left corner, traverses row 0 rightward,
    row 1 leftward, and so on.  ``positions[k]`` is the (x, y) coordinate of
    snake site k; ``rowcol[k]`` is its (row, col) pair.
    """

    lx: int
    ly: int
    spacing: float
    positions: np.ndarray  # (N, 2) um, snake order
    rowcol: np.ndarray  # (N, 2) ints, snake order

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    def central_site(self) -> int:
        """Site closest to the centroid; ties broken by smallest snake index."""
        centroid = self.positions.mean(axis=0)
        d2 = np.sum((self.positions - centroid) ** 2, axis=1)
        return int(np.argmin(d2))  # argmin returns the first (smallest) index on ties


@dataclass(frozen=True)
class QuenchParams:
    """Physical parameters of the constant-Hamiltonian quench.

    Invariants (enforced by ``derive_quench``):
      * spacing R = (c6 * h_x / (2 omega))**(1/6)
      * energy scale J = c6 / (4 R^6) = omega / (2 h_x)
      * delta = 0.5 * sum_j V(central, j) over the full (uncut) lattice
    """

    omega: float  # rad/s
    delta: float  # rad/s
    c6: float  # rad um^6 / s
    h_x: float  # dimensionless transverse-field ratio
    spacing: float  # um
    j_scale: float  # rad/s
    t_pulse: float  # s
    dt: float  # s


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric pairwise coupling matrix with a hard distance cutoff."""

    v: np.ndarray  # (N, N) rad/s, zero diagonal


@dataclass
class ObservableMap:
    """Per-site expectation values arranged on the lattice.

    ``values[row, col]`` holds the observable at lattice coordinate
    (row, col); shape is (Ly, Lx).
    """

    values: np.ndarray
    time: float = 0.0


@dataclass
class Trajectory:
    """Time series of one quench run, from either backend.

    ``maps[i]`` (taken at ``maps[i].time``) and ``energies[i]`` belong
    together; index 0 is the initial state.  ``records`` holds the per-step
    TDVP records (empty for the exact backend); ``final_state`` holds the
    exact backend's final 2^N amplitudes (None for TDVP).
    ``lanczos_converged`` is false when any Lanczos solve of the run stopped
    at its basis cap instead of meeting its tolerance.
    """

    lattice: LatticeSpec
    maps: list[ObservableMap] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    records: list[TdvpStepRecord] = field(default_factory=list)
    final_state: np.ndarray | None = None
    lanczos_converged: bool = True

    def record(self, site_values: np.ndarray, energy: float, time: float) -> None:
        """Append the per-site values, in snake order, as a lattice map taken
        at ``time``, and the energy that belongs with it."""
        grid = np.empty((self.lattice.ly, self.lattice.lx), dtype=float)
        grid[self.lattice.rowcol[:, 0], self.lattice.rowcol[:, 1]] = site_values
        self.maps.append(ObservableMap(values=grid, time=time))
        self.energies.append(energy)


def step_count(t_pulse: float, dt: float) -> int:
    """Number of steps of length dt that make up t_pulse (seconds).

    Raises:
        InvalidConfig: when t_pulse is negative or not finite, when dt is not
            finite and positive, or when t_pulse/dt is not within 1e-9
            relative of a whole number, since the run would then stop short
            of or past the pulse.
    """
    if not 0.0 <= t_pulse < math.inf:
        raise InvalidConfig(f"t_pulse must be finite and non-negative, got {t_pulse * 1e9:.10g} ns")
    if not 0.0 < dt < math.inf:
        raise InvalidConfig(f"dt must be finite and positive, got {dt * 1e9:.10g} ns")
    ratio = t_pulse / dt
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * abs(ratio):
        raise InvalidConfig(
            f"t_pulse = {t_pulse * 1e9:.10g} ns is not a whole number of "
            f"dt = {dt * 1e9:.10g} ns steps"
        )
    return n_steps


def write_trajectory_csv(traj: Trajectory, path, header: str) -> None:
    """Tidy CSV after a ``# header`` comment line, with columns time_ns,
    site_row, site_col, n_expect, energy."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\ntime_ns,site_row,site_col,n_expect,energy\n")
        for omap, energy in zip(traj.maps, traj.energies):
            n_rows, n_cols = omap.values.shape
            for row in range(n_rows):
                for col in range(n_cols):
                    fh.write(
                        f"{omap.time * 1e9!r},{row},{col},"
                        f"{float(omap.values[row, col])!r},{energy!r}\n"
                    )


def build_lattice(lx: int, ly: int, spacing: float) -> LatticeSpec:
    """Build a snake-ordered square lattice.

    Site k sits at snake position k: row k // Lx, column k % Lx on even rows
    and Lx - 1 - (k % Lx) on odd rows.
    """
    if lx < 1 or ly < 1:
        raise InvalidConfig(f"lattice dimensions must be >= 1, got {lx}x{ly}")
    if spacing <= 0:
        raise InvalidConfig(f"lattice spacing must be positive, got {spacing}")
    n = lx * ly
    rowcol = np.empty((n, 2), dtype=int)
    positions = np.empty((n, 2), dtype=float)
    for k in range(n):
        row = k // lx
        col = k % lx if row % 2 == 0 else lx - 1 - (k % lx)
        rowcol[k] = (row, col)
        positions[k] = (col * spacing, row * spacing)
    return LatticeSpec(lx=lx, ly=ly, spacing=spacing, positions=positions, rowcol=rowcol)


def derive_quench(
    omega: float,
    h_x: float,
    c6: float,
    lattice: LatticeSpec,
    t_pulse: float,
    dt: float,
) -> QuenchParams:
    """Derive the dependent quench parameters (R, J, delta) from (omega, h_x, c6).

    The detuning delta is half the total interaction energy of the central
    site with every other site of the full lattice (no cutoff).
    """
    if lattice.n_sites < 1:
        raise InvalidConfig("lattice is empty")
    spacing = quench_spacing(omega, h_x, c6)
    if not math.isclose(spacing, lattice.spacing, rel_tol=1e-9):
        raise InvalidConfig(
            f"lattice spacing {lattice.spacing} um does not match the quench "
            f"condition R = (c6 h_x / 2 omega)^(1/6) = {spacing} um"
        )
    j_scale = c6 / (4.0 * spacing**6)
    center = lattice.central_site()
    dist = np.linalg.norm(lattice.positions - lattice.positions[center], axis=1)
    dist[center] = np.inf
    delta = 0.5 * float(np.sum(c6 / dist**6))
    return QuenchParams(
        omega=omega,
        delta=delta,
        c6=c6,
        h_x=h_x,
        spacing=spacing,
        j_scale=j_scale,
        t_pulse=t_pulse,
        dt=dt,
    )


def quench_spacing(omega: float, h_x: float, c6: float) -> float:
    """The lattice spacing R = (c6 h_x / 2 omega)^(1/6) of the quench condition."""
    if not all(0.0 < x < math.inf for x in (omega, h_x, c6)):
        raise InvalidConfig(
            f"omega, h_x and c6 must be finite and positive, got {omega}, {h_x}, {c6}"
        )
    return (c6 * h_x / (2.0 * omega)) ** (1.0 / 6.0)


def lattice_for_quench(
    lx: int, ly: int, omega: float, h_x: float, c6: float = DEFAULT_C6
) -> LatticeSpec:
    """Convenience: build the lattice at the spacing the quench condition fixes."""
    return build_lattice(lx, ly, quench_spacing(omega, h_x, c6))


def interactions(
    lattice: LatticeSpec, params: QuenchParams, cutoff: float | None = None
) -> InteractionMatrix:
    """Pairwise couplings V_ij = c6 / r_ij^6 for r_ij <= cutoff, else zero.

    ``cutoff`` defaults to DEFAULT_CUTOFF_FACTOR * R.  A cutoff that is not
    at least the lattice spacing (NaN included) would remove nearest-neighbor
    couplings entirely and is rejected.
    """
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF_FACTOR * params.spacing
    if not cutoff >= params.spacing:
        raise InvalidConfig(
            f"cutoff {cutoff} um is not at least the lattice spacing {params.spacing} um"
        )
    delta_r = lattice.positions[:, None, :] - lattice.positions[None, :, :]
    dist = np.linalg.norm(delta_r, axis=2)
    np.fill_diagonal(dist, np.inf)
    # relative epsilon so a shell sitting exactly at the cutoff is kept
    # despite floating-point rounding of the pair distances
    v = np.where(dist <= cutoff * (1.0 + 1e-9), params.c6 / dist**6, 0.0)
    np.fill_diagonal(v, 0.0)
    return InteractionMatrix(v=v)
