"""Exact dense-statevector time evolution for lattices of up to 16 sites.

Ground truth for MPS validation and convergence-gate calibration.  The
Hamiltonian is never materialized: its diagonal (interaction + detuning) part
is precomputed as a 2^N vector and the transverse drive is applied through
bit flips, so one application costs O(N 2^N).

Basis convention: bit k of the computational-basis index is the occupation of
snake site k, with 0 = ground state.  The initial product state |00...0> is
index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLargeForOracle
from .lanczos import expm_lanczos
from .model import InteractionMatrix, LatticeSpec, ObservableMap, QuenchParams, Trajectory

#: Largest lattice the dense oracle evolves.
N_MAX_DENSE = 16


@dataclass
class StateVector:
    """Dense state on N sites; amplitudes indexed by occupation bitmask."""

    amplitudes: np.ndarray
    n_sites: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class DenseHamiltonian:
    """Matrix-free H = sum V_ij n_i n_j + (Omega/2) sum sigma^x_i - Delta sum n_i."""

    def __init__(self, n_sites: int, v: np.ndarray, omega: float, delta: float):
        self.n_sites = n_sites
        self.omega = omega
        dim = 1 << n_sites
        diag = np.zeros(dim, dtype=float)
        # occupation table in chunks to bound the set-up's peak memory
        chunk = 1 << min(n_sites, 14)
        bits = np.arange(n_sites)
        for start in range(0, dim, chunk):
            idx = np.arange(start, min(start + chunk, dim), dtype=np.int64)
            occ = ((idx[:, None] >> bits[None, :]) & 1).astype(float)
            diag[start : start + len(idx)] = 0.5 * np.einsum(
                "ki,ij,kj->k", occ, v, occ
            ) - delta * occ.sum(axis=1)
        self.diagonal = diag

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.diagonal * psi
        tensor = psi.reshape((2,) * self.n_sites)
        for site in range(self.n_sites):
            axis = self.n_sites - 1 - site  # bit k of the index is axis N-1-k
            out += (0.5 * self.omega) * np.flip(tensor, axis=axis).reshape(-1)
        return out

    def expectation(self, psi: np.ndarray) -> float:
        return float(np.real(np.vdot(psi, self.apply(psi))))


def initial_state(n_sites: int) -> StateVector:
    amps = np.zeros(1 << n_sites, dtype=complex)
    amps[0] = 1.0
    return StateVector(amplitudes=amps, n_sites=n_sites)


def occupations(state: StateVector) -> np.ndarray:
    """Per-site <n_k> from the statevector."""
    prob = np.abs(state.amplitudes) ** 2
    idx = np.arange(len(prob), dtype=np.int64)
    return np.array(
        [float(prob[((idx >> k) & 1) == 1].sum()) for k in range(state.n_sites)]
    )


def evolve_exact(
    lattice: LatticeSpec,
    params: QuenchParams,
    v: InteractionMatrix,
    t: float,
    dt: float,
) -> Trajectory:
    """Evolve |00...0> under the quench Hamiltonian for time t in steps of dt.

    Each step applies exp(-i H dt) through an adaptive Lanczos expansion (at
    most 40 vectors, tolerance 1e-12); the per-site occupation map and <H>
    are recorded after every step.

    Raises:
        TooLargeForOracle: when N exceeds ``N_MAX_DENSE``.
    """
    n = lattice.n_sites
    if n > N_MAX_DENSE:
        raise TooLargeForOracle(f"N = {n} exceeds the dense oracle limit {N_MAX_DENSE}")
    if t < 0:
        raise ValueError("evolution time must be non-negative")

    ham = DenseHamiltonian(n, v.v, params.omega, params.delta)
    n_steps = int(round(t / dt)) if t > 0 else 0
    traj = Trajectory(lattice)
    state = initial_state(n)
    for step in range(n_steps + 1):
        if step > 0:
            result = expm_lanczos(ham.apply, state.amplitudes, -1j * dt, k_max=40, tol=1e-12)
            state = StateVector(amplitudes=result.vector, n_sites=n)
        traj.maps.append(
            ObservableMap.from_site_values(lattice, occupations(state), label="n", time=step * dt)
        )
        traj.energies.append(ham.expectation(state.amplitudes))
    traj.final_state = state
    return traj
