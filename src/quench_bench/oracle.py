"""Exact dense-statevector time evolution for lattices of up to 16 sites.

Ground truth for MPS validation and convergence-gate calibration.  The
Hamiltonian is never materialized: its diagonal (interaction + detuning) part
is precomputed as a 2^N vector and the transverse drive is applied as one
in-place half-swap per bit, so one application costs O(N 2^N) and allocates
two 2^N vectors whatever N is.  Time stepping reuses one Krylov space for as
many output times as it resolves, so the propagator holds at most 40 vectors
of 2^N amplitudes (real in the first space, which starts from the real
|00...0>) besides the one state being recorded.

Basis convention: bit k of the computational-basis index is the occupation of
snake site k, with 0 = ground state.  The initial product state |00...0> is
index 0.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLargeForOracle
from .lanczos import expm_lanczos
from .model import LatticeSpec, QuenchParams, Trajectory, interactions, step_count

#: Largest lattice the dense oracle evolves.
N_MAX_DENSE = 16


class DenseHamiltonian:
    """Matrix-free H = sum V_ij n_i n_j + (Omega/2) sum sigma^x_i - Delta sum n_i.

    ``apply`` scales psi by Omega/2 once, then adds sigma^x_k of it for each
    bit k in turn as an in-place half-swap: flipping bit k exchanges the two
    halves of every (2, 2^k) block of the index.
    """

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
        drive = (0.5 * self.omega) * psi
        for k in range(self.n_sites):
            blocks = out.reshape(-1, 2, 1 << k)  # a view: the sum lands in out
            blocks += drive.reshape(-1, 2, 1 << k)[:, ::-1, :]
        return out

    def expectation(self, psi: np.ndarray) -> float:
        return float(np.real(np.vdot(psi, self.apply(psi))))


def occupations(psi: np.ndarray) -> np.ndarray:
    """Per-site <n_k> from the 2^N amplitudes psi."""
    prob = np.abs(psi) ** 2
    n_sites = len(prob).bit_length() - 1
    # the copy keeps the amplitudes with bit k set in index order, so the
    # pairwise sum adds them exactly as a boolean-mask selection would
    return np.array(
        [prob.reshape(-1, 2, 1 << k)[:, 1, :].ravel().sum() for k in range(n_sites)]
    )


def evolve_exact(
    lattice: LatticeSpec, params: QuenchParams, cutoff: float | None = None
) -> Trajectory:
    """Evolve |00...0> under the quench Hamiltonian for ``params.t_pulse`` in
    steps of ``params.dt``, with the couplings of ``model.interactions`` at
    ``cutoff`` (um), which are built only once the size check has passed.

    One Lanczos space (at most 40 vectors, tolerance 1e-12 on every step)
    gives exp(-i H j dt) psi for every step j it resolves; the next space
    starts from the last of them.  The per-site occupation map and <H> (a
    Hamiltonian apply on the state, not the Krylov projection) are recorded
    after every step, forming one state at a time.  The trajectory's
    ``lanczos_converged`` is false when a space of 40 vectors did not
    resolve even its first step.

    Raises:
        TooLargeForOracle: when N exceeds ``N_MAX_DENSE``.
        InvalidConfig: from ``model.step_count``, when the pulse or the
            step is invalid or the pulse is not a whole number of steps.
    """
    n = lattice.n_sites
    if n > N_MAX_DENSE:
        raise TooLargeForOracle(f"N = {n} exceeds the dense oracle limit {N_MAX_DENSE}")

    dt = params.dt
    n_steps = step_count(params.t_pulse, dt)
    v = interactions(lattice, params, cutoff)
    ham = DenseHamiltonian(n, v.v, params.omega, params.delta)
    traj = Trajectory(lattice)
    psi = np.zeros(1 << n)  # real, so the first Krylov space is real
    psi[0] = 1.0
    traj.record(occupations(psi), ham.expectation(psi), 0.0)
    step = 0
    while step < n_steps:
        solve = expm_lanczos(
            ham.apply, psi, -1j * dt, k_max=40, tol=1e-12, steps=n_steps - step
        )
        traj.lanczos_converged &= solve.converged
        for j in range(solve.steps):
            psi = solve.state(j)
            step += 1
            traj.record(occupations(psi), ham.expectation(psi), step * dt)
        del solve  # build the next space without this one's basis alive
    traj.final_state = psi.astype(complex, copy=False)
    return traj
