"""Exact dense-statevector time evolution for lattices of up to 16 sites.

Ground truth for MPS validation and convergence-gate calibration.  The
Hamiltonian is never materialized: its diagonal (interaction + detuning) part
is precomputed as a 2^N vector by doubling, in about 2^(N+1) adds, and the
transverse drive is applied as one in-place half-swap per bit, so one
application costs O(N 2^N) and allocates two 2^N vectors whatever N is.
<H> is evaluated on the state from sums over amplitude pairs, without an
application.  Time stepping reuses one Krylov space for as many output times
as it resolves, so the propagator holds at most 40 vectors of 2^N amplitudes
(real in the first space, which starts from the real |00...0>) besides the
one state being recorded.

Basis convention: bit k of the computational-basis index is the occupation of
snake site k, with 0 = ground state.  The initial product state |00...0> is
index 0.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig, TooLargeForOracle
from .lanczos import expm_lanczos
from .model import LatticeSpec, QuenchParams, Trajectory, interactions, step_count

#: Largest lattice the dense oracle evolves.
N_MAX_DENSE = 16


class DenseHamiltonian:
    """Matrix-free H = sum V_ij n_i n_j + (Omega/2) sum sigma^x_i - Delta sum n_i.

    The diagonal is built by doubling: the states with bit k set are the
    first 2^k states shifted by site k's field sum_{j<k} V_kj n_j - Delta,
    and that field is built bit by bit the same way, so only the lower
    triangle of ``v`` is read.  ``apply`` scales psi by Omega/2 once, then
    adds sigma^x_k of it for each bit k in turn as an in-place half-swap:
    flipping bit k exchanges the two halves of every (2, 2^k) block of the
    index.

    Raises:
        InvalidConfig: when ``v`` is not N x N, not symmetric, or has a
            nonzero diagonal, since the doubled build would read it as
            another matrix.
    """

    def __init__(self, n_sites: int, v: np.ndarray, omega: float, delta: float):
        if v.shape != (n_sites, n_sites):
            raise InvalidConfig(f"couplings of shape {v.shape} for {n_sites} sites")
        if not np.array_equal(v, v.T):
            raise InvalidConfig("couplings are not symmetric")
        if np.any(np.diagonal(v) != 0.0):
            raise InvalidConfig("couplings have a nonzero diagonal")
        self.n_sites = n_sites
        self.omega = omega
        diag = np.empty(1 << n_sites)
        diag[0] = 0.0
        for k in range(n_sites):
            shifted = diag[1 << k : 2 << k]  # a view: the states with bit k set
            shifted[0] = -delta
            for j in range(k):
                np.add(shifted[: 1 << j], v[k, j], out=shifted[1 << j : 2 << j])
            shifted += diag[: 1 << k]
        self.diagonal = diag

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.diagonal * psi
        drive = (0.5 * self.omega) * psi
        for k in range(self.n_sites):
            blocks = out.reshape(-1, 2, 1 << k)  # a view: the sum lands in out
            blocks += drive.reshape(-1, 2, 1 << k)[:, ::-1, :]
        return out

    def expectation(self, psi: np.ndarray) -> float:
        """<psi|H|psi> for a real or complex psi, without applying H:
        sum diag |psi|^2 + Omega sum_k Re sum_{x: bit k = 0} conj(psi_x)
        psi_{x + 2^k}, read from psi's float64 view.  In that view a complex
        amplitude is c = 2 floats, so site k pairs the two halves of every
        (2, c 2^k) block, and both real and imaginary parts add."""
        floats = np.ascontiguousarray(psi).view(np.float64)
        c = floats.size >> self.n_sites
        diagonal = sum(np.einsum("i,i,i->", self.diagonal, part, part)
                       for part in (floats[i::c] for i in range(c)))
        drive = sum(_pair_sum(*floats.reshape(-1, 2, c << k).transpose(1, 0, 2))
                    for k in range(self.n_sites))
        # the coupling apply uses, Omega/2, so a subnormal Omega rounds alike
        return float(diagonal + (0.5 * self.omega) * (2.0 * drive))


def _pair_sum(a: np.ndarray, b: np.ndarray) -> float:
    """sum a * b over two (blocks, width) views, without a temporary: by
    columns in BLAS dots while blocks are at most 4 wide, where einsum's
    inner loop would be too short, else by einsum."""
    if a.shape[1] <= 4:
        return sum(np.dot(a[:, i], b[:, i]) for i in range(a.shape[1]))
    return np.einsum("ij,ij->", a, b)


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

    One Lanczos space (at most 40 vectors, tolerance 1e-12 shared by the
    steps left) gives exp(-i H j dt) psi for every step j it resolves; the
    next space starts from the last of them.  The per-site occupation map
    and <H> (evaluated on the state, not on the Krylov projection) are
    recorded after every step, forming one state at a time.  The trajectory's
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
    return traj
