"""Two-site TDVP time evolution with Lanczos exponentiation and cached baths.

One ``step`` is a symmetric left-right-left sweep (second order in dt): every
neighboring pair is evolved forward by dt/2 per sweep direction with the
intervening single sites evolved backward, the rightmost pair taking a single
full-dt solve at the turning point.  Left and right environments ("baths")
are updated incrementally during the sweeps and released once the sweep has
passed them, so N + 1 are held at any moment (between steps ``left_envs[0]``
and every right bath); the only full environment build happens at engine
construction.

Wall time per step is measured on a monotonic clock around the sweep only;
observable and energy measurements happen outside the timed section.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig, MemoryBudgetExceeded
from ..lanczos import expm_lanczos
from ..model import (
    LatticeSpec,
    ObservableMap,
    QuenchParams,
    Trajectory,
    interactions,
    step_count,
)
from .memory import memory_estimate
from .mpo import MpoHamiltonian, build_mpo
from .state import (
    MpsState,
    product_all_ground,
    random_state,
    site_expectations,
    trivial_env,
    update_left_env,
    update_right_env,
)

_NUMBER_OP = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

#: Relative singular-value floor; values below this fraction of the largest
#: singular value are discarded even when the chi cap is not binding.
SVD_RTOL = 1e-12

#: Lanczos stopping tolerance of every local solve.
LANCZOS_TOL = 1e-12

#: Shared zero-size placeholder for a released environment slot.
_RELEASED = np.empty((0, 0, 0), dtype=complex)


@dataclass
class TdvpStepRecord:
    step_index: int
    wall_seconds: float
    max_chi_used: int
    truncation_weight_step: float
    energy: float
    lanczos_iters_max: int
    live_bytes: int  # peak bytes of state tensors plus held environments in the sweep
    lanczos_converged: bool = True


def _merge_mpo_pair(w1, w2):
    """Contract neighboring MPO tensors into one (h_l, d^2, d^2, h_r) tensor."""
    pair = np.einsum("wabx,xcdy->wacbdy", w1, w2)
    hl, d1, d2, e1, e2, hr = pair.shape
    return pair.reshape(hl, d1 * d2, e1 * e2, hr)


def _split_blocks(wop: np.ndarray) -> tuple[np.ndarray, list]:
    """Split a real (w, t, s, w') MPO tensor into its (w, w') operator blocks.

    Returns ``diag``, the (t, w, w') array of W[w, t, t, w'] over every block
    that is diagonal in the physical index (the automaton's identity
    pass-throughs, ``n`` openings and ``V n`` closings) and zero elsewhere,
    and the list of (w, w', block) for the other nonzero blocks: only the
    onsite ready -> done term, or none when Omega = 0.
    """
    d = wop.shape[1]
    off_diagonal = np.any(wop * (1.0 - np.eye(d))[:, :, None] != 0.0, axis=(1, 2))
    diag = np.einsum("wttx->twx", wop) * ~off_diagonal
    full = [
        (int(i), int(j), wop[i, :, :, j].astype(complex))
        for i, j in zip(*np.nonzero(off_diagonal))
    ]
    return diag, full


class _LocalApply:
    """Effective local Hamiltonian applied block by block over the real MPO.

    Works for one site or a merged pair.  Vectors are laid out (s, a, b):
    (possibly merged) physical index slowest, then the left and right bonds.
    Once per local solve the left environment is permuted to an (a'*w, a)
    matrix and every diagonal MPO block is folded into a per-``t`` right
    matrix R_t[w*b, b'] = sum_w' W[w, t, t, w'] R[b, w', b'].  One
    application is then one GEMM through the left environment into a reused
    (s, a', w, b) buffer, one batched GEMM through R_t, and two small GEMMs
    for each non-diagonal block (only the onsite term).
    """

    __slots__ = ("dims", "left", "right_t", "full", "z")

    def __init__(self, left, right, blocks):
        diag, full = blocks
        a, w, a_bra = left.shape
        b, wr, b_bra = right.shape
        s = diag.shape[0]
        self.dims = (s, a, b, a_bra, w, b_bra)
        self.left = left.transpose(2, 1, 0).reshape(a_bra * w, a)
        # real coefficients: contract the real and imaginary parts of R in
        # one real GEMM, then read the (t, w, b, 2 b') result back as complex
        right_ri = right.view(np.float64).reshape(b, wr, 2 * b_bra).transpose(1, 0, 2)
        right_t = diag.reshape(s * w, wr) @ right_ri.reshape(wr, 2 * b * b_bra)
        self.right_t = right_t.view(complex).reshape(s, w * b, b_bra)
        self.full = [(i, right[:, j, :], m) for i, j, m in full]
        self.z = np.empty((s, a_bra * w, b), dtype=complex)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        s, a, b, a_bra, w, b_bra = self.dims
        # the output buffer keeps the batched product on the BLAS path
        z = np.matmul(self.left, x.reshape(s, a, b), out=self.z)
        out = z.reshape(s, a_bra, w * b) @ self.right_t
        z = z.reshape(s, a_bra, w, b)
        for i, right_j, m in self.full:
            zr = z[:, :, i, :].reshape(s * a_bra, b) @ right_j
            out += (m @ zr.reshape(s, a_bra * b_bra)).reshape(s, a_bra, b_bra)
        return out.ravel()


def _split_theta(theta: np.ndarray, max_chi: int, direction: str):
    """SVD split of a two-site tensor; returns (left, right, discarded, kept)."""
    chi_l, d1, d2, chi_r = theta.shape
    m = theta.reshape(chi_l * d1, d2 * chi_r)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:  # rare gesdd failure, fall back to gesvd
        from scipy.linalg import svd as scipy_svd

        u, s, vh = scipy_svd(m, full_matrices=False, lapack_driver="gesvd")
    keep = int(np.sum(s >= SVD_RTOL * s[0])) if s[0] > 0 else 1
    keep = min(keep, max_chi)
    total = float(np.sum(s**2))
    discarded = float(np.sum(s[keep:] ** 2) / total) if total > 0 else 0.0
    if direction == "right":
        left = u[:, :keep].reshape(chi_l, d1, keep)
        right = (s[:keep, None] * vh[:keep]).reshape(keep, d2, chi_r)
    else:
        left = (u[:, :keep] * s[:keep]).reshape(chi_l, d1, keep)
        right = vh[:keep].reshape(keep, d2, chi_r)
    return left, right, discarded, keep


class TdvpEngine:
    """Evolves one MpsState under one MPO, reusing live environments across steps.

    The state must be canonical with the orthogonality center at site 0; each
    step returns it in the same form.  ``max_chi`` and ``k_max`` must be at
    least 1 (InvalidConfig otherwise).
    """

    def __init__(
        self,
        state: MpsState,
        mpo: MpoHamiltonian,
        max_chi: int | None = None,
        k_max: int = 50,
    ):
        if state.n_sites != mpo.n_sites:
            raise ValueError("state and MPO site counts differ")
        if state.orthogonality_center != 0:
            raise ValueError("engine expects the orthogonality center at site 0")
        max_chi = max_chi if max_chi is not None else state.max_chi
        if max_chi < 1 or k_max < 1:
            raise InvalidConfig(
                f"TDVP needs max_chi >= 1 and k_max >= 1, got max_chi={max_chi}, k_max={k_max}"
            )
        self.state = state
        self.mpo = mpo
        self.max_chi = max_chi
        self.state.max_chi = max_chi
        self.k_max = k_max
        self._step_count = 0
        n = state.n_sites
        self.left_envs = [trivial_env()] + [_RELEASED] * (n - 1)
        self.right_envs = [_RELEASED] * (n - 1) + [trivial_env()]
        for i in range(n - 2, -1, -1):
            self.right_envs[i] = update_right_env(
                self.right_envs[i + 1], state.tensors[i + 1], mpo.tensors[i + 1]
            )
        self._site_blocks = [_split_blocks(w) for w in mpo.tensors]
        self._pair_blocks = [
            _split_blocks(_merge_mpo_pair(mpo.tensors[i], mpo.tensors[i + 1]))
            for i in range(n - 1)
        ]

    def energy(self) -> float:
        """<H> from the cached environments at the center (site 0)."""
        x = self.state.tensors[0].transpose(1, 0, 2).ravel()
        apply_h = _LocalApply(self.left_envs[0], self.right_envs[0], self._site_blocks[0])
        return float(np.real(np.vdot(x, apply_h(x)) / np.vdot(x, x)))

    def _held_bytes(self) -> int:
        """Bytes of the state tensors plus every environment the engine holds."""
        arrays = self.state.tensors + self.left_envs + self.right_envs
        return sum(x.nbytes for x in arrays)

    def step(self, dt: float) -> TdvpStepRecord:
        """One symmetric two-site TDVP sweep by dt."""
        self._step_count += 1
        iters_max = 0
        converged = True
        trunc = 0.0
        a = self.state.tensors
        live = self._held_bytes()
        t0 = time.perf_counter()

        def local_exp(left, right, blocks, x, coeff):
            """exp(coeff H_eff) x for an (a, s, b) tensor, solved in (s, a, b) layout."""
            nonlocal iters_max, converged
            a_dim, s_dim, b_dim = x.shape
            res = expm_lanczos(
                _LocalApply(left, right, blocks),
                x.transpose(1, 0, 2).ravel(),
                coeff,
                k_max=self.k_max,
                tol=LANCZOS_TOL,
            )
            iters_max = max(iters_max, res.iterations)
            converged = converged and res.converged
            return np.ascontiguousarray(
                res.vector.reshape(s_dim, a_dim, b_dim).transpose(1, 0, 2)
            )

        w = self.mpo.tensors
        n = self.state.n_sites

        if n == 1:
            blocks = self._site_blocks[0]
            a[0] = local_exp(self.left_envs[0], self.right_envs[0], blocks, a[0], -1j * dt)
        else:
            half = 0.5 * dt

            def evolve_pair(i: int, coeff: complex) -> np.ndarray:
                al, ar = a[i], a[i + 1]
                theta = al.reshape(-1, al.shape[2]) @ ar.reshape(ar.shape[0], -1)
                shape = (al.shape[0], al.shape[1], ar.shape[1], ar.shape[2])
                theta = theta.reshape(shape[0], -1, shape[3])
                left, right = self.left_envs[i], self.right_envs[i + 1]
                return local_exp(left, right, self._pair_blocks[i], theta, coeff).reshape(shape)

            def evolve_site(i: int, coeff: complex) -> None:
                left, right = self.left_envs[i], self.right_envs[i]
                a[i] = local_exp(left, right, self._site_blocks[i], a[i], coeff)

            # left-to-right half sweep
            for i in range(n - 2):
                theta = evolve_pair(i, -1j * half)
                a[i], a[i + 1], disc, _ = _split_theta(theta, self.max_chi, "right")
                trunc += disc
                self.left_envs[i + 1] = update_left_env(self.left_envs[i], a[i], w[i])
                live = max(live, self._held_bytes())
                evolve_site(i + 1, +1j * half)
                self.right_envs[i + 1] = _RELEASED

            # full step on the turning pair
            i = n - 2
            theta = evolve_pair(i, -1j * dt)
            a[i], a[i + 1], disc, _ = _split_theta(theta, self.max_chi, "left")
            trunc += disc
            self.right_envs[i] = update_right_env(self.right_envs[i + 1], a[i + 1], w[i + 1])
            live = max(live, self._held_bytes())

            # right-to-left half sweep
            for i in range(n - 3, -1, -1):
                evolve_site(i + 1, +1j * half)
                self.left_envs[i + 1] = _RELEASED
                theta = evolve_pair(i, -1j * half)
                a[i], a[i + 1], disc, _ = _split_theta(theta, self.max_chi, "left")
                trunc += disc
                self.right_envs[i] = update_right_env(self.right_envs[i + 1], a[i + 1], w[i + 1])
                live = max(live, self._held_bytes())

        wall = time.perf_counter() - t0
        self.state.orthogonality_center = 0
        return TdvpStepRecord(
            step_index=self._step_count,
            wall_seconds=wall,
            max_chi_used=self.state.max_bond,
            truncation_weight_step=trunc,
            energy=self.energy(),
            lanczos_iters_max=iters_max,
            live_bytes=live,
            lanczos_converged=converged,
        )


def run_quench(
    lattice: LatticeSpec,
    params: QuenchParams,
    t_pulse: float,
    dt: float,
    max_chi: int,
    k_max: int = 50,
    *,
    cutoff: float | None = None,
    memory_budget_bytes: float | None = None,
) -> Trajectory:
    """Evolve |00...0> for t_pulse, recording observables and step timings.

    Refuses to start when the Appendix-style memory estimate for (N, max_chi)
    exceeds ``memory_budget_bytes``, which must be a finite number >= 0.
    """
    n = lattice.n_sites
    if memory_budget_bytes is not None:
        if not 0.0 <= memory_budget_bytes < math.inf:
            raise InvalidConfig(
                f"memory budget must be a finite number >= 0, got {memory_budget_bytes} B"
            )
        estimate = memory_estimate(n, max_chi, k=k_max)
        if estimate.total > memory_budget_bytes:
            raise MemoryBudgetExceeded(
                f"estimated {estimate.total:.3e} B for N={n}, chi={max_chi} "
                f"exceeds budget {memory_budget_bytes:.3e} B"
            )
    v = interactions(lattice, params, cutoff)
    mpo = build_mpo(lattice, params, v)
    state = product_all_ground(n, max_chi=max_chi)
    engine = TdvpEngine(state, mpo, max_chi=max_chi, k_max=k_max)

    def measure(t: float) -> ObservableMap:
        return ObservableMap.from_site_values(
            lattice, site_expectations(state, _NUMBER_OP), label="n", time=t
        )

    traj = Trajectory(lattice, maps=[measure(0.0)], energies=[engine.energy()])
    for step in range(1, step_count(t_pulse, dt) + 1):
        record = engine.step(dt)
        traj.records.append(record)
        traj.maps.append(measure(step * dt))
        traj.energies.append(record.energy)
    traj.lanczos_converged = all(r.lanczos_converged for r in traj.records)
    return traj


def benchmark_steps(
    lattice: LatticeSpec,
    params: QuenchParams,
    chi: int,
    n_steps: int = 3,
    *,
    warmup: int = 1,
) -> list[TdvpStepRecord]:
    """Time TDVP steps of ``params.dt`` at a saturated bond dimension.

    Starts from a random canonical MPS (seed 7) whose bonds sit at the chi
    cap, so the mean wall time per step reflects the sustained cost at
    (N, chi) rather than the cheap early-time steps of the quench.
    ``warmup`` leading steps are dropped from the returned records.
    """
    mpo = build_mpo(lattice, params, interactions(lattice, params))
    state = random_state(lattice.n_sites, chi, np.random.default_rng(7))
    engine = TdvpEngine(state, mpo, max_chi=chi)
    records = [engine.step(params.dt) for _ in range(warmup + n_steps)]
    return records[warmup:]


def write_timing_csv(
    path,
    n_sites: int,
    chi: int,
    dt: float,
    records: list[TdvpStepRecord],
    hardware_tag: str,
    header_comment: str | None = None,
) -> None:
    """Write a fresh costfit-format timing CSV: one single-worker mean-seconds-per-step row."""
    mean_wall = float(np.mean([r.wall_seconds for r in records]))
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n")
        fh.write(f"{n_sites},{chi},{dt * 1e9!r},{mean_wall!r},{hardware_tag},1\n")
