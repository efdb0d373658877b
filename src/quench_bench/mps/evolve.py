"""Two-site TDVP time evolution with Lanczos exponentiation and cached baths.

One ``step`` is a symmetric left-right-left sweep (second order in dt): every
neighboring pair is evolved forward by dt/2 per sweep direction with the
intervening single sites evolved backward, the rightmost pair taking a single
full-dt solve at the turning point.  Left and right environments ("baths")
are cached across steps and updated incrementally during the sweeps; the only
full environment build happens at engine construction.

Wall time per step is measured on a monotonic clock around the sweep only;
observable and energy measurements happen outside the timed section.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import MemoryBudgetExceeded
from ..lanczos import expm_lanczos
from ..model import LatticeSpec, ObservableMap, QuenchParams, Trajectory, interactions
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


@dataclass
class TdvpStepRecord:
    step_index: int
    wall_seconds: float
    max_chi_used: int
    truncation_weight_step: float
    energy: float
    lanczos_iters_max: int
    lanczos_converged: bool = True


def _merge_mpo_pair(w1, w2):
    """Contract neighboring MPO tensors into one (h_l, d^2, d^2, h_r) tensor."""
    pair = np.einsum("wabx,xcdy->wacbdy", w1, w2)
    hl, d1, d2, e1, e2, hr = pair.shape
    return pair.reshape(hl, d1 * d2, e1 * e2, hr)


def _operator_matrix(wop: np.ndarray) -> np.ndarray:
    """(w, t, s, w') MPO tensor as a (w*s, t*w') matrix for _LocalApply."""
    w, t, s, wr = wop.shape
    return np.ascontiguousarray(wop.transpose(0, 2, 1, 3)).reshape(w * s, t * wr)


class _LocalApply:
    """Effective local Hamiltonian as three BLAS products.

    Works for one site or a merged pair; ``wm`` is the operator matrix from
    ``_operator_matrix`` with (possibly merged) physical dimension s = t.
    The environment views are prepared once and reused across all Lanczos
    iterations of a local solve, keeping the Python-side overhead per
    application at a handful of numpy calls.
    """

    __slots__ = ("a", "s", "b", "w", "wr", "a_bra", "b_bra", "lm", "wm", "rm")

    def __init__(self, left, right, wm, s_dim):
        self.a, self.w, self.a_bra = left.shape
        self.b, self.wr, self.b_bra = right.shape
        self.s = s_dim
        self.lm = left.reshape(self.a, self.w * self.a_bra)
        self.wm = wm
        self.rm = right.reshape(self.b * self.wr, self.b_bra)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        t = self.lm.T @ x.reshape(self.a, self.s * self.b)
        t = (
            t.reshape(self.w, self.a_bra, self.s, self.b)
            .transpose(1, 3, 0, 2)
            .reshape(self.a_bra * self.b, self.w * self.s)
        )
        t = t @ self.wm
        t = (
            t.reshape(self.a_bra, self.b, self.s, self.wr)
            .transpose(0, 2, 1, 3)
            .reshape(self.a_bra * self.s, self.b * self.wr)
        )
        return (t @ self.rm).ravel()


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
    keep = max(1, min(keep, max_chi))
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
    """Evolves one MpsState under one MPO, reusing environments across steps.

    The state must be canonical with the orthogonality center at site 0; each
    step returns it in the same form.
    """

    def __init__(
        self,
        state: MpsState,
        mpo: MpoHamiltonian,
        max_chi: int | None = None,
        k_max: int = 50,
        lanczos_tol: float = 1e-12,
    ):
        if state.n_sites != mpo.n_sites:
            raise ValueError("state and MPO site counts differ")
        if state.orthogonality_center != 0:
            raise ValueError("engine expects the orthogonality center at site 0")
        self.state = state
        self.mpo = mpo
        self.max_chi = max_chi if max_chi is not None else state.max_chi
        self.state.max_chi = self.max_chi
        self.k_max = k_max
        self.lanczos_tol = lanczos_tol
        self._step_count = 0
        n = state.n_sites
        self.left_envs = [trivial_env() for _ in range(n)]
        self.right_envs = [trivial_env() for _ in range(n)]
        for i in range(n - 2, -1, -1):
            self.right_envs[i] = update_right_env(
                self.right_envs[i + 1], state.tensors[i + 1], mpo.tensors[i + 1]
            )
        self._site_wm = [_operator_matrix(w) for w in mpo.tensors]
        self._pair_wm = [
            _operator_matrix(_merge_mpo_pair(mpo.tensors[i], mpo.tensors[i + 1]))
            for i in range(n - 1)
        ]

    def energy(self) -> float:
        """<H> from the cached environments at the center (site 0)."""
        a0 = self.state.tensors[0]
        apply_h = _LocalApply(self.left_envs[0], self.right_envs[0], self._site_wm[0], 2)
        return float(np.real(np.vdot(a0.ravel(), apply_h(a0.ravel())) / np.vdot(a0, a0)))

    def step(self, dt: float) -> TdvpStepRecord:
        """One symmetric two-site TDVP sweep by dt."""
        self._step_count += 1
        iters_max = 0
        converged = True
        trunc = 0.0
        t0 = time.perf_counter()

        def local_exp(apply_fn, vec, coeff):
            nonlocal iters_max, converged
            res = expm_lanczos(apply_fn, vec, coeff, k_max=self.k_max, tol=self.lanczos_tol)
            iters_max = max(iters_max, res.iterations)
            converged = converged and res.converged
            return res.vector

        a = self.state.tensors
        w = self.mpo.tensors
        n = self.state.n_sites

        if n == 1:
            shape = a[0].shape
            apply_h = _LocalApply(self.left_envs[0], self.right_envs[0], self._site_wm[0], 2)
            a[0] = local_exp(apply_h, a[0].ravel(), -1j * dt).reshape(shape)
        else:
            half = 0.5 * dt

            def evolve_pair(i: int, coeff: complex) -> np.ndarray:
                al, ar = a[i], a[i + 1]
                theta = al.reshape(-1, al.shape[2]) @ ar.reshape(ar.shape[0], -1)
                shape = (al.shape[0], al.shape[1], ar.shape[1], ar.shape[2])
                apply_h = _LocalApply(
                    self.left_envs[i], self.right_envs[i + 1], self._pair_wm[i], 4
                )
                return local_exp(apply_h, theta.ravel(), coeff).reshape(shape)

            def evolve_site(i: int, coeff: complex) -> None:
                shape = a[i].shape
                apply_h = _LocalApply(
                    self.left_envs[i], self.right_envs[i], self._site_wm[i], 2
                )
                a[i] = local_exp(apply_h, a[i].ravel(), coeff).reshape(shape)

            # left-to-right half sweep
            for i in range(n - 2):
                theta = evolve_pair(i, -1j * half)
                a[i], a[i + 1], disc, _ = _split_theta(theta, self.max_chi, "right")
                trunc += disc
                self.left_envs[i + 1] = update_left_env(self.left_envs[i], a[i], w[i])
                evolve_site(i + 1, +1j * half)

            # full step on the turning pair
            i = n - 2
            theta = evolve_pair(i, -1j * dt)
            a[i], a[i + 1], disc, _ = _split_theta(theta, self.max_chi, "left")
            trunc += disc
            self.right_envs[i] = update_right_env(self.right_envs[i + 1], a[i + 1], w[i + 1])

            # right-to-left half sweep
            for i in range(n - 3, -1, -1):
                evolve_site(i + 1, +1j * half)
                theta = evolve_pair(i, -1j * half)
                a[i], a[i + 1], disc, _ = _split_theta(theta, self.max_chi, "left")
                trunc += disc
                self.right_envs[i] = update_right_env(self.right_envs[i + 1], a[i + 1], w[i + 1])

        wall = time.perf_counter() - t0
        self.state.orthogonality_center = 0
        return TdvpStepRecord(
            step_index=self._step_count,
            wall_seconds=wall,
            max_chi_used=self.state.max_bond,
            truncation_weight_step=trunc,
            energy=self.energy(),
            lanczos_iters_max=iters_max,
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
    exceeds ``memory_budget_bytes``.
    """
    n = lattice.n_sites
    if memory_budget_bytes is not None:
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
    n_steps = int(round(t_pulse / dt)) if t_pulse > 0 else 0
    for step in range(1, n_steps + 1):
        record = engine.step(dt)
        traj.records.append(record)
        traj.maps.append(measure(step * dt))
        traj.energies.append(record.energy)
    return traj


def benchmark_steps(
    lattice: LatticeSpec,
    params: QuenchParams,
    chi: int,
    n_steps: int = 3,
    dt: float = 1e-9,
    k_max: int = 50,
    *,
    cutoff: float | None = None,
    seed: int = 7,
    warmup: int = 1,
) -> list[TdvpStepRecord]:
    """Time TDVP steps at a saturated bond dimension.

    Starts from a random canonical MPS whose bonds sit at the chi cap, so the
    mean wall time per step reflects the sustained cost at (N, chi) rather
    than the cheap early-time steps of the quench.  ``warmup`` leading steps
    are dropped from the returned records.
    """
    v = interactions(lattice, params, cutoff)
    mpo = build_mpo(lattice, params, v)
    rng = np.random.default_rng(seed)
    state = random_state(lattice.n_sites, chi, rng)
    engine = TdvpEngine(state, mpo, max_chi=chi, k_max=k_max)
    records = [engine.step(dt) for _ in range(warmup + n_steps)]
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
