"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force and shares no code with the
package's computational paths: dense Hamiltonians via Kronecker products,
the dense drive as one flipped copy of the state per site, fixed-step RK4
integration, a dense propagator applied step by step, TDVP environments by
``tensordot`` over dense MPO tensors, a Lanczos loop that takes the
exponential of its projection at every iteration, a minimal-distance move
assignment, direct binomial tail summation, and a defect-free Monte Carlo
that plans every load.
"""

from __future__ import annotations

from math import exp, lgamma, log, sqrt

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
NUMBER_OP = np.diag([0.0, 1.0])


def embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Single-site operator on `site` with the oracle's site-k = bit-k layout."""
    m = np.array([[1.0]])
    for k in range(n):
        m = np.kron(op, m) if k == site else np.kron(np.eye(2), m)
    return m


def dense_hamiltonian(params, v: np.ndarray) -> np.ndarray:
    """H = sum V n n + (Omega/2) sum sx - Delta sum n by explicit kron."""
    n = v.shape[0]
    h = np.zeros((1 << n, 1 << n))
    for i in range(n):
        h += 0.5 * params.omega * embed(SIGMA_X, i, n)
        h -= params.delta * embed(NUMBER_OP, i, n)
    for i in range(n):
        for j in range(i + 1, n):
            if v[i, j] != 0.0:
                h += v[i, j] * (embed(NUMBER_OP, i, n) @ embed(NUMBER_OP, j, n))
    return h


def flip_apply(diagonal: np.ndarray, omega: float, psi: np.ndarray) -> np.ndarray:
    """diagonal * psi + (Omega/2) sum_k psi[index ^ 2^k], one flipped copy of
    psi per site, adding the sites in order k = 0 ... N-1."""
    n = len(psi).bit_length() - 1
    out = diagonal * psi
    tensor = psi.reshape((2,) * n)
    for site in range(n):
        axis = n - 1 - site  # bit k of the index is axis N-1-k
        out += (0.5 * omega) * np.flip(tensor, axis=axis).reshape(-1)
    return out


def mpo_dense_matrix(mpo) -> np.ndarray:
    """Contract an MPO to its full 2^N x 2^N matrix, site 0 the slowest index."""
    acc = mpo.tensors[0][0]  # (d, d, h)
    for w in mpo.tensors[1:]:
        acc = np.einsum("abh,hcdk->acbdk", acc, w)
        d_out = acc.shape[0] * acc.shape[1]
        d_in = acc.shape[2] * acc.shape[3]
        acc = acc.reshape(d_out, d_in, acc.shape[4])
    return acc[:, :, 0]


def merge_mpo_pair(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Two neighboring (h, t, s, h') MPO tensors as one (h_l, t1 t2, s1 s2, h_r)."""
    pair = np.einsum("wabx,xcdy->wacbdy", w1, w2)
    hl, d1, d2, e1, e2, hr = pair.shape
    return pair.reshape(hl, d1 * d2, e1 * e2, hr)


def dense_local_apply(left, right, wop, x) -> np.ndarray:
    """TDVP effective Hamiltonian on an (a, s, b) tensor as three dense GEMMs.

    ``left`` is (a, w, a') and ``right`` (b, w', b'), both (ket, mpo, bra);
    ``wop`` is the (w, t, s, w') MPO tensor of one site or a merged pair,
    used as a dense complex (w*s, t*w') matrix with two transposed copies
    of the intermediate.  Returns the (a', t, b') result.
    """
    a, w, a_bra = left.shape
    b, wr, b_bra = right.shape
    s = wop.shape[2]
    wm = wop.astype(complex).transpose(0, 2, 1, 3).reshape(w * s, s * wr)
    t = left.reshape(a, w * a_bra).T @ x.reshape(a, s * b)
    t = t.reshape(w, a_bra, s, b).transpose(1, 3, 0, 2).reshape(a_bra * b, w * s)
    t = t @ wm
    t = t.reshape(a_bra, b, s, wr).transpose(0, 2, 1, 3).reshape(a_bra * s, b * wr)
    return (t @ right.reshape(b * wr, b_bra)).reshape(a_bra, s, b_bra)


def dense_left_env(left, a, wop) -> np.ndarray:
    """Grow a (ket, mpo, bra) environment by one site from the left with
    three ``tensordot``s over the dense (w, t, s, w') MPO tensor."""
    t = np.tensordot(left, a, axes=([0], [0]))  # (w, bra, s, ket')
    t = np.tensordot(t, wop, axes=([0, 2], [0, 2]))  # (bra, ket', t, w')
    return np.tensordot(t, a.conj(), axes=([0, 2], [0, 1]))  # (ket', w', bra')


def dense_right_env(right, a, wop) -> np.ndarray:
    """Grow a (ket, mpo, bra) environment by one site from the right, as
    ``dense_left_env`` does from the left."""
    t = np.tensordot(a, right, axes=([2], [0]))  # (ket, s, w', bra')
    t = np.tensordot(t, wop, axes=([1, 2], [2, 3]))  # (ket, bra', w, t)
    return np.tensordot(t, a.conj(), axes=([3, 1], [1, 2]))  # (ket, w, bra)


def tridiagonal_exp_rows(alphas, betas, coeff, steps):
    """Rows exp(j coeff T) e_1, j = 1 ... steps, of the symmetric tridiagonal
    T from ``np.linalg.eigh`` of its lower triangle."""
    k = len(alphas)
    if k == 1:
        return np.exp(coeff * np.arange(1, steps + 1) * alphas[0])[:, None]
    t = np.zeros((k, k))
    t.flat[:: k + 1] = alphas
    t.flat[k :: k + 1] = betas
    eigvals, eigvecs = np.linalg.eigh(t, UPLO="L")
    if steps == 1:
        return (eigvecs @ (np.exp(coeff * eigvals) * eigvecs[0]))[None]
    times = coeff * np.arange(1, steps + 1)
    return (np.exp(np.multiply.outer(times, eigvals)) * eigvecs[0]) @ eigvecs.T


def ungated_lanczos(matvec, v, coeff, k_max, tol, steps=1):
    """The Lanczos recursion and residual test of ``expm_lanczos``, with the
    exponential of the projection taken at every iteration and each Krylov
    row divided by ``np.divide``.

    Makes the solver's floating-point operations in the same order, so the
    two agree bit for bit unless skipping an exponential moves a stop.
    Returns (iterations, converged, coefficient rows, basis).
    """
    norm_v = float(np.linalg.norm(v))
    dim = v.size
    k_max = min(k_max, dim)
    basis = np.empty((k_max, dim), dtype=np.result_type(v, 1.0))
    basis[0] = np.ravel(v) / norm_v
    w = np.ravel(matvec(basis[0]))
    if np.result_type(basis, w) != basis.dtype:
        start, basis = basis[0], np.empty((k_max, dim), dtype=np.result_type(basis, w))
        basis[0] = start
    alphas, betas = np.empty(k_max), np.empty(k_max)
    resolved = 0
    for k in range(k_max):
        if k > 0:
            w = np.ravel(matvec(basis[k]))
        alphas[k] = np.real(np.vdot(basis[k], w))
        active = basis[: k + 1]
        w -= (active @ w.conj()).conj() @ active
        beta = sqrt(np.vdot(w, w).real)
        wanted = min(steps, 2 * (resolved + k + 1))
        if beta <= tol * max(1.0, abs(alphas[k])):
            rows = tridiagonal_exp_rows(alphas[: k + 1], betas[:k], coeff, steps)
            return k + 1, True, rows, basis[: k + 1]
        rows = tridiagonal_exp_rows(alphas[: k + 1], betas[:k], coeff, wanted)
        resolved = 0
        while resolved < wanted and (
            (resolved + 1) * abs(coeff) * beta * abs(rows[resolved, -1]) <= tol
        ):
            resolved += 1
        if resolved == steps:
            return k + 1, True, rows, basis[: k + 1]
        betas[k] = beta
        if k + 1 < k_max:
            np.divide(w, beta, out=basis[k + 1])
    m, converged = (steps, True) if k_max == dim else (max(resolved, 1), resolved > 0)
    if len(rows) < m:
        rows = tridiagonal_exp_rows(alphas, betas[: k_max - 1], coeff, m)
    return k_max, converged, rows[:m], basis


def mps_norm(state) -> float:
    """sqrt(<psi|psi>) by folding the MPS left to right."""
    left = np.ones((1, 1), dtype=complex)
    for a in state.tensors:
        left = np.einsum("lm,ldr,mds->rs", left, a, a.conj())
    return float(np.sqrt(np.real(left[0, 0])))


def mps_to_vector(state) -> np.ndarray:
    """The 2^N amplitudes of an MPS by contracting its tensors left to
    right, site 0 the slowest index (the layout of ``mpo_dense_matrix``)."""
    psi = np.ones((1, 1), dtype=complex)  # (amplitudes so far, bond)
    for a in state.tensors:
        psi = np.einsum("pl,ldr->pdr", psi, a).reshape(-1, a.shape[2])
    return psi[:, 0]


def check_canonical(state, tol: float = 1e-10) -> bool:
    """Whether every tensor right of site 0, the orthogonality center, is a
    right-isometry."""
    for a in state.tensors[1:]:
        m = a.reshape(a.shape[0], -1)
        if not np.allclose(m @ m.conj().T, np.eye(a.shape[0]), atol=tol):
            return False
    return True


def mpo_expectation(state, mpo) -> float:
    """<psi|H|psi> / <psi|psi> by folding the (ket, mpo, bra) network left to right."""
    left = np.ones((1, 1, 1), dtype=complex)
    for a, w in zip(state.tensors, mpo.tensors):
        left = np.einsum("lwm,lsr,wtsx,mtq->rxq", left, a, w, a.conj(), optimize=True)
    return float(np.real(left[0, 0, 0])) / mps_norm(state) ** 2


def site_expectations_any_gauge(state, op: np.ndarray) -> np.ndarray:
    """<op_i> at every site in any gauge: a right-environment pass, then a
    left pass that closes each site against its right environment."""
    n = state.n_sites
    right_envs = [np.ones((1, 1), dtype=complex)] * (n + 1)
    for i in range(n - 1, -1, -1):
        a = state.tensors[i]
        right_envs[i] = np.einsum("ldr,rs,mds->lm", a, right_envs[i + 1], a.conj())
    norm_sq = float(np.real(right_envs[0][0, 0]))
    values = np.empty(n, dtype=float)
    left = np.ones((1, 1), dtype=complex)
    for i in range(n):
        a = state.tensors[i]
        val = np.einsum(
            "lm,ldr,ed,mes,rs->", left, a, op, a.conj(), right_envs[i + 1], optimize=True
        )
        values[i] = float(np.real(val)) / norm_sq
        left = np.einsum("lm,ldr,mds->rs", left, a, a.conj())
    return values


def rk4_evolve(h: np.ndarray, psi: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Classic fixed-step 4th-order integration of d psi/dt = -i H psi."""
    dt = t / steps

    def f(y):
        return -1j * (h @ y)

    for _ in range(steps):
        k1 = f(psi)
        k2 = f(psi + 0.5 * dt * k1)
        k3 = f(psi + 0.5 * dt * k2)
        k4 = f(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi


def propagator_trajectory(h: np.ndarray, psi: np.ndarray, dt: float, steps: int):
    """(occupations, energies) of psi and of U^j psi for j = 1 ... steps,
    with the dense propagator U = expm(-i H dt) built once; occupations has
    one row per recorded state, site k in column k."""
    u = expm(-1j * h * dt)
    n = len(psi).bit_length() - 1
    occupations, energies = [], []
    for step in range(steps + 1):
        if step > 0:
            psi = u @ psi
        occupations.append(occupations_from_state(psi, n))
        energies.append(float(np.vdot(psi, h @ psi).real))
    return np.array(occupations), np.array(energies)


def occupations_from_state(psi: np.ndarray, n: int) -> np.ndarray:
    prob = np.abs(psi) ** 2
    idx = np.arange(len(prob))
    return np.array([prob[((idx >> k) & 1) == 1].sum() for k in range(n)])


class InfeasibleLoad(Exception):
    """A load with fewer surplus atoms than empty register sites."""


def assign_moves(layout, occupancy):
    """(moves, dumps) filling the empty register sites from surplus atoms at
    minimal total distance: moves are (source, target) trap pairs, dumps the
    surplus left over.  Raises InfeasibleLoad when the surplus is too small."""
    empty = np.flatnonzero(layout.register_mask & ~occupancy)
    outside = np.flatnonzero(~layout.register_mask & occupancy)
    if len(outside) < len(empty):
        raise InfeasibleLoad(f"{len(outside)} surplus atoms for {len(empty)} empty sites")
    pos = layout.trap_positions
    rows, cols = linear_sum_assignment(
        np.linalg.norm(pos[empty][:, None] - pos[outside][None], axis=2)
    )
    moves = list(zip(outside[cols].tolist(), empty[rows].tolist()))
    return moves, np.delete(outside, cols).tolist()


def planned_defect_free_mc(layout, probs, trials, rng_seed=0, fill_p=0.5, max_reloads=25,
                           block=256):
    """Defect-free Monte Carlo that solves the move assignment of every
    feasible load and reads the event counts back from it.

    Makes the same generator calls in the same order as
    ``register.simulate_defect_free`` (one generator per block of trials,
    seeded by (rng_seed, block); per reload round one matrix of loads for the
    rows still pending; then one failure matrix), but judges every row and
    every event in plain loops, so the two agree exactly.  Returns
    (p_hat, std_err, counts_mean).
    """
    mask = layout.register_mask
    n_traps, n_register = len(mask), int(mask.sum())
    successes = infeasible = n_counted = 0
    sums = {"N_transf": 0.0, "N_dump": 0.0, "N_idle": 0.0}
    for index, start in enumerate(range(0, trials, block)):
        rng = np.random.default_rng([rng_seed, index])
        rows = min(block, trials - start)
        plans = [None] * rows
        pending = list(range(rows))
        for _ in range(max_reloads + 1):
            if not pending:
                break
            loads = rng.random((len(pending), n_traps)) < fill_p
            still_pending = []
            for row, load in zip(pending, loads):
                try:
                    moves, dumps = assign_moves(layout, load)
                except InfeasibleLoad:
                    still_pending.append(row)
                    continue
                plans[row] = (len(moves), len(dumps))
            pending = still_pending
        failures = rng.random((rows, n_traps + n_register))
        for plan, draws in zip(plans, failures):
            if plan is None:
                infeasible += 1
                continue
            n_transf, n_dump = plan
            n_idle = n_traps - n_transf - n_dump
            n_unmoved = n_register - n_transf
            n_counted += 1
            sums["N_transf"] += n_transf
            sums["N_dump"] += n_dump
            sums["N_idle"] += n_idle
            transfers, dumps, idle = np.split(draws[:n_traps], [n_transf, n_transf + n_dump])
            unmoved = draws[n_traps : n_traps + n_unmoved]
            if (
                (transfers < probs.p_transf).all()
                and (dumps < probs.p_pickup).all()
                and (idle >= probs.p_acci).all()
                and (unmoved >= probs.p_loss).all()
            ):
                successes += 1
    p_hat = successes / trials
    counts_mean = {k: v / n_counted if n_counted else float("nan") for k, v in sums.items()}
    counts_mean.update(N_traps=n_traps, N_register=n_register, infeasible_trials=infeasible)
    return p_hat, sqrt(p_hat * (1.0 - p_hat) / trials), counts_mean


def _log_comb(n: int, k: int) -> float:
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def binomial_tail_at_least(n: int, p: float, m: int) -> float:
    """P[Binom(n, p) >= m] by direct term summation (no scipy).

    Terms beyond twelve standard deviations above the mean get truncated once
    they stop contributing at double precision.
    """
    if m <= 0 or p >= 1.0:
        return 1.0
    if n < m or p == 0.0:
        return 0.0
    lp, l1p = log(p), log(1.0 - p)
    sigma = (n * p * (1.0 - p)) ** 0.5
    far_tail = n * p + 12.0 * sigma
    total = 0.0
    for k in range(m, n + 1):
        term = exp(_log_comb(n, k) + k * lp + (n - k) * l1p)
        total += term
        if k > far_tail and term < 1e-18 * max(total, 1e-300):
            break
    return total


def smallest_attempts(m: int, p: float, confidence: float) -> int:
    """Smallest n with binomial_tail_at_least(n, p, m) >= confidence.

    The tail is nondecreasing in n, so a doubling bracket plus bisection is
    exact; only the tail evaluation itself matters for independence.
    """
    lo, hi = m, max(m, int(m / p) if p > 0 else m)
    if binomial_tail_at_least(lo, p, m) >= confidence:
        return lo
    while binomial_tail_at_least(hi, p, m) < confidence:
        lo = hi
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if binomial_tail_at_least(mid, p, m) >= confidence:
            hi = mid
        else:
            lo = mid
    return hi


def snake_by_hand(lx: int, ly: int) -> list[tuple[int, int]]:
    """(col, row) list in snake order, written as a direct double loop."""
    order = []
    for row in range(ly):
        cols = range(lx) if row % 2 == 0 else range(lx - 1, -1, -1)
        for col in cols:
            order.append((col, row))
    return order
