import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quench_bench import oracle
from quench_bench.convergence import energy_drift, energy_scale
from quench_bench.errors import InvalidConfig, MemoryBudgetExceeded
from quench_bench.lanczos import _expm_tridiag, expm_lanczos
from quench_bench.mps import (
    TdvpEngine,
    build_mpo,
    benchmark_steps,
    run_quench,
    site_expectations,
)
from quench_bench.mps import evolve
from quench_bench.mps.evolve import (
    _LocalApply,
    _merge_mpo_pair,
    _split_blocks,
    _split_theta,
    sweep_ops,
    update_left_env,
)
from quench_bench.mps.state import MpsState, product_all_ground, random_state
from quench_bench.costfit import read_timing_csv, step_sample, write_timing_csv

from conftest import paper_setup
from reference import (
    check_canonical,
    dense_hamiltonian,
    dense_left_env,
    dense_local_apply,
    dense_right_env,
    merge_mpo_pair,
    mpo_dense_matrix,
    mpo_expectation,
    mps_norm,
    mps_to_vector,
    site_expectations_any_gauge,
)

NUMBER_OP = np.diag([0.0, 1.0]).astype(complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


class TestTwoSiteExactness:
    def test_matches_dense_propagator(self):
        lat, params, v = paper_setup(2, 1, t_pulse=30e-9)
        h = dense_hamiltonian(params, v.v[::-1, ::-1])
        u = expm(-1j * h * params.dt)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        result = run_quench(lat, params, max_chi=8)
        # site 0 is the slow index in the dense convention
        n0 = np.kron(NUMBER_OP, np.eye(2))
        n1 = np.kron(np.eye(2), NUMBER_OP)
        assert len(result.maps) == 31
        for step_map in result.maps[1:]:  # every step, not only the last
            psi = u @ psi
            expected = [np.vdot(psi, n0 @ psi).real, np.vdot(psi, n1 @ psi).real]
            got = [step_map.values[r, c] for r, c in lat.rowcol]
            assert np.abs(np.array(got) - expected).max() < 1e-10

    def test_omega_zero_leaves_state_unchanged(self):
        lat, params, v = paper_setup(2, 2)
        mpo = build_mpo(lat, dataclasses.replace(params, omega=0.0), v)
        state = product_all_ground(4, max_chi=8)
        record = TdvpEngine(state, mpo, max_chi=8).step(1e-9)
        assert record.truncation_weight_step == 0.0
        amp = state.tensors[0][0, 0, 0]
        for t in state.tensors[1:]:
            amp = amp * t[0, 0, 0]
        assert abs(amp - 1.0) < 1e-12


class TestAgainstOracle:
    def test_3x3_100_steps(self, tdvp_3x3_100ns):
        """The bonds reach their bounds one by one, so some steps run pair
        windows at the bonds still growing next to one-site windows."""
        traj = oracle.evolve_exact(tdvp_3x3_100ns.lattice, tdvp_3x3_100ns.params)
        result = tdvp_3x3_100ns.at(64)
        assert any(0 < r.pair_windows < 8 for r in result.records)
        err = np.abs(result.maps[-1].values - traj.maps[-1].values).max()
        assert err <= 1e-3

    def test_monotone_accuracy_in_chi(self, setup_3x3, oracle_3x3_400ns, tdvp_3x3_400ns):
        ref = oracle_3x3_400ns.maps[-1].values
        errors = []
        for chi in (8, 16, 32, 64):
            run = tdvp_3x3_400ns.at(chi)
            errors.append(np.abs(run.maps[-1].values - ref).max())
        for tighter, looser in zip(errors[1:], errors[:-1]):
            assert tighter <= looser + 1e-6

    def test_full_rank_equivalence_2x2(self):
        lat, params, _ = paper_setup(2, 2, t_pulse=200e-9)
        traj = oracle.evolve_exact(lat, params)
        result = run_quench(lat, params, max_chi=4)
        assert np.abs(result.maps[-1].values - traj.maps[-1].values).max() <= 1e-3


class TestMechanics:
    def test_canonical_form_maintained(self, setup_3x3):
        lat, params, v = setup_3x3
        mpo = build_mpo(lat, params, v)
        state = product_all_ground(9, max_chi=16)
        for _ in range(3):
            TdvpEngine(state, mpo, max_chi=16).step(1e-9)
        assert check_canonical(state, tol=1e-10)
        assert abs(mps_norm(state) - 1.0) < 1e-9

    def test_records_fields(self, setup_3x3):
        lat, params, _ = setup_3x3
        result = run_quench(lat, dataclasses.replace(params, t_pulse=5e-9), max_chi=8)
        assert len(result.records) == 5
        # from |0...0> every bond is below its bound: the first step is all
        # pairs, and no two of its 29 windows are linked
        assert result.records[0].pair_windows == 8
        assert result.records[0].lanczos_solves == 29
        for rec in result.records:
            assert 0 <= rec.pair_windows <= 8
            assert 1 <= rec.lanczos_solves <= 33  # the windows of a one-site sweep
            assert rec.wall_seconds > 0.0
            assert rec.max_chi_used <= 8
            assert rec.lanczos_converged

    @pytest.mark.parametrize("key, value", [("max_chi", 0), ("max_chi", -3)])
    def test_caps_below_one_rejected(self, setup_3x3, key, value):
        lat, params, v = setup_3x3
        mpo = build_mpo(lat, params, v)
        with pytest.raises(InvalidConfig, match=f"{key}={value}"):
            TdvpEngine(product_all_ground(9), mpo, max_chi=value)

    def test_state_and_mpo_site_counts_must_agree(self, setup_3x3):
        lat, params, v = setup_3x3
        with pytest.raises(InvalidConfig, match="site counts differ"):
            TdvpEngine(product_all_ground(4), build_mpo(lat, params, v), max_chi=8)

    def test_lanczos_rejects_empty_basis(self):
        with pytest.raises(InvalidConfig, match="k_max"):
            expm_lanczos(lambda x: x, np.ones(4, dtype=complex), -1j, k_max=0, tol=1e-12)

    def test_zero_pulse(self, setup_3x3):
        lat, params, _ = setup_3x3
        result = run_quench(lat, dataclasses.replace(params, t_pulse=0.0), max_chi=8)
        assert len(result.maps) == 1
        assert result.records == []

    def test_memory_budget_refusal(self, setup_3x3):
        lat, params, _ = setup_3x3
        with pytest.raises(MemoryBudgetExceeded):
            run_quench(lat, params, max_chi=64, memory_budget_bytes=1e6)

    def test_single_site_lattice(self):
        lat, params, _ = paper_setup(1, 1, t_pulse=10e-9)
        result = run_quench(lat, params, max_chi=2)
        # single two-level system driven at Omega with Delta detuning:
        # Rabi formula for the excited-state population
        omega_eff = np.sqrt(params.omega**2 + params.delta**2)
        expected = (params.omega / omega_eff) ** 2 * np.sin(omega_eff * params.t_pulse / 2) ** 2
        assert result.maps[-1].values[0, 0] == pytest.approx(expected, abs=1e-9)
        exact = oracle.evolve_exact(lat, params)
        assert len(result.maps) == len(exact.maps)
        for got, want in zip(result.maps, exact.maps):  # every step, not only the last
            assert np.abs(got.values - want.values).max() < 1e-9
        assert all(r.pair_windows == 0 for r in result.records)  # no interior bond to grow

    def test_lanczos_full_krylov_space_is_converged(self):
        """A basis that spans the whole space gives exp(cH) v exactly, even
        when neither early stop fires (forced here with a zero tolerance)."""
        rng = np.random.default_rng(8)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (m + m.conj().T) * (0.3e8 / np.linalg.norm(m + m.conj().T, 2))
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeff = -1j * 1e-8  # ||coeff H|| = 0.6
        res = expm_lanczos(lambda x: h @ x, v, coeff, k_max=50, tol=0.0)
        assert res.iterations == 8 and res.converged
        want = expm(coeff * h) @ v
        assert np.linalg.norm(res.vector - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("growing, listing", [
        *(pytest.param("1" * (n - 1), listing, id=f"two-site-{n}") for n, listing in [
            (2, "0:2 h"),
            (3, "0:2 h, 1:1 b, 1:2 h"),
            (4, "0:2 h, 1:1 b, 1:2 h, 2:1 b, 2:2 h"),
            (5, "0:2 h, 1:1 b, 1:2 h, 2:1 b, 2:2 h, 3:1 b, 3:2 h"),
            (6, "0:2 h, 1:1 b, 1:2 h, 2:1 b, 2:2 h, 3:1 b, 3:2 h, 4:1 b, 4:2 h"),
        ]),
        *(pytest.param("0" * (n - 1), listing, id=f"one-site-{n}") for n, listing in [
            (1, "0:1 h"),
            (2, "0:1 h, 1:0 b, 1:1 h"),
            (3, "0:1 h, 1:0 b, 1:1 h, 2:0 b, 2:1 h"),
            (4, "0:1 h, 1:0 b, 1:1 h, 2:0 b, 2:1 h, 3:0 b, 3:1 h"),
            (5, "0:1 h, 1:0 b, 1:1 h, 2:0 b, 2:1 h, 3:0 b, 3:1 h, 4:0 b, 4:1 h"),
        ]),
        *(pytest.param(growing, listing, id=f"mixed-{growing}") for growing, listing in [
            ("100", "0:2 h, 2:0 b, 2:1 h, 3:0 b, 3:1 h"),
            ("001", "0:1 h, 1:0 b, 1:1 h, 2:0 b, 2:2 h"),
            ("101", "0:2 h, 2:0 b, 2:2 h"),
            ("010", "0:1 h, 1:0 b, 1:2 h, 3:0 b, 3:1 h"),
            ("1100", "0:2 h, 1:1 b, 1:2 h, 3:0 b, 3:1 h, 4:0 b, 4:1 h"),
            ("0011", "0:1 h, 1:0 b, 1:1 h, 2:0 b, 2:2 h, 3:1 b, 3:2 h"),
            ("1010", "0:2 h, 2:0 b, 2:2 h, 4:0 b, 4:1 h"),
            ("0101", "0:1 h, 1:0 b, 1:2 h, 3:0 b, 3:2 h"),
        ]),
    ])
    def test_sweep_schedule(self, growing, listing):
        """``growing``: one flag per bond, 1 when it is below its bound.
        i:w: the w-site window from site i (w = 0: the bond left of site i);
        h: forward half step, b: backward half step, listed as signed half
        steps of dt.  A pair covers every growing bond and one-site windows
        the rest, so all flags set give the two-site pass and none the
        one-site pass.  The pass over the mirrored bonds runs the same
        windows, mirrored, in reverse: it starts at the turn, the last
        window of this one."""
        halves = {"h": 1, "b": -1}
        expected = []
        for op in listing.split(", "):
            window, c = op.split()
            i, w = map(int, window.split(":"))
            expected.append((i, w, halves[c]))
        flags = [flag == "1" for flag in growing]
        assert sweep_ops(flags) == expected
        n = len(growing) + 1
        assert sweep_ops(flags[::-1]) == [(n - i - w, w, h) for i, w, h in reversed(expected)]

    @staticmethod
    def _hand_counted_step(state, mpo, max_chi, monkeypatch):
        """One step's record, its apply multiply-adds counted by hand and its
        solve count.  The windows are the ones ``sweep_ops`` lists for the
        bonds below their bounds, one pass over the chain and one over its
        mirror image, which reverses the bond dims and the MPO bond profile;
        a window solves when the run of linked windows through it ends there
        and its half steps do not sum to zero.  The turn, the last window of
        the first pass, is linked to its visit that starts the second.  A
        site (a, 2, b) and the bond beside it are linked when the site is
        square toward that bond (2a <= b toward the bond after it, 2b <= a
        toward the one before), and a site of the first pass that is not
        carries its run to its own visit in the second when every site
        beyond it is square toward its left.  Shapes are read from the bond
        dims the last solve saw.  A site or pair pays the smaller of its two
        MPO bonds, w, by being solved on the mirrored chain when the right
        one is smaller, which swaps its MPS bonds a and b.  Per apply, at
        the bonds each solve sees and times the applies it makes: the GEMM
        through the left environment over its w - 1 channels that are not
        the identity, the GEMMs through the folded right environments over
        the w - 1 channels whose fold is not the identity (all w at a chain
        end, where no channel passes the identity on) and, on a site or
        pair, the onsite block's s x s mix of the vector."""
        h = mpo.bond_profile
        solves = []  # (bond dims during the solve, applies it makes)

        def counting_lanczos(matvec, x, coeff, **kwargs):
            calls = []
            res = expm_lanczos(lambda y: calls.append(1) or matvec(y), x, coeff, **kwargs)
            solves.append((state.bond_dims, len(calls)))
            return res

        monkeypatch.setattr(evolve, "expm_lanczos", counting_lanczos)
        n = state.n_sites
        bounds = [min(max_chi, 2**j, 2 ** (n - j)) for j in range(1, n)]
        growing = [b < bound for b, bound in zip(state.bond_dims[1:-1], bounds)]
        ops = sweep_ops(growing)
        turn = len(ops)
        ops += sweep_ops(growing[::-1])
        bonds = state.bond_dims
        record = TdvpEngine(state, mpo, max_chi=max_chi).step(1e-9)

        def square(j, side):
            return 2 * bonds[j] <= bonds[j + 1] if side == "right" else 2 * bonds[j + 1] <= bonds[j]

        expected, pending, carry, seen = 0, 0, 0, iter(solves)
        for k, (i, width, halves) in enumerate(ops):
            if k == turn:  # the reflection: site j becomes site n - 1 - j
                bonds, h = bonds[::-1], h[::-1]
            pending += halves
            if k >= carry:
                carry = k
                nxt, nxt_width = ops[k + 1][:2] if k + 1 < len(ops) else (None, None)
                if k + 1 == turn:
                    carry = k + 1
                elif (width, nxt_width) == (1, 0):
                    if square(i, "right"):
                        carry = k + 1
                    elif k < turn and all(square(j, "left") for j in range(i + 1, n)):
                        carry = len(ops) - 1 - k
                elif (width, nxt_width) == (0, 1) and square(nxt, "left"):
                    carry = k + 1
            if k < carry or pending == 0:
                continue
            pending = 0
            bonds, n_applies = next(seen)
            s, a, b = 2**width, bonds[i], bonds[i + width]
            if width and h[i + width] < h[i]:  # solved on the mirrored chain
                a, b, w, passing = b, a, h[i + width], int(i + width < n)
            else:
                w, passing = h[i], int(i > 0)
            onsite = s * s * a * b if width else 0
            expected += n_applies * (s * a * b * ((w - 1) * a + (w - passing) * b) + onsite)
        assert next(seen, None) is None
        return record, expected, len(solves)

    def test_apply_madds_hand_count(self, setup_3x3, monkeypatch):
        """One saturated 3x3 chi=4 step runs one-site: its bonds never change.
        Sites 0 and 1 cancel against bonds 1 and 2 both ways, the block of
        sites 7 and 8 is complete, so site 6 solves once on its return: 17
        solves of the 33 windows."""
        lat, params, v = setup_3x3
        state = random_state(9, chi=4, rng=np.random.default_rng(5))
        chi = state.bond_dims
        record, expected, n_solves = self._hand_counted_step(
            state, build_mpo(lat, params, v), 4, monkeypatch)
        assert record.pair_windows == 0
        assert state.bond_dims == chi == [1, 2, 4, 4, 4, 4, 4, 4, 2, 1]
        assert record.apply_madds == expected > 0
        assert record.lanczos_solves == n_solves == 17

    def test_apply_madds_hand_count_two_site(self, setup_3x3, monkeypatch):
        """The same state under a chi cap of 8 is not saturated: the step runs
        a pair window at each of the four bonds below 8, one-site windows at
        the four edge sites, and the pair splits grow those bonds.  The edge
        windows all cancel, so only the 14 pair and site back-step windows
        solve."""
        lat, params, v = setup_3x3
        state = random_state(9, chi=4, rng=np.random.default_rng(5))
        record, expected, n_solves = self._hand_counted_step(
            state, build_mpo(lat, params, v), 8, monkeypatch)
        assert record.pair_windows == 4
        assert state.bond_dims == [1, 2, 4, 8, 8, 8, 8, 4, 2, 1]
        assert record.apply_madds == expected > 0
        assert record.lanczos_solves == n_solves == 14

    def test_turn_pair_is_split_once(self, setup_3x3, monkeypatch):
        """From |0...0> every bond grows, so the first 3x3 step is the
        two-site sweep, with the pair {7, 8} as its turn.  Each pass splits
        every pair it leaves, with one environment update each; the turn is
        split only at its second visit, after the reflection: 2 * 8 - 1
        splits and updates."""
        lat, params, v = setup_3x3
        engine = TdvpEngine(product_all_ground(9), build_mpo(lat, params, v), max_chi=8)
        calls = []
        for name in ("_split_theta", "update_left_env"):
            f = getattr(evolve, name)
            monkeypatch.setattr(evolve, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        assert engine.step(1e-9).pair_windows == 8
        assert calls.count("_split_theta") == calls.count("update_left_env") == 15

    @pytest.mark.parametrize("max_chi, one_site", [(4, True), (8, False)])
    def test_environments_released_behind_the_sweep(self, setup_3x3, monkeypatch, max_chi,
                                                    one_site):
        """A saturated 3x3 chi=4 state, one-site under cap 4 and with pair
        windows at the bonds below 8 under cap 8: at most N + 2 environments
        are held at any solve, and after each step only left_envs[0] and
        every right environment."""
        lat, params, v = setup_3x3
        state = random_state(9, chi=4, rng=np.random.default_rng(5))
        engine = TdvpEngine(state, build_mpo(lat, params, v), max_chi=max_chi)
        held = []

        def counting_lanczos(*args, **kwargs):
            held.append(sum(e.size > 0 for e in engine.left_envs + engine.right_envs))
            return expm_lanczos(*args, **kwargs)

        monkeypatch.setattr(evolve, "expm_lanczos", counting_lanczos)
        schedules = []
        for _ in range(2):  # under cap 8 the first step saturates every bond
            schedules.append(engine.step(1e-9).pair_windows == 0)
            assert [e.size > 0 for e in engine.left_envs] == [True] + [False] * 8
            assert all(e.size > 0 for e in engine.right_envs)
        assert schedules == [one_site, True]
        assert max(held) <= 9 + 2

    @pytest.mark.parametrize("omega_zero", [True, False], ids=["omega-0", "omega-paper"])
    def test_growing_bond_beside_saturated_ones(self, omega_zero):
        """A 2x2 state with bonds [1, 1, 4, 2, 1] and site 0 in |0>: bond 1 is
        below its bound 2, bonds 2 and 3 sit at theirs, so the first step runs
        one pair window next to two one-site windows.  At Omega = 0 site 0
        stays |0>, the pair splits at rank 1, and the QR that splits bond 2
        off site 1 has rank 2, below the bond's 4: the bond shrinks to it.
        Either way every step keeps the state canonical and matches the dense
        propagator, as the bonds can hold the exact state."""
        lat, params, v = paper_setup(2, 2)
        if omega_zero:
            params = dataclasses.replace(params, omega=0.0)
        state = _right_canonical_state([1, 1, 4, 2, 1], np.random.default_rng(1))
        state.tensors[0] = np.array([1.0, 0.0], dtype=complex).reshape(1, 2, 1)
        engine = TdvpEngine(state, build_mpo(lat, params, v), max_chi=8)
        u = expm(-1j * params.dt * dense_hamiltonian(params, v.v[::-1, ::-1]))
        psi = mps_to_vector(state)
        pair_windows = []
        for _ in range(3):
            pair_windows.append(engine.step(params.dt).pair_windows)
            psi = u @ psi
            assert check_canonical(state, tol=1e-12)
            assert np.abs(mps_to_vector(state) - psi).max() <= 1e-12
        if omega_zero:
            assert pair_windows == [1, 2, 2] and state.bond_dims == [1, 1, 2, 2, 1]
        else:
            assert pair_windows == [1, 0, 0] and state.bond_dims == [1, 2, 4, 2, 1]

    def test_energy_expectation_matches_full_contraction(self, setup_3x3):
        lat, params, v = setup_3x3
        mpo = build_mpo(lat, params, v)
        rng = np.random.default_rng(3)
        state = random_state(9, chi=8, rng=rng)
        engine = TdvpEngine(state, mpo, max_chi=8)
        assert engine.energy() == pytest.approx(mpo_expectation(state, mpo), rel=1e-9)

    def test_reflecting_twice_restores_the_engine(self, setup_3x3):
        """A reflection relabels the chain and a second one undoes it: every
        tensor comes back bit for bit, in the same list, with the same
        environment objects in the same slots and the same MPO tables, and
        the energy does not move.  The engine is checked after a step, so
        the step has left it in its own orientation."""
        lat, params, v = setup_3x3
        state = random_state(9, chi=8, rng=np.random.default_rng(4))
        engine = TdvpEngine(state, build_mpo(lat, params, v), max_chi=8)
        engine.step(1e-9)
        tensors, before = state.tensors, [t.copy() for t in state.tensors]
        envs = (list(engine.left_envs), list(engine.right_envs))
        blocks, energy = engine._blocks, engine.energy()
        engine._reflect()
        assert state.tensors[0].shape == before[-1].shape[::-1]
        assert engine.left_envs[0] is envs[1][-1] and engine._blocks is not blocks
        engine._reflect()
        assert state.tensors is tensors
        assert all(np.array_equal(t, b) for t, b in zip(state.tensors, before, strict=True))
        for held, kept in zip((engine.left_envs, engine.right_envs), envs):
            assert all(e is f for e, f in zip(held, kept, strict=True))
        assert engine._blocks is blocks
        assert engine.energy() == energy


def _right_canonical_state(dims, rng):
    """A random MPS with bond dimensions ``dims`` (boundaries included),
    right-canonical with its norm-1 center at site 0."""
    tensors = [_random_complex(rng, (l, 2, r)) for l, r in zip(dims, dims[1:])]
    for i in range(len(tensors) - 1, 0, -1):
        l, d, r = tensors[i].shape
        q, rmat = np.linalg.qr(tensors[i].reshape(l, d * r).conj().T)
        tensors[i] = q.conj().T.reshape(l, d, r)
        tensors[i - 1] = np.tensordot(tensors[i - 1], rmat.conj().T, axes=1)
    tensors[0] /= np.linalg.norm(tensors[0])
    return MpsState(tensors)


def _seeded_tridiagonal(k):
    """alphas ~ 3e7 and betas ~ 1e7: the scale of a TDVP local projection."""
    rng = np.random.default_rng(k)
    return 3e7 * rng.standard_normal(k), 1e7 * rng.uniform(0.5, 1.5, k - 1)


class TestLanczosKernels:
    COEFF = -0.5j * 1e-9

    def test_tridiagonal_exponential_matches_dense_expm(self):
        for k in range(1, 51):
            alphas, betas = _seeded_tridiagonal(k)
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            want = expm(self.COEFF * t)[:, 0]
            got = _expm_tridiag(alphas, betas, self.COEFF)[0][0]
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), k

    def test_tridiagonal_exponential_uses_the_off_diagonal(self):
        """A solve that lost the betas (say, by filling the triangle eigh does
        not read) is off by far more than the tolerance above."""
        alphas, betas = _seeded_tridiagonal(7)
        want = _expm_tridiag(alphas, betas, self.COEFF)[0][0]
        dropped = _expm_tridiag(alphas, np.zeros_like(betas), self.COEFF)[0][0]
        assert np.linalg.norm(dropped - want) > 1e-3 * np.linalg.norm(want)

    @pytest.mark.parametrize("max_chi", [3, 64])
    def test_svd_fallback_matches_gesdd_split(self, monkeypatch, max_chi):
        """When numpy's gesdd raises, scipy's gesvd gives the same split."""
        theta = _random_complex(np.random.default_rng(5), (6, 2, 2, 5))
        gesdd = _split_theta(theta, max_chi)
        svd, failed = np.linalg.svd, []

        def fails_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        left, right, discarded = _split_theta(theta, max_chi)
        assert failed
        assert left.shape[2] == gesdd[0].shape[2] == min(max_chi, 10)
        assert discarded == pytest.approx(gesdd[2], rel=1e-12, abs=1e-15)
        rebuilt = np.tensordot(left, right, axes=1)
        want = np.tensordot(gesdd[0], gesdd[1], axes=1)
        assert np.abs(rebuilt - want).max() <= 1e-12 * np.abs(want).max()
        if max_chi >= 10:
            assert np.abs(rebuilt - theta).max() <= 1e-12 * np.abs(theta).max()


class TestFullRankConservation:
    @given(
        lx=st.integers(1, 3),
        ly=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        dt_ns=st.floats(0.2, 5.0),
        n_steps=st.integers(3, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_norm_and_energy_conserved(self, lx, ly, seed, dt_ns, n_steps):
        """At full rank the TDVP projector is the identity, so every step is
        unitary under a time-independent H; ``energy`` reads the environments
        the sweep left live."""
        lat, params, v = paper_setup(lx, ly)
        n = lat.n_sites
        mpo = build_mpo(lat, params, v)
        chi = 2 ** (n // 2)
        state = random_state(n, chi, np.random.default_rng(seed))
        e0 = mpo_expectation(state, mpo)
        engine = TdvpEngine(state, mpo, max_chi=chi)
        tol = 1e-10 * n * params.omega / 2
        for _ in range(n_steps):
            record = engine.step(dt_ns * 1e-9)
            assert abs(record.energy - e0) <= tol
            assert abs(mps_norm(state) - 1.0) <= 1e-10


class TestOneSite:
    @pytest.mark.parametrize("lx, ly", [(2, 2), (3, 2), (3, 3)])
    def test_full_manifold_steps_match_dense_expm(self, lx, ly):
        """Every bond at 2^min(j, N-j): the one-site projector is the identity,
        so each step is exp(-i H dt) on the 2^N amplitudes, and one solve:
        every other window belongs to a run of linked windows that sums to
        zero."""
        lat, params, v = paper_setup(lx, ly)
        n = lat.n_sites
        chi = 2 ** (n // 2)
        state = random_state(n, chi, np.random.default_rng(n))
        engine = TdvpEngine(state, build_mpo(lat, params, v), max_chi=chi)
        u = expm(-1j * params.dt * dense_hamiltonian(params, v.v[::-1, ::-1]))
        psi = mps_to_vector(state)
        for _ in range(5):
            record = engine.step(params.dt)
            psi = u @ psi
            assert record.pair_windows == 0
            assert record.lanczos_solves == 1
            assert np.abs(mps_to_vector(state) - psi).max() <= 1e-12

    def test_linked_pair_returns_its_input(self):
        """Site 1 of a 2x2 state with bonds [1, 2, 4, 2, 1] has shape
        (2, 2, 4): its isometry toward bond 2 is square.  Its forward half
        step, the QR that splits bond 2 off it and the bond's backward half
        step, each solved through ``expm_lanczos`` and ``_LocalApply``, give
        back the site they started from: the pair a sweep skips is the
        identity."""
        lat, params, v = paper_setup(2, 2)
        state = random_state(4, 4, np.random.default_rng(2))
        engine = TdvpEngine(state, build_mpo(lat, params, v), max_chi=4)
        site_blocks, bond_blocks = engine._blocks[1][1], engine._blocks[0][2]
        right = engine.right_envs[1]
        q0, r0 = np.linalg.qr(state.tensors[0].reshape(2, 2))
        left = update_left_env(engine.left_envs[0], q0.reshape(1, 2, 2), engine._blocks[1][0])
        x = np.tensordot(r0, state.tensors[1], axes=1)  # the centre on site 1

        def half_step(left, blocks, t, halves):
            apply_h = _LocalApply(left, right, blocks)
            res = expm_lanczos(apply_h, t.transpose(1, 0, 2).ravel(), -0.5j * params.dt * halves,
                               k_max=engine.k_max, tol=evolve.LANCZOS_TOL)
            assert res.converged
            return res.vector.reshape(t.shape[1], t.shape[0], t.shape[2]).transpose(1, 0, 2)

        y = half_step(left, site_blocks, x, 1)
        assert np.abs(y - x).max() > 1e-3  # the half step moves the site
        q, bond = np.linalg.qr(y.reshape(4, 4))
        bond_left = update_left_env(left, q.reshape(2, 2, 4), site_blocks)
        back = half_step(bond_left, bond_blocks, bond[:, None, :], -1)
        assert np.abs((q @ back[:, 0, :]).reshape(x.shape) - x).max() <= 1e-11

    @pytest.fixture(scope="class")
    def quench_4x4(self):
        """The 4x4 quench over 100 ns at a chi cap of 16 and its oracle run."""
        lat, params, _ = paper_setup(4, 4, t_pulse=100e-9)
        return lat, params, run_quench(lat, params, max_chi=16), oracle.evolve_exact(lat, params)

    def test_switch_conserves_energy(self, quench_4x4):
        """The bonds reach their bounds at step 29; every later step is
        one-site, truncates nothing and keeps the energy to rounding."""
        lat, params, traj, _ = quench_4x4
        one_site = [r.pair_windows == 0 for r in traj.records]
        assert one_site == [False] * 28 + [True] * 72
        assert all(r.truncation_weight_step == 0.0 for r in traj.records[28:])
        assert energy_drift(traj.energies[28:], energy_scale(lat, params)) <= 1e-11

    def test_switched_run_matches_oracle(self, quench_4x4):
        _, _, traj, exact = quench_4x4
        assert np.abs(traj.maps[-1].values - exact.maps[-1].values).max() <= 1e-6


@pytest.mark.parametrize("t_pulse, dt", [(-5e-9, 1e-9), (math.inf, 1e-9), (10e-9, 0.0),
                                         (10e-9, -1e-9), (10e-9, math.nan)])
@pytest.mark.parametrize("backend", ["tdvp", "exact"])
def test_both_backends_refuse_bad_pulse_or_step(backend, t_pulse, dt):
    lat, params, _ = paper_setup(2, 2)
    params = dataclasses.replace(params, t_pulse=t_pulse, dt=dt)
    with pytest.raises(InvalidConfig, match="t_pulse must be|dt must be"):
        if backend == "tdvp":
            run_quench(lat, params, max_chi=4)
        else:
            oracle.evolve_exact(lat, params)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _block_apply(left, right, wop, x, blocks=None):
    """The engine's apply on an (a, s, b) tensor, through its (s, a, b) layout,
    with the blocks of ``wop`` and no identity channels unless ``blocks``
    are given."""
    apply_h = _LocalApply(left, right, _split_blocks(wop) if blocks is None else blocks)
    out = apply_h(x.transpose(1, 0, 2).ravel())
    return out.reshape(x.shape[1], left.shape[2], right.shape[2]).transpose(1, 0, 2)


def _assert_matches_dense(left, right, wop, ref_wop, rng):
    """The block apply and the block environment update on a random
    (a, s, b) tensor against their dense references, the update both ways:
    a right environment grows as the left one of the mirrored site, the
    (b, s, a) view under the (w', t, s, w) MPO tensor."""
    x = _random_complex(rng, (left.shape[0], wop.shape[2], right.shape[0]))
    ref = dense_local_apply(left, right, ref_wop, x)
    got = _block_apply(left, right, wop, x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    blocks, mirrored = _split_blocks(wop), _split_blocks(wop.transpose(3, 1, 2, 0))
    for got, ref in ((update_left_env(left, x, blocks), dense_left_env(left, x, ref_wop)),
                     (update_left_env(right, x.transpose(2, 1, 0), mirrored),
                      dense_right_env(right, x, ref_wop))):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestBlockApply:
    def test_mpo_is_real_and_exact(self, setup_3x3):
        lat, params, v = setup_3x3
        mpo = build_mpo(lat, params, v)
        assert all(w.dtype == np.float64 for w in mpo.tensors)
        expected = dense_hamiltonian(params, v.v[::-1, ::-1])
        assert np.abs(mpo_dense_matrix(mpo) - expected).max() <= 1e-10 * np.abs(expected).max()

    @given(
        lx=st.integers(1, 3),
        ly=st.integers(1, 4),
        cutoff_factor=st.floats(1.0, 4.0),
        chis=st.lists(st.integers(1, 16), min_size=11, max_size=11),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_site_and_pair_matches_dense_reference(self, lx, ly, cutoff_factor, chis, seed):
        lat, params, v = paper_setup(lx, ly, cutoff_factor)
        mpo = build_mpo(lat, params, v)
        n, w = lat.n_sites, mpo.tensors
        rng = np.random.default_rng(seed)
        bonds = [1, *chis[: n - 1], 1]
        envs = [_random_complex(rng, (c, h, c)) for c, h in zip(bonds, mpo.bond_profile)]
        for i in range(n):
            _assert_matches_dense(envs[i], envs[i + 1], w[i], w[i], rng)
        for i in range(n - 1):
            pair, ref_pair = _merge_mpo_pair(w[i], w[i + 1]), merge_mpo_pair(w[i], w[i + 1])
            _assert_matches_dense(envs[i], envs[i + 2], pair, ref_pair, rng)

    @pytest.mark.parametrize("omega_zero", [False, True], ids=["omega-paper", "omega-0"])
    @pytest.mark.parametrize("side", [4, 6])
    def test_first_bulk_and_last_site_match_dense_reference(self, side, omega_zero):
        """The first, a bulk and the last site of the 4x4 and 6x6 MPOs, with
        unequal bonds on the two sides; at Omega = 0 the onsite block is
        diagonal, so no site has a non-diagonal block."""
        lat, params, v = paper_setup(side, side)
        if omega_zero:
            params = dataclasses.replace(params, omega=0.0)
        mpo = build_mpo(lat, params, v)
        n, h = lat.n_sites, mpo.bond_profile
        rng = np.random.default_rng(side)
        for i in (0, n // 2, n - 1):
            chi_l, chi_r = (1 if i == 0 else 12), (1 if i == n - 1 else 9)
            left = _random_complex(rng, (chi_l, h[i], chi_l))
            right = _random_complex(rng, (chi_r, h[i + 1], chi_r))
            assert len(_split_blocks(mpo.tensors[i])[1]) == (0 if omega_zero else 1)
            _assert_matches_dense(left, right, mpo.tensors[i], mpo.tensors[i], rng)

    @given(d=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_block_pattern_matches_dense_reference(self, d, seed):
        """Zero, c*I, diagonal and full blocks in any arrangement."""
        rng = np.random.default_rng(seed)
        w, wr, chi_l, chi_r = rng.integers(1, 7, size=4)
        wop = np.zeros((w, d, d, wr))
        for i, j in np.ndindex(w, wr):
            kind = rng.integers(4)
            if kind == 1:
                wop[i, :, :, j] = rng.standard_normal() * np.eye(d)
            elif kind == 2:
                wop[i, :, :, j] = np.diag(rng.standard_normal(d))
            elif kind == 3:
                wop[i, :, :, j] = rng.standard_normal((d, d))
        left = _random_complex(rng, (chi_l, w, chi_l))
        right = _random_complex(rng, (chi_r, wr, chi_r))
        _assert_matches_dense(left, right, wop, wop, rng)


    @pytest.mark.parametrize("side, chi", [(3, 4), (4, 8)])
    def test_identity_channels_match_dense_reference(self, side, chi):
        """Environments built from a canonical random MPS, the left ones from
        a left-canonical form and the right ones from a right-canonical form
        of the same bond dims: the ``ready`` channel of every left one and
        the ``done`` channel of every right one is I, and the apply that
        skips them matches the dense reference at every bond, site and pair
        window, in the chain's own frame and in the mirrored one."""
        lat, params, v = paper_setup(side, side)
        mpo = build_mpo(lat, params, v)
        n, w = lat.n_sites, mpo.tensors
        rng = np.random.default_rng(side)
        left_canonical = [t.transpose(2, 1, 0) for t in random_state(n, chi, rng).tensors[::-1]]
        right_canonical = random_state(n, chi, rng).tensors
        lefts, rights = [np.ones((1, 1, 1), dtype=complex)], [np.ones((1, 1, 1), dtype=complex)]
        for a, b, wl, wr in zip(left_canonical, right_canonical[::-1], w, w[::-1]):
            lefts.append(dense_left_env(lefts[-1], a, wl))
            rights.append(dense_right_env(rights[-1], b, wr))
        rights.reverse()  # rights[j]: sites j ... N-1, the environment right of bond j
        tables = (evolve._window_blocks(w),
                  evolve._window_blocks([t.transpose(3, 1, 2, 0) for t in w[::-1]]))
        windows = [(0, i) for i in range(1, n)] + [(1, i) for i in range(n)]
        for width, i in windows + [(2, i) for i in range(n - 1)]:
            left, right = lefts[i], rights[i + width]
            wop = (np.eye(w[i].shape[0])[:, None, None, :] if width == 0 else
                   w[i] if width == 1 else merge_mpo_pair(w[i], w[i + 1]))
            x = _random_complex(rng, (left.shape[0], wop.shape[2], right.shape[0]))
            ref = dense_local_apply(left, right, wop, x)
            blocks, mirrored = tables[0][width][i], tables[1][width][n - i - width]
            for env, channel in ((left, blocks.ready), (right, blocks.done)):
                assert np.abs(env[:, channel, :] - np.eye(env.shape[0])).max() <= 1e-12
            assert (mirrored.ready, mirrored.done) == (blocks.done, blocks.ready)
            got = _block_apply(left, right, wop, x, blocks)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            # the mirrored window: every axis reversed, so a pair's index reverses too
            split = (x.shape[0], *([2] * width or [1]), x.shape[2])
            mirror_x = x.reshape(split).T.reshape(right.shape[0], -1, left.shape[0])
            got = _block_apply(right, left, None, mirror_x, mirrored)
            want = ref.reshape(split).T.reshape(got.shape)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("side, max_chi, n_steps", [(3, 4, 3), (4, 8, 5)])
    def test_identity_channels_stay_identity(self, side, max_chi, n_steps, monkeypatch):
        """Through steps of the 3x3 and 4x4 quenches that mix pair and
        one-site windows, in both passes and so in both frames, every
        environment the engine holds at each solve has its identity channel
        equal to I."""
        lat, params, v = paper_setup(side, side)
        n = lat.n_sites
        engine = TdvpEngine(product_all_ground(n), build_mpo(lat, params, v), max_chi=max_chi)
        deviations = []

        def checked(*args, **kwargs):
            held = [(env, blocks.ready) for env, blocks in zip(engine.left_envs, engine._blocks[1])]
            held += [(env, blocks.done) for env, blocks in zip(engine.right_envs, engine._blocks[1])]
            deviations.extend(np.abs(env[:, c, :] - np.eye(env.shape[0])).max()
                              for env, c in held if env.size)
            return expm_lanczos(*args, **kwargs)

        monkeypatch.setattr(evolve, "expm_lanczos", checked)
        pairs = [engine.step(params.dt).pair_windows for _ in range(n_steps)]
        assert any(0 < p < n - 1 for p in pairs)
        assert len(deviations) > 10 * n and max(deviations) <= 1e-12


def _truncated_4x4():
    """4x4 state after three TDVP steps from |0...0> with a chi cap of 8, far
    below the 2^8 a 16-site MPS can hold, so the steps truncate."""
    lat, params, v = paper_setup(4, 4)
    state = product_all_ground(16, max_chi=8)
    engine = TdvpEngine(state, build_mpo(lat, params, v), max_chi=8)
    assert sum(engine.step(5e-9).truncation_weight_step for _ in range(3)) > 0.0
    return state


class TestSiteExpectations:
    @pytest.mark.parametrize("op", [NUMBER_OP, SIGMA_Y], ids=["n", "sigma_y"])
    @pytest.mark.parametrize(
        "make_state",
        [
            pytest.param(lambda: product_all_ground(5), id="product"),
            *(
                pytest.param(
                    lambda n=n, chi=chi: random_state(n, chi, np.random.default_rng(n + chi)),
                    id=f"random-{n}-chi{chi}",
                )
                for n in (9, 16)
                for chi in (2, 8, 32)
            ),
            pytest.param(_truncated_4x4, id="tdvp-truncated"),
        ],
    )
    def test_one_pass_matches_two_pass_reference(self, make_state, op):
        state = make_state()
        got = site_expectations(state, op)
        assert np.abs(got - site_expectations_any_gauge(state, op)).max() <= 1e-12


class TestRectangularLattice:
    def test_2x3_matches_oracle(self):
        lat, params, _ = paper_setup(3, 2, t_pulse=100e-9)
        traj = oracle.evolve_exact(lat, params)
        result = run_quench(lat, params, max_chi=16)
        assert result.maps[-1].values.shape == (2, 3)
        assert np.abs(result.maps[-1].values - traj.maps[-1].values).max() <= 1e-3


class TestScalingShape:
    def test_chi_slope_bridges_the_two_cost_regimes(self):
        """Log-log slope of the counted apply multiply-adds of one saturated
        step vs chi at fixed N over the top sampled decade; the chi^2 bath
        term and the chi^3 Lanczos term bound it between 2 and 3.

        Measured at N = 25 over chi in {16, 32, 64, 128}, where every bulk
        bond sits at the cap.  The count does not depend on the host, unlike
        the wall time, whose rate rises with chi (criterion 8 gates the
        measured wall-clock shape).
        """
        lat, params, _ = paper_setup(5, 5)
        madds = {}
        for chi in (16, 32, 64, 128):
            [record] = benchmark_steps(lat, params, chi, n_steps=1, warmup=0)
            madds[chi] = record.apply_madds
        xs = np.log(sorted(madds))
        ys = np.log([madds[c] for c in sorted(madds)])
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert 2.0 <= slope <= 3.0, f"slope {slope:.2f} from {madds}"


class TestBenchmark:
    def test_benchmark_and_csv_roundtrip(self, tmp_path, setup_3x3):
        lat, params, _ = setup_3x3
        records = benchmark_steps(lat, params, chi=8, n_steps=2, warmup=1)
        assert len(records) == 2
        assert all(r.max_chi_used == 8 for r in records)
        path = tmp_path / "timing.csv"
        sample = step_sample(lat.n_sites, records, "cpu-test")
        write_timing_csv(path, [dataclasses.replace(sample, chi=16)], 1e-9, "manifest_sha256=a")
        write_timing_csv(path, [sample], 1e-9, "manifest_sha256=b")
        assert path.read_text().startswith("# manifest_sha256=b\n")
        samples = read_timing_csv(path)
        assert len(samples) == 1  # each write starts a fresh file
        assert (samples[0].n, samples[0].chi) == (9, 8)
        assert samples[0].seconds_per_step == pytest.approx(
            np.mean([r.wall_seconds for r in records])
        )
        assert samples[0].n_workers == 1

    def test_bond_cap_on_small_lattice(self, setup_3x3):
        lat, params, _ = setup_3x3
        records = benchmark_steps(lat, params, chi=64, n_steps=1, warmup=0)
        assert records[0].max_chi_used == 16  # 9-site MPS saturates at 2^4

    def test_cap_above_bond_bound_changes_nothing(self, setup_3x3):
        """The quench caches in conftest serve every cap above 2^(N//2) from
        the run at that bound; this holds only if the runs are bit-identical."""
        lat, params, _ = setup_3x3
        params = dataclasses.replace(params, t_pulse=40e-9)
        at_bound = run_quench(lat, params, max_chi=16)
        above = run_quench(lat, params, max_chi=64)
        assert max(r.max_chi_used for r in at_bound.records) == 16
        assert len(above.maps) == len(at_bound.maps)
        for a, b in zip(above.maps, at_bound.maps):
            assert np.array_equal(a.values, b.values)
        assert above.energies == at_bound.energies
