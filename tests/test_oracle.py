from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quench_bench import model, oracle
from quench_bench.convergence import d8_error, energy_drift, energy_scale
from quench_bench.errors import InvalidConfig, TooLargeForOracle
from quench_bench.lanczos import _divide, expm_lanczos
from quench_bench.mps import evolve, run_quench
import reference
from conftest import PAPER_HX, PAPER_OMEGA, paper_setup

# Independent RK4 value for the 2x2 lattice at the canonical quench point,
# t = 100 ns (reference.rk4_evolve, 40000 steps); all four sites agree by
# symmetry.
RK4_2X2_100NS_N = 0.320596934530


class TestInitialState:
    def test_t_zero_snapshot(self):
        lat, params, _ = paper_setup(2, 2, t_pulse=0.0)
        traj = oracle.evolve_exact(lat, params)
        assert len(traj.maps) == 1
        assert np.all(traj.maps[0].values == 0.0)
        assert traj.energies[0] == 0.0

    def test_omega_zero_is_stationary(self):
        lat, params, _ = paper_setup(2, 2, t_pulse=50e-9)
        traj = oracle.evolve_exact(lat, replace(params, omega=0.0))
        assert np.abs(traj.final_state[0] - 1.0) < 1e-12
        assert np.abs(traj.maps[-1].values).max() < 1e-12


class TestAgainstIndependentIntegrators:
    def test_2x2_at_100ns_vs_frozen_rk4(self):
        lat, params, _ = paper_setup(2, 2, t_pulse=100e-9)
        traj = oracle.evolve_exact(lat, params)
        final = traj.maps[-1].values.ravel()
        assert np.allclose(final, RK4_2X2_100NS_N, atol=1e-6)
        assert final.std() < 1e-9  # equal on all four sites by symmetry

    def test_2x2_vs_live_rk4(self):
        lat, params, v = paper_setup(2, 2, t_pulse=100e-9)
        traj = oracle.evolve_exact(lat, params)
        h = reference.dense_hamiltonian(params, v.v)
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        psi = reference.rk4_evolve(h, psi0, 100e-9, 8000)
        ref_n = reference.occupations_from_state(psi, 4)
        got = np.array([traj.maps[-1].values[r, c] for r, c in lat.rowcol])
        assert np.abs(got - ref_n).max() < 1e-6

    def test_3x3_vs_dense_expm(self):
        lat, params, v = paper_setup(3, 3, t_pulse=100e-9)
        traj = oracle.evolve_exact(lat, params)
        h = reference.dense_hamiltonian(params, v.v)
        psi0 = np.zeros(512, dtype=complex)
        psi0[0] = 1.0
        psi = expm(-1j * h * 100e-9) @ psi0
        ref_n = reference.occupations_from_state(psi, 9)
        got = np.array([traj.maps[-1].values[r, c] for r, c in lat.rowcol])
        assert np.abs(got - ref_n).max() < 1e-6

    def test_3x3_at_400ns_vs_dense_propagator(self, setup_3x3, oracle_3x3_400ns):
        """Every recorded map and energy against expm(-i H dt) applied step by
        step: a reference that shares no code with the Krylov propagator."""
        lat, params, v = setup_3x3
        psi0 = np.zeros(512, dtype=complex)
        psi0[0] = 1.0
        ref_n, ref_e = reference.propagator_trajectory(
            reference.dense_hamiltonian(params, v.v), psi0, 1e-9, 400
        )
        traj = oracle_3x3_400ns
        got_n = np.array([[m.values[r, c] for r, c in lat.rowcol] for m in traj.maps])
        assert got_n.shape == ref_n.shape
        assert np.abs(got_n - ref_n).max() < 1e-12
        scale = energy_scale(lat, params)
        assert np.abs(np.array(traj.energies) - ref_e).max() < 1e-12 * scale


def _hermitian(rng, dim, norm, real=False):
    m = rng.standard_normal((dim, dim))
    if not real:
        m = m + 1j * rng.standard_normal((dim, dim))
    h = m + m.conj().T
    return h * (norm / np.linalg.norm(h, 2))


def _assert_same_as_ungated(matvec, v, coeff, **kwargs):
    """Solve with ``expm_lanczos`` and with ``reference.ungated_lanczos``;
    assert the same iterations, convergence and bits, and return the solve."""
    solve = expm_lanczos(matvec, v, coeff, **kwargs)
    iterations, converged, rows, basis = reference.ungated_lanczos(matvec, v, coeff, **kwargs)
    assert (solve.iterations, solve.converged) == (iterations, converged)
    assert np.array_equal(solve.coefficients, rows)
    assert np.array_equal(solve.basis, basis)
    return solve


class TestKrylovTimeStepping:
    """expm_lanczos(..., steps=n) against scipy's expm at every output time."""

    DT = 1e-9

    def _check_states(self, h, v, solve, first_step=1):
        for j in range(solve.steps):
            want = expm(-1j * (first_step + j) * self.DT * h) @ v
            assert np.linalg.norm(solve.state(j) - want) <= 1e-12 * np.linalg.norm(v), j

    @pytest.mark.parametrize("real_start", [False, True])
    def test_complex_hermitian(self, real_start):
        rng = np.random.default_rng(11)
        h = _hermitian(rng, 64, 2e8)  # ||H dt|| = 0.2 per step
        v = rng.standard_normal(64) + (0 if real_start else 1j * rng.standard_normal(64))
        solve = expm_lanczos(lambda x: h @ x, v, -1j * self.DT, k_max=40, tol=1e-12, steps=12)
        assert solve.converged and solve.steps == 12
        assert solve.basis.dtype == complex
        self._check_states(h, v, solve)

    def test_real_symmetric_keeps_a_real_basis(self):
        rng = np.random.default_rng(12)
        h = _hermitian(rng, 64, 2e8, real=True)
        v = rng.standard_normal(64)
        solve = expm_lanczos(lambda x: h @ x, v, -1j * self.DT, k_max=40, tol=1e-12, steps=12)
        assert solve.converged and solve.steps == 12
        assert solve.basis.dtype == np.float64 and solve.vector.dtype == complex
        self._check_states(h, v, solve)

    def test_small_basis_restarts_reach_every_step(self):
        rng = np.random.default_rng(13)
        h = _hermitian(rng, 64, 2e8)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        psi, done, resolved = v, 0, []
        while done < 30:
            # 12 vectors resolve 4 steps of this H, so the 30 steps take 8 spaces
            solve = expm_lanczos(lambda x: h @ x, psi, -1j * self.DT, k_max=12, tol=1e-12,
                                 steps=30 - done)
            assert solve.converged and 1 <= solve.steps <= 30 - done
            self._check_states(h, v, solve, first_step=done + 1)
            psi, done = solve.vector, done + solve.steps
            resolved.append(solve.steps)
        assert done == 30 and len(resolved) > 1 and max(resolved) > 1

    def test_basis_too_small_for_one_step(self):
        rng = np.random.default_rng(14)
        h = _hermitian(rng, 64, 2e10)  # ||H dt|| = 20
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        solve = expm_lanczos(lambda x: h @ x, v, -1j * self.DT, k_max=5, tol=1e-12, steps=4)
        assert solve.steps == 1 and not solve.converged and solve.iterations == 5

    def test_basis_that_fills_the_space_resolves_every_step(self):
        rng = np.random.default_rng(15)
        h = _hermitian(rng, 8, 3e8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        # a zero tolerance keeps the residual test from ever passing
        solve = expm_lanczos(lambda x: h @ x, v, -1j * self.DT, k_max=50, tol=0.0, steps=6)
        assert solve.converged and solve.steps == 6 and solve.iterations == 8
        self._check_states(h, v, solve)

    @staticmethod
    def _operator(dim, step_norm, real, seed=16):
        """A Hermitian H with ||H dt|| = ``step_norm`` and a start vector;
        real symmetric with a real start (a real basis) or complex."""
        rng = np.random.default_rng([seed, dim])
        h = _hermitian(rng, dim, step_norm / TestKrylovTimeStepping.DT, real=real)
        v = rng.standard_normal(dim)
        return h, v if real else v + 1j * rng.standard_normal(dim)

    # 0.04 is about the median |coeff| ||T - sigma|| (Gershgorin) at which
    # the 4x4/40 ns quench's solves stop
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("dim", [4, 64, 512])
    @pytest.mark.parametrize("step_norm", [1e-3, 0.04, 0.5, 2.0])
    def test_single_step_within_tolerance(self, step_norm, dim, real):
        """The residual estimate stops a single step within tol * ||v||."""
        h, v = self._operator(dim, step_norm, real)
        solve = expm_lanczos(lambda x: h @ x, v, -1j * self.DT, k_max=40, tol=1e-12)
        assert solve.converged and solve.steps == 1
        want = expm(-1j * self.DT * h) @ v
        assert np.linalg.norm(solve.vector - want) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("steps", [1, 12])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("dim", [4, 64, 512])
    @pytest.mark.parametrize("step_norm", [1e-3, 0.04, 0.5, 2.0])
    def test_skipped_exponentials_never_move_a_stop(self, step_norm, dim, real, steps):
        """The solver skips the projection's exponential where its bound
        says step 1 must fail; a loop that takes it at every iteration stops
        at the same iteration with the same bits."""
        h, v = self._operator(dim, step_norm, real)
        _assert_same_as_ungated(lambda x: h @ x, v, -1j * self.DT, k_max=40, tol=1e-12,
                                steps=steps)

    def test_skipped_exponentials_in_tdvp_solves(self, setup_3x3, monkeypatch):
        """Every local solve of the first 12 steps of the 3x3 quench stops
        where the ungated loop stops; the last steps mix pair windows with
        site and bond windows."""
        lat, params, _ = setup_3x3
        solves = []

        def checked(matvec, v, coeff, **kwargs):
            solves.append(coeff)
            return _assert_same_as_ungated(matvec, v, coeff, **kwargs)

        monkeypatch.setattr(evolve, "expm_lanczos", checked)
        traj = run_quench(lat, replace(params, t_pulse=12e-9), max_chi=16)
        assert len(solves) > 100 and 0 < traj.records[-1].pair_windows < 8

    def test_row_division_matches_numpy_bit_for_bit(self):
        """The Krylov row w / beta as a multiply by 1 - 0j and a float64-view
        scale by 1 / beta: the same bits as numpy's complex division, signed
        zeros and subnormals included."""
        rng = np.random.default_rng(17)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, -3e-320, 1.5, -7e300])
        parts = rng.standard_normal((2, 4096)) * 10.0 ** rng.integers(-300, 300, (2, 4096))
        parts[:, : special.size**2] = np.array(np.meshgrid(special, special)).reshape(2, -1)
        w = np.empty(4096, dtype=complex)
        w.real, w.imag = parts  # not parts[0] + 1j * parts[1], which loses -0.0 real parts
        for beta in (1.0, 0.7, 3.0, 1e-200, 1e200, 6.02e23):
            out = np.empty_like(w)
            with np.errstate(over="ignore"):  # both overflow to the same infinities
                _divide(w, beta, out)
                want = np.divide(w, beta)
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64)), beta

    def test_steps_below_one_rejected(self):
        with pytest.raises(InvalidConfig, match="steps"):
            expm_lanczos(lambda x: x, np.ones(4), -1j, k_max=4, tol=1e-12, steps=0)


class TestKernels:
    @given(
        n=st.integers(1, 9),
        omega=st.floats(-1e3, 1e3),
        delta=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_and_occupations(self, n, omega, delta, seed):
        rng = np.random.default_rng(seed)
        v = np.triu(rng.standard_normal((n, n)), 1)
        v = v + v.T  # zero diagonal, as for every interaction matrix
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        ham = oracle.DenseHamiltonian(n, v, omega, delta)
        got = ham.apply(psi)

        h = reference.dense_hamiltonian(SimpleNamespace(omega=omega, delta=delta), v)
        scale = np.abs(h).sum(axis=1).max() * np.abs(psi).max()
        assert np.abs(got - h @ psi).max() <= 1e-12 * scale
        assert np.array_equal(got, reference.flip_apply(ham.diagonal, omega, psi))
        assert np.array_equal(
            oracle.occupations(psi), reference.occupations_from_state(psi, n)
        )


class TestConservation:
    def test_norm_and_energy(self, setup_3x3, oracle_3x3_400ns):
        lat, params, _ = setup_3x3
        traj = oracle_3x3_400ns
        assert abs(np.linalg.norm(traj.final_state) - 1.0) < 1e-10
        drift = energy_drift(traj.energies, energy_scale(lat, params))
        assert drift < 1e-8

    def test_d8_symmetry_preserved(self, oracle_3x3_400ns):
        for omap in oracle_3x3_400ns.maps[:: 50]:
            assert d8_error(omap) < 1e-8

    def test_c6_invariance(self):
        # physics depends only on ratios fixed by h_x: rescale C6 and compare
        omega = PAPER_OMEGA
        runs = []
        for c6 in (model.DEFAULT_C6, 2.0 * model.DEFAULT_C6):
            lat = model.lattice_for_quench(2, 2, omega, PAPER_HX, c6)
            params = model.derive_quench(omega, PAPER_HX, c6, lat, t_pulse=100e-9, dt=1e-9)
            traj = oracle.evolve_exact(lat, params)
            runs.append(traj.maps[-1].values)
        assert np.allclose(runs[0], runs[1], atol=1e-9)


class TestLimits:
    def test_too_large(self):
        lat, params, _ = paper_setup(6, 3, t_pulse=1e-9)  # 18 sites
        with pytest.raises(TooLargeForOracle):
            oracle.evolve_exact(lat, params)

    def test_export_csv(self, tmp_path):
        lat, params, _ = paper_setup(2, 2, t_pulse=2e-9)
        traj = oracle.evolve_exact(lat, params)
        path = tmp_path / "traj.csv"
        model.write_trajectory_csv(traj, path, "manifest_sha256=abc")
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# manifest_sha256=abc", "time_ns,site_row,site_col,n_expect,energy"]
        assert len(lines) == 2 + 3 * 4  # three snapshots, four sites
