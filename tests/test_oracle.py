from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quench_bench import model, oracle
from quench_bench.convergence import d8_error, energy_drift, energy_scale
from quench_bench.errors import TooLargeForOracle
import reference
from conftest import PAPER_HX, PAPER_OMEGA, paper_setup

# Independent RK4 value for the 2x2 lattice at the canonical quench point,
# t = 100 ns (reference.rk4_evolve, 40000 steps); all four sites agree by
# symmetry.
RK4_2X2_100NS_N = 0.320596934530


class TestInitialState:
    def test_t_zero_snapshot(self):
        lat, params, v = paper_setup(2, 2)
        traj = oracle.evolve_exact(lat, params, v, t=0.0, dt=1e-9)
        assert len(traj.maps) == 1
        assert np.all(traj.maps[0].values == 0.0)
        assert traj.energies[0] == 0.0

    def test_omega_zero_is_stationary(self):
        lat, params, v = paper_setup(2, 2)
        frozen = model.QuenchParams(
            omega=0.0,
            delta=params.delta,
            c6=params.c6,
            h_x=params.h_x,
            spacing=params.spacing,
            j_scale=params.j_scale,
            t_pulse=params.t_pulse,
            dt=params.dt,
        )
        traj = oracle.evolve_exact(lat, frozen, v, t=50e-9, dt=1e-9)
        assert np.abs(traj.final_state[0] - 1.0) < 1e-12
        assert np.abs(traj.maps[-1].values).max() < 1e-12


class TestAgainstIndependentIntegrators:
    def test_2x2_at_100ns_vs_frozen_rk4(self):
        lat, params, v = paper_setup(2, 2)
        traj = oracle.evolve_exact(lat, params, v, t=100e-9, dt=1e-9)
        final = traj.maps[-1].values.ravel()
        assert np.allclose(final, RK4_2X2_100NS_N, atol=1e-6)
        assert final.std() < 1e-9  # equal on all four sites by symmetry

    def test_2x2_vs_live_rk4(self):
        lat, params, v = paper_setup(2, 2)
        traj = oracle.evolve_exact(lat, params, v, t=100e-9, dt=1e-9)
        h = reference.dense_hamiltonian(params, v.v)
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        psi = reference.rk4_evolve(h, psi0, 100e-9, 8000)
        ref_n = reference.occupations_from_state(psi, 4)
        got = np.array([traj.maps[-1].values[r, c] for r, c in map(lat.rowcol_of, range(4))])
        assert np.abs(got - ref_n).max() < 1e-6

    def test_3x3_vs_dense_expm(self):
        lat, params, v = paper_setup(3, 3)
        traj = oracle.evolve_exact(lat, params, v, t=100e-9, dt=1e-9)
        h = reference.dense_hamiltonian(params, v.v)
        psi0 = np.zeros(512, dtype=complex)
        psi0[0] = 1.0
        psi = expm(-1j * h * 100e-9) @ psi0
        ref_n = reference.occupations_from_state(psi, 9)
        got = np.array([traj.maps[-1].values[r, c] for r, c in map(lat.rowcol_of, range(9))])
        assert np.abs(got - ref_n).max() < 1e-6


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
            params = model.derive_quench(omega, PAPER_HX, c6, lat, t_pulse=4e-6, dt=1e-9)
            v = model.interactions(lat, params)
            traj = oracle.evolve_exact(lat, params, v, t=100e-9, dt=1e-9)
            runs.append(traj.maps[-1].values)
        assert np.allclose(runs[0], runs[1], atol=1e-9)


class TestLimits:
    def test_too_large(self):
        lat, params, v = paper_setup(6, 3)  # 18 sites
        with pytest.raises(TooLargeForOracle):
            oracle.evolve_exact(lat, params, v, t=1e-9, dt=1e-9)

    def test_export_csv(self, tmp_path):
        lat, params, v = paper_setup(2, 2)
        traj = oracle.evolve_exact(lat, params, v, t=2e-9, dt=1e-9)
        path = tmp_path / "traj.csv"
        model.write_trajectory_csv(traj, path, "manifest_sha256=abc")
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# manifest_sha256=abc", "time_ns,site_row,site_col,n_expect,energy"]
        assert len(lines) == 2 + 3 * 4  # three snapshots, four sites
