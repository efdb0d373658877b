import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quench_bench import model
from quench_bench.errors import InvalidConfig, MemoryBudgetExceeded
from quench_bench.lanczos import expm_lanczos
from quench_bench.mps import (
    TdvpEngine,
    build_mpo,
    benchmark_steps,
    run_quench,
    site_expectations,
    write_timing_csv,
)
from quench_bench.mps.evolve import _LocalApply, _merge_mpo_pair, _split_blocks
from quench_bench.mps.state import product_all_ground, random_state
from quench_bench.costfit import read_timing_csv

from conftest import paper_setup
from reference import (
    check_canonical,
    dense_hamiltonian,
    dense_local_apply,
    merge_mpo_pair,
    mpo_dense_matrix,
    mpo_expectation,
    mps_norm,
    site_expectations_any_gauge,
)

NUMBER_OP = np.diag([0.0, 1.0]).astype(complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


class TestTwoSiteExactness:
    def test_matches_dense_propagator(self):
        lat, params, v = paper_setup(2, 1)
        h = dense_hamiltonian(params, v.v[::-1, ::-1])
        dt = 1e-9
        u = expm(-1j * h * dt)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        result = run_quench(lat, params, t_pulse=30e-9, dt=dt, max_chi=8)
        for _ in range(30):
            psi = u @ psi
        # site 0 is the slow index in the dense convention
        n0 = np.kron(NUMBER_OP, np.eye(2))
        n1 = np.kron(np.eye(2), NUMBER_OP)
        expected = [np.vdot(psi, n0 @ psi).real, np.vdot(psi, n1 @ psi).real]
        got = [result.maps[-1].values[r, c] for r, c in map(lat.rowcol_of, range(2))]
        assert np.abs(np.array(got) - expected).max() < 1e-10

    def test_omega_zero_leaves_state_unchanged(self):
        lat, params, v = paper_setup(2, 2)
        frozen = model.QuenchParams(
            omega=0.0,
            delta=params.delta,
            c6=params.c6,
            h_x=params.h_x,
            spacing=params.spacing,
            j_scale=params.j_scale,
        )
        mpo = build_mpo(lat, frozen, v)
        state = product_all_ground(4, max_chi=8)
        record = TdvpEngine(state, mpo, max_chi=8).step(1e-9)
        assert record.truncation_weight_step == 0.0
        amp = state.tensors[0][0, 0, 0]
        for t in state.tensors[1:]:
            amp = amp * t[0, 0, 0]
        assert abs(amp - 1.0) < 1e-12


class TestAgainstOracle:
    def test_3x3_100_steps(self, setup_3x3, tdvp_3x3_100ns):
        from quench_bench import oracle

        lat, params, v = setup_3x3
        traj = oracle.evolve_exact(lat, params, v, t=100e-9, dt=1e-9)
        result = tdvp_3x3_100ns.at(64)
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
        from quench_bench import oracle

        lat, params, v = paper_setup(2, 2)
        traj = oracle.evolve_exact(lat, params, v, t=200e-9, dt=1e-9)
        result = run_quench(lat, params, t_pulse=200e-9, dt=1e-9, max_chi=4)
        assert np.abs(result.maps[-1].values - traj.maps[-1].values).max() <= 1e-3


class TestMechanics:
    def test_canonical_form_maintained(self, setup_3x3):
        lat, params, v = setup_3x3
        mpo = build_mpo(lat, params, v)
        state = product_all_ground(9, max_chi=16)
        for _ in range(3):
            TdvpEngine(state, mpo, max_chi=16).step(1e-9)
        assert state.orthogonality_center == 0
        assert check_canonical(state, tol=1e-10)
        assert abs(mps_norm(state) - 1.0) < 1e-9

    def test_records_fields(self, setup_3x3):
        lat, params, _ = setup_3x3
        result = run_quench(lat, params, t_pulse=5e-9, dt=1e-9, max_chi=8, k_max=50)
        assert len(result.records) == 5
        for rec in result.records:
            assert rec.wall_seconds > 0.0
            assert rec.lanczos_iters_max <= 50
            assert rec.max_chi_used <= 8
            assert rec.lanczos_converged

    @pytest.mark.parametrize("key, value", [("max_chi", 0), ("max_chi", -3), ("k_max", 0)])
    def test_caps_below_one_rejected(self, setup_3x3, key, value):
        lat, params, v = setup_3x3
        mpo = build_mpo(lat, params, v)
        with pytest.raises(InvalidConfig, match=f"{key}={value}"):
            TdvpEngine(product_all_ground(9), mpo, **{"max_chi": 8, "k_max": 50, key: value})

    def test_lanczos_rejects_empty_basis(self):
        with pytest.raises(InvalidConfig, match="k_max"):
            expm_lanczos(lambda x: x, np.ones(4, dtype=complex), -1j, k_max=0)

    def test_zero_pulse(self, setup_3x3):
        lat, params, _ = setup_3x3
        result = run_quench(lat, params, t_pulse=0.0, dt=1e-9, max_chi=8)
        assert len(result.maps) == 1
        assert result.records == []

    def test_memory_budget_refusal(self, setup_3x3):
        lat, params, _ = setup_3x3
        with pytest.raises(MemoryBudgetExceeded):
            run_quench(lat, params, 1e-9, 1e-9, max_chi=64, memory_budget_bytes=1e6)

    def test_single_site_lattice(self):
        lat, params, _ = paper_setup(1, 1)
        result = run_quench(lat, params, t_pulse=10e-9, dt=1e-9, max_chi=2)
        # single two-level system driven at Omega with Delta detuning:
        # Rabi formula for the excited-state population
        t = 10e-9
        omega_eff = np.sqrt(params.omega**2 + params.delta**2)
        expected = (params.omega / omega_eff) ** 2 * np.sin(omega_eff * t / 2) ** 2
        assert result.maps[-1].values[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_energy_expectation_matches_full_contraction(self, setup_3x3):
        lat, params, v = setup_3x3
        mpo = build_mpo(lat, params, v)
        rng = np.random.default_rng(3)
        state = random_state(9, chi=8, rng=rng)
        engine = TdvpEngine(state, mpo, max_chi=8)
        assert engine.energy() == pytest.approx(mpo_expectation(state, mpo), rel=1e-9)


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


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _block_apply(left, right, wop, x):
    """The engine's apply on an (a, s, b) tensor, through its (s, a, b) layout."""
    apply_h = _LocalApply(left, right, _split_blocks(wop))
    out = apply_h(x.transpose(1, 0, 2).ravel())
    return out.reshape(x.shape[1], left.shape[2], right.shape[2]).transpose(1, 0, 2)


def _assert_matches_dense(left, right, wop, ref_wop, rng):
    x = _random_complex(rng, (left.shape[0], wop.shape[2], right.shape[0]))
    ref = dense_local_apply(left, right, ref_wop, x)
    got = _block_apply(left, right, wop, x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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

    def test_center_off_site_0_rejected(self):
        state = random_state(6, 4, np.random.default_rng(1))
        state.orthogonality_center = 1
        with pytest.raises(ValueError, match="orthogonality center"):
            site_expectations(state, NUMBER_OP)


class TestRectangularLattice:
    def test_2x3_matches_oracle(self):
        from quench_bench import oracle

        lat, params, v = paper_setup(3, 2)
        traj = oracle.evolve_exact(lat, params, v, t=100e-9, dt=1e-9)
        result = run_quench(lat, params, t_pulse=100e-9, dt=1e-9, max_chi=16)
        assert result.maps[-1].values.shape == (2, 3)
        assert np.abs(result.maps[-1].values - traj.maps[-1].values).max() <= 1e-3


class TestScalingShape:
    def test_chi_slope_bridges_the_two_cost_regimes(self):
        """Log-log slope of measured seconds-per-step vs chi at fixed N over
        the top sampled decade; the chi^2 bath term and the chi^3 Lanczos
        term bound it between 2 and 3.

        Measured at N = 25 over chi in {16, 32, 64, 128}: at smaller chi the
        per-call overhead of this host (not part of the cost model) floors
        the step time and would contaminate the slope.
        """
        lat, params, _ = paper_setup(5, 5)
        medians = {}
        for chi in (16, 32, 64, 128):
            records = benchmark_steps(lat, params, chi, n_steps=3, warmup=1)
            medians[chi] = float(np.median([r.wall_seconds for r in records]))
        xs = np.log(sorted(medians))
        ys = np.log([medians[c] for c in sorted(medians)])
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert 2.0 <= slope <= 3.0, f"slope {slope:.2f} from {medians}"


class TestBenchmark:
    def test_benchmark_and_csv_roundtrip(self, tmp_path, setup_3x3):
        lat, params, _ = setup_3x3
        records = benchmark_steps(lat, params, chi=8, n_steps=2, warmup=1)
        assert len(records) == 2
        assert all(r.max_chi_used == 8 for r in records)
        path = tmp_path / "timing.csv"
        write_timing_csv(path, lat.n_sites, 16, 1e-9, records, "cpu-test")
        write_timing_csv(path, lat.n_sites, 8, 1e-9, records, "cpu-test")
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
        at_bound = run_quench(lat, params, t_pulse=40e-9, dt=1e-9, max_chi=16)
        above = run_quench(lat, params, t_pulse=40e-9, dt=1e-9, max_chi=64)
        assert max(r.max_chi_used for r in at_bound.records) == 16
        assert len(above.maps) == len(at_bound.maps)
        for a, b in zip(above.maps, at_bound.maps):
            assert np.array_equal(a.values, b.values)
        assert above.energies == at_bound.energies
