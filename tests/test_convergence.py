import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quench_bench import model
from quench_bench.convergence import (
    ENERGY_DRIFT_GATE,
    D8_ERROR_GATE,
    d8_error,
    energy_drift,
    energy_scale,
    evaluate_run,
    min_converged_chi,
)
from quench_bench.errors import InvalidScale, MemoryBudgetExceeded
from quench_bench.mps import run_quench

from conftest import paper_setup


def omap(values):
    return model.ObservableMap(values=np.asarray(values, dtype=float), label="n")


class TestEnergyDrift:
    def test_constant_trajectory(self):
        assert energy_drift([3.0, 3.0, 3.0], e_scale=1.0) == 0.0

    def test_max_deviation(self):
        assert energy_drift([0.0, 2.0, -6.0, 1.0], e_scale=2.0) == 3.0

    def test_invalid_scale(self):
        with pytest.raises(InvalidScale):
            energy_drift([1.0], e_scale=0.0)

    def test_oracle_trajectory_is_flat(self, setup_3x3, oracle_3x3_400ns):
        lat, params, _ = setup_3x3
        drift = energy_drift(oracle_3x3_400ns.energies, energy_scale(lat, params))
        assert drift < 1e-6


class TestD8Error:
    def test_uniform_map(self):
        assert d8_error(omap(np.full((3, 3), 0.7))) == 0.0

    def test_corner_perturbation_is_unity(self):
        values = np.full((3, 3), 0.5)
        values[0, 0] += 0.125
        assert d8_error(omap(values)) == pytest.approx(1.0)

    def test_hand_check_all_eight_actions(self):
        values = np.arange(9, dtype=float).reshape(3, 3)
        m = values
        images = [
            m,
            np.rot90(m, 1),
            np.rot90(m, 2),
            np.rot90(m, 3),
            np.flipud(m),
            np.fliplr(m),
            m.T,
            np.rot90(m.T, 2),
        ]
        expected = max(np.abs(m - g).max() for g in images) / (m.max() - m.min())
        assert d8_error(omap(values)) == pytest.approx(expected)

    def test_group_closure_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.random((4, 4))
        base = d8_error(omap(values))
        for g in (np.rot90, np.flipud, np.fliplr, np.transpose):
            assert d8_error(omap(g(values))) == pytest.approx(base, rel=1e-12)

    @given(
        scale=st.floats(0.01, 100.0),
        shift=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(7)
        values = rng.random((3, 3))  # appreciable dynamic range
        base = d8_error(omap(values))
        assert d8_error(omap(scale * values + shift)) == pytest.approx(base, rel=1e-9)

    def test_rectangular_uses_subgroup(self):
        values = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        # symmetric under vertical flip; broken under horizontal flip
        expected = np.abs(values - np.fliplr(values)).max() / 2.0
        assert d8_error(omap(values)) == pytest.approx(expected)

    def test_oracle_maps_symmetric(self, oracle_3x3_400ns):
        assert d8_error(oracle_3x3_400ns.maps[-1]) < 1e-8

    def test_near_constant_map_treated_as_symmetric(self):
        values = np.full((2, 2), 0.25)
        values[0, 0] += 1e-16
        assert d8_error(omap(values)) == 0.0


class TestVerdict:
    def test_starved_run_fails(self, setup_3x3, tdvp_3x3_400ns):
        _, params, _ = setup_3x3
        verdict = evaluate_run(tdvp_3x3_400ns.at(2), params)
        assert not verdict.passed
        assert verdict.d8_error_rel >= D8_ERROR_GATE or verdict.energy_drift_rel >= ENERGY_DRIFT_GATE

    def test_converged_run_passes(self, setup_3x3, tdvp_3x3_400ns):
        _, params, _ = setup_3x3
        verdict = evaluate_run(tdvp_3x3_400ns.at(64), params)
        assert verdict.passed
        assert verdict.energy_drift_rel < 1e-4
        assert verdict.d8_error_rel < 1e-6

    def test_external_r2_gate(self, setup_3x3, tdvp_3x3_400ns):
        _, params, _ = setup_3x3
        good = evaluate_run(tdvp_3x3_400ns.at(64), params, r2_integrated=0.01)
        bad = evaluate_run(tdvp_3x3_400ns.at(64), params, r2_integrated=0.2)
        assert good.passed
        assert not bad.passed

    def test_verdict_json_fields(self, setup_3x3, tdvp_3x3_400ns):
        _, params, _ = setup_3x3
        payload = evaluate_run(tdvp_3x3_400ns.at(64), params).as_dict()
        for key in ("energy_drift_rel", "d8_error_rel", "r2_integrated", "passed",
                    "e_scale", "norm_convention"):
            assert key in payload


class FakeRuns:
    """Stand-in for ``run(chi)`` that needs no TDVP: it records every chi it is
    asked for, raises MemoryBudgetExceeded for the chis in ``refused`` and
    otherwise returns a flat-map trajectory whose energy drifts by a full
    E_scale below ``passes_from`` and not at all from it on."""

    def __init__(self, passes_from=None, refused=()):
        self.lattice, self.params, _ = paper_setup(2, 2)
        self.passes_from = passes_from
        self.refused = set(refused)
        self.calls = []

    def __call__(self, chi):
        self.calls.append(chi)
        if chi in self.refused:
            raise MemoryBudgetExceeded(f"chi={chi} refused")
        passes = self.passes_from is not None and chi >= self.passes_from
        drift = 0.0 if passes else energy_scale(self.lattice, self.params)
        flat = model.ObservableMap(np.zeros((2, 2)), label="n")
        return model.Trajectory(self.lattice, maps=[flat, flat], energies=[0.0, drift])


class TestMinConvergedChi:
    def test_omega_zero_takes_first_grid_value(self):
        lat, params, _ = paper_setup(2, 2)
        frozen = model.QuenchParams(
            omega=0.0,
            delta=params.delta,
            c6=params.c6,
            h_x=params.h_x,
            spacing=params.spacing,
            j_scale=params.j_scale,
        )
        result = min_converged_chi(
            frozen, [2, 4, 8], lambda chi: run_quench(lat, frozen, 20e-9, 1e-9, max_chi=chi)
        )
        assert result.converged
        assert result.chi_min == 2

    def test_memory_budget_blocks_whole_grid(self, setup_3x3):
        lat, params, _ = setup_3x3
        result = min_converged_chi(
            params,
            [8, 16],
            lambda chi: run_quench(lat, params, 10e-9, 1e-9, max_chi=chi, memory_budget_bytes=1e3),
        )
        assert not result.converged
        assert result.cause == "MemoryBudgetExceeded"

    def test_grid_search_matches_oracle_error_threshold(
        self, setup_3x3, oracle_3x3_400ns, tdvp_3x3_400ns
    ):
        """The gate-based search lands on the same chi as a 1e-2 accuracy
        cut against the exact oracle (grid {2, 4, 8, 16, 32}, 400 ns)."""
        _, params, _ = setup_3x3
        result = min_converged_chi(params, [2, 4, 8, 16, 32], tdvp_3x3_400ns.at)
        assert result.converged
        assert result.run_seconds > 0
        ref = oracle_3x3_400ns.maps[-1].values
        chi_accurate = None
        for chi in (2, 4, 8, 16, 32):
            run = tdvp_3x3_400ns.at(chi)
            if np.abs(run.maps[-1].values - ref).max() <= 1e-2:
                chi_accurate = chi
                break
        assert result.chi_min == chi_accurate

    def test_shorter_pulse_never_needs_more_chi(self, setup_3x3, tdvp_3x3_400ns, tdvp_3x3_100ns):
        _, params, _ = setup_3x3
        grid = [2, 4, 8, 16, 32]
        full = min_converged_chi(params, grid, tdvp_3x3_400ns.at)
        short = min_converged_chi(params, grid, tdvp_3x3_100ns.at)
        assert short.converged and full.converged
        assert short.chi_min <= full.chi_min

    def test_no_run_after_first_passing_chi(self):
        run = FakeRuns(passes_from=4)
        result = min_converged_chi(run.params, [2, 4, 8, 16], run)
        assert run.calls == [2, 4]
        assert result.chi_min == 4
        assert sorted(result.verdicts) == [2, 4]
        assert not result.verdicts[2].passed and result.verdicts[4].passed
        assert result.cause is None

    def test_partly_refused_grid_is_no_chi_passed(self):
        run = FakeRuns(refused=(2, 4))
        result = min_converged_chi(run.params, [2, 4, 8], run)
        assert run.calls == [2, 4, 8]
        assert not result.converged and result.run_seconds is None
        assert sorted(result.verdicts) == [8]
        assert result.cause == "NoChiPassed"

    def test_fully_refused_grid_is_memory_budget_exceeded(self):
        run = FakeRuns(passes_from=2, refused=(2, 4, 8))
        result = min_converged_chi(run.params, [2, 4, 8], run)
        assert run.calls == [2, 4, 8]
        assert not result.converged and result.verdicts == {}
        assert result.cause == "MemoryBudgetExceeded"

    def test_empty_grid_rejected(self):
        run = FakeRuns()
        with pytest.raises(ValueError):
            min_converged_chi(run.params, [], run)
        assert run.calls == []

    @pytest.mark.parametrize("grid", [[4, 2], [2, 8, 4]])
    def test_non_increasing_grid_rejected(self, grid):
        run = FakeRuns()
        with pytest.raises(ValueError, match="increasing"):
            min_converged_chi(run.params, grid, run)
        assert run.calls == []
