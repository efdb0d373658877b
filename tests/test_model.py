import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quench_bench import model
from quench_bench.errors import InvalidConfig
from quench_bench.units import TWO_PI, mhz_to_angular, parse_duration

import reference
from conftest import PAPER_HX, PAPER_OMEGA, paper_setup


def snake_site(lat, row: int, col: int) -> int:
    """Snake index of (row, col): even rows run left to right, odd rows back."""
    return row * lat.lx + (col if row % 2 == 0 else lat.lx - 1 - col)


class TestBuildLattice:
    def test_single_site(self):
        lat = model.build_lattice(1, 1, 5.0)
        assert lat.n_sites == 1
        assert np.allclose(lat.positions, [[0.0, 0.0]])

    def test_3x3_snake_order_by_hand(self):
        lat = model.build_lattice(3, 3, 5.0)
        expected = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2)]
        got = [(col, row) for row, col in lat.rowcol.tolist()]
        assert got == expected

    def test_10x10(self):
        lat = model.build_lattice(10, 10, 6.5)
        assert lat.n_sites == 100
        assert len(lat.positions) == 100

    @pytest.mark.parametrize("lx,ly,r", [(0, 3, 5.0), (3, -1, 5.0), (3, 3, 0.0)])
    def test_invalid(self, lx, ly, r):
        with pytest.raises(InvalidConfig):
            model.build_lattice(lx, ly, r)

    @given(lx=st.integers(1, 8), ly=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_snake_bijection(self, lx, ly):
        lat = model.build_lattice(lx, ly, 5.0)
        rowcol = lat.rowcol.tolist()
        assert [snake_site(lat, row, col) for row, col in rowcol] == list(range(lat.n_sites))
        assert len(set(map(tuple, rowcol))) == lat.n_sites
        assert reference.snake_by_hand(lx, ly) == [(col, row) for row, col in rowcol]

    def test_min_pairwise_distance(self):
        lat = model.build_lattice(4, 3, 6.0)
        d = np.linalg.norm(lat.positions[:, None] - lat.positions[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 6.0 - 1e-12


class TestDeriveQuench:
    def test_paper_point(self):
        lat, params, _ = paper_setup(3, 3)
        assert params.j_scale == pytest.approx(PAPER_OMEGA / (2 * PAPER_HX), rel=1e-12)
        assert params.j_scale == pytest.approx(TWO_PI * 0.4e6, rel=1e-12)
        assert 400e-9 * params.j_scale == pytest.approx(1.0, rel=0.01)

    def test_pulse_duration_in_units_of_j(self):
        _, params, _ = paper_setup(3, 3)
        assert 4e-6 * params.j_scale == pytest.approx(10.0, rel=0.01)

    def test_spacing_identity(self):
        # R = (c6 h_x / (2 omega))^(1/6) collapses to 1 um when c6 h_x = 2 omega
        omega = mhz_to_angular(2.0)
        lat = model.lattice_for_quench(2, 2, omega, h_x=1.0, c6=2.0 * omega)
        params = model.derive_quench(omega, 1.0, 2.0 * omega, lat, t_pulse=4e-6, dt=1e-9)
        assert params.spacing == pytest.approx(1.0, abs=1e-12)

    def test_ratio_invariants(self):
        _, params, _ = paper_setup(4, 4)
        assert params.c6 / params.spacing**6 == pytest.approx(
            2.0 * params.omega / params.h_x, rel=1e-12
        )
        assert 4.0 * params.j_scale * params.spacing**6 == pytest.approx(params.c6, rel=1e-12)

    def test_delta_is_half_central_interaction_sum(self):
        lat, params, _ = paper_setup(3, 3)
        center = lat.central_site()
        assert center == 4  # geometric middle of the 3x3 snake
        dist = np.linalg.norm(lat.positions - lat.positions[center], axis=1)
        expected = 0.5 * sum(
            params.c6 / d**6 for i, d in enumerate(dist) if i != center
        )
        assert params.delta == pytest.approx(expected, rel=1e-12)

    def test_central_site_tie_break(self):
        lat = model.build_lattice(2, 2, 5.0)
        # all four sites are equidistant from the centroid; smallest index wins
        assert lat.central_site() == 0

    def test_rejects_mismatched_lattice_spacing(self):
        lat = model.build_lattice(2, 2, 1.0)
        with pytest.raises(InvalidConfig):
            model.derive_quench(PAPER_OMEGA, PAPER_HX, model.DEFAULT_C6, lat, t_pulse=4e-6, dt=1e-9)

    def test_rejects_nonpositive(self):
        lat, _, _ = paper_setup(2, 2)
        with pytest.raises(ValueError):
            model.derive_quench(-1.0, PAPER_HX, model.DEFAULT_C6, lat, t_pulse=4e-6, dt=1e-9)

    @pytest.mark.parametrize("named", ["omega", "h_x", "c6"])
    def test_quench_spacing_refuses_infinite_input(self, named):
        """An infinite omega gave spacing 0 and an infinite c6 NaN positions;
        each of the three must be finite."""
        values = {"omega": PAPER_OMEGA, "h_x": PAPER_HX, "c6": model.DEFAULT_C6, named: math.inf}
        with pytest.raises(InvalidConfig, match="must be finite and positive"):
            model.quench_spacing(**values)
        with pytest.raises(InvalidConfig, match="must be finite and positive"):
            model.lattice_for_quench(3, 3, **values)


class TestInteractions:
    def test_nearest_neighbor_value(self):
        lat, params, v = paper_setup(2, 1)
        assert v.v[0, 1] == pytest.approx(2.0 * params.omega / params.h_x, rel=1e-12)

    def test_zero_diagonal_and_symmetry(self):
        _, _, v = paper_setup(3, 3)
        assert np.all(np.diag(v.v) == 0.0)
        assert np.allclose(v.v, v.v.T)

    def test_cutoff_at_spacing_keeps_only_nn(self):
        lat, params, _ = paper_setup(3, 3)
        v = model.interactions(lat, params, cutoff=params.spacing)
        assert int(np.count_nonzero(v.v)) == 2 * 12  # 12 bonds on a 3x3 grid

    def test_cutoff_below_spacing_rejected(self):
        lat, params, _ = paper_setup(3, 3)
        with pytest.raises(InvalidConfig):
            model.interactions(lat, params, cutoff=0.5 * params.spacing)

    def test_nan_cutoff_rejected(self):
        """NaN compares false with every distance, so it would keep no coupling."""
        lat, params, _ = paper_setup(3, 3)
        with pytest.raises(InvalidConfig, match="cutoff nan um is not at least"):
            model.interactions(lat, params, cutoff=math.nan)

    def test_default_cutoff_reaches_three_rows(self):
        lat, params, v = paper_setup(2, 5)
        # vertical coupling across three rows retained, four rows dropped
        assert v.v[snake_site(lat, 0, 0), snake_site(lat, 3, 0)] > 0.0
        assert v.v[snake_site(lat, 0, 0), snake_site(lat, 4, 0)] == 0.0

    def test_d8_relabeling_invariance(self):
        lat, params, v = paper_setup(3, 3)
        # 90-degree rotation of the square composed with the snake bijection
        perm = [snake_site(lat, col, lat.ly - 1 - row) for row, col in lat.rowcol.tolist()]
        permuted = v.v[np.ix_(perm, perm)]
        assert np.allclose(permuted, v.v, rtol=1e-12, atol=0)


class TestStepCount:
    @pytest.mark.parametrize(
        "t_ns, dt_ns, steps", [(0.0, 1.0, 0), (40.0, 1.0, 40), (4000.0, 1.0, 4000), (0.3, 0.1, 3)]
    )
    def test_whole_steps(self, t_ns, dt_ns, steps):
        assert model.step_count(t_ns * 1e-9, dt_ns * 1e-9) == steps

    @pytest.mark.parametrize("t_ns", [3.5, 2.5, 0.4, 40.001])
    def test_partial_step_names_both_values(self, t_ns):
        with pytest.raises(InvalidConfig, match=f"t_pulse = {t_ns} ns .* dt = 1 ns"):
            model.step_count(t_ns * 1e-9, 1e-9)

    @pytest.mark.parametrize("t_pulse, dt, named", [
        (-5e-9, 1e-9, "t_pulse"), (math.inf, 1e-9, "t_pulse"), (math.nan, 1e-9, "t_pulse"),
        (10e-9, 0.0, "dt"), (10e-9, -1e-9, "dt"), (10e-9, math.inf, "dt"), (10e-9, math.nan, "dt"),
    ])
    def test_bad_pulse_or_step_refused(self, t_pulse, dt, named):
        with pytest.raises(InvalidConfig, match=f"{named} must be finite"):
            model.step_count(t_pulse, dt)


class TestTrajectory:
    def test_record_layout(self):
        lat = model.build_lattice(3, 2, 5.0)
        traj = model.Trajectory(lat)
        traj.record(np.arange(6, dtype=float), -1.5, 2e-9)
        (omap,) = traj.maps
        # snake site 3 lives at (row 1, col 2)
        assert omap.values[1, 2] == 3.0
        assert omap.values.shape == (2, 3)
        assert omap.time == 2e-9
        assert traj.energies == [-1.5]


@pytest.mark.parametrize("text, ns", [("4us", 4000.0), ("1s", 1e9), ("400ns", 400.0)])
def test_parse_duration_scales_exactly(text, ns):
    assert parse_duration(text) == ns
