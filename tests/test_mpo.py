import numpy as np
import pytest

from quench_bench import model
from quench_bench.mps import build_mpo
from reference import dense_hamiltonian, mpo_dense_matrix

from conftest import paper_setup


def as_oracle_order(h_mpo: np.ndarray, n: int) -> np.ndarray:
    """MPO contraction orders site 0 slowest; flip to the site-0-fastest
    convention used by reference.dense_hamiltonian."""
    perm = np.array([int(format(i, f"0{n}b")[::-1], 2) for i in range(1 << n)])
    return h_mpo[np.ix_(perm, perm)]


class TestExactness:
    @pytest.mark.parametrize("lx,ly", [(2, 1), (3, 1), (2, 2), (3, 2), (3, 3)])
    def test_dense_reconstruction(self, lx, ly):
        lat, params, v = paper_setup(lx, ly)
        mpo = build_mpo(lat, params, v)
        dense = mpo_dense_matrix(mpo)
        expected = dense_hamiltonian(params, v.v[::-1, ::-1])
        scale = np.abs(expected).max()
        assert np.abs(dense - expected).max() <= 1e-10 * scale

    def test_long_range_chain(self):
        lat, params, _ = paper_setup(8, 1)
        v = model.interactions(lat, params, cutoff=3.01 * params.spacing)
        mpo = build_mpo(lat, params, v)
        dense = mpo_dense_matrix(mpo)
        expected = dense_hamiltonian(params, v.v[::-1, ::-1])
        assert np.abs(dense - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_matches_oracle_hamiltonian_convention(self):
        lat, params, v = paper_setup(2, 2)
        h_mpo = mpo_dense_matrix(build_mpo(lat, params, v))
        h_ref = dense_hamiltonian(params, v.v)
        assert np.allclose(as_oracle_order(h_mpo, 4), h_ref, atol=1e-6 * np.abs(h_ref).max())


class TestBondProfile:
    def test_boundaries_are_one(self):
        lat, params, v = paper_setup(3, 3)
        mpo = build_mpo(lat, params, v)
        assert mpo.bond_profile[0] == 1
        assert mpo.bond_profile[-1] == 1
        assert len(mpo.bond_profile) == lat.n_sites + 1

    def test_nearest_neighbor_chain_is_three(self):
        lat, params, _ = paper_setup(6, 1)
        v = model.interactions(lat, params, cutoff=params.spacing)
        mpo = build_mpo(lat, params, v)
        assert mpo.max_bond == 3

    def test_square_lattice_peak_tracks_3_sqrt_n(self):
        lat, params, v = paper_setup(6, 6)
        mpo = build_mpo(lat, params, v)
        target = 3 * np.sqrt(36) + 2
        assert target - 2 <= mpo.max_bond <= target + 4

    def test_growth_then_saturation(self):
        lat, params, v = paper_setup(8, 8)
        profile = np.array(build_mpo(lat, params, v).bond_profile)
        peak = profile.max()
        # peak is sustained over the bulk, not a one-off spike
        assert (profile == peak).sum() >= lat.n_sites // 4

    def test_single_site(self):
        lat, params, v = paper_setup(1, 1)
        mpo = build_mpo(lat, params, v)
        assert mpo.bond_profile == [1, 1]
        assert mpo.tensors[0].shape == (1, 2, 2, 1)
