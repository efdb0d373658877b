import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_4x4_ramps_up_and_back_down(self):
        lat, params, v = paper_setup(4, 4)
        profile = build_mpo(lat, params, v).bond_profile
        assert profile == [1, *range(3, 11), *range(9, 2, -1), 1]

    def test_single_site(self):
        lat, params, v = paper_setup(1, 1)
        mpo = build_mpo(lat, params, v)
        assert mpo.bond_profile == [1, 1]
        assert mpo.tensors[0].shape == (1, 2, 2, 1)


def operator_schmidt_rank(h: np.ndarray, n: int, m: int) -> int:
    """Rank of the dense H (site 0 slowest) split between sites m and m+1."""
    left, right = 1 << (m + 1), 1 << (n - m - 1)
    blocks = h.reshape(left, right, left, right).transpose(0, 2, 1, 3)
    return int(np.linalg.matrix_rank(blocks.reshape(left * left, right * right)))


def open_couplings(v: np.ndarray, m: int) -> tuple[int, int]:
    """Sources j <= m and destinations k > m of the couplings across cut m."""
    across = v[: m + 1, m + 1 :] != 0.0
    return int(across.any(axis=1).sum()), int(across.any(axis=0).sum())


class TestMinimality:
    """The bond at each cut against the operator-Schmidt rank of H there.

    H = H_left + H_right + sum V_jk n_j n_k has rank 2 + rank(V[left, right])
    across a cut, and the MPO reaches it whenever that coupling block has full
    rank.  It can fall short of full rank: on 3x3 at cutoff 1.5 R the cut
    after site 3 has 4 open sources and 4 owed destinations, but V is
    rank-deficient there (its coupling block has rank 3), so the bond
    (2 + 4 = 6) sits one above the rank (5).  No bond is ever below the rank,
    since the MPO is exact.
    """

    @pytest.mark.parametrize("lx,ly", [(3, 3), (5, 2), (8, 1)])
    def test_bond_is_the_operator_schmidt_rank(self, lx, ly):
        lat, params, v = paper_setup(lx, ly)
        mpo = build_mpo(lat, params, v)
        n, h = lat.n_sites, mpo_dense_matrix(mpo)
        ranks = [operator_schmidt_rank(h, n, m) for m in range(n - 1)]
        assert mpo.bond_profile[1:-1] == ranks

    @given(
        lx=st.integers(1, 3),
        ly=st.integers(1, 3),
        cutoff_factor=st.floats(1.0, 4.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_bond_never_below_the_rank(self, lx, ly, cutoff_factor):
        lat, params, v = paper_setup(lx, ly, cutoff_factor)
        mpo = build_mpo(lat, params, v)
        n, h = lat.n_sites, mpo_dense_matrix(mpo)
        for m in range(n - 1):
            assert mpo.bond_profile[m + 1] >= operator_schmidt_rank(h, n, m)

    def test_rank_deficient_coupling_block(self):
        lat, params, v = paper_setup(3, 3, cutoff_factor=1.5)
        mpo = build_mpo(lat, params, v)
        h = mpo_dense_matrix(mpo)
        assert open_couplings(v.v, 3) == (4, 4)
        assert np.linalg.matrix_rank(v.v[:4, 4:]) == 3
        assert mpo.bond_profile[4] == 6
        assert operator_schmidt_rank(h, 9, 3) == 5

    @pytest.mark.parametrize("side", [4, 6, 8, 10])
    @pytest.mark.parametrize("cutoff_factor", [None, 1.0, 1.5, 2.5])
    def test_bond_is_two_plus_fewer_open_ends(self, side, cutoff_factor):
        """2 + min(open sources, owed destinations) at every cut, so never
        above the source-carrier profile 2 + sources."""
        lat, params, v = paper_setup(side, side, cutoff_factor)
        profile = build_mpo(lat, params, v).bond_profile
        for m in range(lat.n_sites - 1):
            assert profile[m + 1] == 2 + min(open_couplings(v.v, m)), m
