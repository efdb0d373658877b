"""MPS container, initial states, the trivial environment and site observables.

MPS tensors are indexed (chi_left, phys, chi_right).  The orthogonality
center is tracked explicitly: tensors left of it are left-isometries,
tensors right of it are right-isometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig


@dataclass
class MpsState:
    tensors: list[np.ndarray]
    orthogonality_center: int = 0
    max_chi: int = 2**30

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        """Bond dimensions including the trivial boundaries, length N + 1."""
        return [self.tensors[0].shape[0]] + [t.shape[2] for t in self.tensors]

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)


def product_all_ground(n_sites: int, max_chi: int = 2**30) -> MpsState:
    """|00...0> as a bond-dimension-1 MPS."""
    site = np.zeros((1, 2, 1), dtype=complex)
    site[0, 0, 0] = 1.0
    return MpsState(tensors=[site.copy() for _ in range(n_sites)], max_chi=max_chi)


def random_state(n_sites: int, chi: int, rng: np.random.Generator) -> MpsState:
    """Normalized random MPS with every interior bond saturated at min(chi, 2^k).

    Used to time TDVP steps at a prescribed bond dimension: the quench itself
    reaches the cap only after entanglement has grown, whereas timing samples
    must reflect the sustained cost at that cap.
    """

    def right_dim(i: int) -> int:
        return min(chi, 2 ** (i + 1), 2 ** (n_sites - 1 - i))

    tensors = []
    left = 1
    for i in range(n_sites):
        right = right_dim(i)
        shape = (left, 2, right)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors.append(t)
        left = right
    state = MpsState(tensors=tensors, max_chi=chi)
    # right-canonicalize so the orthogonality center lands on site 0
    for i in range(n_sites - 1, 0, -1):
        a = state.tensors[i]
        l, d, r = a.shape
        q, rmat = np.linalg.qr(a.reshape(l, d * r).conj().T)
        state.tensors[i] = q.conj().T.reshape(-1, d, r)
        state.tensors[i - 1] = np.tensordot(state.tensors[i - 1], rmat.conj().T, axes=(2, 0))
    state.tensors[0] /= np.linalg.norm(state.tensors[0])
    state.orthogonality_center = 0
    return state


# ---------------------------------------------------------------------------
# the boundary environment of the TDVP engine and site observables
# ---------------------------------------------------------------------------

def trivial_env() -> np.ndarray:
    return np.ones((1, 1, 1), dtype=complex)


def site_expectations(state: MpsState, op: np.ndarray) -> np.ndarray:
    """<op_i> for a single-site operator at every site, normalized.

    The state must have its orthogonality center at site 0, the form
    ``TdvpEngine`` keeps: every tensor right of the center is a right-isometry,
    so every right environment is the identity and one left-to-right pass
    gives each site's reduced density matrix.  The norm squared is the trace
    of site 0's.
    """
    if state.orthogonality_center != 0:
        raise InvalidConfig("site_expectations expects the orthogonality center at site 0")
    values = np.empty(state.n_sites, dtype=float)
    left = np.ones((1, 1), dtype=complex)  # (ket, bra)
    for i, a in enumerate(state.tensors):
        ket, s, r = a.shape
        t = (left.T @ a.reshape(ket, s * r)).reshape(-1, s, r)  # (bra, s, r)
        a_bra = a.conj()
        rho = t.transpose(1, 0, 2).reshape(s, -1) @ a_bra.transpose(0, 2, 1).reshape(-1, s)  # (s, s')
        if i == 0:
            norm_sq = float(np.real(np.trace(rho)))
        values[i] = float(np.real(np.sum(rho * op.T))) / norm_sq
        left = t.transpose(2, 0, 1).reshape(r, -1) @ a_bra.reshape(-1, r)  # (r, r')
    return values
