"""MPS container, initial states, the trivial environment and site observables.

MPS tensors are indexed (chi_left, phys, chi_right).  Every state here has
its orthogonality center at site 0: the tensors right of site 0 are
right-isometries.  The producers below make that form and ``TdvpEngine``
keeps it; nothing records it on the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MpsState:
    tensors: list[np.ndarray]
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


def bond_bounds(n_sites: int, chi: int) -> list[int]:
    """The bound min(chi, 2^j, 2^(N-j)) of each interior bond j = 1 .. N-1:
    the cap, or the full dimension of the smaller block the bond splits."""
    return [min(chi, 2**j, 2 ** (n_sites - j)) for j in range(1, n_sites)]


def product_all_ground(n_sites: int, max_chi: int = 2**30) -> MpsState:
    """|00...0> as a bond-dimension-1 MPS."""
    site = np.zeros((1, 2, 1), dtype=complex)
    site[0, 0, 0] = 1.0
    return MpsState(tensors=[site.copy() for _ in range(n_sites)], max_chi=max_chi)


def random_state(n_sites: int, chi: int, rng: np.random.Generator) -> MpsState:
    """Normalized random MPS with every interior bond at its ``bond_bounds``.

    Used to time TDVP steps at a prescribed bond dimension: the quench itself
    reaches the cap only after entanglement has grown, whereas timing samples
    must reflect the sustained cost at that cap.
    """
    dims = [1, *bond_bounds(n_sites, chi), 1]
    tensors = [
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for shape in zip(dims, [2] * n_sites, dims[1:])
    ]
    state = MpsState(tensors=tensors, max_chi=chi)
    # right-canonicalize so the orthogonality center lands on site 0
    for i in range(n_sites - 1, 0, -1):
        a = state.tensors[i]
        l, d, r = a.shape
        q, rmat = np.linalg.qr(a.reshape(l, d * r).conj().T)
        state.tensors[i] = q.conj().T.reshape(-1, d, r)
        state.tensors[i - 1] = np.tensordot(state.tensors[i - 1], rmat.conj().T, axes=(2, 0))
    state.tensors[0] /= np.linalg.norm(state.tensors[0])
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
