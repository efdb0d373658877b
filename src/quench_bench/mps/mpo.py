"""Exact finite-automaton MPO for the long-range quench Hamiltonian.

Sites are visited in snake order.  The automaton has a "ready" state (all
identities so far), a "done" state (one term completed), and one carrier
state per source site that has already placed its ``n`` operator but still
owes a coupling to a site further along the snake.  The bond dimension at a
cut is therefore 2 plus the number of open couplings across it, which for
square lattices with the default interaction cutoff peaks at 3*sqrt(N) + 2.

MPO tensors are indexed (h_left, phys_out, phys_in, h_right) and are real
(float64): every coefficient of the Hamiltonian is.  Contracting all of them
reproduces the Hamiltonian matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import InteractionMatrix, LatticeSpec, QuenchParams

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_NUMBER_OP = np.array([[0.0, 0.0], [0.0, 1.0]])
_IDENTITY = np.eye(2)


@dataclass
class MpoHamiltonian:
    """MPO tensors plus the bond-dimension profile h_0..h_N (h_0 = h_N = 1)."""

    tensors: list[np.ndarray]
    bond_profile: list[int]

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def max_bond(self) -> int:
        return max(self.bond_profile)


def build_mpo(
    lattice: LatticeSpec, params: QuenchParams, v: InteractionMatrix
) -> MpoHamiltonian:
    """Build the exact MPO for all couplings retained in ``v``.

    The coupling coefficient V_jk sits on the closing end of each two-site
    string (the opening operator is a bare ``n``), so carrier states are
    shared between all partners of a source site.
    """
    n = lattice.n_sites
    vm = v.v
    onsite = 0.5 * params.omega * _SIGMA_X - params.delta * _NUMBER_OP

    # furthest snake partner of each source site, -1 when none
    last_partner = np.full(n, -1, dtype=int)
    for j in range(n - 1):
        nz = np.nonzero(vm[j, j + 1 :])[0]
        if len(nz):
            last_partner[j] = int(nz[-1] + j + 1)

    def states_at_bond(m: int) -> dict:
        # bond between sites m and m+1; "S" = ready, "F" = done
        states = {"S": 0, "F": 1}
        for j in range(m + 1):
            if last_partner[j] > m:
                states[("c", j)] = len(states)
        return states

    tensors: list[np.ndarray] = []
    bond_profile = [1]
    prev: dict = {"S": 0}
    for site in range(n):
        cur = states_at_bond(site) if site < n - 1 else {"F": 0}
        w = np.zeros((len(prev), 2, 2, len(cur)))
        if "S" in prev:
            a = prev["S"]
            if "S" in cur:
                w[a, :, :, cur["S"]] += _IDENTITY
            w[a, :, :, cur["F"]] += onsite
            if ("c", site) in cur:
                w[a, :, :, cur[("c", site)]] += _NUMBER_OP
        if "F" in prev and "F" in cur:
            w[prev["F"], :, :, cur["F"]] += _IDENTITY
        for key, a in prev.items():
            if not isinstance(key, tuple):
                continue
            j = key[1]
            if vm[j, site] != 0.0:
                w[a, :, :, cur["F"]] += vm[j, site] * _NUMBER_OP
            if key in cur:
                w[a, :, :, cur[key]] += _IDENTITY
        tensors.append(w)
        bond_profile.append(len(cur))
        prev = cur
    return MpoHamiltonian(tensors=tensors, bond_profile=bond_profile)

