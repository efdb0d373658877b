"""Exact finite-automaton MPO for the long-range quench Hamiltonian.

Sites are visited in snake order.  The automaton has a "ready" state (all
identities so far), a "done" state (one term completed), and one carrier
per open coupling group across each cut.  Left of a switch site s a carrier
belongs to a *source* site j that has placed its ``n`` but still owes a
coupling further along the snake (``("c", j)``).  From s on a carrier belongs
to a *destination* site k that some site left of the cut still owes
(``("d", k)``: the accumulated sum_j V_jk n_j, closed by a bare ``n`` at k).
At s each source carrier passes into every destination carrier it couples to
as V_jk I: the complementary-operator switch of Chan et al., JCP 145, 014102
(2016).  The switch site is the first that minimises the summed bond
dimension, so the bond at a cut is 2 + min(open sources, owed destinations)
on the lattices here: it ramps up and back down symmetrically, and on square
lattices with the default interaction cutoff it still peaks at about
3*sqrt(N) + 2.  This is the operator-Schmidt rank of H across the cut
whenever the coupling block V[left, right] has full rank.

MPO tensors are indexed (h_left, phys_out, phys_in, h_right) and are real
(float64): every coefficient of the Hamiltonian is a single entry of V, Omega
or Delta.  Contracting all of them reproduces the Hamiltonian matrix exactly.
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

    Every coupling coefficient V_jk is one tensor entry: on the closing ``n``
    at k while j's source carrier runs, on the opening ``n`` at j once k's
    destination carrier runs, or on the ``I`` that moves one into the other
    at the switch site.
    """
    n = lattice.n_sites
    coupled = np.triu(v.v != 0.0, 1)
    onsite = 0.5 * params.omega * _SIGMA_X - params.delta * _NUMBER_OP

    # at each inner bond m (between sites m and m+1): the sites j <= m that
    # still owe a coupling across it, and the sites k > m that are owed one
    across = [coupled[: m + 1, m + 1 :] for m in range(n - 1)]
    sources = [np.flatnonzero(c.any(axis=1)) for c in across]
    destinations = [m + 1 + np.flatnonzero(c.any(axis=0)) for m, c in enumerate(across)]
    # bonds m < switch carry sources, bonds m >= switch destinations
    carried = [sum(map(len, sources[:s])) + sum(map(len, destinations[s:])) for s in range(n)]
    switch = int(np.argmin(carried))

    def states_at_bond(m: int) -> dict:
        # "S" = ready, "F" = done
        states = {"S": 0, "F": 1}
        kind, carriers = ("c", sources[m]) if m < switch else ("d", destinations[m])
        for j in carriers:
            states[(kind, int(j))] = len(states)
        return states

    tensors: list[np.ndarray] = []
    bond_profile = [1]
    prev: dict = {"S": 0}
    for site in range(n):
        cur = states_at_bond(site) if site < n - 1 else {"F": 0}
        owed = [(key[1], b) for key, b in cur.items() if isinstance(key, tuple) and key[0] == "d"]
        w = np.zeros((len(prev), 2, 2, len(cur)))
        if "S" in prev:
            a = prev["S"]
            if "S" in cur:
                w[a, :, :, cur["S"]] += _IDENTITY
            w[a, :, :, cur["F"]] += onsite
            if ("c", site) in cur:
                w[a, :, :, cur[("c", site)]] += _NUMBER_OP
            for k, b in owed:
                w[a, :, :, b] += v.v[site, k] * _NUMBER_OP
        if "F" in prev and "F" in cur:
            w[prev["F"], :, :, cur["F"]] += _IDENTITY
        for key, a in prev.items():
            if not isinstance(key, tuple):
                continue
            kind, j = key
            if kind == "d":  # destination carrier j: close at j, else pass on
                if j == site:
                    w[a, :, :, cur["F"]] += _NUMBER_OP
                else:
                    w[a, :, :, cur[key]] += _IDENTITY
                continue
            if coupled[j, site]:
                w[a, :, :, cur["F"]] += v.v[j, site] * _NUMBER_OP
            if key in cur:
                w[a, :, :, cur[key]] += _IDENTITY
            for k, b in owed:  # the switch site: source j into destination k
                w[a, :, :, b] += v.v[j, k] * _IDENTITY
        tensors.append(w)
        bond_profile.append(len(cur))
        prev = cur
    return MpoHamiltonian(tensors=tensors, bond_profile=bond_profile)
