"""TDVP time evolution with Lanczos exponentiation and cached baths.

One ``step`` is a symmetric projector-splitting sweep (second order in dt)
over windows of one or two sites (Haegeman et al., PRB 94, 165116 (2016);
Paeckel et al., Ann. Phys. 411, 167998 (2019)), chosen per bond: a pair
{j-1, j} at every bond j below its bound min(max_chi, 2^j, 2^(N-j)), whose
SVD split lets the bond grow, and one site at every site no pair covers.
The sweep's right-to-left half mirrors its left-to-right half, so it is run
as that half: one left-to-right pass over the chain, a reflection, the same
pass over the mirrored chain, and a reflection back.  The reflection
(``TdvpEngine._reflect``) moves no number: site i becomes site N-1-i, each
(a, d, b) tensor is read as (b, d, a), the left and right environments trade
places and the MPO blocks are those of the mirrored MPO, so every gauge move
is written once, for a move to the right.  In a pass each window is
evolved forward by dt/2 and what it shares with the next window is evolved
backward by dt/2: a site after an SVD split, which leaves the singular
values on the right factor, or the bond matrix that a QR splits off the
centre site, the zero-site window.  The last window of the first pass and the
first of the second are the same window, the turn: no gauge move happens
between its two visits, so their half steps make one full-dt solve, and a
pair there is split only at its second visit.  With every bond growing this
is the two-site sweep; with every bond at its bound it is the one-site sweep,
which stays on the fixed-bond manifold with d-sized instead of d^2-sized
local solves and no SVD.  The Krylov vectors of a one-site window hold
d chi^2 amplitudes, the k s d chi^2 term of the memory model; only pair
windows, at bonds below their bounds, hold d^2 chi^2.  ``sweep_ops`` lists
the windows of one pass and ``step`` runs both passes with one loop.  Left
and right environments ("baths") are updated incrementally during the sweep
and released once it has passed them, so at most N + 2 are held at any solve
(between steps ``left_envs[0]`` and every right bath); the only full
environment build happens at engine construction.

Solves that cancel are not made.  A one-site window and a neighbouring bond
window are *linked* when the site's isometry toward their shared bond is
square (for a site of shape (a, d, b), read when the window runs: a d <= b
when the bond follows the site, d b <= a when the site follows the bond):
the bond then spans the whole block on the site's side, so both windows
project H onto the same space, and a gauge move between them (a QR or
absorbing the bond) is a unitary change of basis Q of that space, under
which exp(c Q^+ H Q) = Q^+ exp(c H) Q.  The turn's two visits are linked
too.  A run of linked windows is therefore one exponential with the run's
half steps summed, solved at the run's last window, and no solve at all when
they sum to zero (a site's forward half step and the bond back-step beside
it).  When every site right of a one-site window of the first pass is square
toward its left bond, the block right of that window is complete: every
window in it belongs to a run that sums to zero, and the window's two
visits, one in each pass, act on the same space, so one run carries across
the block and the reflection.  The gauge moves and environment updates all
still run.  A complete MPS (every bond at 2^min(j, N-j)) thus steps with one
solve, exp(-i H dt) on the whole space, which is the exactness of the
projector-splitting integrator (Lubich & Oseledets, BIT 54, 171 (2014)).

Each solve is a Lanczos exponential (``expm_lanczos``) that stops on its
error bound, and it does only the contractions the canonical form leaves.
Every left environment is built from left isometries, so its channel of the
MPO automaton's "ready" state (the identity on every site left of it) is the
identity matrix, and every right environment's "done" channel likewise; the
reflection swaps the two states, so each frame finds them by following the
identity through its own MPO (``_window_blocks``).  The apply
(``_LocalApply``) contracts neither, so the onsite block acts as an s x s
mix of the vector.  A site or pair window also pays the smaller of its two
MPO bonds: the apply folds the right one into the right environment once per
solve and pays the left one in every GEMM, so a window whose right bond is
the smaller is solved as the window of the mirrored chain, from the tables
the reflection already keeps, with every axis of its tensor reversed (for a
pair the merged physical index reverses too).

Wall time per step is measured on a monotonic clock around the sweep only;
observable and energy measurements happen outside the timed section.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import InvalidConfig, MemoryBudgetExceeded
from ..lanczos import expm_lanczos
from ..model import LatticeSpec, QuenchParams, Trajectory, interactions, step_count
from .memory import KRYLOV_K_MAX, memory_estimate
from .mpo import MpoHamiltonian, build_mpo
from .state import (
    MpsState,
    bond_bounds,
    product_all_ground,
    random_state,
    site_expectations,
    trivial_env,
)

_NUMBER_OP = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

#: Relative singular-value floor; values below this fraction of the largest
#: singular value are discarded even when the chi cap is not binding.
SVD_RTOL = 1e-12

#: Tolerance of every local solve: ``expm_lanczos`` stops once its error
#: bound, relative to the norm of the window tensor, is at most this.
LANCZOS_TOL = 1e-12

#: Shared zero-size placeholder for a released environment slot.
_RELEASED = np.empty((0, 0, 0), dtype=complex)

#: By the rank of a window tensor, (a, d, b) or (a, d, d, b): the axes that
#: put its physical indices first, the layout of the apply's vectors, and
#: the axes that undo it.
_LAYOUT = {3: ((1, 0, 2), (1, 0, 2)), 4: ((1, 2, 0, 3), (2, 0, 1, 3))}


@dataclass
class TdvpStepRecord:
    wall_seconds: float
    max_chi_used: int
    truncation_weight_step: float
    energy: float
    live_bytes: int  # peak bytes of state tensors plus held environments in the sweep
    apply_madds: int  # complex multiply-adds of the sweep's effective-Hamiltonian applies
    pair_windows: int  # two-site windows of the sweep, one per bond below its bound
    lanczos_solves: int  # Lanczos exponentials of the sweep, one per run of linked windows
    lanczos_converged: bool


def _merge_mpo_pair(w1, w2):
    """Contract neighboring MPO tensors into one (h_l, d^2, d^2, h_r) tensor."""
    pair = np.einsum("wabx,xcdy->wacbdy", w1, w2)
    hl, d1, d2, e1, e2, hr = pair.shape
    return pair.reshape(hl, d1 * d2, e1 * e2, hr)


class _Blocks(NamedTuple):
    """A window's real (w, t, s, w') MPO tensor split into operator blocks,
    with the channels of its two bonds that carry the identity."""

    diag: np.ndarray  # (t, w, w'): W[w, t, t, w'] of the blocks diagonal in t, 0 elsewhere
    full: list  # (w, w', block) of the other nonzero blocks: the onsite term, if any
    ready: int | None  # left channel whose (left-canonical) environment is the identity
    done: int | None  # right channel whose (right-canonical) environment is the identity
    rows: np.ndarray  # the left channels an apply contracts: all but ``ready``, the
    # one that only passes the identity into ``done`` first if there is one
    passing: int  # 1 if ``rows`` starts with that channel, else 0
    folds: np.ndarray  # the rows of ``diag`` an apply folds: ``ready`` (if any), then
    # the rest of ``rows``
    terms: list  # ``full`` as the apply reads it: (position in ``rows`` or None for
    # ``ready``, right channel or None for ``done``, block)


def _split_blocks(wop: np.ndarray, ready: int | None = None, done: int | None = None,
                  passing: int | None = None) -> _Blocks:
    """Split a real (w, t, s, w') MPO tensor into its (w, w') operator blocks.

    ``diag`` holds every block that is diagonal in the physical index (the
    automaton's identity pass-throughs, ``n`` openings and closings, and
    ``V I`` source-to-destination switches), and ``full`` the others: only
    the onsite ready -> done term, or none when Omega = 0.  ``ready`` and
    ``done`` name the identity channels of the window's environments, or
    None for environments that have none, and ``passing`` the left channel
    whose whole row is the identity into ``done``, the left bond's own
    "done" state, or None.
    """
    w, d = wop.shape[:2]
    off_diagonal = np.any(wop * (1.0 - np.eye(d))[:, :, None] != 0.0, axis=(1, 2))
    diag = np.einsum("wttx->twx", wop) * ~off_diagonal
    full = [
        (int(i), int(j), wop[i, :, :, j].astype(complex))
        for i, j in zip(*np.nonzero(off_diagonal))
    ]
    passing = [] if passing in (None, ready) else [passing]
    others = [c for c in range(w) if c != ready and c not in passing]
    rows = passing + others
    terms = [(None if i == ready else rows.index(i), None if j == done else j, m)
             for i, j, m in full]
    folds = ([] if ready is None else [ready]) + others
    return _Blocks(diag, full, ready, done, np.array(rows, dtype=np.intp), len(passing),
                   np.array(folds, dtype=np.intp), terms)


def _passes_identity(wop: np.ndarray, channel: int | None) -> int | None:
    """The first right channel c of the (w, t, s, w') tensor with W[:, :, :, c]
    the identity from left ``channel`` and zero from every other, or None."""
    if channel is None:
        return None
    through = np.zeros(wop.shape[:3])
    through[channel] = np.eye(wop.shape[1])
    hits = np.flatnonzero(np.all(wop == through[..., None], axis=(0, 1, 2)))
    return int(hits[0]) if hits.size else None


def _window_blocks(tensors: list[np.ndarray]) -> list[list[_Blocks]]:
    """``[w][i]``: the blocks of the MPO of the w-site window from site i of
    the chain with MPO ``tensors``; a bond matrix is a one-dimensional
    "site" under the identity MPO block.  A window's identity channels are
    the automaton's "ready" state at its left bond, the identity on every
    site left of it, and its "done" state at its right bond, the identity on
    every site right of it, followed from the chain's two ends; the left
    bond's "done" state is the channel that only passes the identity into
    the right one's."""
    ready, done = [0], [0]
    for wop, back in zip(tensors, tensors[::-1]):
        ready.append(_passes_identity(wop, ready[-1]))
        done.append(_passes_identity(back.transpose(3, 1, 2, 0), done[-1]))
    done.reverse()
    return [
        [_split_blocks(np.eye(w.shape[0])[:, None, None, :], ready[i], done[i], done[i])
         for i, w in enumerate(tensors)],
        [_split_blocks(w, ready[i], done[i + 1], done[i]) for i, w in enumerate(tensors)],
        [_split_blocks(_merge_mpo_pair(*pair), ready[i], done[i + 2], done[i])
         for i, pair in enumerate(zip(tensors, tensors[1:]))],
    ]


class _LocalApply:
    """Effective local Hamiltonian applied block by block over the real MPO.

    Works for one site or a merged pair.  Vectors are laid out (s, a, b):
    (possibly merged) physical index slowest, then the left and right bonds;
    an application returns the (s, a', b') array.  The canonical form makes
    two environment channels the identity: the left environment's ``ready``
    channel and the right environment's ``done`` channel.  So H x is

        x R_ready + z_passing + sum_w z_w R_w + sum_full m (z_i R_j),

    with z_w = L_w^T x the left environment's channel w applied to x, R_w
    the right environment folded with the diagonal MPO blocks of row w, and
    z_i = x for i = ready and R_j = I for j = done; ``passing`` is the left
    channel whose only block is the identity into ``done``, whose fold is
    therefore the identity, and w runs over the other channels.  Either
    identity channel may be absent (random environments have none), and its
    term then joins the sum.  Once per local solve the left environment is
    permuted to an (a'*w, a) matrix over the channels it contracts and every
    diagonal block is folded into a per-``t`` right matrix R_t[w*b, b'] =
    sum_w' W[w, t, t, w'] R[b, w', b'].  One application is then one GEMM
    through the left environment into a reused (s, a', w, b) buffer, one
    batched GEMM through R_t and one through R_ready, an add of
    z_passing, and for the onsite block an s x s mix of x.  ``madds`` counts
    the complex multiply-adds of these GEMMs in one application.
    """

    __slots__ = ("dims", "left", "z", "z_rest", "z_passing", "right_t", "right_ready", "full")

    def __init__(self, left, right, blocks: _Blocks):
        a, _, a_bra = left.shape
        b, wr, b_bra = right.shape
        diag = blocks.diag[:, blocks.folds]
        s, n_folds, _ = diag.shape
        n_rows, n_passing = len(blocks.rows), blocks.passing
        n_ready = n_folds - n_rows + n_passing
        self.dims = (s, a, b, a_bra, b_bra, n_rows, n_folds - n_ready)
        self.left = left.transpose(2, 1, 0)[:, blocks.rows].reshape(a_bra * n_rows, a)
        self.z = np.empty((s, a_bra * n_rows, b), dtype=complex)
        z = self.z.reshape(s, a_bra, n_rows, b)
        self.z_rest = self.z.reshape(s, a_bra, n_rows * b)[:, :, n_passing * b :]
        self.z_passing = (z[:, :, 0],) if n_passing else ()
        # real coefficients: contract the real and imaginary parts of R in
        # one real GEMM, then read the (t, w, b, 2 b') result back as complex
        right_ri = right.view(np.float64).reshape(b, wr, 2 * b_bra).transpose(1, 0, 2)
        folded = diag.reshape(s * n_folds, wr) @ right_ri.reshape(wr, 2 * b * b_bra)
        folded = folded.view(complex).reshape(s, n_folds, b, b_bra)
        self.right_ready = (folded[:, 0],) if n_ready else ()
        self.right_t = folded[:, n_ready:].reshape(s, (n_folds - n_ready) * b, b_bra)
        self.full = [(None if i is None else z[:, :, i], None if j is None else right[:, j, :], m)
                     for i, j, m in blocks.terms]

    @property
    def madds(self) -> int:
        s, a, b, a_bra, b_bra, n_rows, n_rest = self.dims
        per_full = sum(s * a_bra * b * b_bra * (r is not None) + s * s * a_bra * b_bra
                       for _, r, _ in self.full)
        return (s * a_bra * n_rows * a * b + s * a_bra * n_rest * b * b_bra
                + len(self.right_ready) * s * a * b * b_bra + per_full)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        s, a, b = self.dims[:3]
        x = x.reshape(s, a, b)
        # the output buffer keeps the batched product on the BLAS path
        np.matmul(self.left, x, out=self.z)
        out = self.z_rest @ self.right_t
        for right in self.right_ready:
            out += x @ right
        for z in self.z_passing:
            out += z
        for z, right, m in self.full:
            z = x if z is None else z
            if right is not None:
                z = z.reshape(-1, b) @ right
            out += (m @ z.reshape(s, -1)).reshape(out.shape)
        return out


def update_left_env(left: np.ndarray, a: np.ndarray, blocks) -> np.ndarray:
    """Grow the (ket, mpo, bra) environment by one site from the left.

    ``blocks`` is the site's split from ``_split_blocks``.  Every channel is
    computed, the identity ones included, so they can be checked.  One
    GEMM takes the environment through the ket into an (s, w, a', b) array,
    one real GEMM over its float64 view applies the diagonal blocks for each
    physical index, one small GEMM per non-diagonal block adds the onsite
    term, and one GEMM with conj(a) closes the bra side.
    """
    diag, full = blocks.diag, blocks.full
    a_dim, w, a_bra = left.shape
    s, b = a.shape[1:]
    wr = diag.shape[2]
    x = np.matmul(left.reshape(a_dim, w * a_bra).T, a.transpose(1, 0, 2))
    out = np.matmul(diag.transpose(0, 2, 1), x.view(np.float64).reshape(s, w, 2 * a_bra * b))
    out = out.view(complex).reshape(s, wr, a_bra * b)
    x = x.reshape(s, w, a_bra * b)
    for i, j, m in full:
        out[:, j] += m @ x[:, i]
    del x
    # (t, w', a', b) to (b, w', a', t): the one copy, then the bra GEMM
    out = out.reshape(s, wr, a_bra, b).transpose(3, 1, 2, 0).reshape(b * wr, a_bra * s)
    return (out @ a.conj().reshape(a_bra * s, b)).reshape(b, wr, b)


def _split_theta(theta: np.ndarray, max_chi: int):
    """SVD split of a two-site tensor into a left isometry and the right
    factor that keeps the singular values; returns (left, right, discarded
    weight)."""
    chi_l, d1, d2, chi_r = theta.shape
    m = theta.reshape(chi_l * d1, d2 * chi_r)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:  # rare gesdd failure, fall back to gesvd
        from scipy.linalg import svd as scipy_svd

        u, s, vh = scipy_svd(m, full_matrices=False, lapack_driver="gesvd")
    keep = int(np.sum(s >= SVD_RTOL * s[0])) if s[0] > 0 else 1
    keep = min(keep, max_chi)
    total = float(np.sum(s**2))
    discarded = float(np.sum(s[keep:] ** 2) / total) if total > 0 else 0.0
    left = u[:, :keep].reshape(chi_l, d1, keep)
    right = (s[:keep, None] * vh[:keep]).reshape(keep, d2, chi_r)
    return left, right, discarded


def sweep_ops(growing: list[bool]) -> list[tuple[int, int, int]]:
    """The windows of one left-to-right pass over n = len(growing) + 1
    sites, in order; ``growing[j - 1]`` says whether bond j (between sites
    j - 1 and j) is below its bound.

    Entries are (i, w, halves): evolve the w sites from site i by
    exp(-i H_eff halves dt / 2); the window w = 0 at i is the bond matrix
    between sites i-1 and i.  The forward windows are a pair {j-1, j} for
    every growing bond j and one site for every site no pair covers.  Each is
    evolved forward by dt/2 (halves = 1).  Between one window and the next,
    a pair is split and what the two share, a site (w = 1) or a bond
    (w = 0), is evolved backward by dt/2 (halves = -1), after which the
    environment behind the pass is released.  The last window is the turn.
    The windows of ``growing[::-1]`` mirror those of ``growing``, so the pass
    over the mirrored chain starts at the same turn and ends at the first
    window.  Counting in half steps keeps the sums of linked windows exact.
    """
    n = len(growing) + 1
    windows = []  # (first site, width), left to right
    for i in range(n):
        if i < n - 1 and growing[i]:
            windows.append((i, 2))
        elif i == 0 or not growing[i - 1]:
            windows.append((i, 1))
    ops = []
    for (i, w), (nxt, _) in zip(windows, windows[1:]):
        ops += [(i, w, 1), (nxt, i + w - nxt, -1)]
    turn, width = windows[-1]
    return ops + [(turn, width, 1)]


def _square(site: np.ndarray, side: str) -> bool:
    """Whether the (a, d, b) site's isometry toward its bond on ``side`` is
    square: that bond spans the whole block of the site and what lies
    beyond it on the other side."""
    a, d, b = site.shape
    return a * d <= b if side == "right" else d * b <= a


def _carry_to(a: list[np.ndarray], ops: list, k: int) -> int:
    """The window up to which the run through window ``k`` of ``ops``, the
    two passes of a step, carries its half steps unsolved: k + 1 when the
    next window is linked to it, the turn's first visit included; k's own
    visit in the second pass when k is a one-site window of the first pass
    with a complete block right of it; and k itself when the run ends at k.
    ``a`` holds the site tensors as they are when window k runs."""
    if 2 * (k + 1) == len(ops):  # the turn, visited again after the reflection
        return k + 1
    if k + 1 == len(ops):
        return k
    i, w, _ = ops[k]
    j, w_next, _ = ops[k + 1]
    if (w, w_next) == (1, 0):  # a site, then the bond right of it
        if _square(a[i], "right"):
            return k + 1
        if 2 * k < len(ops) and all(_square(t, "left") for t in a[i + 1:]):
            return len(ops) - 1 - k
    elif (w, w_next) == (0, 1) and _square(a[j], "left"):  # a bond, then the site ahead
        return k + 1
    return k


class TdvpEngine:
    """Evolves one MpsState under one MPO, reusing live environments across steps.

    The state must be canonical with the orthogonality center at site 0, a
    precondition the engine does not check; each step returns it in the same
    form.  ``max_chi`` must be at least 1 (InvalidConfig otherwise).
    """

    #: Krylov-basis cap of each local solve; ``memory_estimate`` assumes it.
    k_max = KRYLOV_K_MAX

    def __init__(self, state: MpsState, mpo: MpoHamiltonian, max_chi: int):
        if state.n_sites != mpo.n_sites:
            raise InvalidConfig("state and MPO site counts differ")
        if max_chi < 1:
            raise InvalidConfig(f"TDVP needs max_chi >= 1, got max_chi={max_chi}")
        self.state = state
        self.max_chi = max_chi
        n = state.n_sites
        self._blocks = _window_blocks(mpo.tensors)
        self._mirrored_blocks = _window_blocks([w.transpose(3, 1, 2, 0) for w in mpo.tensors[::-1]])
        self.left_envs = [trivial_env()] + [_RELEASED] * (n - 1)
        self.right_envs = [_RELEASED] * (n - 1) + [trivial_env()]
        self._reflect()  # the right environments are the mirrored chain's left ones
        for i in range(n - 1):
            self.left_envs[i + 1] = update_left_env(
                self.left_envs[i], state.tensors[i], self._blocks[1][i]
            )
        self._reflect()

    def energy(self) -> float:
        """<H> from the cached environments at the center (site 0)."""
        x = self.state.tensors[0].transpose(1, 0, 2).ravel()
        apply_h = _LocalApply(self.left_envs[0], self.right_envs[0], self._blocks[1][0])
        return float(np.real(np.vdot(x, apply_h(x)) / np.vdot(x, x)))

    def _held_bytes(self) -> int:
        """Bytes of the state tensors plus every environment the engine holds."""
        arrays = self.state.tensors + self.left_envs + self.right_envs
        return sum(x.nbytes for x in arrays)

    def _reflect(self) -> None:
        """Relabel the chain as its mirror image, in place and without
        copies: site i becomes site N-1-i, each (a, d, b) tensor the (b, d, a)
        view of it, the left and right environments trade places, reversed,
        and the MPO blocks switch to those of the mirrored MPO.  A second
        reflection restores every tensor, environment and table."""
        a = self.state.tensors
        a[:] = [t.transpose(2, 1, 0) for t in a[::-1]]
        self.left_envs[:], self.right_envs[:] = self.right_envs[::-1], self.left_envs[::-1]
        self._blocks, self._mirrored_blocks = self._mirrored_blocks, self._blocks

    def step(self, dt: float) -> TdvpStepRecord:
        """One symmetric TDVP sweep by dt: the pass of ``sweep_ops`` over the
        chain, a reflection, the same pass over the mirrored chain and a
        reflection back, run by one loop, with a pair window at every bond
        below its bound min(max_chi, 2^j, 2^(N-j)) and one-site windows
        elsewhere.  Each window's tensor is the merged pair, the site, or the
        bond matrix that a QR splits off the centre site just before its
        solve, solved between ``left_envs[i]`` and ``right_envs[i + w - 1]``,
        or on the mirrored chain between the same two when that pays the
        smaller MPO bond.  A run of linked windows (module docstring) is
        solved once, at its last window, by its summed half steps, or not at
        all if they sum to zero."""
        madds = solves = 0
        converged = True
        trunc = 0.0
        a, lefts, rights = self.state.tensors, self.left_envs, self.right_envs
        bounds = bond_bounds(self.state.n_sites, self.max_chi)
        growing = [b < bound for b, bound in zip(self.state.bond_dims[1:-1], bounds)]
        ops = sweep_ops(growing)
        turn = len(ops)  # the second pass starts at the turn's second visit
        ops += sweep_ops(growing[::-1])
        pending = carry = 0  # the run's half steps so far; it is carried up to window carry
        live = self._held_bytes()
        t0 = time.perf_counter()
        for k, (i, w, halves) in enumerate(ops):
            if k == turn:
                self._reflect()
            if w == 2:
                al, ar = a[i], a[i + 1]
                theta = al.reshape(-1, al.shape[2]) @ ar.reshape(ar.shape[0], -1)
                x = theta.reshape(al.shape[0], al.shape[1], ar.shape[1], ar.shape[2])
            elif w == 1:
                x = a[i]
            else:  # the bond keeps the split's own rank, which may sit below the bond
                c = a[i - 1]
                q, bond = np.linalg.qr(c.reshape(-1, c.shape[2]))
                a[i - 1] = q.reshape(c.shape[0], c.shape[1], -1)
                lefts[i] = update_left_env(lefts[i - 1], a[i - 1], self._blocks[1][i - 1])
                live = max(live, self._held_bytes())
                x = bond[:, None, :]
            pending += halves
            if k >= carry:
                carry = _carry_to(a, ops, k)
            if k < carry or pending == 0:
                y = x
            else:  # exp(-i H_eff pending dt/2) x, in the frame that pays the smaller MPO bond
                left, right, blocks = lefts[i], rights[i + w - 1], self._blocks[w][i]
                mirror = blocks.diag.shape[2] < blocks.diag.shape[1]
                if mirror:  # the window of the mirrored chain, whose pair index reverses
                    x, left, right = x.T, right, left
                    blocks = self._mirrored_blocks[w][len(a) - i - w]
                apply_h = _LocalApply(left, right, blocks)
                to, back = _LAYOUT[x.ndim]
                v = x.transpose(to)
                res = expm_lanczos(apply_h, v.ravel(), -0.5j * dt * pending,
                                   k_max=self.k_max, tol=LANCZOS_TOL)
                solves += 1
                madds += apply_h.madds * res.iterations  # one apply per Lanczos iteration
                converged = converged and res.converged
                y = res.vector.reshape(v.shape).transpose(back)
                y = np.ascontiguousarray(y.T if mirror else y)
                del res  # it holds the Krylov basis: free that before the split and the next solve
                pending = 0
            if w == 1:  # the bond back-step that follows, if any, splits the site
                a[i] = y
            elif w == 0:  # the bond joins the site ahead of the pass
                t = a[i]
                a[i] = (y[:, 0, :] @ t.reshape(t.shape[0], -1)).reshape(-1, *t.shape[1:])
            elif k + 1 != turn:  # split the pair, unless the turn comes again after the reflection
                a[i], a[i + 1], disc = _split_theta(y, self.max_chi)
                trunc += disc
                lefts[i + 1] = update_left_env(lefts[i], a[i], self._blocks[1][i])
                rights[i] = _RELEASED  # stale across the split
                live = max(live, self._held_bytes())
            if halves < 0:  # a back-step: release the environment behind the pass
                rights[i + w - 1] = _RELEASED
        self._reflect()

        wall = time.perf_counter() - t0
        return TdvpStepRecord(
            wall_seconds=wall,
            max_chi_used=self.state.max_bond,
            truncation_weight_step=trunc,
            energy=self.energy(),
            live_bytes=live,
            apply_madds=madds,
            pair_windows=sum(growing),
            lanczos_solves=solves,
            lanczos_converged=converged,
        )


def run_quench(
    lattice: LatticeSpec,
    params: QuenchParams,
    max_chi: int,
    *,
    cutoff: float | None = None,
    memory_budget_bytes: float | None = None,
) -> Trajectory:
    """Evolve |00...0> for ``params.t_pulse`` in steps of ``params.dt``,
    recording observables and step timings.

    Refuses to start when the Appendix-style memory estimate for (N, max_chi)
    exceeds ``memory_budget_bytes``, which must be a finite number >= 0, or
    when ``model.step_count`` refuses the pulse and the step; the couplings of
    ``model.interactions`` at ``cutoff`` (um) are built only after these
    checks.
    """
    n = lattice.n_sites
    if memory_budget_bytes is not None:
        if not 0.0 <= memory_budget_bytes < math.inf:
            raise InvalidConfig(
                f"memory budget must be a finite number >= 0, got {memory_budget_bytes} B"
            )
        estimate = memory_estimate(n, max_chi)
        if estimate.total > memory_budget_bytes:
            raise MemoryBudgetExceeded(
                f"estimated {estimate.total:.3e} B for N={n}, chi={max_chi} "
                f"exceeds budget {memory_budget_bytes:.3e} B"
            )
    dt = params.dt
    n_steps = step_count(params.t_pulse, dt)
    v = interactions(lattice, params, cutoff)
    mpo = build_mpo(lattice, params, v)
    state = product_all_ground(n, max_chi=max_chi)
    engine = TdvpEngine(state, mpo, max_chi=max_chi)
    traj = Trajectory(lattice)
    traj.record(site_expectations(state, _NUMBER_OP), engine.energy(), 0.0)
    for step in range(1, n_steps + 1):
        record = engine.step(dt)
        traj.records.append(record)
        traj.record(site_expectations(state, _NUMBER_OP), record.energy, step * dt)
    traj.lanczos_converged = all(r.lanczos_converged for r in traj.records)
    return traj


def benchmark_steps(
    lattice: LatticeSpec,
    params: QuenchParams,
    chi: int,
    n_steps: int,
    *,
    warmup: int,
) -> list[TdvpStepRecord]:
    """Time TDVP steps of ``params.dt`` at a saturated bond dimension.

    Starts from a random canonical MPS (seed 7) whose bonds sit at the chi
    cap, so the mean wall time per step reflects the sustained cost at
    (N, chi) rather than the cheap early-time steps of the quench.
    ``warmup`` leading steps are dropped from the returned records.
    """
    mpo = build_mpo(lattice, params, interactions(lattice, params))
    state = random_state(lattice.n_sites, chi, np.random.default_rng(7))
    engine = TdvpEngine(state, mpo, max_chi=chi)
    records = [engine.step(params.dt) for _ in range(warmup + n_steps)]
    return records[warmup:]
