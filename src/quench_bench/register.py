"""Tweezer loading, rearrangement event counts and defect-free statistics.

Models one preparation cycle of a neutral-atom register: stochastic loading
of a trap layout at 50% fill, filling the empty register sites from surplus
atoms, and the four elementary failure channels (transfer, pick-up for
dumping, accidental loading of idle traps, loss of unmoved register atoms).
The analytic defect-free probability is

    P = p_transf^N_transf * p_pickup^N_dump
        * (1 - p_acci)^(N_traps - N_transf - N_dump)
        * (1 - p_loss)^(N_register - N_transf)

and the Monte Carlo applies exactly those four channels per trial, so the
two agree by construction up to sampling noise and count fluctuations.  The
counts depend only on the load, not on which atom moves where: each empty
register site takes one surplus atom (N_transf = empty sites), the surplus
left over is dumped (N_dump = surplus - empty) and every other trap stays
idle, so no move assignment is ever solved.  A load with fewer surplus atoms
than empty sites cannot fill the register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidConfig

#: Loads that cannot fill the register are redrawn up to this many times per
#: trial (the hardware reloads until rearrangement is feasible).  Trials still
#: infeasible afterwards count as defective.
MAX_RELOADS = 25

#: The Monte Carlo draws its trials in blocks of this many, one generator per
#: block.  Changing it changes every Monte Carlo value.
BLOCK = 256


@dataclass(frozen=True)
class TrapLayout:
    """Trap positions (um) with a boolean mask marking the register subset."""

    trap_positions: np.ndarray  # (N_traps, 2)
    register_mask: np.ndarray  # (N_traps,) bool

    @property
    def n_traps(self) -> int:
        return len(self.trap_positions)

    @property
    def n_register(self) -> int:
        return int(self.register_mask.sum())


@dataclass(frozen=True)
class DefectProbabilities:
    """The four elementary failure-channel probabilities."""

    p_transf: float
    p_pickup: float
    p_acci: float
    p_loss: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:
                raise InvalidConfig(f"{f.name} = {value} outside [0, 1]")


@dataclass
class DefectFreeEstimate:
    p_hat: float
    std_err: float
    trials: int
    counts_mean: dict = field(default_factory=dict)


def make_layout(n_register: int, n_traps: int | None = None) -> TrapLayout:
    """Register grid plus reservoir rings, every trap on a 5 um pitch.

    The register is a near-square grid of ``n_register`` sites; reservoir
    traps are added on concentric rectangular rings around it (closest rings
    first, deterministic order) until ``n_traps`` total traps exist.
    ``n_traps`` defaults to 2 * n_register.
    """
    if n_register < 1:
        raise InvalidConfig(f"register needs at least one site, got {n_register}")
    if n_traps is None:
        n_traps = 2 * n_register
    if n_traps < 2 * n_register:
        raise InvalidConfig(
            f"layout must be at least twice the register: {n_traps} < 2*{n_register}"
        )
    cols = math.ceil(math.sqrt(n_register))
    rows = math.ceil(n_register / cols)
    register = [(col, row) for row in range(rows) for col in range(cols)][:n_register]
    reservoir: list[tuple[int, int]] = []
    ring = 1
    while len(register) + len(reservoir) < n_traps:
        # the ring's border lies outside the register grid and every inner ring
        lo_c, hi_c = -ring, cols - 1 + ring
        lo_r, hi_r = -ring, rows - 1 + ring
        candidates = sorted(
            (c, r)
            for c in range(lo_c, hi_c + 1)
            for r in range(lo_r, hi_r + 1)
            if c in (lo_c, hi_c) or r in (lo_r, hi_r)
        )
        reservoir += candidates[: n_traps - len(register) - len(reservoir)]
        ring += 1
    coords = np.array(register + reservoir, dtype=float) * 5.0
    mask = np.zeros(len(coords), dtype=bool)
    mask[: n_register] = True
    return TrapLayout(trap_positions=coords, register_mask=mask)


def trap_distances(layout: TrapLayout) -> np.ndarray:
    """Full trap-to-trap Euclidean distance matrix (um)."""
    pos = layout.trap_positions
    return np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)


def _load_counts(register_mask: np.ndarray, occupancy: np.ndarray):
    """(n_empty, n_surplus) of each row of a (rows, n_traps) occupancy matrix:
    the empty register sites and the atoms loaded outside the register."""
    n_empty = np.count_nonzero(register_mask & ~occupancy, axis=1)
    n_surplus = np.count_nonzero(~register_mask & occupancy, axis=1)
    return n_empty, n_surplus


def defect_free_analytic(counts: dict, probs: DefectProbabilities) -> float:
    """Analytic defect-free probability for the given event counts.

    ``counts`` needs keys N_transf, N_dump, N_traps, N_register; non-integer
    (mean) counts are accepted.
    """
    n_transf = float(counts["N_transf"])
    n_dump = float(counts["N_dump"])
    n_traps = float(counts["N_traps"])
    n_register = float(counts["N_register"])
    n_idle = n_traps - n_transf - n_dump
    n_unmoved = n_register - n_transf
    if min(n_transf, n_dump, n_idle, n_unmoved) < 0:
        raise InvalidConfig(
            f"inconsistent counts: transf={n_transf}, dump={n_dump}, "
            f"idle={n_idle}, unmoved={n_unmoved}"
        )
    return (
        probs.p_transf**n_transf
        * probs.p_pickup**n_dump
        * (1.0 - probs.p_acci) ** n_idle
        * (1.0 - probs.p_loss) ** n_unmoved
    )


def expected_counts(n_register: int) -> dict:
    """Large-N expected-counts model used for QPU budget projections.

    At 50% loading of a 2N-trap layout, half the register sites start empty
    in expectation; the dump count is taken equal to the transfer count.
    """
    n_half = math.ceil(n_register / 2)
    return {
        "N_transf": n_half,
        "N_dump": n_half,
        "N_traps": 2 * n_register,
        "N_register": n_register,
    }


def _draw_loads(rng, register_mask: np.ndarray, rows: int, fill_p: float):
    """Load ``rows`` trials, reloading the rows that cannot fill the register.

    Returns (feasible, n_transf, n_surplus) per row; a row still infeasible
    after ``MAX_RELOADS`` reloads is not feasible and has zero counts.
    """
    feasible = np.zeros(rows, dtype=bool)
    n_transf = np.zeros(rows, dtype=np.int64)
    n_surplus = np.zeros(rows, dtype=np.int64)
    pending = np.arange(rows)
    for _ in range(MAX_RELOADS + 1):
        occupancy = rng.random((len(pending), len(register_mask))) < fill_p
        n_empty, n_out = _load_counts(register_mask, occupancy)
        ok = n_out >= n_empty
        done = pending[ok]
        feasible[done] = True
        n_transf[done] = n_empty[ok]
        n_surplus[done] = n_out[ok]
        pending = pending[~ok]
        if not len(pending):
            break
    return feasible, n_transf, n_surplus


def _no_failure(u, n_transf, n_surplus, n_traps: int, probs: DefectProbabilities):
    """Rows of the failure matrix ``u`` in which every event succeeded (the
    column layout is given in ``simulate_defect_free``)."""
    traps, register_atoms = u[:, :n_traps], u[:, n_traps:]
    col = np.arange(n_traps)
    failed = np.where(
        col < n_transf[:, None],
        traps >= probs.p_transf,
        np.where(col < n_surplus[:, None], traps >= probs.p_pickup, traps < probs.p_acci),
    )
    n_register = register_atoms.shape[1]
    unmoved = np.arange(n_register) < (n_register - n_transf)[:, None]
    lost = unmoved & (register_atoms < probs.p_loss)
    return ~(failed.any(axis=1) | lost.any(axis=1))


def simulate_defect_free(
    layout: TrapLayout,
    probs: DefectProbabilities,
    trials: int,
    rng_seed: int,
    fill_p: float,
) -> DefectFreeEstimate:
    """Monte Carlo defect-free frequency over load/failure cycles.

    Each trial draws a load (redrawing up to ``MAX_RELOADS`` times when the
    register cannot be filled, as the hardware would reload), takes the event
    counts of that load by the count rule of the module docstring, then
    applies the four failure channels as independent Bernoulli events.  A
    trial is defect-free iff every transfer and dump succeeded, no idle trap
    loaded accidentally, and no unmoved register atom was lost.  Trials that
    stay infeasible after all redraws count as defective.

    Trials run in blocks of ``BLOCK``; block j (trials BLOCK*j onwards, the
    last block may be shorter) draws from ``default_rng([rng_seed, j])``, so
    a result is reproducible for a fixed seed (which must be >= 0) and trial
    count.  A block draws, for each round of at most ``MAX_RELOADS + 1``, one
    ``(pending rows, N_traps)`` uniform matrix compared with ``fill_p`` for
    the rows not yet feasible, then one ``(rows, N_traps + N_register)``
    failure matrix u.  In row i, columns ``[0, N_transf)`` are transfers
    (failed if u >= p_transf), ``[N_transf, N_surplus)`` dumps (failed if
    u >= p_pickup), ``[N_surplus, N_traps)`` idle traps (failed if
    u < p_acci) and ``[N_traps, N_traps + N_unmoved)`` unmoved register atoms
    (failed if u < p_loss); the remaining columns are unused.
    """
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if rng_seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {rng_seed}")
    if not 0.0 <= fill_p <= 1.0:
        raise InvalidConfig(f"fill_p = {fill_p} outside [0, 1]")
    n_traps, n_register = layout.n_traps, layout.n_register
    successes = n_counted = sum_transf = sum_surplus = 0
    for block, start in enumerate(range(0, trials, BLOCK)):
        rng = np.random.default_rng([rng_seed, block])
        rows = min(BLOCK, trials - start)
        feasible, n_transf, n_surplus = _draw_loads(rng, layout.register_mask, rows, fill_p)
        u = rng.random((rows, n_traps + n_register))
        ok = feasible & _no_failure(u, n_transf, n_surplus, n_traps, probs)
        successes += int(np.count_nonzero(ok))
        n_counted += int(np.count_nonzero(feasible))
        sum_transf += int(n_transf.sum())
        sum_surplus += int(n_surplus.sum())
    p_hat = successes / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)

    def mean(total: int) -> float:
        return total / n_counted if n_counted else float("nan")

    counts_mean = {
        "N_transf": mean(sum_transf),
        "N_dump": mean(sum_surplus - sum_transf),
        "N_idle": mean(n_counted * n_traps - sum_surplus),
        "N_traps": n_traps,
        "N_register": n_register,
        "infeasible_trials": trials - n_counted,
    }
    return DefectFreeEstimate(
        p_hat=p_hat, std_err=std_err, trials=trials, counts_mean=counts_mean
    )
