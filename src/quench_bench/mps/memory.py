"""Closed-form memory model for TDVP on square lattices.

Component formulas (s = 16 bytes per complex scalar, d = 2 local states,
k = KRYLOV_K_MAX = 50 Krylov vectors, h = peak MPO bond dimension
3*sqrt(N) + 2):

    M_mps          = s d chi^2 N
    M_baths        = s chi^2 (3 N^{3/2} - 7 N - 12 sqrt(N) - 4)
    M_krylov       = k s d chi^2
    M_intermediate = 3 s h d^2 chi^2

The Krylov term holds one-site vectors: d chi^2 amplitudes each, what the
engine's one-site windows allocate.  Only its pair windows, which run at the
bonds still below their caps, allocate d^2 chi^2.
The bath term is the paper's trapezoid area under a linear-growth-then-
saturation bond profile and dominates at scale; its leading part
3 s chi^2 N^{3/2} (48 chi^2 N^{3/2} for complex doubles) is reported
separately.  It stays an upper bound: the engine's MPO bond is
2 + min(open sources, owed destinations), which ramps back down over the last
sites instead of holding its peak, so the at most N + 2 environments the TDVP
engine holds at any solve sit further below it.  The tests check the engine's
``TdvpStepRecord.live_bytes`` against ``total`` on saturated (N, chi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InvalidConfig

#: Krylov-basis cap of every local TDVP solve: the engine reads it as
#: ``TdvpEngine.k_max`` and the model's Krylov term holds this many vectors.
KRYLOV_K_MAX = 50


@dataclass(frozen=True)
class MemoryBreakdown:
    mps: float
    baths: float
    krylov: float
    intermediate: float
    total: float
    leading_term: float


def memory_estimate(n: int, chi: int) -> MemoryBreakdown:
    """Upper-bound memory for evolving an N-site MPS at bond dimension chi.

    The bath term goes negative for tiny N where the saturated-profile
    picture does not apply; it is clamped at zero there.
    """
    d, s, k = 2, 16, KRYLOV_K_MAX
    if n < 1 or chi < 1:
        raise InvalidConfig(
            f"all memory-model inputs must be positive, got N={n}, chi={chi}, d={d}, s={s}, k={k}"
        )
    sqrt_n = math.sqrt(n)
    chi2 = float(chi) ** 2
    mps = s * d * chi2 * n
    baths = max(0.0, s * chi2 * (3.0 * n * sqrt_n - 7.0 * n - 12.0 * sqrt_n - 4.0))
    krylov = k * s * d * chi2
    h_max = 3.0 * sqrt_n + 2.0
    intermediate = 3.0 * s * h_max * d**2 * chi2
    total = mps + baths + krylov + intermediate
    leading = 3.0 * s * chi2 * n * sqrt_n
    return MemoryBreakdown(
        mps=mps,
        baths=baths,
        krylov=krylov,
        intermediate=intermediate,
        total=total,
        leading_term=leading,
    )
