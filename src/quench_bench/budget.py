"""Shot budgets: precision -> usable shots -> total attempts -> time and energy.

Measuring a +/-1-valued observable to precision alpha (95% confidence,
sigma_O <= alpha/2) needs m = ceil(16 p (1-p) / alpha^2) usable shots.  Only
defect-free register preparations yield usable shots.  The failed attempts
before the m-th usable one are negative-binomial, so the attempt count n is m
plus their quantile at the requested confidence: the smallest n with
P[Binom(n, p_defect_free) >= m] >= confidence.  Wall time is n / shot_rate:
each attempt costs one cycle no matter the pulse length (pulses of a few us
against a ~1 s cycle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfig, InvalidPrecision, Unsatisfiable
from .register import DefectProbabilities, defect_free_analytic, expected_counts
from .units import watt_seconds_to_kwh

#: Largest attempt count a float holds exactly.
MAX_ATTEMPTS = 2**53


@dataclass(frozen=True)
class ShotBudget:
    m_usable: int
    alpha: float
    confidence: float
    p_defect_free: float
    n_attempts: int
    shot_rate: float  # Hz
    wall_seconds: float


@dataclass(frozen=True)
class QpuSchedule:
    budget: ShotBudget
    qpu_power_watts: float
    energy_kwh: float
    counts: dict


def shots_for_precision(p: float, alpha: float) -> int:
    """ceil(16 p (1-p) / alpha^2) for a finite alpha > 0; zero at p in {0, 1}
    (no variance)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidConfig(f"p = {p} outside [0, 1]")
    if not 0.0 < alpha < math.inf:
        raise InvalidPrecision(f"alpha must be positive and finite, got {alpha}")
    return math.ceil(16.0 * p * (1.0 - p) / alpha**2)


def attempts_for_usable(m: int, p_df: float, confidence: float = 0.95) -> int:
    """Smallest n such that P[Binom(n, p_df) >= m] >= confidence.

    n - m is the number of failures before the m-th success, which is
    negative-binomial, so n is m plus that distribution's confidence quantile.
    Counts above 2^53, which a float cannot hold exactly, raise Unsatisfiable;
    they are refused before the quantile is asked for, because scipy's root
    search for it stalls once the answer passes about 1e125 (scipy 1.17).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not 0.0 < confidence < 1.0:
        raise InvalidConfig(f"confidence must be in (0, 1), got {confidence}")
    if p_df <= 0.0:
        raise Unsatisfiable("defect-free probability is zero; no attempt count suffices")
    if p_df > 1.0:
        raise ValueError(f"p_df = {p_df} outside (0, 1]")
    if m == 0:
        return 0
    from scipy.stats import nbinom  # ~1 s to import; only this function needs it

    if nbinom.cdf(MAX_ATTEMPTS - m, m, p_df) < confidence:
        raise Unsatisfiable(
            f"{m} usable shots at p_df = {p_df:.3g} need more than 2^53 attempts"
        )
    return m + int(nbinom.ppf(confidence, m, p_df))


def qpu_schedule(
    n_register: int,
    probs: DefectProbabilities,
    alpha: float = 0.05,
    confidence: float = 0.95,
    shot_rate: float = 1.0,
    qpu_power_watts: float = 3200.0,
) -> QpuSchedule:
    """Full QPU budget for one quench task on an n_register-atom array.

    Uses the expected-counts model (``register.expected_counts``) for the
    defect-free probability and the worst-case observable, p = 0.5.
    """
    if n_register < 1:
        raise InvalidConfig(f"register needs at least one site, got {n_register}")
    if not 0 < shot_rate < math.inf:
        raise InvalidConfig(f"shot_rate must be positive and finite, got {shot_rate}")
    counts = expected_counts(n_register)
    p_df = defect_free_analytic(counts, probs)
    m = shots_for_precision(0.5, alpha)
    n = attempts_for_usable(m, p_df, confidence)
    wall = n / shot_rate
    budget = ShotBudget(
        m_usable=m,
        alpha=alpha,
        confidence=confidence,
        p_defect_free=p_df,
        n_attempts=n,
        shot_rate=shot_rate,
        wall_seconds=wall,
    )
    return QpuSchedule(
        budget=budget,
        qpu_power_watts=qpu_power_watts,
        energy_kwh=watt_seconds_to_kwh(qpu_power_watts, wall),
        counts=counts,
    )
