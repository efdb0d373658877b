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

import numpy as np

from .errors import InvalidConfig, Unsatisfiable
from .register import DefectProbabilities, defect_free_analytic, expected_counts
from .units import watt_seconds_to_kwh

#: Largest attempt count a float holds exactly.
MAX_ATTEMPTS = 2**53


@dataclass(frozen=True)
class ShotBudget:
    m_usable: int
    p_defect_free: float
    n_attempts: int
    wall_seconds: float


@dataclass(frozen=True)
class QpuSchedule:
    budget: ShotBudget
    energy_kwh: float
    counts: dict


def shots_for_precision(p: float, alpha: float) -> int:
    """ceil(16 p (1-p) / alpha^2) for a finite alpha > 0; zero at p in {0, 1}
    (no variance).  An alpha so small that the count is not a finite float
    raises InvalidConfig."""
    if not 0.0 <= p <= 1.0:
        raise InvalidConfig(f"p = {p} outside [0, 1]")
    if not 0.0 < alpha < math.inf:
        raise InvalidConfig(f"alpha must be positive and finite, got {alpha}")
    if p in (0.0, 1.0):
        return 0
    shots = 16.0 * p * (1.0 - p) / alpha**2 if alpha**2 > 0.0 else math.inf
    if shots == math.inf:
        raise InvalidConfig(f"alpha = {alpha} needs more shots than a float can count")
    return math.ceil(shots)


def attempts_for_usable(m: int, p_df: float, confidence: float) -> int:
    """Smallest n such that P[Binom(n, p_df) >= m] >= confidence.

    n - m is the number of failures before the m-th success, which is
    negative-binomial, so n is m plus that distribution's confidence quantile.
    The quantile and the CDF are Boost's, from the ``scipy.special`` ufuncs
    that ``scipy.stats.nbinom`` wraps, so ``scipy.stats`` is never loaded.
    Counts above 2^53, which a float cannot hold exactly, raise Unsatisfiable;
    they are refused before the quantile is asked for, because Boost's root
    search for it stalls once the answer passes about 1e125 (scipy 1.17).
    """
    if m < 0:
        raise InvalidConfig(f"m must be >= 0, got {m}")
    if not 0.0 < confidence < 1.0:
        raise InvalidConfig(f"confidence must be in (0, 1), got {confidence}")
    if p_df <= 0.0:
        raise Unsatisfiable("defect-free probability is zero; no attempt count suffices")
    if p_df > 1.0:
        raise InvalidConfig(f"p_df = {p_df} outside (0, 1]")
    if m == 0:
        return 0
    # imported here so that commands without a budget skip scipy.special's start-up
    from scipy.special._ufuncs import _nbinom_cdf, _nbinom_ppf

    if m > MAX_ATTEMPTS or _nbinom_cdf(MAX_ATTEMPTS - m, m, p_df) < confidence:
        raise Unsatisfiable(
            f"{m} usable shots at p_df = {p_df:.3g} need more than 2^53 attempts"
        )
    with np.errstate(over="ignore"):
        failures = _nbinom_ppf(confidence, m, p_df)
    if not math.isfinite(failures):
        raise Unsatisfiable(
            f"no negative-binomial quantile for m = {m}, p_df = {p_df:.3g}, "
            f"confidence = {confidence}"
        )
    return m + int(failures)


def qpu_schedule(
    n_register: int,
    probs: DefectProbabilities,
    alpha: float,
    confidence: float,
    shot_rate: float,
    qpu_power_watts: float,
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
    if not math.isfinite(wall):
        raise InvalidConfig(f"shot_rate = {shot_rate} Hz makes {n} attempts take {wall} s")
    budget = ShotBudget(m_usable=m, p_defect_free=p_df, n_attempts=n, wall_seconds=wall)
    return QpuSchedule(
        budget=budget,
        energy_kwh=watt_seconds_to_kwh(qpu_power_watts, wall),
        counts=counts,
    )
