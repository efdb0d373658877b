import math

import numpy as np
import pytest
from scipy.stats import binom, nbinom

from quench_bench.budget import (
    MAX_ATTEMPTS,
    attempts_for_usable,
    qpu_schedule,
    shots_for_precision,
)
from quench_bench.errors import InvalidConfig, Unsatisfiable
from quench_bench.register import DefectProbabilities, defect_free_analytic, expected_counts

import reference

PAPER_PROBS = DefectProbabilities(p_transf=0.989, p_pickup=0.998, p_acci=0.0009, p_loss=0.009)
PAPER_BUDGET = {"alpha": 0.05, "confidence": 0.95, "shot_rate": 1.0, "qpu_power_watts": 3200.0}


def paper_p_df(n_register: int) -> float:
    return defect_free_analytic(expected_counts(n_register), PAPER_PROBS)


class TestShotsForPrecision:
    def test_worst_case_paper_value(self):
        assert shots_for_precision(0.5, 0.05) == 1600

    def test_formula_point(self):
        assert shots_for_precision(0.9, 0.1) == 144

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_zero_variance(self, p):
        assert shots_for_precision(p, 0.05) == 0

    def test_ceiling(self):
        # 16 * 0.4 * 0.6 / 0.01 = 384.0 exactly; nudge alpha to force rounding up
        assert shots_for_precision(0.4, 0.0999) == math.ceil(16 * 0.4 * 0.6 / 0.0999**2)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidConfig):
            shots_for_precision(0.5, 0.0)
        # alpha**2 underflows to zero, or the count overflows to inf
        for alpha in (1e-200, 1e-160):
            with pytest.raises(InvalidConfig):
                shots_for_precision(0.5, alpha)
            assert shots_for_precision(0.0, alpha) == shots_for_precision(1.0, alpha) == 0


class TestAttemptsForUsable:
    def test_certain_success(self):
        assert attempts_for_usable(123, 1.0, 0.95) == 123

    def test_zero_target(self):
        assert attempts_for_usable(0, 0.3, 0.95) == 0

    def test_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            attempts_for_usable(5, 0.0, 0.95)

    @pytest.mark.parametrize(
        "m,p,conf,expected",
        [
            (1600, 0.067, 0.95, 24837),  # frozen from reference.smallest_attempts
            (16, 0.3, 0.9, 68),
            (7, 0.6, 0.75, 13),
        ],
    )
    def test_frozen_oracle_values(self, m, p, conf, expected):
        assert attempts_for_usable(m, p, conf) == expected

    @pytest.mark.parametrize(
        "m,p,conf",
        [
            (3, 0.4, 0.8),
            (12, 0.75, 0.99),
            (1, 0.05, 0.6),
            # answers above a million attempts: 1 084 611 and 2 927 481
            (16, paper_p_df(900), 0.95),
            (1600, paper_p_df(625), 0.95),
        ],
    )
    def test_live_against_direct_summation(self, m, p, conf):
        assert attempts_for_usable(m, p, conf) == reference.smallest_attempts(m, p, conf)

    def test_minimal_for_every_register_up_to_625(self):
        for n_register in range(1, 626):
            p = paper_p_df(n_register)
            n = attempts_for_usable(1600, p, 0.95)
            assert binom.sf(1599, n, p) >= 0.95 > binom.sf(1599, n - 1, p), n_register

    def test_minimality(self):
        n = attempts_for_usable(16, 0.3, 0.9)
        assert binom.sf(15, n, 0.3) >= 0.9
        assert binom.sf(15, n - 1, 0.3) < 0.9

    def test_monotone_in_m(self):
        values = [attempts_for_usable(m, 0.25, 0.9) for m in (1, 5, 20, 80)]
        assert values == sorted(values)

    def test_monotone_in_p(self):
        values = [attempts_for_usable(40, p, 0.9) for p in (0.1, 0.3, 0.6, 0.95)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_confidence(self):
        values = [attempts_for_usable(40, 0.3, c) for c in (0.5, 0.8, 0.95, 0.999)]
        assert values == sorted(values)

    @pytest.mark.parametrize("m,p", [(1600, paper_p_df(3000)), (1600, 1e-300), (2**60, 0.5)])
    def test_counts_beyond_2_53_unsatisfiable(self, m, p):
        with pytest.raises(Unsatisfiable, match="2\\^53"):
            attempts_for_usable(m, p, 0.95)

    def test_matches_scipy_stats_up_to_2_53(self):
        """A seeded grid whose answers run log-uniformly from 1 to 2^53: the
        count is m plus ``nbinom.ppf``, and Unsatisfiable exactly where
        ``nbinom.cdf`` says 2^53 attempts fall short."""
        rng = np.random.default_rng(2024)
        m = np.floor(10.0 ** rng.uniform(0.0, 5.0, 2400)).astype(np.int64)
        p = 10.0 ** rng.uniform(-13.0, 0.0, m.size)
        conf = rng.uniform(0.01, 0.999, m.size)
        fits = nbinom.cdf(MAX_ATTEMPTS - m, m, p) >= conf
        want = m[fits] + nbinom.ppf(conf[fits], m[fits], p[fits])
        assert fits.sum() >= 2000 and want.max() > 2**52
        got = [attempts_for_usable(*point) for point in zip(m[fits].tolist(), p[fits], conf[fits])]
        assert got == want.astype(np.int64).tolist()
        for point in zip(m[~fits].tolist(), p[~fits], conf[~fits]):
            with pytest.raises(Unsatisfiable, match="2\\^53"):
                attempts_for_usable(*point)

    def test_above_5e8_matches_the_exact_quantile(self):
        # a bisection on scipy.special.betainc answers 1368148027 here
        assert attempts_for_usable(5, 5.419678895494589e-09, 0.8616103985984296) == 1368148042

    def test_non_finite_quantile_raises(self, monkeypatch):
        monkeypatch.setattr("scipy.special._ufuncs._nbinom_ppf", lambda q, m, p: math.nan)
        with pytest.raises(Unsatisfiable, match="quantile"):
            attempts_for_usable(16, 0.3, 0.9)


class TestQpuSchedule:
    def test_paper_15x15_row(self):
        schedule = qpu_schedule(225, PAPER_PROBS, **PAPER_BUDGET)
        assert schedule.budget.m_usable == 1600
        assert schedule.budget.p_defect_free == pytest.approx(0.0679, abs=0.001)
        hours = schedule.budget.wall_seconds / 3600.0
        assert abs(hours - 6.3) / max(hours, 6.3) < 0.25
        assert abs(schedule.energy_kwh - 20.0) / max(schedule.energy_kwh, 20.0) < 0.25

    def test_perfect_probabilities_floor(self):
        perfect = DefectProbabilities(1.0, 1.0, 0.0, 0.0)
        schedule = qpu_schedule(100, perfect, **PAPER_BUDGET)
        assert schedule.budget.n_attempts == 1600
        assert schedule.budget.wall_seconds == 1600.0
        assert schedule.energy_kwh == pytest.approx(3200.0 * 1600.0 / 3.6e6)

    def test_wall_time_scales_with_shot_rate(self):
        slow = qpu_schedule(64, PAPER_PROBS, **{**PAPER_BUDGET, "shot_rate": 1.0})
        fast = qpu_schedule(64, PAPER_PROBS, **{**PAPER_BUDGET, "shot_rate": 2.0})
        assert fast.budget.n_attempts == slow.budget.n_attempts
        assert fast.budget.wall_seconds == pytest.approx(slow.budget.wall_seconds / 2)

    def test_invalid_shot_rate(self):
        with pytest.raises(ValueError):
            qpu_schedule(64, PAPER_PROBS, **{**PAPER_BUDGET, "shot_rate": 0.0})
