import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quench_bench.errors import InvalidConfig
from quench_bench.register import (
    BLOCK,
    DefectProbabilities,
    TrapLayout,
    defect_free_analytic,
    expected_counts,
    make_layout,
    simulate_defect_free,
)

import reference

PAPER_PROBS = DefectProbabilities(p_transf=0.989, p_pickup=0.998, p_acci=0.0009, p_loss=0.009)
PERFECT = DefectProbabilities(p_transf=1.0, p_pickup=1.0, p_acci=0.0, p_loss=0.0)


class TestLayout:
    def test_counts_and_subset(self):
        layout = make_layout(50, 200)
        assert layout.n_traps == 200
        assert layout.n_register == 50
        assert layout.register_mask[:50].all()

    def test_default_doubles_register(self):
        layout = make_layout(30)
        assert layout.n_traps == 60

    def test_rejects_undersized(self):
        with pytest.raises(ValueError):
            make_layout(50, 80)

    def test_minimum_pitch(self):
        layout = make_layout(20, 60)
        d = np.linalg.norm(
            layout.trap_positions[:, None] - layout.trap_positions[None, :], axis=2
        )
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 5.0 - 1e-9


class TestLoading:
    """The Monte Carlo's block load, seen through its mean event counts."""

    def test_empty_and_full(self):
        layout = make_layout(10)
        empty = simulate_defect_free(layout, PERFECT, trials=300, rng_seed=1, fill_p=0.0)
        assert empty.counts_mean["infeasible_trials"] == 300
        full = simulate_defect_free(layout, PERFECT, trials=300, rng_seed=1, fill_p=1.0)
        assert full.p_hat == 1.0
        assert (full.counts_mean["N_transf"], full.counts_mean["N_dump"]) == (0.0, 10.0)
        assert full.counts_mean["N_idle"] == 10.0

    def test_seed_determinism(self):
        layout = make_layout(25)
        a = simulate_defect_free(layout, PAPER_PROBS, trials=600, rng_seed=42, fill_p=0.5)
        b = simulate_defect_free(layout, PAPER_PROBS, trials=600, rng_seed=42, fill_p=0.5)
        c = simulate_defect_free(layout, PAPER_PROBS, trials=600, rng_seed=43, fill_p=0.5)
        assert (a.p_hat, a.counts_mean) == (b.p_hat, b.counts_mean)
        assert a.counts_mean != c.counts_mean

    def test_binomial_band(self):
        # at 50 atoms in 200 traps no load is infeasible, so the counts are
        # those of unconditioned Bernoulli(1/2) loads
        layout = make_layout(50, 200)
        trials = 2000
        est = simulate_defect_free(layout, PERFECT, trials=trials, rng_seed=7, fill_p=0.5)
        assert est.counts_mean["infeasible_trials"] == 0
        empty_sigma = np.sqrt(50 * 0.25 / trials)
        surplus_sigma = np.sqrt(150 * 0.25 / trials)
        assert abs(est.counts_mean["N_transf"] - 25.0) < 3 * empty_sigma
        assert abs(est.counts_mean["N_idle"] - 125.0) < 3 * surplus_sigma


class TestPlanning:
    """The count rule of ``register`` (each empty register site takes one
    surplus atom, the rest of the surplus is dumped, every other trap idles)
    against the minimal-distance move assignment of the reference."""

    def test_no_moves_when_register_full(self):
        layout = make_layout(6, 12)
        assert reference.assign_moves(layout, layout.register_mask.copy()) == ([], [])

    def test_not_enough_atoms(self):
        layout = make_layout(4, 8)
        with pytest.raises(reference.InfeasibleLoad):
            reference.assign_moves(layout, np.zeros(8, dtype=bool))

    def test_counts_identity(self):
        layout = make_layout(12, 30)
        est = simulate_defect_free(layout, PAPER_PROBS, trials=300, rng_seed=3, fill_p=0.5)
        counts = est.counts_mean
        assert counts["N_idle"] == pytest.approx(
            counts["N_traps"] - counts["N_transf"] - counts["N_dump"], rel=1e-12
        )

    @given(data=st.data(), n_traps=st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_plan_agrees_with_event_counts(self, data, n_traps):
        flags = st.lists(st.booleans(), min_size=n_traps, max_size=n_traps)
        coord = st.floats(-50.0, 50.0, allow_nan=False)
        points = st.lists(st.tuples(coord, coord), min_size=n_traps, max_size=n_traps)
        layout = TrapLayout(
            trap_positions=np.array(data.draw(points), dtype=float),
            register_mask=np.array(data.draw(flags), dtype=bool),
        )
        occupancy = np.array(data.draw(flags), dtype=bool)
        empty = set(np.flatnonzero(layout.register_mask & ~occupancy).tolist())
        surplus = set(np.flatnonzero(~layout.register_mask & occupancy).tolist())
        if len(surplus) < len(empty):
            with pytest.raises(reference.InfeasibleLoad):
                reference.assign_moves(layout, occupancy)
            return
        n_transf, n_dump, n_idle = len(empty), len(surplus) - len(empty), n_traps - len(surplus)
        moves, dumps = reference.assign_moves(layout, occupancy)
        assert n_idle == n_traps - len(moves) - len(dumps)
        sources = [src for src, _ in moves]
        assert sorted(dst for _, dst in moves) == sorted(empty)
        assert sorted(sources + dumps) == sorted(surplus)
        assert (len(moves), len(dumps)) == (n_transf, n_dump)


class TestAnalyticModel:
    def test_perfect_probabilities(self):
        counts = {"N_transf": 10, "N_dump": 5, "N_traps": 40, "N_register": 20}
        assert defect_free_analytic(counts, PERFECT) == 1.0

    def test_paper_scale_value(self):
        counts = {"N_transf": 113, "N_dump": 113, "N_traps": 450, "N_register": 225}
        p = defect_free_analytic(counts, PAPER_PROBS)
        assert p == pytest.approx(0.0679, abs=0.001)  # the ~0.067 powering Table 1

    def test_exponent_bookkeeping_no_loss_term(self):
        # all register atoms moved: the loss exponent is zero
        counts = {"N_transf": 8, "N_dump": 0, "N_traps": 8, "N_register": 8}
        lossy = DefectProbabilities(p_transf=0.9, p_pickup=0.5, p_acci=0.0, p_loss=1.0)
        assert defect_free_analytic(counts, lossy) == pytest.approx(0.9**8)

    def test_invalid_counts(self):
        with pytest.raises(InvalidConfig):
            defect_free_analytic(
                {"N_transf": 30, "N_dump": 0, "N_traps": 60, "N_register": 20}, PAPER_PROBS
            )

    def test_accepts_fractional_mean_counts(self):
        counts = {"N_transf": 12.5, "N_dump": 3.25, "N_traps": 40, "N_register": 20}
        assert 0.0 < defect_free_analytic(counts, PAPER_PROBS) < 1.0

    def test_expected_counts_model(self):
        counts = expected_counts(225)
        assert counts == {"N_transf": 113, "N_dump": 113, "N_traps": 450, "N_register": 225}

    @given(
        n_transf=st.integers(0, 40),
        n_dump=st.integers(0, 40),
        extra=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_counts(self, n_transf, n_dump, extra):
        # with imperfect channels, more operations never raise the success
        # probability (holds when each success probability is below the
        # corresponding no-event probabilities, as for the measured values)
        n_register = n_transf + extra
        counts = {
            "N_transf": n_transf,
            "N_dump": n_dump,
            "N_traps": 2 * n_register + n_dump,
            "N_register": n_register,
        }
        base = defect_free_analytic(counts, PAPER_PROBS)
        bumped_transf = dict(counts, N_transf=n_transf + 1)
        bumped_dump = dict(counts, N_dump=n_dump + 1)
        bumped_register = dict(counts, N_register=n_register + 1)
        assert defect_free_analytic(bumped_transf, PAPER_PROBS) <= base + 1e-15
        assert defect_free_analytic(bumped_dump, PAPER_PROBS) <= base + 1e-15
        assert defect_free_analytic(bumped_register, PAPER_PROBS) <= base + 1e-15


class TestMonteCarlo:
    def test_perfect_world(self):
        layout = make_layout(10, 20)
        est = simulate_defect_free(layout, PERFECT, trials=200, rng_seed=1, fill_p=1.0)
        assert est.p_hat == 1.0

    def test_certain_loss(self):
        layout = make_layout(10, 20)
        probs = DefectProbabilities(p_transf=1.0, p_pickup=1.0, p_acci=0.0, p_loss=1.0)
        est = simulate_defect_free(layout, probs, trials=200, rng_seed=1, fill_p=0.5)
        assert est.p_hat == 0.0

    def test_agreement_with_analytic(self):
        layout = make_layout(50, 200)
        est = simulate_defect_free(layout, PAPER_PROBS, trials=20000, rng_seed=9, fill_p=0.5)
        analytic = defect_free_analytic(est.counts_mean, PAPER_PROBS)
        assert abs(est.p_hat - analytic) <= 3.0 * est.std_err

    def test_determinism(self):
        layout = make_layout(20, 50)
        a = simulate_defect_free(layout, PAPER_PROBS, trials=500, rng_seed=4, fill_p=0.5)
        b = simulate_defect_free(layout, PAPER_PROBS, trials=500, rng_seed=4, fill_p=0.5)
        assert a.p_hat == b.p_hat
        assert a.counts_mean == b.counts_mean

    def test_infeasible_fill_counts_as_defective(self):
        layout = make_layout(10, 20)
        trials = 2 * BLOCK + 88  # three blocks, the last one short
        est = simulate_defect_free(layout, PERFECT, trials=trials, rng_seed=2, fill_p=0.0)
        assert est.p_hat == 0.0
        assert est.counts_mean["infeasible_trials"] == trials

    @pytest.mark.parametrize(
        "n_register, n_traps, trials, seed, fill_p",
        [
            (16, 32, 500, 0, 0.5),
            (100, 200, 400, 0, 0.5),
            (40, 80, 300, 3, 0.35),
            (10, 20, 30, 2, 0.0),  # every load infeasible
            # block edges
            (12, 30, 1, 5, 0.5),
            (12, 30, 255, 5, 0.5),
            (12, 30, 256, 5, 0.5),
            (12, 30, 257, 5, 0.5),
            (30, 60, 600, 8, 0.45),
        ],
    )
    def test_matches_planned_reference(self, n_register, n_traps, trials, seed, fill_p):
        layout = make_layout(n_register, n_traps)
        est = simulate_defect_free(layout, PAPER_PROBS, trials, rng_seed=seed, fill_p=fill_p)
        p_hat, std_err, counts_mean = reference.planned_defect_free_mc(
            layout, PAPER_PROBS, trials, rng_seed=seed, fill_p=fill_p
        )
        assert (est.p_hat, est.std_err) == (p_hat, std_err)
        np.testing.assert_equal(est.counts_mean, counts_mean)  # exact, NaN == NaN

    @given(
        n_register=st.integers(1, 20),
        extra_traps=st.integers(0, 20),
        fill_p=st.floats(0.0, 1.0),
        trials=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_stream_matches_reference(self, n_register, extra_traps, fill_p, trials, seed):
        layout = make_layout(n_register, 2 * n_register + extra_traps)
        est = simulate_defect_free(layout, PAPER_PROBS, trials, rng_seed=seed, fill_p=fill_p)
        p_hat, std_err, counts_mean = reference.planned_defect_free_mc(
            layout, PAPER_PROBS, trials, rng_seed=seed, fill_p=fill_p
        )
        assert (est.p_hat, est.std_err) == (p_hat, std_err)
        np.testing.assert_equal(est.counts_mean, counts_mean)

    def test_never_solves_an_assignment(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Monte Carlo solved an assignment")

        monkeypatch.setattr("scipy.optimize.linear_sum_assignment", forbidden)
        layout = make_layout(20, 40)
        est = simulate_defect_free(layout, PAPER_PROBS, trials=50, rng_seed=1, fill_p=0.5)
        assert est.counts_mean["N_transf"] > 0

    @pytest.mark.parametrize("fill_p", [1.5, -0.1])
    def test_fill_outside_unit_interval_rejected(self, fill_p):
        with pytest.raises(ValueError):
            simulate_defect_free(
                make_layout(10, 20), PERFECT, trials=5, rng_seed=0, fill_p=fill_p
            )

    def test_std_err_definition(self):
        layout = make_layout(10, 20)
        est = simulate_defect_free(layout, PAPER_PROBS, trials=400, rng_seed=6, fill_p=0.5)
        assert est.std_err == pytest.approx(
            np.sqrt(est.p_hat * (1 - est.p_hat) / 400), rel=1e-12
        )
