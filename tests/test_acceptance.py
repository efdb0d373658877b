"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -v -s`.  The timing-based criteria
(8 and 9) measure this machine's TDVP steps through the shared session
fixture, so absolute numbers differ between hosts while the scaling shape
assertions stay valid.
"""

import math

import numpy as np
import pytest

from quench_bench import costfit
from quench_bench.budget import qpu_schedule, shots_for_precision
from quench_bench.convergence import (
    d8_error,
    energy_drift,
    energy_scale,
    evaluate_run,
    min_converged_chi,
)
from quench_bench.mps import build_mpo, memory_estimate
from quench_bench.register import (
    DefectProbabilities,
    defect_free_analytic,
    make_layout,
    simulate_defect_free,
)

from conftest import paper_setup

PAPER_PROBS = DefectProbabilities(p_transf=0.989, p_pickup=0.998, p_acci=0.0009, p_loss=0.009)

# Table-1 QPU row targets: register size -> (wall seconds, energy kWh)
TABLE_QPU = {
    225: (6.3 * 3600.0, 20.0),
    400: (48.3 * 3600.0, 156.0),
    625: (27.5 * 86400.0, 2000.0),
}


def report(criterion: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {state}" + (f"  ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def rel_dev(value: float, target: float) -> float:
    """Symmetric relative deviation: |a - b| / max(a, b)."""
    return abs(value - target) / max(abs(value), abs(target))


def test_c1_shot_formula_exact():
    n = shots_for_precision(0.5, 0.05)
    report("C1 shot formula", n == 1600, f"shots(0.5, 0.05) = {n}")


def test_c2_monte_carlo_matches_analytic_model():
    sizes = (30, 50, 75, 100)
    trials = 100_000
    worst = 0.0
    for n_register in sizes:
        layout = make_layout(n_register, 200)
        est = simulate_defect_free(layout, PAPER_PROBS, trials=trials, rng_seed=2026)
        analytic = defect_free_analytic(est.counts_mean, PAPER_PROBS)
        sigmas = abs(est.p_hat - analytic) / est.std_err
        worst = max(worst, sigmas)
        assert sigmas <= 3.0, (
            f"N={n_register}: MC {est.p_hat:.4f} vs analytic {analytic:.4f} "
            f"is {sigmas:.2f} standard errors"
        )
    report("C2 defect-free MC vs analytic", worst <= 3.0, f"worst deviation {worst:.2f} sigma")


def test_c3_table_qpu_rows():
    details = []
    ok = True
    for n_register, (t_ref, e_ref) in TABLE_QPU.items():
        schedule = qpu_schedule(
            n_register, PAPER_PROBS, alpha=0.05, confidence=0.95,
            shot_rate=1.0, qpu_power_watts=3200.0,
        )
        dev_t = rel_dev(schedule.budget.wall_seconds, t_ref)
        dev_e = rel_dev(schedule.energy_kwh, e_ref)
        details.append(f"N={n_register}: time {dev_t:.1%}, energy {dev_e:.1%}")
        ok = ok and dev_t <= 0.25 and dev_e <= 0.25
    report("C3 Table-1 QPU rows (+-25%)", ok, "; ".join(details))


def test_c4_memory_model():
    est = memory_estimate(225, 1000)
    leading_ok = est.leading_term == pytest.approx(48e6 * 225**1.5, rel=1e-12)
    vs_table = abs(est.leading_term - 150e9) / 150e9
    # closed forms, term by term
    n, chi, d, s, k = 225, 1000, 2, 16, 50
    sqrt_n = math.sqrt(n)
    forms_ok = (
        est.mps == s * d * chi**2 * n
        and est.baths == s * chi**2 * (3 * n * sqrt_n - 7 * n - 12 * sqrt_n - 4)
        and est.krylov == k * s * d * chi**2
        and est.intermediate == 3 * s * (3 * sqrt_n + 2) * d**2 * chi**2
    )
    ok = leading_ok and vs_table < 0.15 and forms_ok
    report(
        "C4 memory model",
        ok,
        f"leading 48 chi^2 N^1.5 = {est.leading_term:.3e} B, {vs_table:.1%} from 150 GB",
    )


def test_c5_mpo_bond_profile():
    details = []
    ok = True
    for side in (6, 8, 10):
        lattice, params, v = paper_setup(side, side)
        mpo = build_mpo(lattice, params, v)
        n = side * side
        target = 3.0 * math.sqrt(n) + 2.0
        ok = ok and (target - 2.0 <= mpo.max_bond <= target + 2.0)
        details.append(f"N={n}: h_max={mpo.max_bond} (target {target:.0f})")
    report("C5 MPO bond profile", ok, "; ".join(details))


def test_c6_oracle_equivalence(setup_3x3, oracle_3x3_400ns, tdvp_3x3_400ns):
    lattice, params, _ = setup_3x3
    run = tdvp_3x3_400ns.at(64)
    err = float(np.abs(run.maps[-1].values - oracle_3x3_400ns.maps[-1].values).max())
    drift = energy_drift(run.energies, energy_scale(lattice, params))
    sym = d8_error(run.maps[-1])
    ok = err <= 1e-3 and drift <= 1e-4 and sym <= 1e-6
    report(
        "C6 oracle equivalence (3x3, 400 ns, chi=64)",
        ok,
        f"max|<n>| err {err:.2e} (<=1e-3), drift {drift:.2e} (<=1e-4), D8 {sym:.2e} (<=1e-6)",
    )


def test_c7_fit_round_trip():
    a, b, c = 0.01, 1e-12, 1e-9
    rng = np.random.default_rng(12)
    points = [(n, chi) for n in (25, 36, 64, 100, 144) for chi in (100, 200, 400, 600)]
    points += [(25, 100), (25, 100), (30, 100), (25, 600), (36, 600),
               (25, 141), (30, 600), (49, 100), (25, 200), (144, 600)]
    samples = [
        costfit.RuntimeSample(
            n=n, chi=chi,
            seconds_per_step=float(
                (a + b * n**1.5 * chi**3 + c * n**2 * chi**2)
                * (1 + 0.05 * rng.standard_normal())
            ),
        )
        for n, chi in points
    ]
    fit = costfit.fit_mps(samples)
    errs_mps = (abs(fit.a - a) / a, abs(fit.b - b) / b, abs(fit.c - c) / c)

    aq, bq, cq = 1e-3, 2e-5, 2e-7
    rng = np.random.default_rng(12)
    ns = [25, 25, 30, 36, 49, 64, 81, 100, 121, 144,
          144, 64, 36, 100, 25, 81, 49, 121, 144, 30]
    nqs_samples = [
        costfit.RuntimeSample(
            n=n, chi=0,
            seconds_per_step=float(
                (aq * n + bq * n**2 + cq * n**3) * (1 + 0.05 * rng.standard_normal())
            ),
        )
        for n in ns
    ]
    nfit = costfit.fit_nqs(nqs_samples)
    errs_nqs = (abs(nfit.a_q - aq) / aq, abs(nfit.b_q - bq) / bq, abs(nfit.c_q - cq) / cq)
    ok = max(errs_mps) <= 0.10 and max(errs_nqs) <= 0.10
    report(
        "C7 fit round-trip (5% noise)",
        ok,
        f"MPS coeff errors {tuple(round(e, 3) for e in errs_mps)}, "
        f"NQS {tuple(round(e, 3) for e in errs_nqs)}",
    )


# held-out (N, chi) points for criterion 8: a spread of interior grid points,
# one chi column per N, chosen away from the two structurally special corners
# (tiny-chi rows are floored by per-call overhead on a 1-core host, and the
# 9-site lattice cannot hold uniform chi >= 32)
HOLDOUT = {(16, 16), (16, 64), (25, 32), (36, 32)}


def test_c8_scaling_shape_from_measured_steps(timing_samples):
    train = [s for s in timing_samples if (s.n, s.chi) not in HOLDOUT]
    held = [s for s in timing_samples if (s.n, s.chi) in HOLDOUT]
    assert len(held) >= 3
    fit = costfit.fit_mps(train)
    worst = 1.0
    for s in held:
        pred = fit.predict(s.n, s.chi)
        worst = max(worst, pred / s.seconds_per_step, s.seconds_per_step / pred)
    report(
        "C8 measured scaling shape",
        worst <= 2.0,
        f"{len(train)} train / {len(held)} held-out, worst factor {worst:.2f} "
        f"(residual {fit.fit_residual:.2f})",
    )


def test_c9_crossover_at_table_scale(timing_samples):
    fit = costfit.fit_mps(timing_samples)

    def classical_fn(n):
        return costfit.extrapolate(fit, n, 1000, 4e-6, 1e-9, power_watts=400.0)

    def qpu_fn(n):
        return qpu_schedule(n, PAPER_PROBS, alpha=0.05, confidence=0.95,
                            shot_rate=1.0, qpu_power_watts=3200.0)

    wins = []
    for n_register in TABLE_QPU:
        classical_report = classical_fn(n_register)
        schedule = qpu_fn(n_register)
        wins.append(
            schedule.budget.wall_seconds < classical_report.total_seconds
            and schedule.energy_kwh < classical_report.energy_kwh
        )
    coarse = costfit.crossover(classical_fn, qpu_fn, list(range(25, 626, 50)))
    fine = costfit.crossover(classical_fn, qpu_fn, list(range(25, 626, 25)))
    stable = (
        coarse.n_time is not None
        and fine.n_time is not None
        and abs(coarse.n_time - fine.n_time) <= 50
        and abs(coarse.n_energy - fine.n_energy) <= 50
    )
    ok = all(wins) and stable
    report(
        "C9 quantum-classical crossover",
        ok,
        f"QPU wins at N=225/400/625: {wins}; N*_time {coarse.n_time} -> {fine.n_time} "
        f"under 2x refinement",
    )


def test_c10_convergence_gate_behavior(setup_3x3, tdvp_3x3_400ns):
    _, params, _ = setup_3x3
    starved = evaluate_run(tdvp_3x3_400ns.at(2), params)
    converged = evaluate_run(tdvp_3x3_400ns.at(64), params)
    grid = [2, 4, 8, 16, 32]
    search = min_converged_chi(params, grid, tdvp_3x3_400ns.at)
    position = grid.index(search.chi_min) if search.converged else -1
    ok = (not starved.passed) and converged.passed and position > 0
    report(
        "C10 convergence gates",
        ok,
        f"chi=2 drift {starved.energy_drift_rel:.1e} / D8 {starved.d8_error_rel:.2f} fails; "
        f"chi=64 passes; chi_min = {search.chi_min} at grid index {position}",
    )
