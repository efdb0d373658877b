import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quench_bench.costfit import (
    CostModelMPS,
    _nnls,
    RuntimeSample,
    crossover,
    extrapolate,
    fit_mps,
    fit_nqs,
    format_resource_report,
    mean_power_from_log,
    read_timing_csv,
)
from quench_bench.errors import InvalidConfig, UnderdeterminedFit

MPS_TRUTH = (0.01, 1e-12, 1e-9)
NQS_TRUTH = (1e-3, 2e-5, 2e-7)

# factorial core of the paper's fitted domain plus corner replicates that
# anchor the constant and separate the chi^3 from the chi^2 term
MPS_DESIGN = [
    (n, chi) for n in (25, 36, 64, 100, 144) for chi in (100, 200, 400, 600)
] + [
    (25, 100), (25, 100), (30, 100), (25, 600), (36, 600),
    (25, 141), (30, 600), (49, 100), (25, 200), (144, 600),
]
NQS_DESIGN = [25, 25, 30, 36, 49, 64, 81, 100, 121, 144,
              144, 64, 36, 100, 25, 81, 49, 121, 144, 30]


def synthetic_mps(seed, noise=0.05):
    a, b, c = MPS_TRUTH
    rng = np.random.default_rng(seed)
    return [
        RuntimeSample(
            n=n,
            chi=chi,
            seconds_per_step=float(
                (a + b * n**1.5 * chi**3 + c * n**2 * chi**2)
                * (1 + noise * rng.standard_normal())
            ),
        )
        for n, chi in MPS_DESIGN
    ]


def synthetic_nqs(seed, noise=0.05, n_workers=1):
    aq, bq, cq = NQS_TRUTH
    rng = np.random.default_rng(seed)
    return [
        RuntimeSample(
            n=n,
            chi=0,
            seconds_per_step=float(
                (aq * n + bq * n**2 + cq * n**3)
                * (1 + noise * rng.standard_normal())
                * n_workers
            ),
            n_workers=n_workers,
        )
        for n in NQS_DESIGN
    ]


class TestFitMps:
    def test_roundtrip_under_noise(self):
        model = fit_mps(synthetic_mps(seed=12))
        a, b, c = MPS_TRUTH
        assert abs(model.a - a) / a <= 0.10
        assert abs(model.b - b) / b <= 0.10
        assert abs(model.c - c) / c <= 0.10

    def test_noise_free_recovery(self):
        model = fit_mps(synthetic_mps(seed=0, noise=0.0))
        a, b, c = MPS_TRUTH
        assert model.a == pytest.approx(a, rel=1e-6)
        assert model.b == pytest.approx(b, rel=1e-6)
        assert model.c == pytest.approx(c, rel=1e-6)

    def test_constant_samples_with_zero_chi(self):
        """chi = 0 rows leave both surface terms at zero: the fit must refuse
        them, not return a constant law."""
        samples = [RuntimeSample(n=n, chi=0, seconds_per_step=0.25) for n in (4, 9, 16, 25)]
        with pytest.raises(UnderdeterminedFit, match="rank-deficient"):
            fit_mps(samples)

    def test_too_few_samples(self):
        with pytest.raises(UnderdeterminedFit):
            fit_mps(synthetic_mps(seed=1)[:3])

    def test_single_point_design(self):
        samples = [RuntimeSample(n=36, chi=100, seconds_per_step=1.0 + 0.01 * i) for i in range(6)]
        with pytest.raises(UnderdeterminedFit):
            fit_mps(samples)

    def test_nonnegative_coefficients(self):
        model = fit_mps(synthetic_mps(seed=5))
        assert model.a >= 0 and model.b >= 0 and model.c >= 0

    def test_residual_reported(self):
        model = fit_mps(synthetic_mps(seed=12))
        assert 0.0 < model.fit_residual < 0.15


def test_nnls_matches_scipy_optimize():
    """Seeded 3-column problems, about a third each with 1 and with 2
    coefficients pinned at 0: the subset search agrees with scipy's NNLS."""
    from scipy.optimize import nnls

    rng = np.random.default_rng(17)
    pinned = []
    for _ in range(400):
        rows = int(rng.integers(4, 30))
        a_mat = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        b_vec = a_mat @ rng.standard_normal(3)
        b_vec += 0.1 * np.linalg.norm(b_vec) / np.sqrt(rows) * rng.standard_normal(rows)
        want = nnls(a_mat, b_vec)[0]
        got = _nnls(a_mat, b_vec)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.all(got >= 0.0) and np.array_equal(got == 0.0, want == 0.0)
        pinned.append(int((want == 0.0).sum()))
    assert pinned.count(1) >= 50 and pinned.count(2) >= 50


def _log_uniform_or_zero(lo: float, hi: float):
    return st.one_of(st.just(0.0), st.floats(lo, hi).map(lambda e: 10.0**e))


class TestFitIdentity:
    @given(
        coeffs=st.tuples(
            _log_uniform_or_zero(-6.0, 0.0),
            _log_uniform_or_zero(-14.0, -8.0),
            _log_uniform_or_zero(-12.0, -6.0),
        ).filter(any)
    )
    @settings(max_examples=60, deadline=None)
    def test_noiseless_rows_are_reproduced(self, tmp_path_factory, coeffs):
        """Noiseless rows of a + b N^1.5 chi^3 + c N^2 chi^2 written as a timing
        CSV, read back and fitted: the fit predicts every row."""
        a, b, c = coeffs
        rows = [
            f"{n},{chi},1.0,{a + b * n**1.5 * chi**3 + c * n**2 * chi**2!r},cpu,1"
            for n in (9, 16, 25, 36)
            for chi in (8, 16, 32, 64)
        ]
        path = tmp_path_factory.mktemp("fit") / "timing.csv"
        path.write_text("N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n" + "\n".join(rows))
        samples = read_timing_csv(path)
        model = fit_mps(samples)
        assert len(samples) == 16
        for s in samples:
            assert model.predict(s.n, s.chi) == pytest.approx(s.seconds_per_step, rel=1e-9, abs=0)


class TestFitNqs:
    def test_pure_cubic_exact(self):
        samples = [
            RuntimeSample(n=n, chi=0, seconds_per_step=float(3e-7 * n**3))
            for n in NQS_DESIGN
        ]
        model = fit_nqs(samples)
        assert model.c_q == pytest.approx(3e-7, rel=1e-6)
        assert model.a_q == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_under_noise(self):
        model = fit_nqs(synthetic_nqs(seed=12))
        aq, bq, cq = NQS_TRUTH
        assert abs(model.a_q - aq) / aq <= 0.10
        assert abs(model.b_q - bq) / bq <= 0.10
        assert abs(model.c_q - cq) / cq <= 0.10

    def test_worker_renormalization(self):
        one = fit_nqs(synthetic_nqs(seed=3, n_workers=1))
        four = fit_nqs(synthetic_nqs(seed=3, n_workers=4))
        assert four.a_q == pytest.approx(one.a_q, rel=1e-9)
        assert four.c_q == pytest.approx(one.c_q, rel=1e-9)


class TestExtrapolate:
    @pytest.fixture()
    def model(self):
        return fit_mps(synthetic_mps(seed=12))

    def test_monotone(self, model):
        base = extrapolate(model, 225, 1000, 4e-6, 1e-9)
        more_n = extrapolate(model, 400, 1000, 4e-6, 1e-9)
        more_chi = extrapolate(model, 225, 2000, 4e-6, 1e-9)
        longer = extrapolate(model, 225, 1000, 8e-6, 1e-9)
        hotter = extrapolate(model, 225, 1000, 4e-6, 1e-9, power_watts=800.0)
        assert more_n.total_seconds > base.total_seconds
        assert more_chi.total_seconds > base.total_seconds
        assert longer.total_seconds > base.total_seconds
        assert hotter.energy_kwh > base.energy_kwh
        assert base.n_steps == 4000

    def test_memory_matches_table_scale(self, model):
        report = extrapolate(model, 225, 1000, 4e-6, 1e-9)
        assert abs(report.memory_bytes - 150e9) / 150e9 < 0.15

    def test_domain_warning(self, model):
        for n, chi in ((10000, 300), (100, 1000), (16, 300), (100, 50)):
            report = extrapolate(model, n, chi, 4e-6, 1e-9)
            assert report.extrapolated is True
            assert report.as_dict()["extrapolated"] is True

    def test_inside_domain_no_warning(self, model):
        for n, chi in ((100, 300), (25, 100), (144, 600)):
            assert extrapolate(model, n, chi, 4e-6, 1e-9).extrapolated is False

    def test_nqs_has_no_memory_figure(self):
        model = fit_nqs(synthetic_nqs(seed=12))
        report = extrapolate(model, 100, 0, 4e-6, 1e-9)
        assert report.memory_bytes is None
        assert report.method == "NQS"

    @pytest.mark.parametrize("fit, samples", [(fit_mps, synthetic_mps), (fit_nqs, synthetic_nqs)])
    def test_no_sites_rejected(self, fit, samples):
        with pytest.raises(InvalidConfig, match="N must be >= 1, got 0"):
            extrapolate(fit(samples(seed=12)), 0, 100, 4e-6, 1e-9)


def _constant_qpu(wall_seconds, energy_kwh):
    class Budget:
        pass

    class Schedule:
        pass

    def fn(n):
        s = Schedule()
        s.budget = Budget()
        s.budget.wall_seconds = wall_seconds
        s.energy_kwh = energy_kwh
        return s

    return fn


def _classical_from_model(model, chi, t_pulse=4e-6, dt=1e-9, power=400.0):
    def fn(n):
        return extrapolate(model, n, chi, t_pulse, dt, power)

    return fn


class TestCrossover:
    def test_zero_classical_never_crossed(self):
        tiny = CostModelMPS(a=0.0, b=0.0, c=0.0, fit_residual=0.0,
                            domain={"n_min": 1, "n_max": 1000, "chi_min": 0, "chi_max": 2000})
        result = crossover(
            _classical_from_model(tiny, chi=1000),
            _constant_qpu(wall_seconds=100.0, energy_kwh=1.0),
            list(range(25, 401, 25)),
        )
        assert result.n_time is None
        assert result.n_energy is None

    def test_unique_crossover_against_dense_scan(self):
        model = CostModelMPS(a=0.0, b=0.0, c=3e-10, fit_residual=0.0,
                             domain={"n_min": 1, "n_max": 1000, "chi_min": 0, "chi_max": 2000})
        classical = _classical_from_model(model, chi=1000)
        qpu = _constant_qpu(wall_seconds=5e4, energy_kwh=5e4 * 3200 / 3.6e6)
        sweep = list(range(10, 501, 35))
        result = crossover(classical, qpu, sweep)
        # dense unit-step scan oracle
        dense = next(
            n for n in range(10, 501) if qpu(n).budget.wall_seconds < classical(n).total_seconds
        )
        step = 35
        assert result.n_time is not None
        assert abs(result.n_time - dense) <= step

    def test_stability_under_refinement(self):
        model = CostModelMPS(a=0.0, b=0.0, c=3e-10, fit_residual=0.0,
                             domain={"n_min": 1, "n_max": 1000, "chi_min": 0, "chi_max": 2000})
        classical = _classical_from_model(model, chi=1000)
        qpu = _constant_qpu(5e4, 5e4 * 3200 / 3.6e6)
        coarse = crossover(classical, qpu, list(range(10, 501, 50)))
        fine = crossover(classical, qpu, list(range(10, 501, 25)))
        assert abs(coarse.n_time - fine.n_time) <= 50

    def test_boundary_flagged(self):
        model = CostModelMPS(a=1e9, b=0.0, c=0.0, fit_residual=0.0,
                             domain={"n_min": 1, "n_max": 1000, "chi_min": 0, "chi_max": 2000})
        result = crossover(
            _classical_from_model(model, chi=1000),
            _constant_qpu(1.0, 1e-3),
            [50, 100, 150],
        )
        assert result.n_time == 50.0
        assert result.at_boundary_time


class TestFileInterfaces:
    def test_power_log_mean(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text(
            "timestamp_iso8601,watts\n"
            "2025-01-01T00:00:00Z,380.0\n"
            "2025-01-01T00:01:00Z,420.0\n"
        )
        assert mean_power_from_log(path) == pytest.approx(400.0)

    def test_power_log_empty(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text("timestamp_iso8601,watts\n")
        with pytest.raises(InvalidConfig, match="no samples"):
            mean_power_from_log(path)

    @pytest.mark.parametrize(
        "row", ["2025-01-01T00:01:00Z", "2025-01-01T00:01:00Z,abc", "2025-01-01T00:01:00Z,-5"]
    )
    def test_power_log_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "power.csv"
        path.write_text(f"timestamp_iso8601,watts\n2025-01-01T00:00:00Z,380.0\n{row}\n")
        with pytest.raises(InvalidConfig, match=re.escape(f"{path}, line 3")):
            mean_power_from_log(path)

    def test_timing_csv_comments_skipped(self, tmp_path):
        path = tmp_path / "timing.csv"
        path.write_text(
            "# manifest_sha256=abc\n"
            "N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n"
            "36,64,1.0,5.5,cpu-x,1\n"
            "100,0,1.0,2.0,gpu-a100,4\n"
        )
        samples = read_timing_csv(path)
        assert [s.method for s in samples] == ["MPS", "NQS"]
        assert [s.n_workers for s in samples] == [1, 4]

    @pytest.mark.parametrize(
        "row",
        [
            "36,64,1.0,5.5,cpu-x",
            "36,64,1.0,abc,cpu-x,1",
            "36,64,1.0,0.0,cpu-x,1",
            "36,64,1.0,nan,cpu-x,1",
            "0,64,1.0,5.5,cpu-x,1",
            "36,-8,1.0,5.5,cpu-x,1",
            "100,0,1.0,2.0,gpu-a100,0",
            "36,64,abc,5.5,cpu-x,1",
            "36,64,0.0,5.5,cpu-x,1",
            "36,64,inf,5.5,cpu-x,1",
        ],
    )
    def test_timing_csv_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "timing.csv"
        path.write_text(f"N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n{row}\n")
        with pytest.raises(InvalidConfig, match=re.escape(f"{path}, line 2")):
            read_timing_csv(path)

    def test_timing_csv_mixed_dt_names_both_values(self, tmp_path):
        path = tmp_path / "timing.csv"
        path.write_text(
            "N,chi,dt_ns,seconds_per_step,hardware_tag,n_workers\n"
            "36,64,1.0,5.5,cpu-x,1\n"
            "36,32,1,1.5,cpu-x,1\n"
            "36,16,2.0,0.5,cpu-x,1\n"
        )
        message = f"{path}, line 4: dt_ns 2.0 differs from the first row's 1.0"
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            read_timing_csv(path)

    def test_table_formatting(self):
        model = fit_mps(synthetic_mps(seed=12))
        text = format_resource_report(extrapolate(model, 400, 1000, 4e-6, 1e-9))
        header, sub, rule, row = text.split("\n")
        assert "N=400" in header and row.startswith("MPS (chi=1000)")
        assert "GB" in row or "TB" in row
        assert len(header) == len(sub) == len(rule)
