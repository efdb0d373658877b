import math

import pytest

from quench_bench.mps import memory_estimate


class TestClosedForms:
    def test_minimal_plugin(self):
        est = memory_estimate(n=1, chi=1)
        assert est.mps == 32.0
        assert est.krylov == 1600.0

    def test_component_formulas(self):
        n, chi, d, s, k = 49, 37, 2, 16, 50
        est = memory_estimate(n, chi)
        sqrt_n = math.sqrt(n)
        assert est.mps == s * d * chi**2 * n
        assert est.baths == s * chi**2 * (3 * n * sqrt_n - 7 * n - 12 * sqrt_n - 4)
        assert est.krylov == k * s * d * chi**2
        assert est.intermediate == 3 * s * (3 * sqrt_n + 2) * d**2 * chi**2
        assert est.total == est.mps + est.baths + est.krylov + est.intermediate
        assert est.leading_term == 3 * s * chi**2 * n * sqrt_n

    def test_bath_clamped_nonnegative_at_tiny_n(self):
        assert memory_estimate(1, 10).baths == 0.0

    @pytest.mark.parametrize("n,chi", [(36, 8), (100, 128), (225, 1000)])
    def test_doubling_chi_quadruples_every_component(self, n, chi):
        small = memory_estimate(n, chi)
        big = memory_estimate(n, 2 * chi)
        for field in ("mps", "baths", "krylov", "intermediate", "total", "leading_term"):
            assert getattr(big, field) == pytest.approx(4.0 * getattr(small, field), rel=1e-12)

    def test_table_scale_point(self):
        est = memory_estimate(225, 1000)
        assert est.leading_term == pytest.approx(48e6 * 225**1.5, rel=1e-12)
        assert est.leading_term == pytest.approx(1.62e11, rel=0.01)
        # within 15% of the published 150 GB at 15x15, chi = 1000
        assert abs(est.leading_term - 150e9) / 150e9 < 0.15
        assert abs(est.total - 150e9) / 150e9 < 0.15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            memory_estimate(0, 10)


class TestEngineFitsModel:
    def test_live_bytes_within_model(self, saturated_steps):
        """The engine holds no more than the model allows on the saturated grid
        N in {9, 16, 25, 36} x chi in {8, 16, 32, 64}; it only holds the
        environments on each side of the active pair."""
        assert len(saturated_steps) == 16
        for (n, chi), records in saturated_steps.items():
            for r in records:
                assert 0 < r.live_bytes <= memory_estimate(n, chi).total, (n, chi)
