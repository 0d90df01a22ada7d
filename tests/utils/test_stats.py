"""Percentile semantics shared by service, fleet and online reports.

``repro.utils.stats.percentile`` is the single implementation behind
``ServiceStats`` latency percentiles, ``FleetReport`` per-tenant p50/p99
and the online-adaptation experiment's p99 headline — these tests pin
its edge-case behavior (empty, singleton, tiny windows) and that all
three report layers really share the one helper.
"""

import math

import numpy as np
import pytest

from repro.utils.stats import percentile


class TestPercentileEdgeCases:
    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_single_sample_returned_for_any_q(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([3.25], q) == 3.25

    def test_q_out_of_range_rejected(self):
        for q in (-0.001, 100.001, 1e9):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                percentile([1.0, 2.0], q)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("q", [0, 25, 50, 75, 90, 99, 100])
    def test_tiny_windows_match_numpy_linear(self, n, q):
        """p99 on a 2-sample window must interpolate, not pick max."""
        rng = np.random.default_rng(n * 1000 + q)
        values = rng.uniform(-5, 5, size=n).tolist()
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), abs=1e-12
        )

    def test_p99_on_two_samples_is_not_the_max(self):
        assert percentile([0.0, 1.0], 99) == pytest.approx(0.99)

    def test_p0_p100_are_min_max(self):
        values = [5.0, -2.0, 7.5, 0.0]
        assert percentile(values, 0) == -2.0
        assert percentile(values, 100) == 7.5

    def test_input_order_irrelevant(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert percentile(values, 50) == percentile(sorted(values), 50) == 5.0

    def test_handles_duplicates(self):
        assert percentile([2.0, 2.0, 2.0], 99) == 2.0

    def test_non_finite_values_pass_through(self):
        # The helper sorts; inf is a legal (if unusual) sample.
        assert math.isinf(percentile([1.0, math.inf], 100))


class TestSharedAcrossReports:
    def test_service_fleet_online_use_one_implementation(self):
        """The three report layers must agree on percentile semantics."""
        import repro.cluster.report as report
        import repro.experiments.online_adaptation as online
        import repro.service.service as service

        assert service.percentile is percentile
        assert report.percentile is percentile
        assert online.percentile is percentile
