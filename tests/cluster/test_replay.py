"""Shared demand-vs-supply primitives and their re-exports."""

import numpy as np
import pytest

from repro.cluster.replay import EXCESS_EPS, ExcessStats, excess_stats


class TestExcessStats:
    def test_hand_computed_vector(self):
        demand = np.array([0.5, 0.9, 0.2, 0.7])
        supply = np.array([0.6, 0.6, 0.6, 0.6])
        s = excess_stats(demand, supply)
        assert s.n_samples == 4
        assert s.rate == pytest.approx(0.5)  # 0.9 and 0.7 exceed
        assert s.mean_depth == pytest.approx((0.3 + 0.1) / 2)
        assert s.mean_slack == pytest.approx((0.1 + 0.0 + 0.4 + 0.0) / 4)
        assert s.mean_served == pytest.approx((0.5 + 0.6 + 0.2 + 0.6) / 4)
        assert s.peak_demand == pytest.approx(0.9)

    def test_scalar_supply_broadcasts_over_matrix(self):
        load = np.array([[0.4, 1.2], [0.8, 0.9]])
        s = excess_stats(load, 1.0)
        assert s.n_samples == 4
        assert s.rate == pytest.approx(0.25)
        assert s.mean_depth == pytest.approx(0.2)
        assert s.peak_demand == pytest.approx(1.2)

    def test_sub_eps_excess_is_not_a_breach(self):
        s = excess_stats(np.array([1.0 + EXCESS_EPS / 2]), 1.0)
        assert s.rate == 0.0
        assert s.mean_depth == 0.0

    def test_empty_demand_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            excess_stats(np.array([]), 1.0)

    def test_frozen_record(self):
        s = excess_stats(np.array([0.5]), 1.0)
        with pytest.raises(AttributeError):
            s.rate = 1.0

