"""Tests for recipe-interaction analysis."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.recipes.interactions import analyze_interactions
from repro.utils.rng import derive_rng


class TestInteractions:
    def test_report_shapes(self, mini_dataset):
        report = analyze_interactions(mini_dataset, "D6")
        assert report.main_effects.shape == (40,)
        assert report.synergy.shape == (40, 40)
        assert -1.0 <= report.additive_r2 <= 1.0
        assert report.residual_std >= 0.0

    def test_synergy_symmetric(self, mini_dataset):
        report = analyze_interactions(mini_dataset, "D10")
        synergy = report.synergy
        finite = np.isfinite(synergy)
        np.testing.assert_array_equal(finite, finite.T)
        assert np.allclose(
            synergy[finite], synergy.T[finite], equal_nan=True
        )

    def test_top_synergies_sorted(self, mini_dataset):
        report = analyze_interactions(mini_dataset, "D11")
        top = report.top_synergies(k=5)
        magnitudes = [abs(v) for _, _, v in top]
        assert magnitudes == sorted(magnitudes, reverse=True)
        for i, j, _ in top:
            assert i < j

    def test_too_small_archive_rejected(self):
        from repro.core.dataset import DataPoint, OfflineDataset
        from repro.insights.extractor import InsightVector
        from repro.insights.schema import INSIGHT_DIMS

        dataset = OfflineDataset(
            points=[DataPoint("X", tuple([0] * 40),
                              {"power_mw": 1.0, "tns_ns": 0.0})] * 3,
            insights={"X": InsightVector("X", np.zeros(INSIGHT_DIMS), {})},
        )
        with pytest.raises(TrainingError):
            analyze_interactions(dataset, "X")

    def test_planted_interaction_detected(self):
        """A pair that only pays off together must get positive synergy."""
        from repro.core.dataset import DataPoint, OfflineDataset
        from repro.insights.extractor import InsightVector
        from repro.insights.schema import INSIGHT_DIMS

        rng = derive_rng(3, "planted")
        points = []
        for _ in range(300):
            bits = [0] * 40
            for index in np.flatnonzero(rng.random(40) < 0.3):
                bits[int(index)] = 1
            bonus = 5.0 if (bits[4] and bits[9]) else 0.0
            points.append(DataPoint(
                "X", tuple(bits),
                {"power_mw": 10.0 - bonus + rng.normal(0, 0.1), "tns_ns": 1.0},
            ))
        dataset = OfflineDataset(
            points=points,
            insights={"X": InsightVector("X", np.zeros(INSIGHT_DIMS), {})},
        )
        report = analyze_interactions(dataset, "X")
        top = report.top_synergies(k=1)[0]
        assert (top[0], top[1]) == (4, 9)
        assert top[2] > 0
