"""Tests for offline alignment, cross-validation, and online fine-tuning."""

import numpy as np
import pytest

from repro.core.alignment import AlignmentConfig, AlignmentTrainer
from repro.core.crossval import evaluate_design, make_folds
from repro.core.dataset import OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.online import OnlineConfig, OnlineFineTuner
from repro.core.policy import sequence_log_prob_value
from repro.core.policy import sequence_log_probs as _batched_log_prob
from repro.core.recommender import InsightAlign
from repro.errors import TrainingError
from repro.insights.schema import INSIGHT_DIMS


class TestBatchedLogProb:
    def test_matches_sequential(self):
        model = InsightAlignModel(seed=1)
        rng = np.random.default_rng(0)
        insights = rng.normal(size=(3, INSIGHT_DIMS))
        decisions = rng.integers(0, 2, size=(3, 40))
        batched = _batched_log_prob(model, insights, decisions).numpy()
        for row in range(3):
            single = sequence_log_prob_value(model, insights[row], decisions[row])
            assert batched[row] == pytest.approx(single, abs=1e-9)


class TestAlignmentTrainer:
    def test_empty_dataset_raises(self):
        empty = OfflineDataset(points=[], insights={})
        with pytest.raises(TrainingError):
            AlignmentTrainer().train(empty)

    def test_probe_loss_decreases(self, mini_model):
        _, history = mini_model
        assert history.probe_loss[-1] < history.probe_loss[0]

    def test_pair_accuracy_improves(self, mini_model):
        _, history = mini_model
        assert history.epoch_pair_accuracy[-1] > 0.5

    def test_model_prefers_good_over_bad(self, mini_dataset, mini_model):
        """The aligned policy ranks each design's best set above its worst."""
        model, _ = mini_model
        wins = 0
        for design in mini_dataset.designs():
            scores = mini_dataset.scores_for(design)
            points = mini_dataset.by_design(design)
            insight = mini_dataset.insight_for(design)
            best = points[int(np.argmax(scores))].recipe_set
            worst = points[int(np.argmin(scores))].recipe_set
            gap = (
                sequence_log_prob_value(model, insight, best)
                - sequence_log_prob_value(model, insight, worst)
            )
            wins += int(gap > 0)
        assert wins >= 2  # at least 2 of the 3 training designs

    def test_deterministic_training(self, mini_dataset):
        config = AlignmentConfig(epochs=2, pairs_per_design=30, seed=5)
        m1, h1 = AlignmentTrainer(config).train(mini_dataset)
        m2, h2 = AlignmentTrainer(config).train(mini_dataset)
        assert h1.epoch_loss == h2.epoch_loss
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)


class TestFolds:
    def test_all_designs_covered_once(self, mini_dataset):
        folds = make_folds(mini_dataset, k=3, seed=1)
        flat = [d for fold in folds for d in fold]
        assert sorted(flat) == mini_dataset.designs()

    def test_too_many_folds_raises(self, mini_dataset):
        with pytest.raises(TrainingError):
            make_folds(mini_dataset, k=10, seed=1)

    def test_k_below_two_raises(self, mini_dataset):
        with pytest.raises(TrainingError):
            make_folds(mini_dataset, k=1, seed=1)


class TestZeroShotEvaluation:
    def test_row_fields(self, mini_dataset, mini_model):
        model, _ = mini_model
        row = evaluate_design(model, mini_dataset, "D10", beam_width=3, seed=11)
        assert row.design == "D10"
        assert 0.0 <= row.win_pct <= 100.0
        assert len(row.recommended_sets) == 3
        assert len(row.recommended_qors) == 3
        assert row.rec_score == pytest.approx(max(row.recommended_scores))

    def test_scores_use_known_normalizer(self, mini_dataset, mini_model):
        from repro.core.qor import QoRIntention

        model, _ = mini_model
        row = evaluate_design(model, mini_dataset, "D6", beam_width=2, seed=11)
        normalizer = mini_dataset.normalizer_for("D6")
        best = row.recommended_qors[int(np.argmax(row.recommended_scores))]
        recomputed = normalizer.score(best, QoRIntention())
        assert recomputed == pytest.approx(row.rec_score)


class TestOnlineFineTuning:
    def test_two_iterations_track_best(self, mini_dataset, mini_model):
        model, _ = mini_model
        tuner = OnlineFineTuner(OnlineConfig(iterations=2, k=3, seed=3))
        result = tuner.run(model.clone(), mini_dataset, "D10")
        assert len(result.records) == 2
        best = result.trajectory("best_score_so_far")
        assert best[1] >= best[0] - 1e-12  # best-so-far is monotone
        assert all(len(r.recipe_sets) >= 1 for r in result.records)

    def test_no_duplicate_proposals(self, mini_dataset, mini_model):
        model, _ = mini_model
        tuner = OnlineFineTuner(OnlineConfig(iterations=3, k=3, seed=4))
        result = tuner.run(model.clone(), mini_dataset, "D11")
        proposed = [
            bits for record in result.records for bits in record.recipe_sets
        ]
        assert len(set(proposed)) == len(proposed)

    def test_all_points_enumerates_everything(self, mini_dataset, mini_model):
        model, _ = mini_model
        tuner = OnlineFineTuner(OnlineConfig(iterations=2, k=2, seed=5))
        result = tuner.run(model.clone(), mini_dataset, "D6")
        evaluated = sum(len(r.recipe_sets) for r in result.records)
        assert len(result.all_points) == evaluated


class TestFacade:
    def test_align_offline_and_recommend(self, mini_dataset):
        config = AlignmentConfig(epochs=2, pairs_per_design=30, seed=2)
        ia = InsightAlign.align_offline(
            mini_dataset, holdout=("D11",), config=config
        )
        recs = ia.recommend(mini_dataset.insight_for("D11"), k=3)
        assert len(recs) == 3
        for rec in recs:
            assert len(rec.recipe_set) == 40
            selected = [i for i, b in enumerate(rec.recipe_set) if b]
            assert len(rec.recipe_names) == len(selected)

    def test_clone_is_independent(self, mini_dataset, mini_model):
        model, _ = mini_model
        ia = InsightAlign(model)
        twin = ia.clone()
        twin.model.parameters()[0].data += 1.0
        assert not np.allclose(
            ia.model.parameters()[0].data, twin.model.parameters()[0].data
        )
