"""Tests for training, datasets and the mixed-precision accuracy claim."""

import numpy as np
import pytest

from repro.models.data import TASKS, majority_task, matching_pairs_task, needle_task
from repro.models.quantized import evaluate_regimes, logit_deviation
from repro.models.training import Adam, accuracy, cross_entropy, train_classifier
from repro.models.vit import SequenceClassifier


class TestDatasets:
    @pytest.mark.parametrize("factory", list(TASKS.values()))
    def test_shapes_and_labels(self, factory):
        d = factory(n=100, seq_len=10, seed=0)
        assert d.tokens.shape == (100, 10)
        assert d.labels.shape == (100,)
        assert set(np.unique(d.labels)) <= set(range(d.n_classes))
        assert d.tokens.min() >= 0 and d.tokens.max() < d.vocab

    def test_split(self):
        d = majority_task(n=100, seed=0)
        train, test = d.split(0.8)
        assert train.tokens.shape[0] == 80 and test.tokens.shape[0] == 20

    def test_majority_labels_correct(self):
        d = majority_task(n=50, seq_len=9, vocab=4, seed=1)
        for i in range(10):
            counts = np.bincount(d.tokens[i], minlength=4)
            assert d.labels[i] == np.argmax(counts) % 2

    def test_matching_pairs_balanced(self):
        d = matching_pairs_task(n=400, seed=0)
        assert 0.4 < d.labels.mean() < 0.6

    def test_needle_labels_correct(self):
        d = needle_task(n=50, seq_len=12, vocab=8, seed=2)
        marker = 7
        for i in range(10):
            pos = int(np.argmax(d.tokens[i] == marker))
            assert d.labels[i] == d.tokens[i, pos + 1] % 2

    def test_deterministic_by_seed(self):
        a = majority_task(n=20, seed=3)
        b = majority_task(n=20, seed=3)
        assert np.array_equal(a.tokens, b.tokens)


class TestCrossEntropy:
    def test_loss_value(self):
        logits = np.array([[10.0, -10.0]], np.float32)
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_gradient_finite_difference(self, rng):
        logits = rng.normal(size=(3, 4)).astype(np.float32)
        labels = np.array([0, 2, 3])
        _, grad = cross_entropy(logits, labels)
        eps = 1e-4
        for idx in [(0, 0), (1, 2), (2, 3)]:
            lp, lm = logits.copy(), logits.copy()
            lp[idx] += eps
            lm[idx] -= eps
            num = (cross_entropy(lp, labels)[0] - cross_entropy(lm, labels)[0]) / (2 * eps)
            assert grad[idx] == pytest.approx(num, abs=1e-3)


class TestAdam:
    def test_moves_toward_minimum(self):
        p = {"w": np.array([5.0])}
        opt = Adam(lr=0.5)
        for _ in range(50):
            g = {"w": 2 * p["w"]}  # d/dw of w^2
            opt.step(p, g)
        assert abs(p["w"][0]) < 1.0

    def test_skips_missing_grads(self):
        p = {"w": np.array([1.0])}
        Adam().step(p, {})
        assert p["w"][0] == 1.0


class TestTrainingAndRegimes:
    @pytest.fixture(scope="class")
    def trained(self):
        data = majority_task(n=600, seq_len=10, vocab=6, seed=0)
        train, test = data.split()
        model = SequenceClassifier(vocab=6, seq_len=10, dim=24, depth=2,
                                   n_heads=4, seed=1)
        result = train_classifier(model, train, test, epochs=8, lr=3e-3, seed=2)
        return model, test, result

    def test_loss_decreases(self, trained):
        _, _, result = trained
        assert result.losses[-1] < result.losses[0]

    def test_better_than_chance(self, trained):
        _, _, result = trained
        assert result.test_accuracy > 0.6

    def test_regime_evaluation(self, trained):
        model, test, result = trained
        regimes = {r.backend: r for r in evaluate_regimes(model, test)}
        assert set(regimes) == {"fp32", "bfp8-mixed", "bfp8-all",
                                "int8-linear", "int8-all", "ibert"}
        # fp32 row is the reference itself.
        assert regimes["fp32"].agreement == 1.0
        assert regimes["fp32"].logit_rmse == 0.0
        assert regimes["fp32"].accuracy == pytest.approx(result.test_accuracy)

    def test_paper_claim_bfp8_mixed_tracks_fp32(self, trained):
        """The paper's deployment claim: bfp8 linear + fp32 non-linear
        preserves the trained model's behaviour without retraining."""
        model, test, _ = trained
        regimes = {r.backend: r for r in evaluate_regimes(model, test)}
        mixed = regimes["bfp8-mixed"]
        assert mixed.agreement >= 0.97
        # Logit perturbation well under the decision margins.
        assert mixed.logit_rmse < 0.15

    def test_low_bitwidth_integer_collapses_first(self, trained):
        """Bitwidth sweep at 4 bits: the per-tensor integer pipeline
        degrades far more than the block-fp pipeline (outlier containment,
        Section IV-A)."""
        model, test, _ = trained
        regimes = {
            r.backend: r
            for r in evaluate_regimes(
                model, test, backends=["fp32", "bfp4-mixed", "int4-all"]
            )
        }
        assert regimes["bfp4-mixed"].logit_rmse < regimes["int4-all"].logit_rmse
        assert regimes["bfp4-mixed"].agreement >= regimes["int4-all"].agreement

    def test_accuracy_drop_bounded(self, trained):
        model, test, result = trained
        regimes = {r.backend: r for r in evaluate_regimes(model, test)}
        assert regimes["bfp8-mixed"].accuracy >= result.test_accuracy - 0.02


class TestLogitDeviation:
    def test_zero_for_identical(self, rng):
        x = rng.normal(size=(5, 2))
        assert logit_deviation(x, x) == 0.0

    def test_rmse_value(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        assert logit_deviation(a, b) == pytest.approx(1.0)
