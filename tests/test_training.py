"""Adam updates, plateau schedule, evaluation metrics, and determinism."""

import numpy as np
import pytest

from dacnet import (
    BlockSpec,
    ConfigError,
    DataError,
    GradientTape,
    NetworkConfig,
    NumericError,
    Tensor,
    TrainConfig,
    adam_step,
    build_network,
    evaluate,
    load_preset,
    lr_schedule,
    train,
)
from dacnet import ops
from dacnet.training import LR_FLOOR, AdamState, ConfusionMatrix, predict_batches

# Per-class segment counts of the real corpus's test split, ordered by class
# index; Watching TV (index 7) is the majority class.
TEST_SPLIT_COUNTS = (5918, 1154, 398, 625, 570, 1069, 241, 5964, 4552)


def tiny_config():
    return NetworkConfig(
        stem_channels=6,
        blocks=(BlockSpec(6, 6, 2, 1, 1, 2), BlockSpec(6, 6, 1, 2, 1, 2)),
        mse_projection_channels=8,
        num_classes=9,
    )


def one_param(value=1.0):
    p = Tensor(np.array([value]), requires_grad=True)
    return [("p", p)], p


class TestAdam:
    def test_first_step_hand_value(self):
        params, p = one_param(1.0)
        p.grad = np.array([1.0])
        state = AdamState(params)
        config = TrainConfig(learning_rate=0.001, weight_decay=0.0)
        adam_step(params, state, config, lr=0.001)
        assert p.data[0] == pytest.approx(0.999000, abs=5e-7)

    def test_zero_gradient_no_decay_unchanged(self):
        params, p = one_param(1.7)
        p.grad = np.array([0.0])
        state = AdamState(params)
        config = TrainConfig(weight_decay=0.0)
        adam_step(params, state, config, lr=0.001)
        assert p.data[0] == 1.7

    def test_decoupled_decay_halves(self):
        params, p = one_param(3.0)
        p.grad = np.array([0.0])
        state = AdamState(params)
        config = TrainConfig(weight_decay=0.5)
        adam_step(params, state, config, lr=1.0)
        assert p.data[0] == pytest.approx(1.5)

    def test_missing_gradient_skipped(self):
        params, p = one_param(2.0)
        state = AdamState(params)
        adam_step(params, state, TrainConfig(), lr=0.001)
        assert p.data[0] == 2.0

    def test_nonfinite_gradient_halts_with_name(self):
        params, p = one_param(1.0)
        p.grad = np.array([np.nan])
        state = AdamState(params)
        with pytest.raises(NumericError, match="'p'"):
            adam_step(params, state, TrainConfig(), lr=0.001)


class TestLrSchedule:
    def test_monotone_decrease_keeps_lr(self):
        config = TrainConfig(learning_rate=0.001)
        assert lr_schedule([2.0, 1.9, 1.8], config) == 0.001

    def test_two_misses_halve(self):
        config = TrainConfig(learning_rate=0.001, plateau_factor=0.5, plateau_patience=2)
        assert lr_schedule([2.0, 2.0, 2.1], config) == pytest.approx(0.0005)

    def test_floor(self):
        config = TrainConfig(learning_rate=0.001, plateau_factor=0.5, plateau_patience=1)
        losses = [1.0] * 200
        assert lr_schedule(losses, config) == LR_FLOOR

    def test_miss_counter_resets_after_decay(self):
        config = TrainConfig(learning_rate=0.001, plateau_factor=0.5, plateau_patience=2)
        # two misses -> decay; one further miss alone must not decay again
        assert lr_schedule([2.0, 2.0, 2.1, 2.2], config) == pytest.approx(0.0005)
        assert lr_schedule([2.0, 2.0, 2.1, 2.2, 2.3], config) == pytest.approx(0.00025)

    def test_literal_factor_selectable(self):
        config = TrainConfig(learning_rate=0.001, plateau_factor=0.0005, plateau_patience=2)
        assert lr_schedule([1.0, 1.0, 1.1], config) == pytest.approx(5e-7)


class TestConfusionMatrix:
    def test_three_class_example(self):
        counts = np.array([[5, 0, 0], [1, 4, 0], [0, 0, 5]])
        targets, preds = [], []
        for i in range(3):
            for j in range(3):
                targets += [i] * counts[i, j]
                preds += [j] * counts[i, j]
        matrix = ConfusionMatrix.from_predictions(np.array(targets), np.array(preds), 3)
        assert np.array_equal(matrix.counts, counts)
        assert matrix.accuracy() == pytest.approx(14 / 15)
        assert matrix.total == 15

    def test_majority_class_baseline_on_real_test_counts(self):
        targets = np.repeat(np.arange(9), TEST_SPLIT_COUNTS)
        preds = np.full(targets.shape, 7)  # always predict the majority class
        matrix = ConfusionMatrix.from_predictions(targets, preds, 9)
        assert matrix.total == 20491
        assert matrix.accuracy() == pytest.approx(5964 / 20491)
        assert matrix.accuracy() == pytest.approx(0.2911, abs=5e-5)

    def test_perfect_predictor_diagonal(self):
        targets = np.array([0, 1, 2, 2, 1])
        matrix = ConfusionMatrix.from_predictions(targets, targets, 3)
        assert matrix.accuracy() == 1.0
        assert np.array_equal(matrix.counts, np.diag([1, 2, 2]))

    def test_renderings(self):
        matrix = ConfusionMatrix.from_predictions(
            np.array([0, 0, 1]), np.array([0, 1, 1]), 2
        )
        csv = matrix.to_csv(["a", "b"])
        assert csv.splitlines()[1] == "a,1,1"
        text = matrix.to_text(["a", "b"])
        assert "a" in text and "@" in text  # full-intensity diagonal shade


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        model = build_network(tiny_config(), 0)
        with pytest.raises(DataError, match="empty"):
            evaluate(model, np.zeros((0, 3, 28, 20)), np.zeros(0, dtype=int))

    def test_predict_batches_empty_rejected(self):
        model = build_network(tiny_config(), 0)
        with pytest.raises(DataError, match="empty"):
            predict_batches(model, np.zeros((0, 3, 28, 20)))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        model = build_network(tiny_config(), 0)
        x = np.random.default_rng(3).standard_normal((3, 3, 28, 20))
        with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {batch_size}"):
            predict_batches(model, x, batch_size)
        with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {batch_size}"):
            evaluate(model, x, np.zeros(3, dtype=int), batch_size=batch_size)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_threads_keep_the_callers_error_state(self, workers):
        """A classifier of 1e308 overflows the logits; under the error state the
        CLI sets, that raises on pool threads as it does on the caller's."""
        model = build_network(load_preset("toy").network, 0)
        model.classifier.data[...] = 1e308
        x = np.random.default_rng(5).standard_normal((64, 3, 28, 20))
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError):
                predict_batches(model, x, workers=workers)

    def test_accuracy_equals_trace_over_total(self):
        model = build_network(tiny_config(), 0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((13, 3, 28, 20))
        y = rng.integers(0, 9, 13)
        ca, matrix = evaluate(model, x, y)
        assert ca == np.trace(matrix.counts) / matrix.total
        assert matrix.total == 13

    def test_worker_count_does_not_change_result(self):
        model = build_network(tiny_config(), 0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 3, 28, 20))
        y = rng.integers(0, 9, 9)
        ca1, m1 = evaluate(model, x, y, batch_size=4, workers=1)
        ca2, m2 = evaluate(model, x, y, batch_size=4, workers=3)
        assert ca1 == ca2
        assert np.array_equal(m1.counts, m2.counts)

    @pytest.mark.parametrize("bad", [9, -1])
    def test_label_outside_classes_rejected(self, bad):
        model = build_network(tiny_config(), 0)
        x = np.random.default_rng(3).standard_normal((3, 3, 28, 20))
        with pytest.raises(DataError, match=f"label {bad} outside"):
            evaluate(model, x, np.array([0, bad, 1]))

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_label_count_must_match_segments(self, n_labels):
        model = build_network(tiny_config(), 0)
        x = np.random.default_rng(3).standard_normal((3, 3, 28, 20))
        with pytest.raises(DataError, match=rf"labels of shape \({n_labels},\) for 3 segments"):
            evaluate(model, x, np.zeros(n_labels, dtype=int))

    def test_worker_threads_do_not_record_on_callers_tape(self):
        model = build_network(tiny_config(), 0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3, 28, 20))
        y = rng.integers(0, 9, 6)
        with GradientTape() as tape:
            evaluate(model, x, y, batch_size=2, workers=2)
        assert len(tape) == 0

    def test_argmax_scale_invariance(self):
        model = build_network(tiny_config(), 0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 3, 28, 20))
        logits = model.predict_logits(x)
        assert np.array_equal(logits.argmax(axis=1), (7.3 * logits).argmax(axis=1))

    def test_tie_breaks_to_lowest_index(self):
        logits = np.zeros((2, 9))
        assert np.array_equal(logits.argmax(axis=1), np.zeros(2, dtype=int))


class TestTrainingLoop:
    def test_loss_strictly_decreases_first_five_steps(self):
        model = build_network(tiny_config(), 0)
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((16, 3, 28, 20)))
        y = rng.integers(0, 9, 16)
        params = model.parameters()
        state = AdamState(params)
        config = TrainConfig(learning_rate=0.003, weight_decay=0.0)
        losses = []
        for _ in range(5):
            model.zero_grad()
            with GradientTape() as tape:
                logits, _ = model.forward(x, training=True)
                loss, _ = ops.softmax_cross_entropy(logits, y)
            tape.backward(loss)
            adam_step(params, state, config, config.learning_rate)
            losses.append(loss.item())
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 3, 28, 20))
        y = rng.integers(0, 9, 20)
        config = TrainConfig(batch_size=8, max_epochs=2, seed=11)

        def run():
            model = build_network(tiny_config(), seed=5)
            history = train(model, x, y, config)
            blob = b"".join(t.data.tobytes() for _, t in model.parameters())
            return blob, [r.train_loss for r in history]

        blob1, losses1 = run()
        blob2, losses2 = run()
        assert blob1 == blob2
        assert losses1 == losses2

    def test_partial_final_batch_kept(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 3, 28, 20))
        y = rng.integers(0, 9, 10)
        seen = []
        model = build_network(tiny_config(), 0)
        original = ops.softmax_cross_entropy

        def spy(logits, labels):
            seen.append(len(labels))
            return original(logits, labels)

        from dacnet import training as tr
        tr.ops.softmax_cross_entropy, keep = spy, tr.ops.softmax_cross_entropy
        try:
            train(model, x, y, TrainConfig(batch_size=4, max_epochs=1))
        finally:
            tr.ops.softmax_cross_entropy = keep
        assert sorted(seen) == [2, 4, 4]

    @pytest.mark.parametrize("n_labels", [5, 7])
    def test_label_count_must_match_segments(self, n_labels):
        """A longer label array is not truncated and a shorter one is not indexed past
        its end: either is a data error naming both lengths, before any step."""
        rng = np.random.default_rng(7)
        model = build_network(tiny_config(), 0)
        before = model.arena.copy()
        with pytest.raises(DataError, match=rf"labels of shape \({n_labels},\) for 6 segments"):
            train(model, rng.standard_normal((6, 3, 28, 20)), rng.integers(0, 9, n_labels),
                  TrainConfig(batch_size=4, max_epochs=1))
        assert np.array_equal(model.arena, before)

    def test_history_records_schedule(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 3, 28, 20))
        y = rng.integers(0, 9, 8)
        model = build_network(tiny_config(), 0)
        history = train(model, x, y, TrainConfig(batch_size=8, max_epochs=3, seed=0))
        assert [r.epoch for r in history] == [1, 2, 3]
        assert all(r.lr > 0 for r in history)
        assert all(r.val_ca is None for r in history)
