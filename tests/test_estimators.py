"""Estimator facade: parameter handling, transform/fit/predict, validation."""

import json

import numpy as np
import pytest

from dacnet import (ConfigError, DacNetClassifier, DataError, FrontendConfig, LogMelFrontend,
                    ShapeError)
from dacnet.network import BlockSpec, NetworkConfig
from dacnet.training import TrainConfig


def tiny_network():
    return NetworkConfig(
        stem_channels=6,
        blocks=(BlockSpec(6, 6, 2, 1, 1, 2), BlockSpec(6, 6, 2, 2, 1, 2)),
        mse_projection_channels=8,
        num_classes=9,
    )


class TestParamProtocol:
    def test_get_params_round_trip(self):
        frontend = LogMelFrontend(frontend={"mel_bins": 32, "log_floor": 1e-8})
        clone = LogMelFrontend(**frontend.get_params())
        assert clone.get_params() == frontend.get_params()

    def test_set_params_chains_and_validates(self):
        frontend = LogMelFrontend()
        assert frontend.set_params(frontend={"mel_bins": 30}) is frontend
        assert frontend.fit().config_.mel_bins == 30
        with pytest.raises(ConfigError, match="invalid parameter"):
            frontend.set_params(window="hann")

    def test_classifier_params(self):
        clf = DacNetClassifier(network=tiny_network(), seed=3)
        params = clf.get_params()
        assert params["seed"] == 3
        assert params["network"] == tiny_network()


class TestLogMelFrontend:
    def test_transform_equal_lengths_stacks(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 16000))
        out = LogMelFrontend().fit_transform(X)
        assert out.shape == (3, 3, 28, 49)

    def test_transform_without_fit(self):
        out = LogMelFrontend().transform(np.zeros((1, 16000)))
        assert out.shape == (1, 3, 28, 49)

    def test_unequal_lengths_give_list(self):
        rng = np.random.default_rng(1)
        out = LogMelFrontend().fit().transform(
            [rng.standard_normal(16000), rng.standard_normal(32000)]
        )
        assert isinstance(out, list)
        assert out[0].shape[-1] != out[1].shape[-1]

    def test_any_sample_rate(self):
        """The feature cache takes the corpus rate only; the transformer takes any rate."""
        frontend = LogMelFrontend(frontend=FrontendConfig(sample_rate=8000, fft_size=512))
        out = frontend.transform(np.zeros((1, 8000)))
        assert out.shape == (1, 3, 28, 49)

    def test_frontend_config_reaches_the_features(self):
        """Silence is clamped to ``log_floor``; a config of another type is an error."""
        out = LogMelFrontend(frontend={"log_floor": 1e-4}).transform(np.zeros((1, 16000)))
        assert np.all(out[:, 0] == np.log(1e-4))
        with pytest.raises(ConfigError, match="frontend must be a FrontendConfig, a dict or "
                                              "None, not str"):
            LogMelFrontend(frontend="toy").fit()

    def test_rejects_bad_waveforms(self):
        with pytest.raises(ShapeError):
            LogMelFrontend().transform([np.zeros((2, 100))])
        with pytest.raises(ConfigError, match="non-finite"):
            LogMelFrontend().transform([np.array([np.nan] * 700)])


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(2)
    # two linearly separated blobs in feature space, labels 0 and 1
    X = rng.standard_normal((24, 3, 28, 12)) * 0.1
    y = np.repeat(np.arange(2), 12)
    X[y == 1] += 1.5
    clf = DacNetClassifier(
        network=tiny_network(),
        train=TrainConfig(batch_size=8, max_epochs=20, learning_rate=0.005),
        seed=0,
    )
    return clf.fit(X, y), X, y


class TestDacNetClassifier:
    def test_fit_exposes_state(self, fitted):
        clf, X, y = fitted
        assert hasattr(clf, "model_") and hasattr(clf, "history_")
        assert list(clf.classes_) == list(range(9))
        assert len(clf.history_) == 20

    def test_predict_and_proba_consistent(self, fitted):
        clf, X, y = fitted
        proba = clf.predict_proba(X)
        assert proba.shape == (24, 9)
        assert np.max(np.abs(proba.sum(axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(clf.predict(X), proba.argmax(axis=1))

    def test_proba_is_softmax_of_logits_for_any_workers(self, fitted):
        clf, X, y = fitted
        X = np.concatenate([X, X, X])  # 72 segments: three batches of at most 32
        logits = clf.model_.predict_logits(X)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = exp / exp.sum(axis=1, keepdims=True)
        probas = []
        for workers in (1, 2):
            clf.set_params(workers=workers)
            probas.append(clf.predict_proba(X))
        clf.set_params(workers=1)
        assert np.max(np.abs(probas[0] - want)) <= 1e-12
        assert probas[0].tobytes() == probas[1].tobytes()

    def test_score_fits_training_blobs(self, fitted):
        clf, X, y = fitted
        assert clf.score(X, y) >= 0.9

    @pytest.mark.parametrize("method", ["predict_proba", "predict"])
    def test_empty_features_rejected(self, fitted, method):
        clf, X, y = fitted
        with pytest.raises(DataError, match="empty"):
            getattr(clf, method)(np.zeros((0, 3, 28, 12)))

    def test_unfitted_predict_rejected(self):
        clf = DacNetClassifier(network=tiny_network())
        with pytest.raises(ConfigError, match="not fitted"):
            clf.predict(np.zeros((1, 3, 28, 12)))

    def test_label_validation(self):
        clf = DacNetClassifier(network=tiny_network(), max_epochs=1)
        X = np.zeros((4, 3, 28, 12))
        with pytest.raises(ConfigError, match="labels"):
            clf.fit(X, np.array([0, 1, 2, 9]))

    def test_unknown_network_key_rejected(self):
        doc = json.loads(tiny_network().to_json())
        doc["residual_enabld"] = False
        clf = DacNetClassifier(network=doc, max_epochs=1)
        with pytest.raises(ConfigError, match="unknown keys residual_enabld"):
            clf.fit(np.zeros((4, 3, 28, 12)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("kwargs, message", [
        ({"network": "toy"}, "network must be a NetworkConfig, a dict or None, not str"),
        ({"train": [1]}, "train must be a TrainConfig, a dict or None, not list"),
    ], ids=["network", "train"])
    def test_config_of_another_type_rejected(self, kwargs, message):
        clf = DacNetClassifier(**kwargs)
        with pytest.raises(ConfigError, match=message):
            clf.fit(np.zeros((4, 3, 28, 12)), np.zeros(4, dtype=int))

    def test_max_epochs_and_seed_override_train_config(self):
        clf = DacNetClassifier(train={"batch_size": 4, "max_epochs": 5, "seed": 1},
                               max_epochs=2, seed=7)
        _, train_cfg = clf._configs()
        assert train_cfg == TrainConfig(batch_size=4, max_epochs=2, seed=7)
        _, train_cfg = clf.set_params(max_epochs=None)._configs()
        assert train_cfg == TrainConfig(batch_size=4, max_epochs=5, seed=7)

    def test_feature_validation(self):
        clf = DacNetClassifier(network=tiny_network(), max_epochs=1)
        with pytest.raises(ShapeError, match="4-D"):
            clf.fit(np.zeros((4, 28, 12)), np.zeros(4, dtype=int))

    def test_pipeline_style_composition(self):
        rng = np.random.default_rng(3)
        waveforms = []
        labels = []
        for i in range(6):
            tone = 300.0 if i % 2 == 0 else 2500.0
            t = np.arange(16000) / 16000.0
            waveforms.append(np.sin(2 * np.pi * tone * t) + 0.01 * rng.standard_normal(16000))
            labels.append(i % 2)
        features = LogMelFrontend().fit_transform(np.stack(waveforms))
        clf = DacNetClassifier(
            network=tiny_network(),
            train=TrainConfig(batch_size=6, max_epochs=12, learning_rate=0.005),
        ).fit(features, np.array(labels))
        assert clf.score(features, np.array(labels)) >= 0.8
