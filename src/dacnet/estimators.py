"""Estimator-style surface: a frontend transformer and a classifier.

Both classes follow the usual fit/transform/predict conventions, store their
constructor arguments unmodified, expose ``get_params``/``set_params``, and
suffix learned state with an underscore, so they compose with pipeline-style
tooling by duck typing alone.
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError
from .frontend import FrontendConfig, compute_features, mel_filterbank
from .network import Model, NetworkConfig, build_network
from .presets import load_preset
from .training import TrainConfig, evaluate, predict_batches, train
from .validation import check_feature_array, check_labels, check_waveforms


class BaseEstimator:
    """Parameter introspection compatible with sklearn-style cloning."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class LogMelFrontend(BaseEstimator):
    """Transformer mapping raw waveforms to 3-channel log-Mel feature blocks.

    ``transform`` accepts a 2-D array of equal-length waveforms (or a
    sequence of 1-D arrays) and returns an (n, 3, mel_bins, frames) array;
    unequal lengths produce a list of per-item arrays instead.
    """

    def __init__(self, sample_rate: int = 16000, frame_ms: float = 40.0,
                 hop_ms: float = 20.0, mel_bins: int = 28, fft_size: int = 1024,
                 delta_window: int = 2, channel_mode: str = "deltas"):
        self.sample_rate = sample_rate
        self.frame_ms = frame_ms
        self.hop_ms = hop_ms
        self.mel_bins = mel_bins
        self.fft_size = fft_size
        self.delta_window = delta_window
        self.channel_mode = channel_mode

    def _config(self) -> FrontendConfig:
        return FrontendConfig(
            sample_rate=self.sample_rate, frame_ms=self.frame_ms, hop_ms=self.hop_ms,
            mel_bins=self.mel_bins, fft_size=self.fft_size,
            delta_window=self.delta_window, channel_mode=self.channel_mode,
        )

    def fit(self, X=None, y=None) -> "LogMelFrontend":
        self.config_ = self._config()
        self.filterbank_ = mel_filterbank(self.config_)
        return self

    def transform(self, X):
        if not hasattr(self, "config_"):
            self.fit()
        waveforms = check_waveforms(X)
        blocks = [compute_features(w, self.config_).values for w in waveforms]
        frames = {b.shape[-1] for b in blocks}
        if len(frames) == 1:
            return np.stack(blocks)
        return blocks

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)


class DacNetClassifier(BaseEstimator):
    """Dilated depthwise-separable convnet classifier over feature blocks.

    ``network`` and ``train`` accept config objects or plain dicts; both
    default to the desk-scale toy preset. After ``fit`` the trained model is
    available as ``model_`` and the per-epoch history as ``history_``.
    """

    def __init__(self, network: Optional[NetworkConfig | dict] = None,
                 train: Optional[TrainConfig | dict] = None,
                 max_epochs: Optional[int] = None, seed: int = 0, workers: int = 1):
        self.network = network
        self.train = train
        self.max_epochs = max_epochs
        self.seed = seed
        self.workers = workers

    def _configs(self) -> tuple[NetworkConfig, TrainConfig]:
        network = self.network
        if network is None:
            network = load_preset("toy").network
        elif isinstance(network, dict):
            network = NetworkConfig.from_dict(network)
        train_cfg = self.train
        if train_cfg is None:
            train_cfg = load_preset("toy").train
        elif isinstance(train_cfg, dict):
            train_cfg = TrainConfig.from_dict(train_cfg)
        if self.max_epochs is not None:
            train_cfg = TrainConfig(**{**train_cfg.__dict__, "max_epochs": self.max_epochs})
        train_cfg = TrainConfig(**{**train_cfg.__dict__, "seed": self.seed})
        return network, train_cfg

    def fit(self, X, y) -> "DacNetClassifier":
        network, train_cfg = self._configs()
        X = check_feature_array(X, network.input_channels)
        y = check_labels(y, len(X), network.num_classes)
        self.model_ = build_network(network, seed=self.seed)
        self.history_ = train(self.model_, X, y, train_cfg)
        self.classes_ = np.arange(network.num_classes)
        return self

    def _check_fitted(self) -> Model:
        if not hasattr(self, "model_"):
            raise ConfigError(f"{type(self).__name__} is not fitted; call fit first")
        return self.model_

    def predict_proba(self, X) -> np.ndarray:
        model = self._check_fitted()
        X = check_feature_array(X, model.config.input_channels)
        return np.exp(ops.log_softmax(predict_batches(model, X, workers=self.workers)))

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def score(self, X, y) -> float:
        model = self._check_fitted()
        X = check_feature_array(X, model.config.input_channels)
        y = check_labels(y, len(X), model.config.num_classes)
        ca, _ = evaluate(model, X, y, workers=self.workers)
        return ca
