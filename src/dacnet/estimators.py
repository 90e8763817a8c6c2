"""Estimator-style surface: a frontend transformer and a classifier.

Both classes follow the usual fit/transform/predict conventions, store their
constructor arguments unmodified, expose ``get_params``/``set_params``, and
suffix learned state with an underscore, so they compose with pipeline-style
tooling by duck typing alone.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError
from .frontend import FrontendConfig, compute_features
from .network import Model, NetworkConfig, build_network
from .presets import load_preset
from .training import TrainConfig, evaluate, predict_batches, train
from .validation import check_feature_array, check_labels, check_waveforms, config_from_dict


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


def _config(value, cls, name: str):
    """The ``name`` section as a ``cls``: given as one, read from a dict like a
    run config's section, or the toy preset's when ``None``."""
    if value is None:
        return getattr(load_preset("toy"), name)
    if isinstance(value, dict):
        return config_from_dict(cls, value, name)
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, a dict or None, "
                          f"not {type(value).__name__}")
    return value


class LogMelFrontend(BaseEstimator):
    """Transformer mapping raw waveforms to 3-channel log-Mel feature blocks.

    ``frontend`` accepts a ``FrontendConfig``, a plain dict of its fields or
    ``None`` (the defaults). ``transform`` accepts a 2-D array of
    equal-length waveforms (or a sequence of 1-D arrays) and returns an
    (n, 3, mel_bins, frames) array; unequal lengths produce a list of
    per-item arrays instead.
    """

    def __init__(self, frontend: Optional[FrontendConfig | dict] = None):
        self.frontend = frontend

    def fit(self, X=None, y=None) -> "LogMelFrontend":
        self.config_ = _config(self.frontend, FrontendConfig, "frontend")
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
    ``workers`` spreads the batches of ``predict_proba``, ``predict`` and
    ``score`` over threads; ``fit`` ignores it, because each training step
    is one whole-batch pass.
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
        network = _config(self.network, NetworkConfig, "network")
        train_cfg = _config(self.train, TrainConfig, "train")
        epochs = {} if self.max_epochs is None else {"max_epochs": self.max_epochs}
        return network, replace(train_cfg, seed=self.seed, **epochs)

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
