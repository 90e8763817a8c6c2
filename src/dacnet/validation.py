"""Input validation: the config schema's one reader and writer, and the estimator checks."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError

_schema = functools.cache(typing.get_type_hints)  # config class -> {field: annotation}


def _matches(value, hint) -> bool:
    """A bool is not a number, an int passes for a float, and ``None`` matches no field."""
    if hint is float:
        return type(value) is int or isinstance(value, float) and math.isfinite(value)
    if hint is int:
        return type(value) is int
    if typing.get_origin(hint) is tuple:  # tuple[T, ...]
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_matches(v, item) for v in value)
    return isinstance(value, hint)


def check_fields(config, positive: Sequence[str] = ()) -> None:
    """Raise ``ConfigError`` unless each field of the config dataclass ``config``
    matches its annotation, the schema (a float must be finite), and each
    ``positive`` attribute is >= 1."""
    cls = type(config)
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if not _matches(value, _schema(cls)[field.name]):
            raise ConfigError(f"{cls.__name__}.{field.name} must be {field.type}, not {value!r}")
    for name in positive:
        if getattr(config, name) < 1:
            raise ConfigError(f"{cls.__name__}.{name} must be >= 1, got {getattr(config, name)}")


def _read(hint, value):
    """A JSON list as the tuple, or the dataclass row, that ``hint`` declares."""
    if not isinstance(value, list):
        return value
    if typing.get_origin(hint) is tuple:  # tuple[T, ...]
        return tuple(_read(typing.get_args(hint)[0], v) for v in value)
    return hint(*value) if dataclasses.is_dataclass(hint) else value  # else check_fields rejects


def config_from_dict(cls, doc, name: str):
    """Build the config dataclass ``cls`` from the JSON object ``doc``, the
    ``name`` section: absent keys take their defaults, unknown keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"malformed {name} config: expected an object, not {type(doc).__name__}")
    unknown = [str(key) for key in doc if key not in _schema(cls)]
    if unknown:
        raise ConfigError(f"malformed {name} config: unknown keys {', '.join(unknown)}")
    try:
        return cls(**{key: _read(_schema(cls)[key], value) for key, value in doc.items()})
    except (ConfigError, TypeError) as exc:  # TypeError: a required value missing or extra
        raise ConfigError(f"malformed {name} config: {exc}") from exc


def config_to_dict(config) -> dict:
    """The inverse of ``config_from_dict``: nested configs as objects, tuples
    and dataclass rows as lists."""
    def write(value):
        if isinstance(value, tuple):
            return [list(dataclasses.astuple(v)) if dataclasses.is_dataclass(v) else v
                    for v in value]
        return config_to_dict(value) if dataclasses.is_dataclass(value) else value
    return {field.name: write(getattr(config, field.name)) for field in dataclasses.fields(config)}


def check_feature_array(X, n_channels: int = 3) -> np.ndarray:
    """Validate a (n_samples, channels, bins, frames) feature block."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 4:
        raise ShapeError(f"expected 4-D feature array (n, c, f, t), got {X.ndim}-D")
    if X.shape[1] != n_channels:
        raise ShapeError(f"expected {n_channels} feature channels, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ConfigError("feature array contains non-finite values")
    return X


def check_labels(y, n_samples: int, num_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n_samples,):
        raise ShapeError(f"expected labels of shape ({n_samples},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == np.floor(y)):
            raise ConfigError("labels must be integers")
        y = y.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ConfigError(f"labels must lie in [0, {num_classes})")
    return y.astype(np.int64)


def check_waveforms(X) -> list[np.ndarray]:
    """Accept a 2-D array or a sequence of 1-D arrays; return float64 rows."""
    if isinstance(X, np.ndarray) and X.ndim == 2:
        rows: Sequence = list(X)
    elif isinstance(X, np.ndarray) and X.ndim == 1:
        rows = [X]
    else:
        rows = list(X)
    out = []
    for i, row in enumerate(rows):
        arr = np.asarray(row, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError(f"waveform {i} must be 1-D, got {arr.ndim}-D")
        if not np.isfinite(arr).all():
            raise ConfigError(f"waveform {i} contains non-finite samples")
        out.append(arr)
    return out
