"""Adam training loop with plateau learning-rate decay, and evaluation.

Training is deterministic given a seed: epoch shuffling comes from one seeded
generator, every batch is processed as a single whole-batch pass (so results
do not depend on worker counts), and parameters update between batches only.
The learning rate halves (by ``plateau_factor``) whenever the mean training
loss has failed to decrease for ``plateau_patience`` consecutive epochs,
floored at 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import ops
from .errors import ConfigError, DataError, NumericError
from .network import Model
from .parallel import parallel_map
from .tensor import GradientTape, Tensor
from .validation import check_fields

LR_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 0.001
    plateau_factor: float = 0.5
    plateau_patience: int = 2
    weight_decay: float = 0.0005
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("batch_size", "plateau_patience"))
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError(f"plateau_factor must be in (0, 1), got {self.plateau_factor}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("learning_rate", "epsilon"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("weight_decay", "max_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


class AdamState:
    """First/second moment tensors plus the shared step counter."""

    def __init__(self, params: Sequence[tuple[str, Tensor]]):
        self.step = 0
        self.first = [np.zeros_like(t.data) for _, t in params]
        self.second = [np.zeros_like(t.data) for _, t in params]


def adam_step(
    params: Sequence[tuple[str, Tensor]],
    state: AdamState,
    config: TrainConfig,
    lr: float,
) -> None:
    """Bias-corrected Adam update with decoupled weight decay.

    The decay term ``lr * weight_decay * param`` is applied separately from
    the gradient-driven update, both computed from the pre-update parameter.
    """
    state.step += 1
    t = state.step
    correct1 = 1.0 - config.beta1 ** t
    correct2 = 1.0 - config.beta2 ** t
    for i, (name, p) in enumerate(params):
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {t}")
        m, v = state.first[i], state.second[i]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        if config.weight_decay:
            p.data -= lr * config.weight_decay * p.data
        p.data -= lr * (m / correct1) / (np.sqrt(v / correct2) + config.epsilon)


def lr_schedule(epoch_losses: Sequence[float], config: TrainConfig) -> float:
    """Replay the plateau rule over a training-loss history.

    Returns the learning rate in effect after the last recorded epoch.
    """
    lr = config.learning_rate
    misses = 0
    for i in range(1, len(epoch_losses)):
        if epoch_losses[i] < epoch_losses[i - 1]:
            misses = 0
        else:
            misses += 1
            if misses >= config.plateau_patience:
                lr = max(lr * config.plateau_factor, LR_FLOOR)
                misses = 0
    return max(lr, LR_FLOOR)


@dataclass
class ConfusionMatrix:
    """Row = target class, column = predicted class."""

    counts: np.ndarray

    @staticmethod
    def from_predictions(targets: np.ndarray, predictions: np.ndarray,
                         num_classes: int) -> "ConfusionMatrix":
        counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        np.add.at(counts, (targets, predictions), 1)
        return ConfusionMatrix(counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def to_csv(self, labels: Optional[Sequence[str]] = None) -> str:
        n = self.counts.shape[0]
        labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        lines = ["target\\predicted," + ",".join(labels)]
        for i in range(n):
            lines.append(labels[i] + "," + ",".join(str(c) for c in self.counts[i]))
        return "\n".join(lines) + "\n"

    def to_text(self, labels: Optional[Sequence[str]] = None) -> str:
        """Plain-text heat table: counts plus a row-normalized shade."""
        n = self.counts.shape[0]
        labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        name_w = max(len(s) for s in labels)
        cell = max(5, max(len(str(c)) for c in self.counts.ravel()))
        shades = " .:-=+*#%@"
        header = " " * (name_w + 2) + "  ".join(f"{i:>{cell}}" for i in range(n))
        lines = [header]
        row_totals = self.counts.sum(axis=1)
        for i in range(n):
            cells = []
            for j in range(n):
                c = int(self.counts[i, j])
                frac = c / row_totals[i] if row_totals[i] else 0.0
                shade = shades[min(int(frac * (len(shades) - 1) + 0.5), len(shades) - 1)]
                cells.append(f"{c:>{cell - 1}}{shade}")
            lines.append(f"{labels[i]:>{name_w}}  " + "  ".join(cells))
        return "\n".join(lines) + "\n"


def predict_batches(model: Model, features: np.ndarray, batch_size: int = 32,
                    workers: int = 1) -> np.ndarray:
    """Logits of every segment in batches fixed by ``batch_size`` alone, run on
    ``workers`` threads, so they are identical for any worker count."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if len(features) == 0:
        raise DataError("cannot predict on an empty dataset")
    chunks = [features[i:i + batch_size] for i in range(0, len(features), batch_size)]
    return np.concatenate(parallel_map(model.predict_logits, chunks, workers))


def _labels_for(features: np.ndarray, labels) -> np.ndarray:
    """``labels`` as an array, one per segment of ``features``."""
    labels = np.asarray(labels)
    if labels.shape != (len(features),):
        raise DataError(f"labels of shape {labels.shape} for {len(features)} segments")
    return labels


def evaluate(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 32,
    workers: int = 1,
) -> tuple[float, ConfusionMatrix]:
    """Classification accuracy and confusion matrix over a dataset.

    Each segment is an independent sample; predictions are the per-segment
    argmax of the logits (:func:`predict_batches`) with ties broken toward
    the lowest class index, so results are identical for any worker count.
    """
    num_classes = model.config.num_classes
    labels = _labels_for(features, labels)
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        raise DataError(f"label {int(labels[outside][0])} outside [0, {num_classes})")
    predictions = predict_batches(model, features, batch_size, workers).argmax(axis=1)
    matrix = ConfusionMatrix.from_predictions(labels, predictions, num_classes)
    ca = matrix.accuracy()
    return ca, matrix


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_ca: Optional[float]
    lr: float

    def line(self) -> str:
        val = f"{self.val_ca:.4f}" if self.val_ca is not None else "-"
        return f"epoch {self.epoch:3d} | train_loss {self.train_loss:.6f} | val_ca {val} | lr {self.lr:.8f}"


def train(
    model: Model,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    config: TrainConfig,
    val_features: Optional[np.ndarray] = None,
    val_labels: Optional[np.ndarray] = None,
    log: Optional[Callable[[str], None]] = None,
    on_epoch_end: Optional[Callable[[EpochRecord, Model], None]] = None,
) -> list[EpochRecord]:
    """Run the full training loop; returns the per-epoch history."""
    n = len(train_features)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    train_labels = _labels_for(train_features, train_labels)
    params = model.parameters()
    state = AdamState(params)
    rng = np.random.default_rng(config.seed)
    history: list[EpochRecord] = []
    losses: list[float] = []

    for epoch in range(1, config.max_epochs + 1):
        lr = lr_schedule(losses, config)
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = Tensor(train_features[idx])
            yb = train_labels[idx]
            model.zero_grad()
            with GradientTape() as tape:
                logits, _ = model.forward(xb, training=True)
                loss, _ = ops.softmax_cross_entropy(logits, yb)
            tape.backward(loss)
            adam_step(params, state, config, lr)
            loss_sum += loss.item() * len(idx)
        mean_loss = loss_sum / n
        losses.append(mean_loss)

        val_ca = None
        if val_features is not None and len(val_features):
            val_ca, _ = evaluate(model, val_features, val_labels)
        record = EpochRecord(epoch, mean_loss, val_ca, lr)
        history.append(record)
        if log is not None:
            log(record.line())
        if on_epoch_end is not None:
            on_epoch_end(record, model)
    return history
