"""Dense float64 tensors and a reverse-mode gradient tape.

A Tensor is a thin wrapper around a row-major numpy float64 array. Gradients
are accumulated into ``Tensor.grad`` when a GradientTape is active: every
differentiable operation records a backward closure on the innermost tape
open on the calling thread, and ``GradientTape.backward`` replays the
recorded operations in reverse execution order (which is a valid topological
order of the data-flow graph).

A tape replays once, and backward frees as it goes: each record is dropped
as soon as its adjoint has run, and with it the arrays only that record
held (saved inputs, batch-norm caches, the op's output and its gradient).
Leaves keep their gradients, and an intermediate gradient outlives the
tape only on a tensor the caller still holds. Only tensors that actually
participate in the taped computation receive a gradient; everything else
keeps ``grad = None``.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float64


class Tensor:
    """N-dimensional float64 array with optional gradient storage."""

    __slots__ = ("data", "grad", "requires_grad", "_traced")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=DTYPE)
        if any(dim < 1 for dim in arr.shape):
            raise ShapeError(f"tensor dimensions must be >= 1, got shape {arr.shape}")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._traced = False  # set when produced by a taped operation

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, own: bool = False) -> None:
        """Add ``g`` into this tensor's gradient buffer.

        ``own=True`` asserts that ``g`` is a freshly allocated array the
        caller will not touch again, letting the first accumulation adopt it
        without a defensive copy.
        """
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g if own else np.array(g, dtype=DTYPE)
        else:
            self.grad += g

    def needs_grad(self) -> bool:
        """True when a backward pass must deliver a gradient to this tensor."""
        return self.requires_grad or self._traced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ThreadStack(threading.local):
    """A stack of open contexts that each thread sees on its own.

    A tape or counter opened on one thread must not collect work that worker
    threads (``evaluate(workers > 1)``) run at the same time.
    """

    def __init__(self):
        self.items: list = []


class GradientTape:
    """Ordered record of executed operations for reverse-mode replay.

    Use as a context manager around the forward computation::

        with GradientTape() as tape:
            loss = model_loss(...)
        tape.backward(loss)
    """

    _STACK = ThreadStack()

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._replayed = False

    def __enter__(self) -> "GradientTape":
        GradientTape._STACK.items.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        GradientTape._STACK.items.pop()

    @staticmethod
    def active() -> Optional["GradientTape"]:
        stack = GradientTape._STACK.items
        return stack[-1] if stack else None

    def record(self, output: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        output._traced = True
        self._records.append((output, backward))

    def __len__(self) -> int:
        """The number of records not yet replayed."""
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` for every participating tensor, starting at ``loss``.

        Each record is popped before its adjoint runs, so the tape holds no
        reference to it afterwards; a replayed tape cannot be replayed again.
        """
        if self._replayed:
            raise RuntimeError("this tape was already replayed; record the forward pass "
                               "on a new tape")
        if loss.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.data).all():
            raise NumericError("loss is not finite")
        self._replayed = True
        loss.accumulate_grad(np.ones_like(loss.data))
        while self._records:
            output, backward = self._records.pop()
            if output.grad is not None:  # else its result never reached the loss
                backward(output.grad)
