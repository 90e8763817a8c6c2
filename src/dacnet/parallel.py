"""Deterministic worker pool: results always come back in submission order."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """``[fn(item) for item in items]``; with several workers each item runs on a
    pool thread under the caller's numpy floating-point error state."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    state = np.geterr()

    def run(item: T) -> R:
        with np.errstate(**state):
            return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items))
