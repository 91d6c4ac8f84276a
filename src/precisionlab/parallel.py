"""Deterministic batch splitting for Monte Carlo loops.

Work is divided over a fixed batch grid with one child stream per batch
index and combined in batch order, so results are bit-reproducible for any
number of threads.  The calling thread and ``workers - 1`` persistent helper
threads pull batch indices from one iterator.  Batch functions must be pure
given their stream, and may call ``run_batched`` themselves.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .sampler import RngStream

T = TypeVar("T")

DEFAULT_BATCHES = 32
_HELPERS: dict[int, ThreadPoolExecutor] = {}  # by helper count; concurrent.futures joins at exit


def batch_counts(total: int, n_batches: int = DEFAULT_BATCHES) -> list[int]:
    """Near-even deterministic split of ``total`` trials into at most ``n_batches``."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    b = min(n_batches, total)
    q, r = divmod(total, b or 1)  # total == 0 gives no batches
    return [q + 1] * r + [q] * (b - r)


def run_batched(
    fn: Callable[[int, RngStream], T],
    total: int,
    rng: RngStream,
    workers: int = 1,
    n_batches: int = DEFAULT_BATCHES,
) -> list[T]:
    """Run ``fn(count, stream)`` over the fixed batch grid, in batch order.

    ``fn`` must be pure given its stream.  Results come back ordered by batch
    index regardless of ``workers``.  An exception in any batch reaches the caller.
    """
    counts = batch_counts(total, n_batches)
    streams = [rng.child(i) for i in range(len(counts))]
    out, todo = [None] * len(counts), iter(range(len(counts)))

    def drain() -> None:
        for i in todo:
            out[i] = fn(counts[i], streams[i])

    helpers = min(workers or 1, len(counts)) - 1
    if helpers > 0 and helpers not in _HELPERS:  # setdefault: racing callers share one
        _HELPERS.setdefault(helpers, ThreadPoolExecutor(helpers, "precisionlab-helper"))
    futures = [_HELPERS[helpers].submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        list(todo)  # on error, running helpers stop after their current batch
        for f in futures:  # cancel helpers that have not started, wait for the rest
            if not f.cancel():
                f.result()
    return out


def concat_batches(parts: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(list(parts), axis=0)
