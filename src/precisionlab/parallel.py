"""Deterministic batch splitting and the one streaming reducer of every Monte Carlo loop.

Work is divided over a fixed batch grid, set by the total alone: at most 32
batches of at least ``MIN_BATCH`` trials, with one child stream per batch
index and combined in batch order, so results are bit-reproducible for any
number of threads.  The calling thread and ``workers - 1`` persistent helper
threads pull batch indices from one iterator.  Batch functions must be pure
given their stream, and may call ``run_batched`` themselves.

A Monte Carlo batch returns a moment accumulator, not its values: one column
per statistic, rows count, mean, M2, (M3, M4 at order 4,) then row k of the
co-moments C[i, (i + k) % cols] for k = 1 .. cols - 1 (M2 is k = 0).  It draws
blocks of at most ``FOLD_ROWS`` values into scratch made once per thread per
call, reduces each in place and merges their moments pairwise (Chan, Golub &
LeVeque 1979; Pébay 2008, SAND2008-6212): memory is bounded whatever the trials.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

from .sampler import RngStream

T = TypeVar("T")

DEFAULT_BATCHES = 32
FOLD_ROWS = 1 << 16  # most values a batch draws and reduces at a time
MIN_BATCH = FOLD_ROWS // 8  # fewest trials a batch runs, unless the total is smaller
_HELPERS: dict[int, ThreadPoolExecutor] = {}  # by helper count; concurrent.futures joins at exit


def batch_counts(total: int, n_batches: int = DEFAULT_BATCHES) -> list[int]:
    """Near-even deterministic split of ``total`` trials into at most ``n_batches``, each of at
    least ``MIN_BATCH`` trials unless there is only one."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    b = min(n_batches, max(total // MIN_BATCH, min(total, 1)))
    q, r = divmod(total, b or 1)  # total == 0 gives no batches
    return [q + 1] * r + [q] * (b - r)


def run_batched(
    fn: Callable[..., T],
    total: int,
    rng: RngStream,
    workers: int = 1,
    n_batches: int = DEFAULT_BATCHES,
    scratch: Callable[[], object] | None = None,
) -> list[T]:
    """Run ``fn(count, stream)`` over the fixed batch grid, in batch order.

    ``fn`` must be pure given its stream.  Results come back ordered by batch
    index regardless of ``workers``.  An exception in any batch reaches the caller.
    With ``scratch``, each thread makes ``scratch()`` once per call and calls
    ``fn(count, stream, that_value)``.
    """
    counts = batch_counts(total, n_batches)
    out, todo = [None] * len(counts), iter(range(len(counts)))

    def drain() -> None:
        extra = (scratch(),) if scratch else ()
        for i in todo:  # a child stream is a pure function of its key, so any thread builds it
            out[i] = fn(counts[i], rng.child(i), *extra)

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


def moments(values: np.ndarray, order: int = 2) -> np.ndarray:
    """Accumulator of ``values`` (cols, count), which it overwrites.

    Two passes, about the first value and then about the mean: constant
    input has exactly zero central moments.  Layout as in the module docstring."""
    cols, count = values.shape
    first = values[:, 0].copy()
    dev = np.subtract(values, first[:, None], out=values)
    shift = dev.sum(axis=1) / count
    dev -= shift[:, None]
    # off[k - 1][a] = C[a, a + k] (einsum: no BLAS, no temporary); row k wraps by symmetry.
    off = [np.einsum("ij,ij->i", dev[: cols - k], dev[k:]) for k in range(1, cols)]
    cross = [np.concatenate([off[k - 1], off[cols - k - 1]]) for k in range(1, cols)]
    sq = np.square(dev, out=None if order == 4 else dev)  # order 4 still needs dev
    sums = [sq.sum(axis=1)]
    if order == 4:
        sums += [np.multiply(dev, sq, out=dev).sum(axis=1), np.square(sq, out=sq).sum(axis=1)]
    return np.array([np.full(cols, float(count)), first + shift, *sums, *cross])


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The accumulator of the samples of ``a`` followed by those of ``b``."""
    na, nb = a[0, 0], b[0, 0]
    if na == 0 or nb == 0:
        return b if na == 0 else a
    n, delta, cols = na + nb, b[1] - a[1], a.shape[1]
    out = [a[0] + b[0], a[1] + delta * (nb / n), a[2] + b[2] + delta * delta * (na * nb / n)]
    if len(a) > cols + 2:  # order 4
        out.append(a[3] + b[3] + delta**3 * (na * nb * (na - nb) / n**2)
                   + 3.0 * delta * (na * b[2] - nb * a[2]) / n)
        out.append(a[4] + b[4] + delta**4 * (na * nb * (na * na - na * nb + nb * nb) / n**3)
                   + 6.0 * delta * delta * (na * na * b[2] + nb * nb * a[2]) / n**2
                   + 4.0 * delta * (na * b[3] - nb * a[3]) / n)
    rolled = delta[(np.arange(cols) + np.arange(1, cols)[:, None]) % cols]  # at (i + k) % cols
    out += list(a[len(a) - cols + 1:] + b[len(a) - cols + 1:] + delta * rolled * (na * nb / n))
    return np.array(out)


def merge_all(parts: list[np.ndarray]) -> np.ndarray:
    """Merge accumulators left to right, in batch order."""
    return functools.reduce(merge, parts)


def comoments(acc: np.ndarray) -> np.ndarray:
    """The (cols, cols) block of central co-moments of an accumulator."""
    cols, i = acc.shape[1], np.arange(acc.shape[1])
    return np.vstack([acc[2], acc[len(acc) - cols + 1:]])[(i - i[:, None]) % cols, i[:, None]]


def mean_sd(acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sample standard deviation (ddof 1) of an accumulator."""
    return acc[1], np.sqrt(acc[2] / (acc[0] - 1.0))
