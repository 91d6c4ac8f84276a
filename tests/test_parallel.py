"""Scheduling of the batch grid: order, reuse of helper threads, errors, nesting."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from precisionlab import (InvalidParamsError, RngStream, alpha_monte_carlo, constant_detector,
                          lr_detector, run_two_way_game, tv_report)
from precisionlab import detection, parallel
from precisionlab.cli import main
from precisionlab.parallel import DEFAULT_BATCHES, MIN_BATCH, batch_counts, run_batched

TIMEOUT_S = 60.0
FULL_GRID = DEFAULT_BATCHES * MIN_BATCH  # the least total that runs every batch of the grid


def normals(count, stream):
    return stream.gen.standard_normal(count)


def run_with_timeout(call):
    """Run ``call`` on a daemon thread; fail instead of hanging if it deadlocks."""
    box = {}
    worker = threading.Thread(target=lambda: box.setdefault("out", call()), daemon=True)
    worker.start()
    worker.join(TIMEOUT_S)
    assert not worker.is_alive(), f"did not finish within {TIMEOUT_S} s"
    return box["out"]


def test_empty_grid():
    assert batch_counts(0) == []
    assert run_batched(normals, 0, RngStream(1), workers=4) == []


@pytest.mark.parametrize("total,batches", [(0, 0), (1, 1), (8_191, 1), (100_000, 12),
                                           (262_144, 32), (10**6, 32)])
def test_grid_is_at_most_32_batches_of_at_least_min_batch(total, batches):
    counts = batch_counts(total)
    assert len(counts) == batches and sum(counts) == total
    assert max(counts, default=0) - min(counts, default=0) <= 1
    assert batches <= 1 or min(counts) >= MIN_BATCH == 8_192


def test_results_come_back_in_batch_order():
    rng = RngStream(5)
    ids = run_batched(lambda count, stream: stream.stream_id, FULL_GRID, rng, workers=4)
    assert ids == [rng.child(i).stream_id for i in range(DEFAULT_BATCHES)]


@pytest.mark.parametrize("workers", [2, 4, 40])
def test_equal_arrays_for_any_worker_count(workers):
    ref = run_batched(normals, FULL_GRID + 3, RngStream(11), workers=1)
    got = run_batched(normals, FULL_GRID + 3, RngStream(11), workers=workers)
    assert len(got) == len(ref) == DEFAULT_BATCHES
    for a, b in zip(ref, got):
        assert np.array_equal(a, b)


def test_helper_executor_is_reused_and_threads_do_not_grow():
    run_batched(normals, 2 * MIN_BATCH, RngStream(0), workers=2)
    pool = parallel._HELPERS[1]
    threads = threading.active_count()
    for seed in range(200):
        run_batched(normals, 2 * MIN_BATCH, RngStream(seed), workers=2)
    assert parallel._HELPERS[1] is pool
    assert threading.active_count() <= threads


HELPER_COUNT_SCRIPT = """
import threading, time
from precisionlab import RngStream
from precisionlab.parallel import DEFAULT_BATCHES, MIN_BATCH, run_batched

def batch(count, stream):
    time.sleep(0.002)
    return count

for workers, total in [(2, DEFAULT_BATCHES * MIN_BATCH), (40, DEFAULT_BATCHES * MIN_BATCH),
                       (40, 3 * MIN_BATCH)]:
    before = threading.active_count()
    run_batched(batch, total, RngStream(0), workers=workers)
    print(threading.active_count() - before)
"""


def test_never_more_helper_threads_than_batches_minus_one():
    # A fresh interpreter, so no helper thread exists before the first call;
    # workers 40 is above the 32-batch grid and above the 3-batch grid.
    result = subprocess.run([sys.executable, "-c", HELPER_COUNT_SCRIPT],
                            capture_output=True, text=True, check=True)
    started = [int(line) for line in result.stdout.split()]
    assert len(started) == 3
    assert all(0 <= s <= limit for s, limit in zip(started, [1, 31, 2]))


def test_helpers_run_on_named_threads():
    seen = set()

    def batch(count, stream):
        seen.add(threading.current_thread())
        time.sleep(0.002)
        return count

    run_batched(batch, 4 * MIN_BATCH, RngStream(3), workers=4)
    helpers = seen - {threading.current_thread()}
    assert len(helpers) <= 3
    assert all(t.name.startswith("precisionlab-helper") for t in helpers)


def test_calling_thread_takes_a_share():
    # Each of the two batches waits for the other, so both run at once:
    # one on the calling thread and one on the helper.
    barrier, seen = threading.Barrier(2, timeout=TIMEOUT_S), []

    def batch(count, stream):
        barrier.wait()
        seen.append(threading.current_thread())
        return count

    assert run_batched(batch, 2 * MIN_BATCH, RngStream(0), workers=2) == [MIN_BATCH] * 2
    assert threading.current_thread() in seen and len(set(seen)) == 2


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_batch_error_reaches_caller_and_next_call_succeeds(where):
    barrier, caller = threading.Barrier(2, timeout=TIMEOUT_S), threading.current_thread()

    def batch(count, stream):
        barrier.wait()
        if (threading.current_thread() is caller) == (where == "caller"):
            raise InvalidParamsError(f"failed on the {where}")
        return count

    with pytest.raises(InvalidParamsError, match=where):
        run_batched(batch, 2 * MIN_BATCH, RngStream(0), workers=2)
    ref = run_batched(normals, FULL_GRID, RngStream(8), workers=1)
    got = run_batched(normals, FULL_GRID, RngStream(8), workers=2)
    assert all(np.array_equal(a, b) for a, b in zip(ref, got))


def test_error_on_the_caller_stops_the_helpers():
    caller, helper_busy, started = threading.current_thread(), threading.Event(), []

    def batch(count, stream):
        started.append(count)
        if threading.current_thread() is caller:
            # Fail only once the helper is running, so it cannot be cancelled.
            assert helper_busy.wait(TIMEOUT_S)
            raise InvalidParamsError("the calling thread's batch fails")
        helper_busy.set()
        time.sleep(0.005)
        return count

    with pytest.raises(InvalidParamsError):
        run_batched(batch, FULL_GRID, RngStream(0), workers=2)
    # The helper finishes the batch it is on and takes no more of the 32.
    assert len(started) <= 8


def test_every_batch_runs_once_under_frequent_thread_switches():
    lock, calls = threading.Lock(), []

    def batch(count, stream):
        with lock:
            calls.append(stream.stream_id)
        return stream.stream_id

    rng, interval = RngStream(13), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            ids = run_with_timeout(
                lambda: run_batched(batch, 256 * MIN_BATCH, rng, workers=8, n_batches=256))
            assert ids == [rng.child(i).stream_id for i in range(256)]
            assert sorted(calls) == sorted(ids)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("outer, inner", [(2, 2), (4, 2), (2, 40)])
def test_nested_call_completes(outer, inner):
    def batch(count, stream):  # two inner batches
        parts = run_batched(normals, MIN_BATCH + count, stream, workers=inner)
        return float(sum(p.sum() for p in parts))

    ref = run_batched(batch, 4 * MIN_BATCH + 64, RngStream(21), workers=1)
    assert run_with_timeout(
        lambda: run_batched(batch, 4 * MIN_BATCH + 64, RngStream(21), workers=outer)) == ref


def _moments_command(trials):
    assert main(["moments", "--n", "1", "--d", "2", "--trials", str(trials), "--workers", "1",
                 "--format", "json", "--out", os.devnull]) == 0


TRIDIAGONAL = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
# Each smaller size puts more than one chunk into every batch: tv, alpha and
# game draw 2**16 rows per chunk, moments 1/2 draws 2**15 matrices, and the
# sample route (a constant detector reads the batches) 2,184 batches of 3 x 10.
STREAMED = {
    "tv": (lambda trials: tv_report(3, 30, trials, RngStream(1), workers=1), 2_200_000),
    "alpha": (lambda trials: alpha_monte_carlo(TRIDIAGONAL, 0, 1, 1.0, trials, RngStream(2)),
              2_200_000),
    "moments": (_moments_command, 1_100_000),
    "game": (lambda trials: run_two_way_game(3, 30, lr_detector(3, 30), trials, RngStream(3),
                                             workers=1), 2_200_000),
    "game-samples": (lambda trials: detection._success(
        detection.Ensemble.full_rank(10), constant_detector(), 3, trials, RngStream(4), 1),
        1_100_000),
}


@pytest.mark.parametrize("name", list(STREAMED))
def test_peak_memory_does_not_grow_with_trials(name):
    call, trials = STREAMED[name]
    call(20_000)  # imports and first-call setup stay out of the measurement
    peaks = []
    for size in (trials, 3 * trials):
        tracemalloc.start()
        try:
            call(size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
