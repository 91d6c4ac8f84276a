"""One fresh process of the benchmark; ``run.py`` starts it and reads its last line.

Modes:
  probe                                   import precisionlab, make the first call, timed
  rounds WORKLOAD SEED SECONDS            untraced rounds, alternating workers 2 and 1
  trace  WORKLOAD SEED SECONDS TRACE_FILE untraced rounds at workers 1 and 2 alternating
                                          with traced rounds at workers 1
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

_T0 = time.perf_counter()

import precisionlab  # noqa: E402,F401
import precisionlab.cli as cli  # noqa: E402
import precisionlab.conditional as conditional  # noqa: E402
from precisionlab.detection import Ensemble  # noqa: E402
from precisionlab.sampler import RngStream  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import workloads as wl  # noqa: E402

MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2


def cli_call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def first_call(workers: int | None = None) -> None:
    """The small call that set-up time covers: every command path once, at tiny size."""
    extra = [] if workers is None else ["--workers", str(workers)]
    for argv in (
        ["tv", "--n", "3", "--d", "30", "--trials", "10000"],
        ["game", "--n", "3", "--d", "30", "--trials", "10000"],
        ["alpha", "--matrix-file", str(wl.TRIDIAGONAL_FILE), "--trials", "100000"],
    ):
        code, _ = cli_call(argv + extra + ["--format", "json"])
        if code != 0:
            raise SystemExit(f"first call {argv[0]} exited {code}")
    rng = RngStream(0)
    for ens in (Ensemble.full_rank(4), Ensemble.deficient_random(4, 1),
                Ensemble.deficient_random(4, 2)):
        conditional.section_covariance(ens.draw_cov(rng))


# -- one round ------------------------------------------------------------------


def mc_round(workload: str, seed: int, workers: int) -> dict:
    """One round of the workload's CLI calls at ``workers``; ``run.py`` checks
    the outputs."""
    walls, outputs, codes = [], [], []
    cpu0 = time.process_time()
    for call in wl.WORKLOADS[workload]:
        argv = wl.mc_argv(call, seed, workers)
        t0 = time.perf_counter()
        code, text = cli_call(argv)
        walls.append(time.perf_counter() - t0)
        outputs.append(text)
        codes.append(code)
    # A non-zero exit is a failed operation and also a wrong result: tv exits
    # 1 when its bound chain does not validate, after printing its JSON.
    problems = [f"{call.name} exited {code}"
                for call, code in zip(wl.WORKLOADS[workload], codes) if code != 0]
    return {"wall": sum(walls), "cpu": time.process_time() - cpu0, "call_walls": walls,
            "outputs": outputs, "attempted": len(codes), "failed": len(problems),
            "problems": problems, "print": hash(tuple(outputs))}


def summarize(rounds: list[dict]) -> dict:
    """Timings, counts and check results of several rounds.

    ``prints`` fingerprints each round's outputs; equal inputs must give equal
    prints whatever the worker count and whether tracing is installed.
    """
    return {"walls": [r["wall"] for r in rounds], "cpus": [r["cpu"] for r in rounds],
            "call_walls": [r["call_walls"] for r in rounds],
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "problems": [p for r in rounds for p in r["problems"]][:5],
            "prints": [r["print"] for r in rounds],
            "outputs": rounds[0]["outputs"]}


def cycles(step, seconds: float, minimum: int) -> None:
    """Run ``step()`` (one cycle of rounds) until the next cycle would overrun
    ``seconds``, and at least ``minimum`` times."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return


# -- modes ----------------------------------------------------------------------


def mode_probe() -> dict:
    t0 = time.perf_counter()
    first_call()
    return {"import_s": _IMPORT_S, "first_call_s": time.perf_counter() - t0}


def mode_rounds(workload: str, seed: int, seconds: float) -> dict:
    # Workers 2 and 1 alternate round by round, so both sample the same
    # stretch of machine time.
    rounds = {2: [], 1: []}

    def cycle():
        for w in rounds:
            rounds[w].append(mc_round(workload, seed, w))

    first_call(2)
    cycles(cycle, seconds, MIN_CYCLES)
    return {"rounds": {str(w): summarize(rs) for w, rs in rounds.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def mode_trace(workload: str, seed: int, seconds: float, trace_file: str) -> dict:
    from tracing import Tracer

    setup = Tracer()
    setup.install()
    first_call(1)
    setup.uninstall()
    tracer = Tracer()
    untraced = {1: [], 2: []}
    traced = []

    def cycle():
        untraced[1].append(mc_round(workload, seed, 1))
        untraced[2].append(mc_round(workload, seed, 2))
        tracer.install()
        try:
            traced.append(mc_round(workload, seed, 1))
        finally:
            tracer.uninstall()

    cycles(cycle, seconds, MIN_TRACED_CYCLES)
    with open(trace_file, "w", encoding="utf-8") as fh:
        setup.write(fh, "first_call")
        tracer.write(fh, "rounds")
    mean_wall = {w: sum(r["wall"] for r in rs) / len(rs) for w, rs in untraced.items()}
    return {
        **summarize(untraced[1] + untraced[2] + traced),
        "traced_rounds": len(traced),
        "first_call": setup.summary(),
        "rounds": tracer.summary(),
        "speedup_w2": mean_wall[1] / mean_wall[2],
        "cpu_per_wall": sum(r["cpu"] for r in untraced[2]) / sum(r["wall"] for r in untraced[2]),
        "overhead_frac": sum(r["wall"] for r in traced) / len(traced) / mean_wall[1] - 1.0,
    }


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "probe":
        doc = mode_probe()
    elif mode == "rounds":
        doc = mode_rounds(argv[1], int(argv[2]), float(argv[3]))
    elif mode == "trace":
        doc = mode_trace(argv[1], int(argv[2]), float(argv[3]), argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
