"""Benchmark of the precisionlab laboratory: one workload, checked, with its metrics.

    python3 perfbench/run.py --workload tv-chain --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  Every measurement runs in a fresh child process
(``child.py``).  With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans go to ``perfbench/out/``.
See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
# Check limits: z-scores against the oracles, and the band for three-way success.
TV_Z, GAME_ORACLE_Z, CEILING_Z, ALPHA_Z = 4.0, 4.0, 3.0, 5.0
THREE_WAY_RANGE = (0.323, 0.383)
ORACLE_TRIALS = 4_000_000

END_TO_END_UNITS = {"trials_per_s": "1/s", "trials_per_s_w1": "1/s",
                    "time_to_target_se_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "cpu_s": "s"}


class BenchError(Exception):
    pass


def child(*args: str) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(count: int) -> list[dict]:
    return [child("probe") for _ in range(count)]


def setup_medians(probes: list[dict]) -> tuple[float, float, float]:
    """Medians of (import + first call, import, first call) over fresh interpreters."""
    med = lambda key: statistics.median(p[key] for p in probes)  # noqa: E731
    total = statistics.median(p["import_s"] + p["first_call_s"] for p in probes)
    return total, med("import_s"), med("first_call_s")


# -- correctness ----------------------------------------------------------------


def check_outputs(workload: str, outputs: list[str], seed: int) -> list[str]:
    """Problems found in one round of CLI outputs (empty when all checks pass)."""
    docs = [json.loads(text) for text in outputs]
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    if workload == "tv-chain":
        (doc,) = docs
        n, d = doc["n"], doc["d"]
        formula = oracles.tv_closed_form(n, d)
        expect(math.isclose(doc["closed_form_bound"], formula, rel_tol=1e-12)
               and math.isclose(doc["moment_ratio_bound"], formula, rel_tol=1e-12),
               f"bounds {doc['closed_form_bound']}, {doc['moment_ratio_bound']} != {formula}")
        expect(doc["closed_form_bound"] < 0.6, "closed-form bound not below 0.6")
        tv, tv_se = oracles.tv_bartlett(n, d, ORACLE_TRIALS, seed)
        z = (doc["mc_estimate"] - tv) / math.hypot(doc["mc_standard_error"], tv_se)
        expect(abs(z) < TV_Z, f"mc_estimate {doc['mc_estimate']} vs Bartlett {tv}: z = {z:.2f}")
    elif workload == "rank-game":
        tv, tv_se = oracles.tv_bartlett(3, 30, ORACLE_TRIALS, seed)
        for doc in docs:
            joint, se = doc["joint_success"], doc["joint_se"]
            expect(joint <= doc["ceiling"] + CEILING_Z * se,
                   f"{doc['mode']}: success {joint} above ceiling {doc['ceiling']}")
            if doc["mode"] == "three-way":
                lo, hi = THREE_WAY_RANGE
                expect(lo <= joint <= hi, f"three-way success {joint} outside [{lo}, {hi}]")
            else:
                z = (joint - 0.5 * (1.0 + tv)) / math.hypot(se, 0.5 * tv_se)
                expect(abs(z) < GAME_ORACLE_Z,
                       f"{doc['mode']}: success {joint} vs (1 + TV)/2 = {0.5 * (1 + tv)}: z = {z:.2f}")
    elif workload == "alpha-slab":
        (doc,) = docs
        exact = oracles.alpha_slab_exact_3d(wl.TRIDIAGONAL, 0, 1, wl.ALPHA_EPSILON)
        for key, ref in (("ii", exact[0, 0]), ("ij", exact[0, 1]), ("jj", exact[1, 1])):
            z = (doc[f"mc_{key}"] - ref) / doc[f"se_{key}"]
            expect(abs(z) < ALPHA_Z, f"mc_{key} {doc[f'mc_{key}']} vs exact slab {ref}: z = {z:.2f}")
    return problems


def check_rounds(doc: dict) -> list[str]:
    """Problems within a set of rounds, including outputs that differ between
    rounds of equal inputs."""
    problems = list(doc["problems"])
    if len(set(doc["prints"])) != 1:
        problems.append("outputs differ between rounds, worker counts or traced rounds")
    return problems


# -- metrics --------------------------------------------------------------------


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def time_to_target(workload: str, doc: dict) -> float:
    """Wall seconds at workers 2 to reach each call's target SE, summed over calls."""
    total = 0.0
    for idx, (call, text) in enumerate(zip(wl.WORKLOADS[workload], doc["outputs"])):
        wall = mean(walls[idx] for walls in doc["call_walls"])
        total += wall * (json.loads(text)[call.se_key] / call.target_se) ** 2
    return total


def units_per_round(workload: str) -> int:
    return sum(call.units for call in wl.WORKLOADS[workload])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    # Set-up probes bracket the workload so their median samples more than
    # one stretch of machine time.
    probes = setup_probes(SETUP_PROBES // 2 + 1)
    doc = child("rounds", workload, str(seed), str(seconds))
    probes += setup_probes(SETUP_PROBES // 2)
    rounds = doc["rounds"]
    w2, w1 = rounds["2"], rounds["1"]
    problems = [p for summary in rounds.values() for p in check_rounds(summary)]
    if w1["outputs"] != w2["outputs"]:
        problems.append("JSON output differs between workers 1 and 2")
    problems += check_outputs(workload, w2["outputs"], seed)
    units = units_per_round(workload)
    metrics = {
        "trials_per_s": units / mean(w2["walls"]),
        "trials_per_s_w1": units / mean(w1["walls"]),
        "time_to_target_se_s": time_to_target(workload, w2),
        "setup_s": setup_medians(probes)[0],
        "peak_rss_mb": doc["peak_rss_mb"],
        "cpu_s": mean(w2["cpus"]),
    }
    attempted = sum(r["attempted"] for r in rounds.values())
    failed = sum(r["failed"] for r in rounds.values())
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


PER_LAYER = (
    # (metric, unit, span or counter, what)
    ("sampler.normals_s", "s", "sampler.normals", "total_s"),
    ("sampler.normals_count", "count", "sampler.normals", "items"),
    ("sampler.subspace_s", "s", "sampler.subspace", "total_s"),
    ("sampler.project_s", "s", "sampler.project", "total_s"),
    ("wishart.gram_s", "s", "wishart.gram", "total_s"),
    ("wishart.logdet_s", "s", "wishart.logdet", "total_s"),
    ("tvbounds.reduce_s", "s", "tvbounds.tv_report", "self_s"),
    ("detection.sample_s", "s", "detection.sample", "total_s"),
    ("detection.evaluate_s", "s", "detection.evaluate", "self_s"),
    ("conditional.alpha_mc_s", "s", "conditional.alpha_mc", "total_s"),
    ("matcore.eigh_s", "s", "matcore.eigh", "total_s"),
)


def layer_value(doc: dict, span: str, what: str) -> float:
    """The first call's share plus the mean per traced round."""
    first = doc["first_call"]["spans"].get(span, {}).get(what, 0)
    rounds = doc["rounds"]["spans"].get(span, {}).get(what, 0)
    return first + rounds / doc["traced_rounds"]


def counter_value(doc: dict, name: str) -> float:
    return (doc["first_call"]["counters"].get(name, 0)
            + doc["rounds"]["counters"].get(name, 0) / doc["traced_rounds"])


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    _, import_s, first_call_s = setup_medians(setup_probes(SETUP_PROBES))
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
    doc = child("trace", workload, str(seed), str(seconds), str(trace_file))
    problems = check_rounds(doc) + check_outputs(workload, doc["outputs"], seed)
    metrics = {name: (layer_value(doc, span, what), unit) for name, unit, span, what in PER_LAYER}
    proposed = counter_value(doc, "conditional.proposed")
    metrics.update({
        "tvbounds.values_mb": (counter_value(doc, "tvbounds.values_bytes") / 2**20, "MiB"),
        "conditional.accepted_count": (counter_value(doc, "conditional.accepted"), "count"),
        "conditional.acceptance_ratio": (counter_value(doc, "conditional.accepted") / proposed,
                                         "ratio"),
        "parallel.speedup_w2": (doc["speedup_w2"], "ratio"),
        "parallel.cpu_per_wall": (doc["cpu_per_wall"], "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.first_call_s": (first_call_s, "s"),
        "trace.overhead_frac": (doc["overhead_frac"], "ratio"),
    })
    return {"problems": problems, "attempted": doc["attempted"], "failed": doc["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "precisionlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'precisionlab'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
