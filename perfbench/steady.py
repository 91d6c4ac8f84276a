"""Steadiness check: run one workload with several seeds and print each
metric's median and quartile spread.

    python3 perfbench/steady.py --workload tv-chain --seeds 1 2 3 4 5

Each run is ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds``, the
length the benchmark is measured at.  Spread is (Q3 - Q1) / median with Python's ``statistics.quantiles(n=4)``,
the figure the bounds in BENCHMARK.json are set against.  The runs are also
saved to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"],
                              cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **doc})
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in doc["metrics"].items()), flush=True)
    print(f"\n{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<30} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}  {first['unit']}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
