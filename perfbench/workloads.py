"""Workload definitions shared by ``run.py`` and its child processes.

Each workload is a list of Monte Carlo CLI calls made in-process through
``precisionlab.cli.main``; one round runs each call once.  ``target_se`` is
the standard error that ``time_to_target_se_s`` scales the call's wall time
to: time at the benchmark size x (SE reached / target SE)^2.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
TRIDIAGONAL_FILE = HERE / "inputs" / "tridiag3.txt"
TRIDIAGONAL = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
ALPHA_EPSILON = 0.05


class McCall(NamedTuple):
    name: str
    argv: tuple[str, ...]
    units: int  # trials (proposals for alpha, batches scored for games)
    se_key: str  # standard error of the call's headline estimate
    target_se: float


def _game(mode: str, n: int, d: int, detector: str) -> tuple[str, ...]:
    return ("game", "--mode", mode, "--n", str(n), "--d", str(d), "--detector", detector,
            "--trials", "100000")


WORKLOADS: dict[str, tuple[McCall, ...]] = {
    "tv-chain": (
        McCall("tv", ("tv", "--n", "3", "--d", "30", "--trials", "1000000"),
               1_000_000, "mc_standard_error", 1e-4),
    ),
    "rank-game": (
        McCall("two-way", _game("two-way", 3, 30, "lr"), 200_000, "joint_se", 1e-3),
        McCall("three-way", _game("three-way", 2, 60, "bayes3"), 300_000, "joint_se", 1e-3),
        McCall("fixed-theta", _game("fixed-theta", 3, 30, "lr"), 200_000, "joint_se", 1e-3),
    ),
    "alpha-slab": (
        McCall("alpha", ("alpha", "--matrix-file", str(TRIDIAGONAL_FILE), "--i", "1", "--j", "2",
                         "--epsilon", str(ALPHA_EPSILON), "--trials", "10000000"),
               10_000_000, "se_ij", 4e-3),
    ),
}

def mc_argv(call: McCall, seed: int, workers: int) -> list[str]:
    argv = [*call.argv, "--seed", str(seed), "--workers", str(workers), "--format", "json"]
    if call.name == "fixed-theta":
        argv += ["--theta-seed", str(seed)]
    return argv
