"""Command-line front end: reproducible experiments, machine-readable output.

Every command that takes ``--seed`` is bit-reproducible: the same seed gives
byte-identical output on repeat runs and for any ``--workers`` value,
because all Monte Carlo loops split trials over a fixed batch grid of
child streams.  Exit codes: 0 success, 1 a must-hold inequality failed
(should never happen), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .conditional import alpha_analytic, alpha_monte_carlo, section_covariance
from .detection import (
    GameReport,
    make_detector,
    registry_names,
    run_fixed_theta_game,
    run_three_way_game,
    run_two_way_game,
)
from .errors import InvariantViolationError, PrecisionLabError
from .matrixio import load_symmetric_matrix
from .parallel import concat_batches, run_batched
from .sampler import RngStream, uniform_sphere_many
from .tvbounds import tv_closed_form_bound, tv_report, validate_chain
from .wishart import WishartParams, det_moments, wishart_samples

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2

# Stream id reserved for drawing the fixed direction of the fixed-theta game,
# far away from the batch-child ids of the game itself.
_THETA_STREAM_ID = 1 << 32

DEFAULT_TRIALS = 100_000


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("json", "csv", "human"), default="human",
                    help="output encoding (default: human)")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write output to PATH instead of stdout")


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS,
                    help=f"Monte Carlo trials (default: {DEFAULT_TRIALS})")
    sp.add_argument("--seed", type=int, default=0,
                    help="root random seed, echoed in the output (default: 0)")
    sp.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                    help="worker threads; results do not depend on this")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precisionlab",
        description="Numerical experiments on few-sample rank detection for "
                    "Gaussian covariance ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound-table",
                       help="closed-form detection bound for all (n, d) up to d-max")
    p.add_argument("--d-max", type=_positive_int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_bound_table)

    p = sub.add_parser("tv", help="total-variation bound chain and Monte Carlo estimate")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("alpha",
                       help="conditioned pair moments: analytic and rejection-sampled")
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--i", type=_positive_int, default=1, help="first index, 1-based")
    p.add_argument("--j", type=_positive_int, default=2, help="second index, 1-based")
    p.add_argument("--epsilon", type=_positive_float, default=0.05,
                   help="slab half-width for the conditioning event")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("moments",
                       help="determinant moments of W(n, d): formula and Monte Carlo")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True,
                   help="degrees of freedom of the Wishart law")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("game", help="rank-detection game against a detector")
    p.add_argument("--mode", choices=("two-way", "three-way", "fixed-theta"),
                   default="two-way")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, default=1,
                   help="deficiency: number of projected-out directions (two-way)")
    p.add_argument("--detector", default=None,
                   help=f"registry name (default: lr, or bayes3 for three-way); "
                        f"one of: {', '.join(registry_names())}")
    p.add_argument("--theta-seed", type=int, default=0,
                   help="seed for the fixed direction in fixed-theta mode")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("section",
                       help="planar-section covariance and rank of a matrix file")
    p.add_argument("--matrix-file", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_section)

    return parser


# ---------------------------------------------------------------------------
# Output rendering


def _render_human(doc: dict, rows: list[dict] | None) -> str:
    lines = []
    width = max(len(k) for k in doc)
    for key, value in doc.items():
        lines.append(f"{key:<{width}}  {_human_value(value)}")
    if rows is not None:
        lines.append("")
        cols = list(rows[0].keys()) if rows else []
        if cols:
            cells = [[_human_value(r[c]) for c in cols] for r in rows]
            widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for row in cells:
                lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _human_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit(args, doc: dict, rows: list[dict] | None = None) -> int:
    """Serialize one report; ``rows`` only for table-shaped output."""
    if args.format == "json":
        payload = dict(doc)
        if rows is not None:
            payload["rows"] = rows
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        table = rows if rows is not None else [doc]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(table[0].keys()), lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(table)
        text = buf.getvalue()
    else:
        text = _render_human(doc, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _game_doc(report: GameReport, extra: dict | None = None) -> dict:
    doc = {
        "command": "game",
        "mode": report.mode,
        "n": report.n,
        "d": report.d,
        "k": report.k,
        "detector": report.detector,
        "trials": report.trials,
        "seed": report.seed,
    }
    if extra:
        doc.update(extra)
    for res in report.results:
        doc[f"success_rank{res.label}"] = res.success
        doc[f"se_rank{res.label}"] = res.standard_error
    doc["joint_success"] = report.joint_success
    doc["joint_se"] = report.joint_standard_error
    doc["ceiling"] = report.ceiling
    return doc


# ---------------------------------------------------------------------------
# Commands


def cmd_bound_table(args) -> int:
    if args.d_max < 3:
        raise PrecisionLabError(f"--d-max must be at least 3, got {args.d_max}")
    rows = []
    violations = 0
    for d in range(2, args.d_max + 1):
        for n in range(1, d):
            bound = tv_closed_form_bound(n, d)
            # Flag: whenever n < d/3, the bound must come out below 0.6.
            flag = (3 * n >= d) or (bound < 0.6)
            violations += 0 if flag else 1
            rows.append({
                "n": n,
                "d": d,
                "closed_form_bound": bound,
                "below_0_6_flag": flag,
            })
    code = emit(args, {"command": "bound-table", "d_max": args.d_max}, rows)
    if violations:
        raise InvariantViolationError(
            f"{violations} (n, d) pairs with n < d/3 have bound >= 0.6"
        )
    return code


def cmd_tv(args) -> int:
    report = tv_report(args.n, args.d, args.trials, RngStream(args.seed),
                       workers=args.workers)
    doc = {
        "command": "tv",
        "n": report.n,
        "d": report.d,
        "trials": args.trials,
        "seed": args.seed,
        "closed_form_bound": report.closed_form_bound,
        "moment_ratio_bound": report.moment_ratio_bound,
        "sqrt_moment_ratio_bound": report.sqrt_moment_ratio_bound,
        "sqrt_moment_ratio_se": report.sqrt_moment_ratio_se,
        "mc_estimate": report.mc_estimate,
        "mc_standard_error": report.mc_standard_error,
        "samples_used": report.samples_used,
    }
    code = emit(args, doc)
    validate_chain(report)
    return code


def cmd_alpha(args) -> int:
    matrix = load_symmetric_matrix(args.matrix_file)
    i, j = args.i - 1, args.j - 1
    analytic = alpha_analytic(matrix, i, j).values
    estimate = alpha_monte_carlo(matrix, i, j, args.epsilon, args.trials,
                                 RngStream(args.seed), workers=args.workers)
    mc, se = estimate.values, estimate.standard_errors
    doc = {
        "command": "alpha",
        "matrix_file": args.matrix_file,
        "i": args.i,
        "j": args.j,
        "epsilon": args.epsilon,
        "trials": args.trials,
        "seed": args.seed,
        "analytic_ii": float(analytic[0, 0]),
        "analytic_ij": float(analytic[0, 1]),
        "analytic_jj": float(analytic[1, 1]),
        "mc_ii": float(mc[0, 0]),
        "mc_ij": float(mc[0, 1]),
        "mc_jj": float(mc[1, 1]),
        "se_ii": float(se[0, 0]),
        "se_ij": float(se[0, 1]),
        "se_jj": float(se[1, 1]),
        "accepted": estimate.accepted,
        "acceptance_rate": estimate.acceptance_rate,
    }
    return emit(args, doc)


def cmd_moments(args) -> int:
    params = WishartParams(args.n, args.d)
    exact = det_moments(params)

    def batch(count: int, stream: RngStream) -> np.ndarray:
        return np.linalg.det(wishart_samples(params, count, stream))

    dets = concat_batches(run_batched(batch, args.trials, RngStream(args.seed),
                                      workers=args.workers))
    t = len(dets)
    mc_mean = float(np.mean(dets))
    mean_se = float(np.std(dets, ddof=1)) / math.sqrt(t)
    mc_var = float(np.var(dets, ddof=1))
    fourth = float(np.mean((dets - mc_mean) ** 4))
    var_se = math.sqrt(max(fourth - mc_var**2, 0.0) / t)
    doc = {
        "command": "moments",
        "n": args.n,
        "d": args.d,
        "trials": args.trials,
        "seed": args.seed,
        "mean_formula": exact.mean,
        "variance_formula": exact.variance,
        "mean_mc": mc_mean,
        "mean_se": mean_se,
        "variance_mc": mc_var,
        "variance_se": var_se,
    }
    return emit(args, doc)


def cmd_game(args) -> int:
    rng = RngStream(args.seed)
    extra: dict = {}
    if args.mode == "three-way":
        name = args.detector or "bayes3"
        detector = make_detector(name, args.n, args.d, args.k)
        report = run_three_way_game(args.n, args.d, args.trials, rng,
                                    detector=detector, workers=args.workers)
    elif args.mode == "fixed-theta":
        name = args.detector or "lr"
        detector = make_detector(name, args.n, args.d, 1)
        theta = uniform_sphere_many(args.d, 1, RngStream(args.theta_seed, _THETA_STREAM_ID))[0]
        extra["theta_seed"] = args.theta_seed
        report = run_fixed_theta_game(args.n, args.d, theta, detector, args.trials,
                                      rng, workers=args.workers)
    else:
        name = args.detector or "lr"
        detector = make_detector(name, args.n, args.d, args.k)
        report = run_two_way_game(args.n, args.d, detector, args.trials, rng,
                                  k=args.k, workers=args.workers)
    return emit(args, _game_doc(report, extra))


def cmd_section(args) -> int:
    matrix = load_symmetric_matrix(args.matrix_file)
    result = section_covariance(matrix)
    doc = {
        "command": "section",
        "matrix_file": args.matrix_file,
        "rank": result.rank,
        "c11": float(result.matrix[0, 0]),
        "c12": float(result.matrix[0, 1]),
        "c22": float(result.matrix[1, 1]),
    }
    return emit(args, doc)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PrecisionLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
