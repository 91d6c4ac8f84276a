"""Total-variation distance between W(n, d-1) and W(n, d), three ways.

The distance has an exact integral representation as half the mean absolute
deviation of det(G)^(1/2) * Z(n,d-1)/Z(n,d) from 1 under G ~ W(n, d-1),
where Z is the density normalizer.  A Cauchy-Schwarz step bounds it by half
the coefficient of variation of det^(1/2), a power-mean (Lyapunov) step by
half the coefficient of variation of det itself, and the exact determinant
moments collapse that last bound to the closed form

    (1/2) * sqrt( d (d+1) / ((d-n) (d-n+1)) - 1 ),

which stays below 0.6 whenever n < d/3.  This module computes the closed
form, the moment-ratio form, the Monte Carlo estimate of the exact integral,
and the full inequality chain with standard errors, plus an adaptive-Simpson
quadrature oracle for the n = 1 case (a plain chi-square pair).

The Monte Carlo estimators need only log det G, which they draw by the
Bartlett decomposition: log det W(n, p) is a sum of n independent log
chi-squares with p, p-1, ..., p-n+1 degrees of freedom.  Each trial costs n
chi-square draws instead of n*p normals, a Gram product and a slogdet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParamsError, InvariantViolationError
from .parallel import concat_batches, run_batched
from .sampler import RngStream
from .wishart import WishartParams, det_moments_exact, log_normalizer, logdet_samples

# perfbench/tracing.py patches these names on this module; they must stay importable.
from .wishart import logdet_trace_many, wishart_samples  # noqa: F401

MIN_MC_TRIALS = 10_000
# Slack multiplier for stochastic inequality links: a one-sided three-sigma
# band keeps the false-alarm rate far below 1%.
SE_SLACK = 3.0


def tv_closed_form_bound(n: int, d: int) -> float:
    """Closed-form upper bound on the distance between W(n,d-1) and W(n,d).

    The factorial ratio collapses to d(d+1)/((d-n)(d-n+1)), evaluated with
    exact integer products so the value is correctly rounded at every d.
    """
    n, d = int(n), int(d)
    if not 1 <= n < d:
        raise InvalidParamsError(f"need 1 <= n < d, got n={n}, d={d}")
    ratio = (d * (d + 1)) / ((d - n) * (d - n + 1))
    return 0.5 * math.sqrt(ratio - 1.0)


def tv_moment_ratio_bound(n: int, d: int) -> float:
    """The same bound as half the coefficient of variation of det W(n, d-1).

    Uses the exact integer moments so the squared ratio survives parameter
    ranges where the variance itself overflows a double.
    """
    n, d = int(n), int(d)
    if not 1 <= n <= d - 1:
        raise InvalidParamsError(f"need 1 <= n <= d-1, got n={n}, d={d}")
    mean, variance = det_moments_exact(WishartParams(n, d - 1))
    return 0.5 * math.sqrt((variance // mean) / mean)


class McEstimate(NamedTuple):
    estimate: float
    standard_error: float


def _ratio_values(n: int, d: int, count: int, stream: RngStream, reverse: bool) -> np.ndarray:
    """Density-ratio values whose mean-absolute deviation from 1 is twice the TV.

    Forward: det(G)^(1/2) * Z(n,d-1)/Z(n,d) under G ~ W(n, d-1).
    Reverse: det(G)^(-1/2) * Z(n,d)/Z(n,d-1) under G ~ W(n, d); total
    variation is symmetric, so both must agree.
    """
    p, sign = (d, -1.0) if reverse else (d - 1, 1.0)
    logdet = logdet_samples(WishartParams(n, p), count, stream)
    return np.exp(sign * (0.5 * logdet + (log_normalizer((n, d - 1)) - log_normalizer((n, d)))))


def _collect_ratio_values(
    n: int, d: int, trials: int, rng: RngStream, workers: int, reverse: bool
) -> tuple[np.ndarray, list[int]]:
    n, d = int(n), int(d)
    if not 1 <= n <= d - 1:
        raise InvalidParamsError(f"need 1 <= n <= d-1, got n={n}, d={d}")
    if trials < MIN_MC_TRIALS:
        raise InvalidParamsError(f"need at least {MIN_MC_TRIALS} trials, got {trials}")
    if reverse and n == d - 1:
        # E[det^-1] diverges under W(d-1, d), so the ratio has infinite variance.
        raise InvalidParamsError(f"reverse estimator needs n < d-1, got n={n}, d={d}")

    def batch(count: int, stream: RngStream) -> np.ndarray:
        return _ratio_values(n, d, count, stream, reverse)

    parts = run_batched(batch, trials, rng, workers=workers)
    return concat_batches(parts), [len(p) for p in parts]


def tv_exact_mc(
    n: int, d: int, trials: int, rng: RngStream, workers: int = 1, reverse: bool = False
) -> McEstimate:
    """Monte Carlo estimate of the exact total variation, with standard error."""
    values, sizes = _collect_ratio_values(n, d, trials, rng, workers, reverse)
    tv, tv_se, _, _ = _chain_stats(values, sizes)
    return McEstimate(tv, tv_se)


@dataclass(frozen=True)
class TvReport:
    """One (n, d) pair: the bound chain end to end, with Monte Carlo errors."""

    n: int
    d: int
    closed_form_bound: float
    moment_ratio_bound: float
    sqrt_moment_ratio_bound: float
    sqrt_moment_ratio_se: float
    mc_estimate: float
    mc_standard_error: float
    samples_used: int


def _chain_stats(values: np.ndarray, sizes: list[int]) -> tuple[float, float, float, float]:
    """(tv, tv_se, half CV of values, its batch-means se) from ratio draws."""
    x = np.asarray(values, dtype=float)
    t = len(x)
    absdev = np.abs(1.0 - x)
    tv = 0.5 * float(np.mean(absdev))
    tv_se = 0.5 * float(np.std(absdev, ddof=1)) / math.sqrt(t) if t > 1 else 0.0

    mean = float(np.mean(x))
    sd = float(np.std(x, ddof=1)) if t > 1 else 0.0
    ratio = 0.5 * sd / mean if mean != 0.0 else 0.0

    bounds = np.cumsum([0] + list(sizes))
    per_batch = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            continue
        chunk = x[lo:hi]
        m = float(np.mean(chunk))
        if m != 0.0:
            per_batch.append(0.5 * float(np.std(chunk, ddof=1)) / m)
    if len(per_batch) >= 2:
        ratio_se = float(np.std(per_batch, ddof=1)) / math.sqrt(len(per_batch))
    else:
        ratio_se = 0.0
    return tv, tv_se, ratio, ratio_se


def tv_report(n: int, d: int, trials: int, rng: RngStream, workers: int = 1) -> TvReport:
    """Full chain for one (n, d): bounds, the middle-link estimate, and the MC value."""
    values, sizes = _collect_ratio_values(n, d, trials, rng, workers, reverse=False)
    tv, tv_se, ratio, ratio_se = _chain_stats(values, sizes)
    return TvReport(
        n=int(n),
        d=int(d),
        closed_form_bound=tv_closed_form_bound(n, d),
        moment_ratio_bound=tv_moment_ratio_bound(n, d),
        sqrt_moment_ratio_bound=ratio,
        sqrt_moment_ratio_se=ratio_se,
        mc_estimate=tv,
        mc_standard_error=tv_se,
        samples_used=len(values),
    )


def validate_chain(report: TvReport, slack: float = SE_SLACK) -> None:
    """Assert the two inequality links of the chain, with noise slack.

    The first link is stochastic on both sides; the second compares a
    stochastic estimate against a deterministic moment bound, so only the
    estimate's error enters.
    """
    lhs1 = report.mc_estimate - slack * report.mc_standard_error
    rhs1 = report.sqrt_moment_ratio_bound + slack * report.sqrt_moment_ratio_se
    if lhs1 > rhs1:
        raise InvariantViolationError(
            f"chain link 1 violated at (n={report.n}, d={report.d}): "
            f"tv {report.mc_estimate:.6f} > half-CV(sqrt det) {report.sqrt_moment_ratio_bound:.6f} "
            f"beyond {slack} standard errors"
        )
    lhs2 = report.sqrt_moment_ratio_bound - slack * report.sqrt_moment_ratio_se
    if lhs2 > report.moment_ratio_bound:
        raise InvariantViolationError(
            f"chain link 2 violated at (n={report.n}, d={report.d}): "
            f"half-CV(sqrt det) {report.sqrt_moment_ratio_bound:.6f} > "
            f"half-CV(det) {report.moment_ratio_bound:.6f} beyond {slack} standard errors"
        )


# ---------------------------------------------------------------------------
# Quadrature oracle for the n = 1 reduction (chi-square pair).


def _chi_pdf(dof: int, u: float) -> float:
    """Density of sqrt(X) for X chi-square with ``dof`` degrees of freedom.

    Working in u = sqrt(a) coordinates removes the integrable a^(-1/2)
    endpoint singularity of the one-degree-of-freedom density.
    """
    if u < 0.0:
        return 0.0
    if u == 0.0:
        return math.sqrt(2.0 / math.pi) if dof == 1 else 0.0
    return math.exp(
        (1.0 - 0.5 * dof) * math.log(2.0)
        + (dof - 1) * math.log(u)
        - 0.5 * u * u
        - math.lgamma(0.5 * dof)
    )


def _adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float, max_depth: int = 60
) -> float:
    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * eps, depth + 1
        )

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)


def tv_chi2_quadrature(p: int, q: int, tol: float = 1e-8) -> float:
    """Total variation between chi-square laws with p and q degrees of freedom.

    Adaptive Simpson on the square-root coordinate; the integration window
    grows with the degrees of freedom so the tail mass is negligible.
    """
    p, q = int(p), int(q)
    if p < 1 or q < 1:
        raise InvalidParamsError("degrees of freedom must be at least 1")
    if p == q:
        return 0.0
    m = max(p, q)
    upper = math.sqrt(max(60.0, m + 25.0 * math.sqrt(2.0 * m)))
    integrand = lambda u: abs(_chi_pdf(p, u) - _chi_pdf(q, u))
    return 0.5 * _adaptive_simpson(integrand, 0.0, upper, tol)
