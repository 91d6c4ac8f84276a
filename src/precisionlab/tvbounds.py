"""Total-variation distance between W(n, d-1) and W(n, d), three ways.

The distance has an exact integral representation as half the mean absolute
deviation of det(G)^(1/2) * Z(n,d-1)/Z(n,d) from 1 under G ~ W(n, d-1),
where Z is the density normalizer.  A Cauchy-Schwarz step bounds it by half
the coefficient of variation of det^(1/2), a power-mean (Lyapunov) step by
half the coefficient of variation of det itself, and the exact determinant
moments collapse that last bound to the closed form

    (1/2) * sqrt( d (d+1) / ((d-n) (d-n+1)) - 1 ),

which stays below 0.6 whenever n < d/3.  This module computes the closed
form, the moment-ratio form, the middle link in closed form too, the Monte Carlo
estimate of the exact integral with its error, and the full inequality chain, plus an
adaptive-Simpson quadrature oracle for the n = 1 case (a plain chi-square pair).

The Monte Carlo estimators draw det G by the Bartlett decomposition, ceil(n/2)
gamma variates per trial, in chunks into per-thread scratch; batches return
only moments and co-moments.  The forward ratio x = a b is the gammas multiplied out into
two independent factors; from n = 3 on a row is a block of 4 trials and their
16 cross-pairs a_i b_j, which cut the a-b interaction's variance 4-fold (Hoeffding).

The forward TV estimate regresses y = |1 - x| on the controls x^t, t = 1/2, 1,
3/2, 2, at their exact means E x^t = R^t E det^(t/2), R = Z(n,d-1)/Z(n,d), E x = 1
(Glasserman, *Monte Carlo Methods in Financial Engineering*, section 4.1): half
of mean(y) - beta . (mean(x^t) - E x^t) over rows, beta the minimum-norm solution
of S_XX beta = S_Xy over co-moments pooled in batch order, with error half of
sqrt(RSS / (N - 5) / N), about 0.12x the plain error at (3, 30).  The reverse
estimate keeps the plain mean: its x^2 has infinite variance when d <= n + 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParamsError, InvariantViolationError
from .parallel import FOLD_ROWS, comoments, merge, merge_all, moments, run_batched
from .sampler import RngStream
from .wishart import (WishartParams, det_moments_exact, log_det_moment, log_normalizer,
                      logdet_samples, sqrt_det_sampler)

# perfbench/tracing.py patches these names on this module; they must stay importable.
from .wishart import logdet_trace_many, wishart_samples  # noqa: F401

MIN_MC_TRIALS = 10_000
CONTROL_POWERS = (1.0, 0.5, 1.5, 2.0)  # the forward controls x^t, x first, x^2 last
BLOCK = 4  # forward trials per block of cross-paired factors (1 when n <= 2: one factor)
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


def tv_sqrt_moment_ratio_bound(n: int, d: int) -> float:
    """The middle link, half the coefficient of variation of det W(n, d-1)^(1/2): with x the
    forward ratio below, E x = 1 and E x^2 = R^2 (d-1)!/(d-1-n)!, so (1/2) sqrt(E x^2 - 1)."""
    log_ratio = log_normalizer((n, d - 1)) - log_normalizer((n, d))
    return 0.5 * math.sqrt(math.expm1(2.0 * log_ratio + math.lgamma(d) - math.lgamma(d - n)))


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


def _ratio_moments(
    n: int, d: int, trials: int, rng: RngStream, workers: int, reverse: bool
) -> list[np.ndarray]:
    """Per-batch accumulators of (x, x^1/2, x^3/2, x^2, |1 - x|), reverse |1 - x|, over ratios x.

    The mean absolute deviation of x from 1 is twice the TV.
    Forward: x = det(G)^(1/2) * Z(n,d-1)/Z(n,d) under G ~ W(n, d-1), rows as ``_cross_pairs``.
    Reverse: x = det(G)^(-1/2) * Z(n,d)/Z(n,d-1) under G ~ W(n, d); total
    variation is symmetric, so both must agree.
    """
    n, d = int(n), int(d)
    if not 1 <= n <= d - 1:
        raise InvalidParamsError(f"need 1 <= n <= d-1, got n={n}, d={d}")
    if trials < MIN_MC_TRIALS:
        raise InvalidParamsError(f"need at least {MIN_MC_TRIALS} trials, got {trials}")
    if reverse and n == d - 1:
        # E[det^-1] diverges under W(d-1, d), so the ratio has infinite variance.
        raise InvalidParamsError(f"reverse estimator needs n < d-1, got n={n}, d={d}")
    params = WishartParams(n, d if reverse else d - 1)
    log_z_ratio = log_normalizer((n, d - 1)) - log_normalizer((n, d))
    factors = sqrt_det_sampler(params, log_z_ratio)  # forward: x = a * b
    terms, cols = (n + 1) // 2, 1 if reverse else len(CONTROL_POWERS) + 1  # draw rows; statistics
    block = BLOCK if n > 2 else 1  # forward scratch: a, b, _cross_pairs' tmp, then the blocks
    tmp_at, cells = min(terms, 2) * FOLD_ROWS, -(-FOLD_ROWS // block)
    blocks_at = tmp_at + FOLD_ROWS + cells

    def batch(count: int, stream: RngStream, work: np.ndarray) -> np.ndarray:
        acc = np.zeros((cols + 2, cols))
        for start in range(0, count, FOLD_ROWS):
            rows = min(FOLD_ROWS, count - start)
            draws = work[: terms * rows].reshape(terms, rows)
            if reverse:
                x = logdet_samples(params, rows, stream, out=draws)
                np.exp(np.subtract(np.multiply(x, -0.5, out=x), log_z_ratio, out=x), out=x)
                values = np.abs(np.subtract(1.0, x, out=x), out=x)[None]
            else:
                values = work[blocks_at: blocks_at + cols * -(-rows // block)].reshape(cols, -1)
                a, b = factors(rows, stream, out=draws)
                _cross_pairs(a, b, block, values, work[tmp_at: blocks_at])
            acc = merge(acc, moments(values))
        return acc

    size = terms * FOLD_ROWS if reverse else max(terms * FOLD_ROWS, blocks_at + cols * cells)
    return run_batched(batch, trials, rng, workers, scratch=lambda: np.empty(size))


def _cross_pairs(a: np.ndarray, b: np.ndarray, block: int, out: np.ndarray, tmp: np.ndarray):
    """Fill ``out`` (cols, ceil(len(a) / block)), a column per block of ``block`` <= 4 trials (the
    last may be short), from independent factor rows of x = a b > 0: mean(a^t) mean(b^t), t in
    CONTROL_POWERS, then the mean |1 - a_i b_j|.  ``tmp`` holds len(a) + len(a) // block floats."""
    full = len(a) - len(a) % block
    if full < len(a):  # the short last block, in floats
        ta, tb, pairs = a[full:].tolist(), b[full:].tolist(), (len(a) - full) ** 2
        means = [sum(u**t for u in ta) * sum(v**t for v in tb) / pairs for t in CONTROL_POWERS]
        out[:, -1] = means + [sum(abs(1.0 - u * v) for u in ta for v in tb) / pairs]
    buf, out = tmp[full:][: full // block], out[:, : full // block]
    a, b, tmp = (v[:full].reshape(block, -1) for v in (a, b, tmp))  # a block is a column
    s = np.divide(1.0, a, out=out[:block])  # sum_j max(a_i b_j, 1) = a_i sum_j max(b_j, 1 / a_i)
    for s_i in s:
        np.add.reduce(np.maximum(b, s_i, out=tmp), 0, out=s_i)
    y = np.einsum("ij,ij->j", s, a, out=out[-1])
    out[:-1] = 1.0 / (block * block)
    for z in (a, b):  # out[k] = mean(a^t) mean(b^t), t in CONTROL_POWERS order
        out[0] *= np.add.reduce(z, 0, out=buf)
        out[1] *= np.add.reduce(np.sqrt(z, out=tmp), 0, out=buf)
        out[2] *= np.einsum("ij,ij->j", z, tmp, out=buf)
        out[3] *= np.einsum("ij,ij->j", z, z, out=buf)
    y *= 2.0 / (block * block)  # |1 - x| = 2 max(x, 1) - x - 1
    y -= out[0] + 1.0


def _tv_estimate(acc: np.ndarray, n: int, d: int) -> McEstimate:
    """Half the mean of |1 - x| (last column) regressed on the controls x^t at exact means."""
    count, mean, c, k = acc[0, 0], acc[1], comoments(acc), acc.shape[1] - 1  # k controls
    beta = np.linalg.lstsq(c[:k, :k], c[:k, k], rcond=None)[0]  # minimum norm: 0 if singular
    log_z_ratio = log_normalizer((n, d - 1)) - log_normalizer((n, d))
    exact = [1.0 if t == 1.0 else math.exp(t * log_z_ratio + log_det_moment((n, d - 1), 0.5 * t))
             for t in CONTROL_POWERS[:k]]
    estimate = mean[k] - beta @ (mean[:k] - exact)
    se = math.sqrt(max(c[k, k] - c[k, :k] @ beta, 0.0) / (count - 1.0 - k)) / math.sqrt(count)
    return McEstimate(0.5 * float(estimate), 0.5 * se)


def tv_exact_mc(
    n: int, d: int, trials: int, rng: RngStream, workers: int = 1, reverse: bool = False
) -> McEstimate:
    """Monte Carlo TV with its standard error: forward by control variates, reverse plain."""
    return _tv_estimate(merge_all(_ratio_moments(n, d, trials, rng, workers, reverse)), n, d)


@dataclass(frozen=True)
class TvReport:
    """One (n, d) pair: the bound chain, with ``mc_*`` the control-variate ``tv_exact_mc``."""

    n: int
    d: int
    closed_form_bound: float
    moment_ratio_bound: float
    sqrt_moment_ratio_bound: float
    sqrt_moment_ratio_se: float
    mc_estimate: float
    mc_standard_error: float
    samples_used: int


def tv_report(n: int, d: int, trials: int, rng: RngStream, workers: int = 1) -> TvReport:
    """Full chain for one (n, d): the bounds, the exact middle link, and the MC value."""
    tv = tv_exact_mc(n, d, trials, rng, workers)
    return TvReport(
        n=int(n),
        d=int(d),
        closed_form_bound=tv_closed_form_bound(n, d),
        moment_ratio_bound=tv_moment_ratio_bound(n, d),
        sqrt_moment_ratio_bound=tv_sqrt_moment_ratio_bound(n, d),
        sqrt_moment_ratio_se=0.0,
        mc_estimate=tv.estimate,
        mc_standard_error=tv.standard_error,
        samples_used=int(trials),
    )


def validate_chain(report: TvReport, slack: float = SE_SLACK) -> None:
    """Assert the two inequality links of the chain: the Monte Carlo estimate, with ``slack``
    standard errors of noise, against the middle link, then the two exact links exactly."""
    if report.mc_estimate - slack * report.mc_standard_error > report.sqrt_moment_ratio_bound:
        raise InvariantViolationError(
            f"chain link 1 violated at (n={report.n}, d={report.d}): "
            f"tv {report.mc_estimate:.6f} > half-CV(sqrt det) {report.sqrt_moment_ratio_bound:.6f} "
            f"beyond {slack} standard errors"
        )
    if report.sqrt_moment_ratio_bound > report.moment_ratio_bound:
        raise InvariantViolationError(
            f"chain link 2 violated at (n={report.n}, d={report.d}): "
            f"half-CV(sqrt det) {report.sqrt_moment_ratio_bound:.6f} > "
            f"half-CV(det) {report.moment_ratio_bound:.6f}"
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
