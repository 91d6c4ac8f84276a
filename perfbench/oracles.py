"""Independent references for the workload checks.

Nothing here calls into ``precisionlab``: each value is derived from a
different route than the program takes (Bartlett chi-squares instead of Gram
products, truncated-normal algebra instead of rejection).
"""

from __future__ import annotations

import math

import numpy as np

# Mixed into the benchmark seed so the oracle never shares a stream with the
# program under test.
ORACLE_TAG = 0x0AC1E


def tv_closed_form(n: int, d: int) -> float:
    """(1/2) sqrt(d(d+1) / ((d-n)(d-n+1)) - 1), the paper's closed-form bound."""
    return 0.5 * math.sqrt(d * (d + 1) / ((d - n) * (d - n + 1)) - 1.0)


def wishart_log_normalizer(n: int, p: int) -> float:
    """log of (2^(pn/2) Gamma_n(p/2)), the W(n, p) density normalizer."""
    from scipy.special import multigammaln

    return 0.5 * p * n * math.log(2.0) + float(multigammaln(0.5 * p, n))


def tv_bartlett(n: int, d: int, trials: int, seed: int) -> tuple[float, float]:
    """TV(W(n, d-1), W(n, d)) and its standard error from the Bartlett decomposition.

    ``log det W(n, d-1)`` is a sum of n independent ``log chi2`` draws with
    d-1, d-2, ..., d-n degrees of freedom, so no Gaussian matrix is formed.
    """
    rng = np.random.default_rng([ORACLE_TAG, seed])
    logdet = np.zeros(trials)
    for i in range(n):
        logdet += np.log(rng.chisquare(d - 1 - i, trials))
    shift = wishart_log_normalizer(n, d - 1) - wishart_log_normalizer(n, d)
    absdev = np.abs(1.0 - np.exp(0.5 * logdet + shift))
    return 0.5 * float(absdev.mean()), 0.5 * float(absdev.std(ddof=1)) / math.sqrt(trials)


def _truncated_normal_second_moment(sigma: float, eps: float) -> float:
    """E[X^2 | |X| < eps] for X ~ N(0, sigma^2)."""
    t = eps / sigma
    pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    mass = math.erf(t / math.sqrt(2.0))
    return sigma * sigma * (1.0 - 2.0 * t * pdf / mass)


def alpha_slab_exact_3d(a, i: int, j: int, eps: float) -> np.ndarray:
    """Exact second moments of (Y_i, Y_j) given |Y_k| < eps, for d = 3.

    Given Y_k, the pair is normal with the Schur covariance and mean b Y_k,
    so the moments are the Schur complement plus b b' E[Y_k^2 | |Y_k| < eps].
    """
    m = np.asarray(a, dtype=float)
    (k,) = [x for x in range(3) if x not in (i, j)]
    b = np.array([m[i, k], m[j, k]]) / m[k, k]
    pair = m[np.ix_([i, j], [i, j])]
    schur = pair - m[k, k] * np.outer(b, b)
    return schur + _truncated_normal_second_moment(math.sqrt(m[k, k]), eps) * np.outer(b, b)

