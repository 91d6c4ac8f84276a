"""Identity-covariance Wishart machinery on the PSD cone.

W(n, p) here is the law of the Gram matrix of n independent standard
Gaussian vectors in dimension p.  The module provides Gram construction,
the log density on the cone interior (with respect to Lebesgue measure on
the n(n+1)/2 free upper-triangle coordinates), the log normalizer, exact
determinant moments (and their logs at real order), sampling by the defining
Gram construction, and sampling of the log or root determinant (Bartlett, in
ceil(n/2) draws) and of the trace (one chi-square) each on its own.

Everything is computed in log space with ``math.lgamma``; the normalizer
overflows double-precision factorials otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError
from .matcore import check_matrix, cholesky_logdet
from .sampler import RngStream


class WishartParams(NamedTuple):
    """Matrix dimension ``n`` and degrees of freedom ``p`` of W(n, p)."""

    n: int
    p: int


def _validated(params, count: int = 1) -> WishartParams:
    n, p = params
    n, p = int(n), int(p)
    if not 1 <= n <= p:
        raise InvalidParamsError(f"need 1 <= n <= p, got n={n}, p={p}")
    if count < 1:
        raise InvalidParamsError("count must be at least 1")
    return WishartParams(n, p)


class DetMoments(NamedTuple):
    mean: float
    variance: float


def gram_many(vectors: np.ndarray) -> np.ndarray:
    """Stacked Gram matrices of a (count, n, d) array of batches."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 3:
        raise InvalidParamsError(f"expected a (count, n, d) array, got shape {v.shape}")
    return v @ v.transpose(0, 2, 1)


def log_normalizer(params) -> float:
    """log of the density normalizer of W(n, p) on the PSD cone."""
    n, p = _validated(params)
    terms = sum(math.lgamma(0.5 * (p + 1 - i)) for i in range(1, n + 1))
    return 0.5 * p * n * math.log(2.0) + 0.25 * n * (n - 1) * math.log(math.pi) + terms


def log_density(params, g) -> float:
    """log density of W(n, p) at a positive definite cone point ``g``.

    Boundary (singular) matrices carry no density mass and are rejected
    rather than silently mapped to -inf.
    """
    n, p = _validated(params)
    gm = check_matrix(g)
    if gm.shape[0] != n:
        raise InvalidParamsError(f"matrix is {gm.shape[0]}x{gm.shape[0]}, params say n={n}")
    logdet = cholesky_logdet(gm).logdet
    return 0.5 * (p - n - 1) * logdet - 0.5 * float(np.trace(gm)) - log_normalizer(params)


def _int_to_float(x: int) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def det_moments_exact(params) -> tuple[int, int]:
    """(mean, variance) of det W(n, p) as exact integers.

    mean = p!/(p-n)! and variance = mean * ((p+2)!/(p+2-n)! - mean); the
    falling products are integers, so arbitrary-precision arithmetic keeps
    them exact far past where double-precision factorials overflow.
    """
    n, p = _validated(params)
    mean = math.prod(range(p - n + 1, p + 1))
    second = math.prod(range(p - n + 3, p + 3))
    return mean, mean * (second - mean)


def log_det_moment(params, s: float) -> float:
    """log E det W(n, p)^s = n s log 2 + sum_{i<n} [lgamma((p-i)/2 + s) - lgamma((p-i)/2)]
    for s > -(p-n+1)/2 (Muirhead, *Aspects of Multivariate Statistical Theory*, Thm 3.2.15)."""
    n, p = _validated(params)
    return n * s * math.log(2.0) + sum(math.lgamma(0.5 * (p - i) + s) - math.lgamma(0.5 * (p - i))
                                       for i in range(n))


def det_moments(params) -> DetMoments:
    """Mean and variance of det W(n, p) as floats (inf past the float range)."""
    mean, variance = det_moments_exact(params)
    return DetMoments(_int_to_float(mean), _int_to_float(variance))


def wishart_samples(params, count: int, rng: RngStream, normals=None) -> np.ndarray:
    """``count`` independent W(n, p) draws, shape (count, n, n).

    Sampling is by the defining construction, the Gram matrix of n standard
    Gaussian vectors in dimension p, so distributional tests compare like
    with like.  No triangular-factor shortcut.  The normals are drawn into
    ``normals`` when given, a C-contiguous (count, n, p) array.
    """
    n, p = _validated(params, count)
    x = rng.gen.standard_normal((count, n, p), out=normals)
    return x @ x.transpose(0, 2, 1)


def _bartlett_gammas(params, count: int, rng: RngStream, out=None):
    """The ceil(n/2) rows of ``count`` gamma draws behind det W(n, p), their shapes, and n // 2.

    det W(n, p) is a product of independent chi2_p, ..., chi2_{p-n+1} (Bartlett; Anderson, *An
    Introduction to Multivariate Statistical Analysis*, 7.2), and by Legendre's duplication
    formula chi2_q * chi2_{q-1} ~ Gamma(q-1)^2: det = prod_pairs G^2 * 2 G_odd, with
    G_odd ~ Gamma((p-n+1)/2) for odd n.  The rows go into ``out``, C-contiguous, when given."""
    n, p = _validated(params, count)
    shapes = [p - i - 1.0 for i in range(0, n - 1, 2)] + [0.5 * (p - n + 1)] * (n % 2)
    terms = np.empty((len(shapes), count)) if out is None else out
    for row, shape in zip(terms, shapes):
        rng.gen.standard_gamma(shape, out=row)
    return terms, shapes, n // 2


def logdet_samples(params, count: int, rng: RngStream, out=None) -> np.ndarray:
    """``count`` draws of log det W(n, p), row 0 of ``out`` when given; ``tests/test_wishart.py``
    pins it to ``wishart_samples``."""
    terms, _, pairs = _bartlett_gammas(params, count, rng, out)
    terms[pairs:] *= 2.0  # the chi-square
    np.log(terms, out=terms)
    terms[:pairs] *= 2.0
    for row in terms[1:]:
        terms[0] += row
    return terms[0]


def sqrt_det_factors(params, count: int, rng: RngStream, log_scale: float, out=None):
    """Independent rows (a, b), rows 0 and 1 of ``out`` when given, of ``count`` draws with a * b =
    exp(log_scale) det W(n, p)^(1/2): ``logdet_samples``'s K = ceil(n/2) rows as prod_pairs G *
    sqrt(2 G_odd), no log or exp, the first ceil(K/2) into a, the rest into b (ones when K = 1).
    A gamma multiplied into another is first divided by its mean: nothing over- or underflows."""
    terms, shapes, pairs = _bartlett_gammas(params, count, rng, out)
    np.sqrt(terms[pairs:], out=terms[pairs:])
    means = shapes[:pairs] + [math.sqrt(a) for a in shapes[pairs:]]  # rough means of the rows
    half, log_scale = (len(terms) + 1) // 2, log_scale + 0.5 * math.log(2.0) * (len(terms) - pairs)
    for lo, hi in ((0, half), (half, len(terms))):
        for row, mean in zip(terms[lo + 1:hi], means[lo + 1:hi]):
            terms[lo] *= np.multiply(row, 1.0 / mean, out=row)
            log_scale += math.log(mean)
    terms[0] *= math.exp(log_scale)
    if half > 1:  # b to row 1
        terms[1] = terms[half]
    return terms[0], terms[1] if len(terms) > 1 else np.broadcast_to(1.0, count)


def trace_samples(params, count: int, rng: RngStream, out=None) -> np.ndarray:
    """``count`` independent draws of trace W(n, p), the sum of n*p squared normals: chi2_{np},
    drawn as numpy's ``chisquare`` draws it, into ``out`` (1, count) when given."""
    n, p = _validated(params, count)
    draws = rng.gen.standard_gamma(0.5 * n * p, (1, count), out=out)
    return np.multiply(draws, 2.0, out=draws)[0]


def logdet_trace_many(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log-determinant, trace) arrays for a stack of Gram matrices."""
    g = np.asarray(grams, dtype=float)
    _, logdet = np.linalg.slogdet(g)
    trace = np.trace(g, axis1=-2, axis2=-1)
    return logdet, trace
