"""Identity-covariance Wishart machinery on the PSD cone.

W(n, p) here is the law of the Gram matrix of n independent standard
Gaussian vectors in dimension p.  The module provides Gram construction,
the log density on the cone interior (with respect to Lebesgue measure on
the n(n+1)/2 free upper-triangle coordinates), the log normalizer, exact
determinant moments, sampling by the defining Gram construction, and
log-determinant sampling by the Bartlett decomposition.

Everything is computed in log space with ``math.lgamma``; the normalizer
overflows double-precision factorials otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError
from .matcore import check_symmetric, cholesky_logdet
from .sampler import RngStream


class WishartParams(NamedTuple):
    """Matrix dimension ``n`` and degrees of freedom ``p`` of W(n, p)."""

    n: int
    p: int


def _validated(params) -> WishartParams:
    n, p = params
    n, p = int(n), int(p)
    if not 1 <= n <= p:
        raise InvalidParamsError(f"need 1 <= n <= p, got n={n}, p={p}")
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
    gm = check_symmetric(g)
    if gm.shape[0] != n:
        raise InvalidParamsError(f"matrix is {gm.shape[0]}x{gm.shape[0]}, params say n={n}")
    logdet = cholesky_logdet(gm).logdet
    return 0.5 * (p - n - 1) * logdet - 0.5 * float(np.trace(gm)) - log_normalizer(params)


def _falling_product(top: int, terms: int) -> int:
    out = 1
    for t in range(top - terms + 1, top + 1):
        out *= t
    return out


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
    mean = _falling_product(p, n)
    second = _falling_product(p + 2, n)
    return mean, mean * (second - mean)


def det_moments(params) -> DetMoments:
    """Mean and variance of det W(n, p) as floats (inf past the float range)."""
    mean, variance = det_moments_exact(params)
    return DetMoments(_int_to_float(mean), _int_to_float(variance))


def wishart_samples(params, count: int, rng: RngStream) -> np.ndarray:
    """``count`` independent W(n, p) draws, shape (count, n, n).

    Sampling is by the defining construction, the Gram matrix of n standard
    Gaussian vectors in dimension p, so distributional tests compare like
    with like.  No triangular-factor shortcut.
    """
    n, p = _validated(params)
    if count < 1:
        raise InvalidParamsError("count must be at least 1")
    x = rng.gen.standard_normal((count, n, p))
    return x @ x.transpose(0, 2, 1)


def logdet_samples(params, count: int, rng: RngStream) -> np.ndarray:
    """``count`` independent draws of log det W(n, p), shape (count,).

    Bartlett decomposition: det W(n, p) is the product of n independent
    chi-squares with p, p-1, ..., p-n+1 degrees of freedom (Anderson, *An
    Introduction to Multivariate Statistical Analysis*, section 7.2), so n
    draws replace the n*p normals, Gram product and slogdet of the Gram
    construction.  ``tests/test_wishart.py`` pins it to ``wishart_samples``.
    """
    n, p = _validated(params)
    if count < 1:
        raise InvalidParamsError("count must be at least 1")
    return sum(np.log(rng.gen.chisquare(p - i, count)) for i in range(n))


def logdet_trace_many(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log-determinant, trace) arrays for a stack of Gram matrices."""
    g = np.asarray(grams, dtype=float)
    _, logdet = np.linalg.slogdet(g)
    trace = np.trace(g, axis1=-2, axis2=-1)
    return logdet, trace
