"""Independent oracles shared by the test modules.

Everything here is computed from first principles (cofactor expansions,
error functions, truncated-normal formulas, plain rejection sampling) so
the library paths under test are checked against derivations that share no
code with them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest


def cofactor_det(m) -> float:
    """Determinant by recursive cofactor expansion; fine for d <= 6."""
    a = [list(map(float, row)) for row in np.asarray(m, dtype=float)]
    d = len(a)
    if d == 1:
        return a[0][0]
    total = 0.0
    for col in range(d):
        minor = [row[:col] + row[col + 1:] for row in a[1:]]
        total += ((-1.0) ** col) * a[0][col] * cofactor_det(minor)
    return total


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def chi2_logpdf(dof: int, a: float) -> float:
    return (0.5 * dof - 1.0) * math.log(a) - 0.5 * a - 0.5 * dof * math.log(2.0) - math.lgamma(0.5 * dof)


def tv_chi2_12_closed_form() -> float:
    """Total variation between chi-square laws with 1 and 2 degrees of freedom.

    The densities cross once, at a = 2/pi, so the distance telescopes to a
    difference of the two distribution functions there.
    """
    a_star = 2.0 / math.pi
    cdf1 = math.erf(math.sqrt(a_star / 2.0))
    cdf2 = 1.0 - math.exp(-0.5 * a_star)
    return cdf1 - cdf2


def truncated_normal_second_moment(sigma: float, eps: float) -> float:
    """E[X^2 | |X| < eps] for X centered normal with standard deviation sigma."""
    t = eps / sigma
    z = 2.0 * norm_cdf(t) - 1.0
    return sigma * sigma * (1.0 - 2.0 * t * norm_pdf(t) / z)


def alpha_slab_exact_3d(a, i: int, j: int, eps: float) -> np.ndarray:
    """Exact finite-slab conditioned second moments in dimension 3.

    With a single conditioning coordinate k, the law of (Y_i, Y_j) given
    |Y_k| < eps is an explicit normal mixture: Schur conditional covariance
    plus the outer product of the regression vector scaled by the truncated
    second moment of Y_k.  Written out from scratch (2x2 and scalar algebra
    only) as an oracle for the rejection sampler.
    """
    m = np.asarray(a, dtype=float)
    (k,) = [x for x in range(3) if x not in (i, j)]
    akk = m[k, k]
    b = np.array([m[i, k] / akk, m[j, k] / akk])
    schur = np.array(
        [
            [m[i, i] - m[i, k] ** 2 / akk, m[i, j] - m[i, k] * m[j, k] / akk],
            [m[i, j] - m[i, k] * m[j, k] / akk, m[j, j] - m[j, k] ** 2 / akk],
        ]
    )
    second = truncated_normal_second_moment(math.sqrt(akk), eps)
    return schur + second * np.outer(b, b)


def bisect(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_spd(d: int, seed: int, jitter: float = 0.3) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((d, d))
    return g @ g.T + jitter * np.eye(d)


def section_disk_mc(a, trials: int, seed: int) -> tuple[np.ndarray, int]:
    """Rejection-sampled covariance of the uniform law on the planar section.

    Full-rank matrices only: the section is {u : u' M u <= 1} with M the
    leading 2x2 block of the inverse; points are drawn uniformly from the
    bounding box and kept when inside.
    """
    m = np.linalg.inv(np.asarray(a, dtype=float))[:2, :2]
    box = np.sqrt(np.diag(np.linalg.inv(m)))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(trials, 2)) * box
    keep = np.einsum("ti,ij,tj->t", pts, m, pts) <= 1.0
    acc = pts[keep]
    return acc.T @ acc / len(acc), len(acc)


def gauss_legendre_integral(f, lo: float, hi: float, nodes: int = 200) -> float:
    """Fixed-order Gauss-Legendre quadrature of a scalar function."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0) * (hi - lo) + lo
    return 0.5 * (hi - lo) * float(sum(wi * f(ti) for wi, ti in zip(w, t)))


def mean_se(samples: np.ndarray) -> tuple[float, float]:
    x = np.asarray(samples, dtype=float)
    return float(np.mean(x)), float(np.std(x, ddof=1)) / math.sqrt(len(x))


def var_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample variance and the large-sample standard error of that estimate."""
    x = np.asarray(samples, dtype=float)
    v = float(np.var(x, ddof=1))
    fourth = float(np.mean((x - np.mean(x)) ** 4))
    return v, math.sqrt(max(fourth - v * v, 0.0) / len(x))


def moment_gaps(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Gaps between the means and between the variances of two samples, in combined SEs."""
    gaps = []
    for stat in (mean_se, var_se):
        (x, se_x), (y, se_y) = stat(a), stat(b)
        gaps.append(abs(x - y) / math.hypot(se_x, se_y))
    return gaps[0], gaps[1]


def _log_wishart_normalizer(n: int, p: int) -> float:
    return (0.5 * p * n * math.log(2.0) + 0.25 * n * (n - 1) * math.log(math.pi)
            + sum(math.lgamma(0.5 * (p + 1 - i)) for i in range(1, n + 1)))


def tv_wishart_quadrature(n: int, d: int) -> float:
    """TV(W(n, d-1), W(n, d)) for n = 3 or 4, by quadrature over one factor of the density ratio.

    Under W(n, d-1) the ratio is x = R G h(U), R = Z(n,d-1)/Z(n,d), with independent
    G ~ Gamma(d-2) and h(U) = sqrt(2 U), U ~ Gamma((d-3)/2) for n = 3, or h(U) = U,
    U ~ Gamma(d-4) for n = 4 (Bartlett, with Legendre's duplication formula).  For
    G ~ Gamma(k), E|1 - b G| = b k - 1 + 2 [P(k, 1/b) - b k P(k+1, 1/b)], P the regularized
    lower incomplete gamma, so TV = (1/2) E_U |1 - x| is one integral over U (scipy).
    """
    if n not in (3, 4) or d < n + 1:
        raise ValueError(f"need n in (3, 4) and d > n, got n={n}, d={d}")
    special = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")
    k, r = d - 2.0, math.exp(_log_wishart_normalizer(n, d - 1) - _log_wishart_normalizer(n, d))
    shape, h = ((d - 3) / 2, lambda u: math.sqrt(2.0 * u)) if n == 3 else (d - 4.0, lambda u: u)

    def mean_abs_dev(b: float) -> float:
        c = 1.0 / b
        return b * k - 1.0 + 2.0 * (special.gammainc(k, c) - b * k * special.gammainc(k + 1.0, c))

    def integrand(u: float) -> float:
        log_pdf = (shape - 1.0) * math.log(u) - u - math.lgamma(shape)
        return mean_abs_dev(r * h(u)) * math.exp(log_pdf)

    value, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    return 0.5 * value
