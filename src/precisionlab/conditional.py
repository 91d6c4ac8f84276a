"""Conditioned second moments and ellipsoid-section covariances.

For a centered Gaussian vector with positive definite covariance A, the
limiting second-moment matrix of a coordinate pair (i, j), conditioned on
every other coordinate lying in a shrinking slab around zero, equals the
inverse of the 2x2 block of A^(-1) at (i, j).  The same matrix is, up to a
dimension-independent constant, the covariance of the uniform distribution
on the planar section of the ellipsoid {x : x' A^(-1) x <= 1} by the span
of the first two coordinates.

"Uniform on the section" is read as uniform on the solid two-dimensional
region (the section of a solid ball is solid), which makes the constant 4;
reading it as the boundary curve would only rescale the constant and no
rank statement would change.  :func:`kd_constant` computes the constant by
running both code paths rather than hard-coding it.

Both an analytic path (linear solves) and a brute-force path (rejection
sampling of the slab event) are provided so they can check each other.
The sampler draws N(0, A) as ``C z`` (Cholesky C, pair ordered last), thins
the first screen by one binomial draw per call and gives each batch a fold of
the passing rows; it is plain rejection, with the mirror of the last normal
paired in.  Products use ``einsum``, as BLAS inside a batch worker would
start threads that fight the workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidParamsError,
    SingularBlockError,
    TooFewAcceptancesError,
)
from .matcore import PSD_REL_TOL, RANK_ROUNDING_MARGIN, check_matrix, cholesky_logdet, psd_eigh
from .parallel import DEFAULT_BATCHES, FOLD_ROWS, mean_sd, merge, merge_all, moments, run_batched
from .sampler import RngStream

# Sampling costs about p0 * trials (p0 the first screen's pass rate), but
# acceptances scale like epsilon^(d-2): beyond dimension 6 the brute-force slab
# oracle stops being honest within any sane budget.
MAX_REJECTION_DIM = 6
MIN_ACCEPTED = 1000
# A principal angle whose sine is at most ANGLE_TOL counts as zero, i.e. one
# direction shared by the plane and the range.
ANGLE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    """Conditioned second-moment matrix of one coordinate pair."""

    pair: tuple[int, int]
    values: np.ndarray  # 2x2 symmetric positive definite


@dataclass(frozen=True, eq=False)
class AlphaEstimate:
    """Rejection-sampling estimate of the conditioned second moments."""

    pair: tuple[int, int]
    epsilon: float
    values: np.ndarray
    standard_errors: np.ndarray
    accepted: int
    proposals: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals


@dataclass(frozen=True, eq=False)
class SectionCovariance:
    """Covariance of the uniform distribution on the planar ellipsoid section."""

    matrix: np.ndarray  # (..., 2, 2) symmetric PSD
    rank: int | np.ndarray  # an int for one matrix, an integer array for a stack


def _check_pair(i: int, j: int, d: int) -> tuple[int, int]:
    i, j = int(i), int(j)
    if not (0 <= i < d and 0 <= j < d):
        raise IndexOutOfRangeError(f"indices ({i}, {j}) out of range for dimension {d}")
    if i == j:
        raise IndexOutOfRangeError(f"indices must differ, got ({i}, {j})")
    return i, j


def precision_block(a, i: int, j: int) -> np.ndarray:
    """The 2x2 submatrix of A^(-1) at rows and columns {i, j}.

    Solves two linear systems instead of forming the full inverse.
    """
    m = check_matrix(a)
    i, j = _check_pair(i, j, m.shape[0])
    cholesky_logdet(m)  # positive-definiteness gate
    rhs = np.zeros((m.shape[0], 2))
    rhs[i, 0] = 1.0
    rhs[j, 1] = 1.0
    sol = np.linalg.solve(m, rhs)
    off = 0.5 * (sol[j, 0] + sol[i, 1])
    return np.array([[sol[i, 0], off], [off, sol[j, 1]]])


def _invert_2x2(block: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix or of each in a (..., 2, 2) stack, by the adjugate."""
    det = np.asarray(block[..., 0, 0] * block[..., 1, 1] - block[..., 0, 1] * block[..., 1, 0])
    scale = np.max(np.abs(block), axis=(-2, -1))
    singular = ~(np.isfinite(det) & (np.abs(det) > 1e-14 * scale * scale))
    if np.any(singular):
        raise SingularBlockError(f"2x2 block is numerically singular (det={det[singular][0]!r})")
    adjugate = block.swapaxes(-1, -2)[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return adjugate / det[..., None, None]


def alpha_analytic(a, i: int, j: int) -> AlphaMatrix:
    """Conditioned second moments of (Y_i, Y_j): inverse of the precision block."""
    block = precision_block(a, i, j)
    return AlphaMatrix(pair=(int(i), int(j)), values=_invert_2x2(block))


def conditional_covariance_schur(a, i: int, j: int) -> np.ndarray:
    """Conditional covariance of (Y_i, Y_j) given all other coordinates fixed.

    Computed as the Schur complement A_EE - A_ER (A_RR)^(-1) A_RE directly
    from the covariance itself; an independent derivation of the same object
    as :func:`alpha_analytic`.
    """
    m = check_matrix(a)
    i, j = _check_pair(i, j, m.shape[0])
    cholesky_logdet(m)
    rest = [k for k in range(m.shape[0]) if k not in (i, j)]
    ee = m[np.ix_([i, j], [i, j])]
    if not rest:
        return ee
    er = m[np.ix_([i, j], rest)]
    rr = m[np.ix_(rest, rest)]
    schur = ee - er @ np.linalg.solve(rr, er.T)
    return 0.5 * (schur + schur.T)


def _truncated_normals(gen, t: float, count: int, out: np.ndarray, work: np.ndarray) -> None:
    """Fill ``out[:count]`` with N(0, 1) on (-t, t) by exact rejection (Devroye 1986): for t < 1,
    uniforms on (-t, t) kept when u^2 < 2E, E ~ Exp(1) (85% or more kept), else normals kept
    when |u| < t (68% or more).  A round proposes 1.02 times the missing draws over the keep
    rate q; surplus spills into the rest of ``out``; ``work`` is 3 rows as long as ``out``."""
    q = math.erf(t / math.sqrt(2.0)) * (math.sqrt(math.pi / 2.0) / t if t < 1.0 else 1.0)
    filled = 0
    while filled < count:
        size = min(len(out) - filled, int(1.02 * (count - filled) / q) + 64)
        u, v, w = work[:3, :size]
        if t < 1.0:
            np.subtract(np.multiply(gen.random(out=u), 2.0 * t, out=u), t, out=u)
            gen.standard_exponential(out=v)
            keep = np.square(u, out=w) < np.add(v, v, out=v)
        else:
            keep = np.abs(gen.standard_normal(out=u), out=v) < t
        got = np.count_nonzero(keep)
        filled += np.compress(keep, u, out=out[filled : filled + got]).size


def alpha_monte_carlo(
    a,
    i: int,
    j: int,
    epsilon: float,
    trials: int,
    rng: RngStream,
    workers: int = 1,
    min_accepted: int = MIN_ACCEPTED,
) -> AlphaEstimate:
    """Brute-force slab conditioning: empirical second moments of (Y_i, Y_j)
    over samples whose every other coordinate lies in (-epsilon, epsilon).

    Plain rejection, with the mirror of the last normal paired in and no
    importance weighting, so the oracle presumes nothing about the answer.
    Thinning the first screen (a binomial count of passes, then z0 drawn given a
    pass) keeps the accepted rows' law exact, and so does the mirror: z_{d-1}
    enters only Y_j = u + v, so a row and its mirror count as x^2, xu, u^2 + v^2.
    Restricted to small dimension where the acceptance rate is workable.
    """
    m = check_matrix(a)
    d = m.shape[0]
    i, j = _check_pair(i, j, d)
    if d > MAX_REJECTION_DIM:
        raise InvalidParamsError(
            f"rejection conditioning is limited to dimension <= {MAX_REJECTION_DIM}, got {d}"
        )
    if not (epsilon > 0.0):
        raise InvalidParamsError("epsilon must be positive")
    if trials < 1:
        raise InvalidParamsError("trials must be positive")
    if min_accepted < 2:
        raise InvalidParamsError("min_accepted must be at least 2 for a standard error")
    # Pair last: under Y = C z the slab event reads only the first d - 2 normals.
    order = [k for k in range(d) if k not in (i, j)] + [i, j]
    c = cholesky_logdet(m[np.ix_(order, order)]).factor
    rows, t = FOLD_ROWS // d, epsilon / c[0, 0] if d > 2 else math.inf
    # A proposal passes the first screen alone, so one binomial from a fresh copy of the
    # call's stream counts the rows to draw (all of them at t = inf, where p0 is 1).
    p0 = math.erf(t / math.sqrt(2.0))
    passed = RngStream(rng.seed, rng.stream_id).gen.binomial(trials, p0)

    def batch(count: int, stream: RngStream, work: np.ndarray) -> np.ndarray:
        gen, acc = stream.gen, np.zeros((3, 3))
        for start in range(0, count, rows):  # rows 3 on hold z, (d, n)
            n = min(rows, count - start)
            z = work[3:].reshape(-1)[: d * n].reshape(d, n)
            if d > 2:  # the first screen |c00 z0| < epsilon passed; z0 spills into z1
                _truncated_normals(gen, t, n, work[3], work[:3])
            if d > 3:  # the later screens, on the rows still in
                gen.standard_normal(out=z[1 : d - 2])
                y = np.einsum("kl,lr->kr", c[1 : d - 2, : d - 2], z[: d - 2], out=work[: d - 3, :n])
                keep = np.all(np.abs(y, out=y) < epsilon, axis=0)
                n = np.count_nonzero(keep)
                z = np.compress(keep, z, axis=1, out=work[3:].reshape(-1)[: d * n].reshape(d, n))
            gen.standard_normal(out=z[d - 2 :])
            # x, _, u: y = u + v with v = c[-1, -1] z[-1], and y = u - v in the mirror row
            xu = np.einsum("cl,lr->cr", c[d - 2 :, : d - 1], z[: d - 1], out=work[0:3:2, :n])
            np.multiply(*xu, out=work[1, :n])
            np.square(xu, out=xu)
            v = np.multiply(z[d - 1], c[d - 1, d - 1], out=z[d - 1])
            xu[1] += np.square(v, out=v)
            if n:  # rows 0-2 hold x^2, xu, u^2 + v^2
                acc = merge(acc, moments(work[:3, :n]))
        return acc

    parts = run_batched(batch, passed, rng, workers, min(DEFAULT_BATCHES, -(-passed // rows)),
                        scratch=lambda: np.empty((3 + d, rows)))  # a fold of rows per batch
    acc = merge_all([np.zeros((3, 3)), *parts])  # no batches when no proposal passes
    count = int(acc[0, 0])
    if count < min_accepted:
        raise TooFewAcceptancesError(
            f"only {count} acceptances out of {trials} proposals "
            f"(need {min_accepted}); widen epsilon or raise trials"
        )
    mean, sd = mean_sd(acc)
    return AlphaEstimate(pair=(i, j), epsilon=float(epsilon), values=mean[[[0, 1], [1, 2]]],
                         standard_errors=sd[[[0, 1], [1, 2]]] / math.sqrt(count),
                         accepted=count, proposals=int(trials))


def section_covariance(a) -> SectionCovariance:
    """Covariance of the uniform distribution on the planar ellipsoid section.

    Takes one ``(d, d)`` matrix or a ``(..., d, d)`` stack, and returns a
    ``(2, 2)`` matrix with an int rank, or a ``(..., 2, 2)`` stack with an
    array of ranks.

    The section of {S x : |x| <= 1} (S the PSD square root of ``a``) by the
    span E of the first two coordinates is {x in E ∩ range(a) :
    x' a^+ x <= 1}.  Its dimension r is the number of zero principal angles
    between E and range(a), read as the singular values of (I - P) E with P
    the projector onto range(a): they are the sines of the principal angles,
    which resolve small angles that ``1 - cos`` rounds away (Björck & Golub
    1973).

    * r = 2: solid ellipse with quadratic form M, the E-block of the
      pseudo-inverse; the uniform covariance is M^(-1) / 4.
    * r = 1: segment of half-length 1/sqrt(v' a^+ v) along the shared unit
      direction v, the right singular vector of the zero sine; the uniform
      covariance is L^2/3 on that direction.
    * r = 0: the section is the origin and the covariance is zero.

    range(a) is spanned by the eigenvectors whose eigenvalues exceed
    ``RANK_ROUNDING_MARGIN * d * eps * w_max``: eigenvalues of an exactly
    singular matrix come out of ``eigh`` within a few ``d * eps * w_max`` of
    zero, and the margin covers that noise.  A positive definite ``a`` keeps
    rank 2 up to condition numbers of about 1 / (64 d eps), 2e13 at d = 3.
    """
    w, v = psd_eigh(a, PSD_REL_TOL)
    d = w.shape[-1]
    if d < 2:
        raise InvalidParamsError("section needs ambient dimension at least 2")
    keep = w > RANK_ROUNDING_MARGIN * d * np.finfo(float).eps * np.max(w, axis=-1, keepdims=True)
    kept = v * keep[..., None, :]
    residual = np.eye(d)[:, :2] - kept @ kept[..., :2, :].swapaxes(-1, -2)
    _, sines, right = np.linalg.svd(residual, full_matrices=False)
    rank = np.count_nonzero(sines <= ANGLE_TOL, axis=-1)

    inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    pinv_block = ((v * inv[..., None, :]) @ v.swapaxes(-1, -2))[..., :2, :2]
    pinv_block = 0.5 * (pinv_block + pinv_block.swapaxes(-1, -2))

    out = np.zeros(w.shape[:-1] + (2, 2))
    two, one = rank == 2, rank == 1
    out[two] = _invert_2x2(pinv_block[two]) / 4.0
    shared = right[one][:, 1]  # the sines come sorted, so the zero one is last
    # v' M v elementwise, not by einsum, so a member's bits do not depend on the stack
    half_length_sq = 1.0 / ((shared[:, :, None] * pinv_block[one]).sum(axis=1) * shared).sum(axis=1)
    out[one] = (half_length_sq / 3.0)[:, None, None] * (shared[:, :, None] * shared[:, None, :])
    return SectionCovariance(out, int(rank) if np.ndim(rank) == 0 else rank)


def kd_constant(d: int) -> float:
    """The constant relating the section covariance to the conditioned moments.

    Evaluated by running the two independent code paths on the identity
    covariance instead of asserting a number; under the solid-section
    convention the value is 4 in every dimension.
    """
    d = int(d)
    if d < 3:
        raise InvalidParamsError("need dimension at least 3")
    ident = np.eye(d)
    alpha = alpha_analytic(ident, 0, 1).values[0, 0]
    section = section_covariance(ident).matrix[0, 0]
    return float(alpha / section)
