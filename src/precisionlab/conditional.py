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
The sampler forms ``z @ sqrt(A)`` from elementwise products in fixed chunks:
a BLAS call inside a batch worker would start threads that fight the workers.
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
from .matcore import (
    PSD_REL_TOL,
    check_symmetric,
    cholesky_logdet,
    psd_eigh,
    subspace_intersection_dim,
    sym_sqrt,
)
from .parallel import concat_batches, run_batched
from .sampler import RngStream

# Rejection acceptance scales like epsilon^(d-2): beyond dimension 6 the
# brute-force slab oracle stops being honest within any sane budget.
MAX_REJECTION_DIM = 6
MIN_ACCEPTED = 1000
# Multiple of the eigh rounding level d * eps * w_max below which an
# eigenvalue counts as zero in the section rank.
RANK_ROUNDING_MARGIN = 64
# Rejection proposals are drawn and masked this many rows at a time, which
# bounds a batch's working memory whatever the number of trials.
_CHUNK_ROWS = 1 << 16


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

    matrix: np.ndarray  # 2x2 symmetric PSD
    rank: int


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
    m = check_symmetric(a)
    i, j = _check_pair(i, j, m.shape[0])
    cholesky_logdet(m)  # positive-definiteness gate
    rhs = np.zeros((m.shape[0], 2))
    rhs[i, 0] = 1.0
    rhs[j, 1] = 1.0
    sol = np.linalg.solve(m, rhs)
    off = 0.5 * (sol[j, 0] + sol[i, 1])
    return np.array([[sol[i, 0], off], [off, sol[j, 1]]])


def _invert_2x2(block: np.ndarray) -> np.ndarray:
    det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    scale = float(np.max(np.abs(block)))
    if not math.isfinite(det) or abs(det) <= 1e-14 * scale * scale:
        raise SingularBlockError(f"2x2 block is numerically singular (det={det!r})")
    return np.array([[block[1, 1], -block[0, 1]], [-block[1, 0], block[0, 0]]]) / det


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
    m = check_symmetric(a)
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

    Plain rejection with no importance weighting, so the oracle presumes
    nothing about the answer.  Restricted to small dimension where the
    acceptance rate is workable.
    """
    m = check_symmetric(a)
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
    cholesky_logdet(m)  # the conditioned law needs a positive definite covariance
    s = sym_sqrt(m)
    others = [k for k in range(d) if k not in (i, j)]
    s_others, s_pair = s[:, others], s[:, (i, j)]

    def columns(z: np.ndarray, s_cols: np.ndarray) -> np.ndarray:
        # (z @ s)[:, cols] as elementwise products summed over the rows of s.
        return sum(z[:, r, None] * s_cols[r] for r in range(d))

    def batch(count: int, stream: RngStream) -> np.ndarray:
        parts = []
        for start in range(0, count, _CHUNK_ROWS):
            z = stream.gen.standard_normal((min(_CHUNK_ROWS, count - start), d))
            z = z[np.all(np.abs(columns(z, s_others)) < epsilon, axis=1)]
            parts.append(columns(z, s_pair))
        return concat_batches(parts)

    accepted = concat_batches(run_batched(batch, trials, rng, workers=workers))
    count = len(accepted)
    if count < min_accepted:
        raise TooFewAcceptancesError(
            f"only {count} acceptances out of {trials} proposals "
            f"(need {min_accepted}); widen epsilon or raise trials"
        )
    prods = np.stack(
        [accepted[:, 0] ** 2, accepted[:, 0] * accepted[:, 1], accepted[:, 1] ** 2]
    )
    means = prods.mean(axis=1)
    ses = prods.std(axis=1, ddof=1) / math.sqrt(count)
    values = np.array([[means[0], means[1]], [means[1], means[2]]])
    errors = np.array([[ses[0], ses[1]], [ses[1], ses[2]]])
    return AlphaEstimate(
        pair=(i, j),
        epsilon=float(epsilon),
        values=values,
        standard_errors=errors,
        accepted=count,
        proposals=int(trials),
    )


def section_covariance(a) -> SectionCovariance:
    """Covariance of the uniform distribution on the planar ellipsoid section.

    The section of {S x : |x| <= 1} (S the PSD square root of ``a``) by the
    span E of the first two coordinates is {x in E ∩ range(a) :
    x' a^+ x <= 1}.  Its dimension r is the number of zero principal angles
    between E and range(a):

    * r = 2: solid ellipse with quadratic form M, the E-block of the
      pseudo-inverse; the uniform covariance is M^(-1) / 4.
    * r = 1: segment of half-length 1/sqrt(v' a^+ v) along the shared unit
      direction v; the uniform covariance is L^2/3 on that direction.
    * r = 0: the section is the origin and the covariance is zero.

    range(a) is spanned by the eigenvectors whose eigenvalues exceed
    ``RANK_ROUNDING_MARGIN * d * eps * w_max``: eigenvalues of an exactly
    singular matrix come out of ``eigh`` within a few ``d * eps * w_max`` of
    zero, and the margin covers that noise.  A positive definite ``a`` keeps
    rank 2 up to condition numbers of about 1 / (64 d eps), 2e13 at d = 3.
    """
    w, v = psd_eigh(a, PSD_REL_TOL)
    d = w.size
    if d < 2:
        raise InvalidParamsError("section needs ambient dimension at least 2")
    zero = SectionCovariance(np.zeros((2, 2)), 0)
    w_max = float(np.max(w))
    if w_max == 0.0:
        return zero

    keep = w > RANK_ROUNDING_MARGIN * d * np.finfo(float).eps * w_max
    range_basis = v[:, keep].T
    plane_basis = np.zeros((2, d))
    plane_basis[0, 0] = 1.0
    plane_basis[1, 1] = 1.0
    r = subspace_intersection_dim(plane_basis, range_basis)
    if r == 0:
        return zero

    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    pinv_block = ((v * inv) @ v.T)[:2, :2]
    pinv_block = 0.5 * (pinv_block + pinv_block.T)

    if r == 2:
        return SectionCovariance(_invert_2x2(pinv_block) / 4.0, 2)

    # r == 1: the principal pair at angle zero gives the shared direction.
    u_side, _, _ = np.linalg.svd(plane_basis @ range_basis.T)
    v_e = u_side[:, 0]
    qform = float(v_e @ pinv_block @ v_e)
    half_length_sq = 1.0 / qform
    return SectionCovariance((half_length_sq / 3.0) * np.outer(v_e, v_e), 1)


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
