"""Dense symmetric-matrix primitives.

Everything downstream (conditioned covariances, ellipse sections, Wishart
densities, detection games) is built on the handful of operations here:
the PSD eigendecomposition with its clamp-or-reject rule, PSD square roots,
Cholesky log-determinants, orthogonal projectors, and principal-angle
intersection dimensions.

All functions are pure: they take plain float64 ``numpy`` arrays (square,
symmetric within ``SYM_TOL``) and return fresh arrays.  Matrices stay dense;
the dimensions in play are at most a few hundred.  Safe to call from any
number of threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    BasisNotOrthonormalError,
    InvalidParamsError,
    NotPdError,
    NotPsdError,
    NotUnitVectorError,
)

# Eigenvalues in [-PSD_REL_TOL * max|eig|, 0) are rounding noise and get
# clamped to zero; anything below that band means genuinely indefinite input.
PSD_REL_TOL = 1e-10
# A principal angle whose sine is at most ANGLE_TOL counts as zero, i.e. one
# shared direction.
ANGLE_TOL = 1e-8
SYM_TOL = 1e-12
# An eigenvalue below RANK_ROUNDING_MARGIN * d * eps * w_max counts as zero.
RANK_ROUNDING_MARGIN = 64


def check_symmetric(a, tol: float = SYM_TOL) -> np.ndarray:
    """Validate that ``a`` is square, finite and symmetric; return a float64 copy.

    Asymmetry beyond ``tol`` (relative to the largest entry) is rejected
    rather than averaged away.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParamsError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise InvalidParamsError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise InvalidParamsError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if float(np.max(np.abs(m - m.T))) > tol * scale:
        raise InvalidParamsError("matrix is not symmetric within tolerance")
    return symmetric_part(m)


def symmetric_part(m: np.ndarray) -> np.ndarray:
    """(m + m') / 2 without overflow; an exactly symmetric m comes back bit for bit."""
    return np.where(m == m.T, m, 0.5 * m + 0.5 * m.T)


def psd_eigh(a, rel_tol: float = PSD_REL_TOL):
    """Eigendecomposition of a PSD matrix with the clamp-or-reject rule applied.

    Returns (eigenvalues, eigenvectors) with the noise band clamped to zero.
    """
    m = check_symmetric(a)
    w, v = np.linalg.eigh(m)
    tol = rel_tol * float(np.max(np.abs(w)))
    if w[0] < -tol:
        raise NotPsdError(
            f"matrix is not positive semi-definite: min eigenvalue {w[0]:.3e} "
            f"below tolerance {-tol:.3e}"
        )
    return np.clip(w, 0.0, None), v


def sym_sqrt(a, rel_tol: float = PSD_REL_TOL) -> np.ndarray:
    """Symmetric PSD square root S with S @ S == a (within tolerance)."""
    w, v = psd_eigh(a, rel_tol)
    s = (v * np.sqrt(w)) @ v.T
    return 0.5 * (s + s.T)


class CholeskyLogdet(NamedTuple):
    factor: np.ndarray
    logdet: float


def cholesky_logdet(a) -> CholeskyLogdet:
    """Lower Cholesky factor and log-determinant of a positive definite matrix;
    a matrix singular within rounding is refused even if it leaves a tiny pivot."""
    m = check_symmetric(a)
    w = np.linalg.eigvalsh(m)
    if not w[0] > RANK_ROUNDING_MARGIN * m.shape[0] * np.finfo(float).eps * w[-1]:
        raise NotPdError(f"matrix is not positive definite: min eigenvalue {w[0]:.3e}")
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPdError("matrix is not positive definite (nonpositive pivot)") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(factor))))
    return CholeskyLogdet(factor, logdet)


def projector_complement(theta, tol: float = 1e-12) -> np.ndarray:
    """Orthogonal projector onto the hyperplane orthogonal to unit ``theta``."""
    v = np.asarray(theta, dtype=float).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise NotUnitVectorError(f"|theta| = {nrm!r} deviates from 1 beyond {tol}")
    p = np.eye(v.size) - np.outer(v, v)
    return 0.5 * (p + p.T)


def _check_orthonormal(basis, tol: float) -> np.ndarray:
    b = np.atleast_2d(np.asarray(basis, dtype=float))
    if b.shape[0] == 0:
        return b
    g = b @ b.T
    if float(np.max(np.abs(g - np.eye(b.shape[0])))) > tol:
        raise BasisNotOrthonormalError("basis vectors are not orthonormal within tolerance")
    return b


def subspace_intersection_dim(
    basis_u,
    basis_v,
    ortho_tol: float = 1e-8,
    angle_tol: float = ANGLE_TOL,
) -> int:
    """Dimension of the intersection of two subspaces given orthonormal bases.

    Bases are given as rows.  The singular values of the part of ``u``
    orthogonal to ``v`` are the sines of the principal angles (plus ones when
    ``u`` has more rows); the count of them at most ``angle_tol`` is the
    number of zero principal angles, which is the intersection dimension.
    Sines resolve small angles that ``1 - cos`` rounds away.
    """
    u = _check_orthonormal(basis_u, ortho_tol)
    v = _check_orthonormal(basis_v, ortho_tol)
    if u.shape[0] == 0 or v.shape[0] == 0:
        return 0
    if u.shape[1] != v.shape[1]:
        raise InvalidParamsError("bases live in different ambient dimensions")
    sines = np.linalg.svd(u - (u @ v.T) @ v, compute_uv=False)
    return int(np.count_nonzero(sines <= angle_tol))
