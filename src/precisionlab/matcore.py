"""Dense symmetric-matrix primitives.

Everything downstream (conditioned covariances, ellipse sections, Wishart
densities, detection games) is built on the handful of operations here:
the PSD eigendecomposition with its clamp-or-reject rule, PSD square roots,
Cholesky log-determinants and orthogonal projectors.

All functions are pure: they take plain float64 ``numpy`` arrays (square,
symmetric within ``SYM_TOL``) and return fresh arrays.  ``check_symmetric``,
``symmetric_part`` and ``psd_eigh`` also take a ``(..., d, d)`` stack and
apply their tolerances matrix by matrix; every other entry point takes one
matrix.  Matrices stay dense; the dimensions in play are at most a few
hundred.  Safe to call from any number of threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError, NotPdError, NotPsdError, NotUnitVectorError

# Eigenvalues in [-PSD_REL_TOL * max|eig|, 0) are rounding noise and get
# clamped to zero; anything below that band means genuinely indefinite input.
PSD_REL_TOL = 1e-10
SYM_TOL = 1e-12
# An eigenvalue below RANK_ROUNDING_MARGIN * d * eps * w_max counts as zero.
RANK_ROUNDING_MARGIN = 64


def check_symmetric(a, tol: float = SYM_TOL) -> np.ndarray:
    """Validate that ``a`` is a square, finite, symmetric matrix or a stack of
    them; return a float64 copy.

    Asymmetry beyond ``tol`` relative to each matrix's largest entry is
    rejected rather than averaged away, whatever the scale of the matrix.
    """
    m = np.array(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidParamsError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise InvalidParamsError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise InvalidParamsError("matrix has non-finite entries")
    asym = np.max(np.abs(m - m.swapaxes(-1, -2)), axis=(-2, -1))
    if np.any(asym > tol * np.max(np.abs(m), axis=(-2, -1))):
        raise InvalidParamsError("matrix is not symmetric within tolerance")
    return symmetric_part(m)


def check_matrix(a) -> np.ndarray:
    """:func:`check_symmetric` for entry points that take exactly one matrix."""
    m = check_symmetric(a)
    if m.ndim != 2:
        raise InvalidParamsError(f"expected one square matrix, got shape {m.shape}")
    return m


def symmetric_part(m: np.ndarray) -> np.ndarray:
    """(m + m') / 2 without overflow; an exactly symmetric m comes back bit for bit."""
    mt = m.swapaxes(-1, -2)
    return np.where(m == mt, m, 0.5 * m + 0.5 * mt)


def psd_eigh(a, rel_tol: float = PSD_REL_TOL):
    """Eigendecomposition of a PSD matrix, or of a stack, with the clamp-or-reject rule applied.

    Returns (eigenvalues, eigenvectors) with the noise band clamped to zero.
    """
    w, v = np.linalg.eigh(check_symmetric(a))
    tol = rel_tol * np.max(np.abs(w), axis=-1)
    low = w[..., 0] < -tol
    if np.any(low):
        first = int(np.argmax(low))
        raise NotPsdError(
            f"matrix is not positive semi-definite: min eigenvalue {w[..., 0].flat[first]:.3e} "
            f"below tolerance {-np.asarray(tol).flat[first]:.3e}"
        )
    return np.clip(w, 0.0, None), v


def sym_sqrt(a, rel_tol: float = PSD_REL_TOL) -> np.ndarray:
    """Symmetric PSD square root S with S @ S == a (within tolerance)."""
    w, v = psd_eigh(check_matrix(a), rel_tol)
    s = (v * np.sqrt(w)) @ v.T
    return 0.5 * (s + s.T)


class CholeskyLogdet(NamedTuple):
    factor: np.ndarray
    logdet: float


def cholesky_logdet(a) -> CholeskyLogdet:
    """Lower Cholesky factor and log-determinant of a positive definite matrix;
    a matrix singular within rounding is refused even if it leaves a tiny pivot."""
    m = check_matrix(a)
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
