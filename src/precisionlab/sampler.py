"""Seeded generation of every stochastic object the laboratory uses.

Every sampler is stacked: it draws ``count`` objects in one call and returns
them along a leading axis, so a single draw is a stack of one.  Covariance
ensembles sample through :meth:`precisionlab.detection.Ensemble.sample_many`.

Streams are SFC64 generators seeded by ``SeedSequence(seed, spawn_key=
(stream_id,))``, so a stream is reproducible bit for bit from its key alone
and child streams for batch ``i`` can be derived without coordination.
Monte Carlo sweeps split work across a fixed batch grid and get results that
are independent of the execution schedule (thread count, interleaving).

A single ``RngStream`` is stateful and must not be shared across threads;
hand each worker its own child.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDrawError, InvalidParamsError

_MASK64 = (1 << 64) - 1
_SPHERE_RETRIES = 100
# Norm below this would rather be a broken generator than a real draw.
_NORM_FLOOR = 1e-100


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Reproducible random stream keyed by ``(seed, stream_id)``.

    Equal keys reproduce the same value sequence bit for bit; distinct
    ``stream_id`` values give independent streams (``SeedSequence`` hashes the key).
    """

    __slots__ = ("seed", "stream_id", "gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.SFC64(seq))

    def child(self, index: int) -> "RngStream":
        """Independent stream for batch ``index``; a pure function of the key."""
        return RngStream(self.seed, _splitmix64(self.stream_id ^ _splitmix64(int(index))))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def uniform_sphere_many(d: int, count: int, rng: RngStream) -> np.ndarray:
    """``count`` independent uniform sphere points, shape (count, d)."""
    if d < 2:
        raise InvalidParamsError("sphere sampling needs dimension at least 2")
    v = rng.gen.standard_normal((count, d))
    for attempt in range(_SPHERE_RETRIES):
        if attempt:
            v[bad] = rng.gen.standard_normal((int(bad.sum()), d))
        nrm = np.linalg.norm(v, axis=1)
        bad = nrm <= _NORM_FLOOR
        if not bad.any():
            return v / nrm[:, None]
    raise DegenerateDrawError(f"Gaussian norm underflowed {_SPHERE_RETRIES} times in a row")


def haar_rotation_many(d: int, count: int, rng: RngStream) -> np.ndarray:
    """``count`` rotations distributed by the invariant measure on SO(d).

    QR of a Gaussian matrix with the R-diagonal sign correction gives the
    invariant measure on the full orthogonal group; flipping one column on
    negative-determinant draws lands it on the rotation subgroup.
    """
    if d < 2:
        raise InvalidParamsError("rotation sampling needs dimension at least 2")
    z = rng.gen.standard_normal((count, d, d))
    q, r = np.linalg.qr(z)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0.0] = 1.0
    q = q * sign[:, None, :]
    neg = np.linalg.det(q) < 0.0
    q[neg, :, 0] *= -1.0
    return q


def standard_batches(d: int, n: int, count: int, rng: RngStream) -> np.ndarray:
    """``count`` batches of ``n`` standard Gaussian vectors, shape (count, n, d)."""
    if d < 1 or n < 1 or count < 1:
        raise InvalidParamsError("dimension, batch size and count must be positive")
    return rng.gen.standard_normal((count, n, d))


def random_subspace_basis(d: int, k: int, count: int, rng: RngStream) -> np.ndarray:
    """Orthonormal bases of ``count`` uniformly random k-dim subspaces, (count, k, d)."""
    if not 1 <= k < d:
        raise InvalidParamsError(f"deficiency k must satisfy 1 <= k < d, got k={k}, d={d}")
    if k == 1:
        return uniform_sphere_many(d, count, rng)[:, None, :]
    g = rng.gen.standard_normal((count, d, k))
    q, _ = np.linalg.qr(g)
    return q.transpose(0, 2, 1)


def deficient_batches(d: int, k: int, n: int, count: int, rng: RngStream) -> np.ndarray:
    """Batches projected onto the complement of a fresh random k-dim subspace.

    For each of the ``count`` batches, a new uniformly random k-dimensional
    subspace is drawn and the n standard Gaussian rows are projected onto its
    orthogonal complement.  The projector is its own PSD square root, so the
    rows are exact covariance-projector Gaussians.
    """
    x = standard_batches(d, n, count, rng)
    b = random_subspace_basis(d, k, count, rng)  # (count, k, d), orthonormal rows
    return x - (x @ b.transpose(0, 2, 1)) @ b
