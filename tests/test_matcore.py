import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    BasisNotOrthonormalError,
    InvalidParamsError,
    NotPdError,
    NotPsdError,
    NotUnitVectorError,
    cholesky_logdet,
    projector_complement,
    psd_eigh,
    subspace_intersection_dim,
    sym_sqrt,
)
from precisionlab.matcore import check_symmetric


class TestSymSqrt:
    def test_identity(self):
        assert np.allclose(sym_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_multiply_back_seeded_spd(self):
        a = helpers.random_spd(5, seed=11)
        s = sym_sqrt(a)
        assert np.max(np.abs(s @ s - a)) < 1e-10
        assert np.allclose(s, s.T)

    @pytest.mark.parametrize("d,seed", [(2, 0), (10, 1), (25, 2), (50, 3)])
    def test_square_recovers_input_relative(self, d, seed):
        a = helpers.random_spd(d, seed=seed, jitter=0.1)
        s = sym_sqrt(a)
        err = np.linalg.norm(s @ s - a) / np.linalg.norm(a)
        assert err < 1e-9
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            sym_sqrt(np.diag([1.0, -1.0]))

    def test_clamps_rounding_noise(self):
        a = np.diag([1.0, -1e-14])
        s = sym_sqrt(a)
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-7)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestCholeskyLogdet:
    def test_identity(self):
        factor, logdet = cholesky_logdet(np.eye(4))
        assert np.allclose(factor, np.eye(4))
        assert logdet == 0.0

    def test_diagonal(self):
        assert math.isclose(cholesky_logdet(np.diag([2.0, 8.0])).logdet, math.log(16.0),
                            rel_tol=1e-12)

    def test_factor_reconstructs(self):
        a = helpers.random_spd(4, seed=21)
        factor, _ = cholesky_logdet(a)
        assert np.allclose(factor @ factor.T, a, atol=1e-12)

    def test_against_cofactor_expansion(self):
        a = helpers.random_spd(6, seed=7)
        logdet = cholesky_logdet(a).logdet
        reference = helpers.cofactor_det(a)
        assert math.isclose(math.exp(logdet), reference, rel_tol=1e-9)

    @pytest.mark.parametrize("d,seed", [(3, 5), (6, 6), (9, 8)])
    def test_matches_eigenvalue_product(self, d, seed):
        a = helpers.random_spd(d, seed=seed)
        logdet = cholesky_logdet(a).logdet
        assert math.isclose(logdet, float(np.sum(np.log(np.linalg.eigvalsh(a)))),
                            rel_tol=1e-9)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPdError):
            cholesky_logdet(np.diag([1.0, 0.0]))
        with pytest.raises(NotPdError):
            cholesky_logdet(np.diag([1.0, -2.0]))


class TestProjectorComplement:
    def test_axis_direction(self):
        assert np.allclose(projector_complement(np.array([1.0, 0.0, 0.0])),
                           np.diag([0.0, 1.0, 1.0]))

    def test_diagonal_direction(self):
        theta = np.array([1.0, 1.0]) / math.sqrt(2.0)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.max(np.abs(projector_complement(theta) - expected)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_projector_identities(self, seed):
        v = np.random.default_rng(seed).standard_normal(7)
        theta = v / np.linalg.norm(v)
        p = projector_complement(theta)
        assert np.max(np.abs(p @ theta)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_eigenvalue_multiplicities(self):
        v = np.random.default_rng(3).standard_normal(6)
        p = projector_complement(v / np.linalg.norm(v))
        eigs = np.sort(np.linalg.eigvalsh(p))
        assert abs(eigs[0]) < 1e-12
        assert np.max(np.abs(eigs[1:] - 1.0)) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitVectorError):
            projector_complement(np.array([1.0, 1.0]))


class TestSubspaceIntersectionDim:
    def test_shared_axis(self):
        e = np.eye(4)
        assert subspace_intersection_dim(e[:2], e[1:4]) == 1

    def test_contained_plane(self):
        # The plane of the first two axes sits inside the complement of e3.
        e = np.eye(3)
        assert subspace_intersection_dim(e[:2], e[:2]) == 2
        v = np.random.default_rng(1).standard_normal(3)
        theta = np.array([0.0, 0.0, 1.0])
        comp = np.linalg.svd(projector_complement(theta))[0][:, :2].T
        assert subspace_intersection_dim(e[:2], comp) == 2

    def test_tilted_complement(self):
        # theta = (e1 + e3)/sqrt(2); the plane meets its complement in span(e2).
        theta = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        p = projector_complement(theta)
        w, v = np.linalg.eigh(p)
        basis = v[:, w > 0.5].T
        e = np.eye(3)
        assert subspace_intersection_dim(e[:2], basis) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((8, 3)))[0].T
        v = np.linalg.qr(rng.standard_normal((8, 5)))[0].T
        lhs = subspace_intersection_dim(u, v)
        assert lhs == subspace_intersection_dim(v, u)
        assert 0 <= lhs <= 3

    def test_small_angle_is_not_shared(self):
        # At 1e-5 rad, 1 - cos is 5e-11 while the sine is 1e-5.
        e = np.eye(3)
        tilted = np.array([[1.0, 0.0, 1e-5]]) / math.hypot(1.0, 1e-5)
        assert subspace_intersection_dim(tilted, e[:1]) == 0
        assert subspace_intersection_dim(e[:2], np.vstack([e[1], tilted])) == 1

    def test_rejects_non_orthonormal(self):
        with pytest.raises(BasisNotOrthonormalError):
            subspace_intersection_dim(np.array([[1.0, 1.0, 0.0]]), np.eye(3)[:1])


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejected_by_every_primitive(self, value):
        a = np.diag([1.0, 1.0, value])
        for fn in (check_symmetric, psd_eigh, cholesky_logdet, sym_sqrt):
            with pytest.raises(InvalidParamsError):
                fn(a)

    def test_entries_near_float_max_stay_finite(self):
        a = np.array([[1.5e308, 1.0], [1.0 + 1e-15, 1.0]])
        m = check_symmetric(a)
        assert m[0, 0] == 1.5e308
        assert m[0, 1] == m[1, 0] == 0.5 + 0.5 * (1.0 + 1e-15)


class TestPsdCertificate:
    """``psd_eigh`` is the one PSD certificate: it clamps the rounding band and rejects the rest."""

    def test_certifies_psd(self):
        w, v = psd_eigh(np.diag([2.0, 0.0]))
        assert w[0] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose((v * w) @ v.T, np.diag([2.0, 0.0]), atol=1e-14)
        assert psd_eigh(np.diag([1.0, -1e-14]))[0][0] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_eigh(np.diag([1.0, -0.5]))
