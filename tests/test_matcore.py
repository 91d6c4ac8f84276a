import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    Ensemble,
    InvalidParamsError,
    NotPdError,
    NotPsdError,
    NotUnitVectorError,
    RngStream,
    alpha_analytic,
    alpha_monte_carlo,
    cholesky_logdet,
    conditional_covariance_schur,
    log_density,
    precision_block,
    projector_complement,
    psd_eigh,
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

    def test_rejects_singular_matrix_that_factors_with_a_tiny_pivot(self):
        # Rank 2 in exact arithmetic; rounding may leave the last Cholesky
        # pivot near 1e-8 instead of zero, and the factor must not be trusted.
        b = np.array([[2.7, 0.1], [2.9, -2.5], [0.6, -0.7]])
        with pytest.raises(NotPdError):
            cholesky_logdet(b @ b.T)


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


class TestMalformedInput:
    @pytest.mark.parametrize("a", [np.zeros((2, 3)), np.zeros((0, 0)),
                                   np.array([[1.0, 0.5], [0.0, 1.0]])])
    def test_check_symmetric_raises_typed_error(self, a):
        with pytest.raises(InvalidParamsError):
            check_symmetric(a)

    @pytest.mark.parametrize("a", [np.array([[1.0, 0.5], [0.0, 1.0]]),
                                   np.array([[1.0, 1e-11], [0.0, 1.0]]),
                                   np.array([[1.0, 1e-13], [0.0, 1.0]]),
                                   np.diag([3.0, 1.0, 2.0]) + np.triu(np.full((3, 3), 4e-12), 1),
                                   helpers.random_spd(4, seed=3)])
    def test_symmetry_tolerance_is_relative_at_every_scale(self, a):
        # Below unit scale the tolerance must not turn absolute: whatever is
        # refused at scale 1 is refused at scale 1e-13, and only that.
        def refused(m):
            try:
                check_symmetric(m)
            except InvalidParamsError:
                return True
            return False

        assert refused(1e-13 * a) == refused(a)

    def test_zero_matrix_is_symmetric(self):
        assert np.array_equal(check_symmetric(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_one_matrix_entry_points_refuse_a_stack(self):
        stack = np.stack([np.eye(3), helpers.random_spd(3, seed=4)])
        calls = [lambda: alpha_analytic(stack, 0, 1),
                 lambda: precision_block(stack, 0, 2),
                 lambda: conditional_covariance_schur(stack, 0, 1),
                 lambda: alpha_monte_carlo(stack, 0, 2, 0.5, 1000, RngStream(0)),
                 lambda: cholesky_logdet(stack),
                 lambda: sym_sqrt(stack),
                 lambda: log_density((3, 5), stack),
                 lambda: Ensemble.explicit(stack)]
        for call in calls:
            with pytest.raises(InvalidParamsError):
                call()


class TestStacks:
    """check_symmetric and psd_eigh judge each matrix of a stack by its own scale."""

    def test_check_symmetric_applies_each_matrix_scale(self):
        # 1e-9 of asymmetry is within tolerance next to 1e4, not next to 1.
        big = np.array([[1e4, 1e-9], [0.0, 1.0]])
        assert check_symmetric(np.stack([big, np.eye(2)])).shape == (2, 2, 2)
        with pytest.raises(InvalidParamsError):
            check_symmetric(np.stack([big, np.eye(2) + np.triu(np.full((2, 2), 1e-9), 1)]))

    def test_psd_eigh_matches_single_calls(self):
        stack = np.stack([helpers.random_spd(4, seed=s) for s in range(5)]
                         + [np.diag([1.0, -1e-14, 2.0, 0.0])])
        w, v = psd_eigh(stack)
        for k, a in enumerate(stack):
            ws, vs = psd_eigh(a)
            assert w[k].tobytes() == ws.tobytes() and v[k].tobytes() == vs.tobytes()

    def test_psd_eigh_clamps_each_matrix_by_its_own_scale(self):
        # -1e-6 is rounding noise next to 1e6 but indefinite next to 1.
        small = np.diag([1.0, -1e-6])
        assert psd_eigh(np.stack([np.diag([1e6, -1e-6]), np.eye(2)]))[0][0, 0] == 0.0
        with pytest.raises(NotPsdError):
            psd_eigh(np.stack([np.diag([1e6, 1.0]), small]))


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
