import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    IndexOutOfRangeError,
    InvalidParamsError,
    NotPdError,
    RngStream,
    SingularBlockError,
    TooFewAcceptancesError,
    alpha_analytic,
    alpha_monte_carlo,
    conditional_covariance_schur,
    kd_constant,
    precision_block,
    projector_complement,
    section_covariance,
    sym_sqrt,
    uniform_sphere_many,
)
from precisionlab import conditional
from precisionlab.conditional import _invert_2x2
from precisionlab.parallel import batch_counts

TRIDIAGONAL = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


class TestPrecisionBlock:
    def test_identity(self):
        assert np.allclose(precision_block(np.eye(4), 0, 1), np.eye(2))

    def test_diagonal(self):
        block = precision_block(np.diag([2.0, 5.0, 10.0]), 0, 1)
        assert np.allclose(block, np.diag([0.5, 0.2]))

    def test_tridiagonal_hand_inverse(self):
        # det = 4; cofactor inverse gives the (1,2) block [[3/4, -1/2], [-1/2, 1]]
        block = precision_block(TRIDIAGONAL, 0, 1)
        assert np.max(np.abs(block - np.array([[0.75, -0.5], [-0.5, 1.0]]))) < 1e-12

    def test_matches_full_inverse_on_seeded_matrices(self):
        for seed in range(5):
            a = helpers.random_spd(7, seed=seed)
            inv = np.linalg.inv(a)
            block = precision_block(a, 2, 5)
            expected = inv[np.ix_([2, 5], [2, 5])]
            assert np.max(np.abs(block - expected)) < 1e-9

    def test_index_errors(self):
        with pytest.raises(IndexOutOfRangeError):
            precision_block(np.eye(3), 0, 3)
        with pytest.raises(IndexOutOfRangeError):
            precision_block(np.eye(3), 1, 1)

    def test_not_pd(self):
        with pytest.raises(NotPdError):
            precision_block(np.diag([1.0, 0.0, 1.0]), 0, 1)


class TestAlphaAnalytic:
    def test_identity(self):
        assert np.allclose(alpha_analytic(np.eye(5), 0, 1).values, np.eye(2))

    def test_tridiagonal(self):
        values = alpha_analytic(TRIDIAGONAL, 0, 1).values
        assert np.max(np.abs(values - np.array([[2.0, 1.0], [1.0, 1.5]]))) < 1e-12

    def test_diagonal_recovers_marginals(self):
        values = alpha_analytic(np.diag([3.0, 7.0, 2.0, 5.0]), 0, 1).values
        assert np.allclose(values, np.diag([3.0, 7.0]))

    def test_two_dimensional_is_covariance_itself(self):
        a = np.array([[2.0, 0.6], [0.6, 1.0]])
        assert np.max(np.abs(alpha_analytic(a, 0, 1).values - a)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_schur_complement(self, seed):
        d = 3 + (seed % 10)
        a = helpers.random_spd(d, seed=1000 + seed)
        lhs = alpha_analytic(a, 0, 1).values
        rhs = conditional_covariance_schur(a, 0, 1)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-9

    def test_singular_block_helper(self):
        with pytest.raises(SingularBlockError):
            _invert_2x2(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestAlphaMonteCarlo:
    def test_identity_conditioning_is_vacuous_in_law(self):
        est = alpha_monte_carlo(np.eye(3), 0, 1, epsilon=0.05, trials=300_000,
                                rng=RngStream(51))
        dev = np.abs(est.values - np.eye(2))
        assert np.all(dev < 5 * est.standard_errors + 0.05**2)

    def test_tridiagonal_against_exact_slab_oracle(self):
        eps = 0.2
        est = alpha_monte_carlo(TRIDIAGONAL, 0, 1, epsilon=eps, trials=400_000,
                                rng=RngStream(52))
        exact = helpers.alpha_slab_exact_3d(TRIDIAGONAL, 0, 1, eps)
        assert np.all(np.abs(est.values - exact) < 5 * est.standard_errors)

    def test_widely_scaled_third_coordinate(self):
        est = alpha_monte_carlo(np.diag([1.0, 1.0, 9.0]), 0, 1, epsilon=0.15,
                                trials=300_000, rng=RngStream(53))
        dev = np.abs(est.values - np.eye(2))
        assert np.all(dev < 5 * est.standard_errors + 0.15**2)

    def test_bias_of_exact_slab_shrinks_monotonically(self):
        # The exact finite-slab value converges to the limit quadratically,
        # so its deviation must shrink along a decreasing epsilon grid.
        limit = alpha_analytic(TRIDIAGONAL, 0, 1).values
        deviations = []
        for eps in (0.2, 0.1, 0.05):
            exact = helpers.alpha_slab_exact_3d(TRIDIAGONAL, 0, 1, eps)
            deviations.append(float(np.max(np.abs(exact - limit))))
        assert deviations[0] > deviations[1] > deviations[2] > 0.0

    def test_acceptance_rate_reported(self):
        est = alpha_monte_carlo(TRIDIAGONAL, 0, 1, epsilon=0.3, trials=100_000,
                                rng=RngStream(54))
        assert est.proposals == 100_000
        assert 0.0 < est.acceptance_rate < 1.0
        assert est.accepted == round(est.acceptance_rate * est.proposals)

    def test_too_few_acceptances(self):
        with pytest.raises(TooFewAcceptancesError):
            alpha_monte_carlo(TRIDIAGONAL, 0, 1, epsilon=1e-4, trials=20_000,
                              rng=RngStream(55))

    def test_dimension_cap(self):
        with pytest.raises(InvalidParamsError):
            alpha_monte_carlo(np.eye(7), 0, 1, epsilon=0.1, trials=1000,
                              rng=RngStream(0))

    def test_determinism(self):
        a = alpha_monte_carlo(TRIDIAGONAL, 0, 1, 0.3, 50_000, RngStream(56)).values
        b = alpha_monte_carlo(TRIDIAGONAL, 0, 1, 0.3, 50_000, RngStream(56)).values
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_result(self):
        for a, (i, j), eps in ((TRIDIAGONAL, (0, 1), 0.3),
                               (helpers.random_spd(5, seed=5005), (4, 0), 0.8)):
            base = alpha_monte_carlo(a, i, j, eps, 50_000, RngStream(57), workers=1,
                                     min_accepted=100)
            for workers in (2, 4):
                other = alpha_monte_carlo(a, i, j, eps, 50_000, RngStream(57),
                                          workers=workers, min_accepted=100)
                assert np.array_equal(base.values, other.values)
                assert np.array_equal(base.standard_errors, other.standard_errors)
                assert base.accepted == other.accepted

    @pytest.mark.parametrize("min_accepted", [0, 1])
    def test_min_accepted_below_two_rejected(self, min_accepted):
        # One acceptance leaves the standard error undefined (0/0).
        with pytest.raises(InvalidParamsError):
            alpha_monte_carlo(TRIDIAGONAL, 0, 1, 1e-3, 200, RngStream(0),
                              min_accepted=min_accepted)


def _product_route(a, i, j, epsilon, trials, rng):
    """``alpha_monte_carlo``'s batch grid and draws, with one ``z @ sqrt(a)``
    product per batch: the moment means and the accepted count."""
    d = a.shape[0]
    s = sym_sqrt(a)
    others = [k for k in range(d) if k not in (i, j)]
    parts = []
    for index, count in enumerate(batch_counts(trials)):
        y = rng.child(index).gen.standard_normal((count, d)) @ s
        parts.append(y[np.all(np.abs(y[:, others]) < epsilon, axis=1)][:, (i, j)])
    y = np.concatenate(parts)
    return np.array([[np.mean(y[:, 0] ** 2), np.mean(y[:, 0] * y[:, 1])],
                     [np.mean(y[:, 0] * y[:, 1]), np.mean(y[:, 1] ** 2)]]), len(y)


class TestAlphaRoutes:
    """The worker path (elementwise, chunked) against the plain matrix product."""

    @pytest.mark.parametrize("d, i, j", [(2, 0, 1), (3, 1, 2), (3, 2, 0), (5, 4, 0), (6, 0, 1)])
    def test_matches_matrix_product_route(self, d, i, j):
        a = helpers.random_spd(d, seed=5000 + 10 * d + i)
        est = alpha_monte_carlo(a, i, j, 0.8, 200_000, RngStream(58), workers=2,
                                min_accepted=100)
        values, accepted = _product_route(a, i, j, 0.8, 200_000, RngStream(58))
        assert est.accepted == accepted
        assert np.max(np.abs(est.values - values)) <= 1e-12 * np.max(np.abs(values))

    def test_chunk_size_does_not_change_estimate(self, monkeypatch):
        a = helpers.random_spd(5, seed=5005)
        # 300,000 proposals make batches of 9,375 rows: one default chunk each,
        # or nine chunks of 1,000 and a partial one.
        default = alpha_monte_carlo(a, 4, 0, 0.6, 300_000, RngStream(59))
        monkeypatch.setattr(conditional, "_CHUNK_ROWS", 1000)
        chunked = alpha_monte_carlo(a, 4, 0, 0.6, 300_000, RngStream(59))
        assert np.array_equal(default.values, chunked.values)
        assert np.array_equal(default.standard_errors, chunked.standard_errors)
        assert default.accepted == chunked.accepted


class TestSectionCovariance:
    def test_identity_gives_quarter_disk_covariance(self):
        result = section_covariance(np.eye(4))
        assert result.rank == 2
        assert np.max(np.abs(result.matrix - 0.25 * np.eye(2))) < 1e-12

    def test_identity_matches_disk_rejection_oracle(self):
        result = section_covariance(np.eye(3))
        mc, accepted = helpers.section_disk_mc(np.eye(3), trials=400_000, seed=61)
        se = 1.0 / math.sqrt(accepted)  # crude but conservative scale for 2nd moments in [-1,1]
        assert np.max(np.abs(result.matrix - mc)) < 5 * se

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_axis_projector_gives_segment(self, d):
        e1 = np.zeros(d)
        e1[0] = 1.0
        result = section_covariance(projector_complement(e1))
        assert result.rank == 1
        expected = np.diag([0.0, 1.0 / 3.0])
        assert np.max(np.abs(result.matrix - expected)) < 1e-10

    def test_plane_killing_projector_gives_zero(self):
        d = 5
        a = np.diag([0.0, 0.0, 1.0, 1.0, 1.0])
        result = section_covariance(a)
        assert result.rank == 0
        assert np.all(result.matrix == 0.0)

    def test_direction_in_plane_complement_keeps_rank_two(self):
        d = 5
        theta = np.zeros(d)
        theta[4] = 1.0
        result = section_covariance(projector_complement(theta))
        assert result.rank == 2
        # The section is the full unit disk: covariance eye/4.
        assert np.max(np.abs(result.matrix - 0.25 * np.eye(2))) < 1e-10

    def test_random_directions_give_rank_one(self):
        for theta in uniform_sphere_many(5, 2000, RngStream(62)):
            assert section_covariance(projector_complement(theta)).rank == 1

    def test_random_two_dim_deficiency_gives_rank_zero(self):
        rng = RngStream(63)
        from precisionlab.sampler import random_subspace_basis

        for _ in range(200):
            b = random_subspace_basis(6, 2, 1, rng)[0]
            a = np.eye(6) - b.T @ b
            assert section_covariance(a).rank == 0

    def test_rank_one_tilted_in_plane(self):
        # A = w w' with w = (2, 1, 0): the section is the segment t * w/|w|
        # for t^2 <= 5, so the covariance is (5/3) * outer(w, w) / 5.
        w = np.array([2.0, 1.0, 0.0])
        result = section_covariance(np.outer(w, w))
        assert result.rank == 1
        expected = np.array([[4.0, 2.0], [2.0, 1.0]]) / 3.0
        assert np.max(np.abs(result.matrix - expected)) < 1e-12

    def test_tilted_segment_length(self):
        # Covariance diag(4, 1, ...) scales the section to an ellipse; a
        # projector composed on top still reduces rank through the plane.
        a = np.diag([4.0, 1.0, 1.0])
        result = section_covariance(a)
        assert result.rank == 2
        assert np.max(np.abs(result.matrix - np.diag([1.0, 0.25]))) < 1e-12

    @pytest.mark.parametrize("s", [1e9, 1e11, 1e13])
    def test_ill_conditioned_full_rank_is_an_ellipse(self, s):
        # The rank cutoff follows eigh rounding, not a fixed fraction of the
        # largest eigenvalue, so a stretched disk stays a disk.
        result = section_covariance(np.diag([s, 1.0, 1.0]))
        assert result.rank == 2
        assert np.allclose(result.matrix, np.diag([s / 4.0, 0.25]), rtol=1e-12, atol=0.0)

    def test_rejects_dimension_one(self):
        with pytest.raises(InvalidParamsError):
            section_covariance(np.array([[1.0]]))


class TestKdConstant:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_value_is_four(self, d):
        assert kd_constant(d) == 4.0

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_proportionality_on_seeded_matrices(self, d):
        k = kd_constant(d)
        for seed in range(5):
            a = helpers.random_spd(d, seed=3000 + 10 * d + seed)
            alpha = alpha_analytic(a, 0, 1).values
            section = section_covariance(a).matrix
            assert np.max(np.abs(k * section - alpha)) < 1e-9 * max(1.0, np.max(np.abs(alpha)))

    def test_ratio_constant_across_matrices(self):
        d = 6
        ratios = []
        for seed in range(5):
            a = helpers.random_spd(d, seed=4000 + seed)
            alpha = alpha_analytic(a, 0, 1).values
            section = section_covariance(a).matrix
            ratios.append(alpha[0, 0] / section[0, 0])
        assert max(ratios) - min(ratios) < 1e-9 * max(ratios)

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidParamsError):
            kd_constant(2)
