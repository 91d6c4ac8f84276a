import inspect
import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    IndexOutOfRangeError,
    InvalidParamsError,
    NotPdError,
    NotPsdError,
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
import precisionlab.conditional as conditional
from precisionlab.conditional import _invert_2x2, _truncated_normals
from precisionlab.parallel import FOLD_ROWS, batch_counts, run_batched
from precisionlab.sampler import random_subspace_basis

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

    @pytest.mark.parametrize("i, j, eps", [(0, 1, 0.2), (1, 2, 0.1)])
    def test_standard_error_is_calibrated_across_seeds(self, i, j, eps):
        # Seeds fixed once; each moment's z-scores over 30 runs should look N(0, 1).
        exact = helpers.alpha_slab_exact_3d(TRIDIAGONAL, i, j, eps)
        z = []
        for seed in range(8100, 8130):
            est = alpha_monte_carlo(TRIDIAGONAL, i, j, eps, 1_000_000, RngStream(seed),
                                    workers=2)
            z.append(((est.values - exact) / est.standard_errors)[[0, 0, 1], [0, 1, 1]])
        z = np.array(z)
        sd = z.std(axis=0, ddof=1)
        assert np.all(np.abs(z.mean(axis=0)) <= 0.6), z
        assert np.all((sd >= 0.6) & (sd <= 1.4)), z

    @pytest.mark.parametrize("eps, trials, seeds", [(0.05, 10_000_000, range(8300, 8400)),
                                                    (2.0, 100_000, range(8400, 8500))])
    def test_standard_error_is_calibrated_at_more_widths(self, eps, trials, seeds):
        # Seeds fixed once: the benchmark's slab (t < 1 rejection) and a wide one
        # (t >= 1); each moment's z-scores over 100 runs should look N(0, 1).
        exact = helpers.alpha_slab_exact_3d(TRIDIAGONAL, 0, 1, eps)
        z = []
        for seed in seeds:
            est = alpha_monte_carlo(TRIDIAGONAL, 0, 1, eps, trials, RngStream(seed), workers=2)
            z.append(((est.values - exact) / est.standard_errors)[[0, 0, 1], [0, 1, 1]])
        z = np.array(z)
        sd = z.std(axis=0, ddof=1)
        assert np.all(np.abs(z.mean(axis=0)) <= 0.6), z.mean(axis=0)
        assert np.all((sd >= 0.6) & (sd <= 1.4)), sd

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
        # About 67,000 passing rows at d = 3 and 44,000 at d = 5: 4 batches each.
        for a, (i, j), eps, trials in ((TRIDIAGONAL, (0, 1), 0.3, 400_000),
                                       (helpers.random_spd(5, seed=5005), (4, 0), 0.8, 200_000)):
            base = alpha_monte_carlo(a, i, j, eps, trials, RngStream(57), workers=1,
                                     min_accepted=100)
            for workers in (2, 4):
                other = alpha_monte_carlo(a, i, j, eps, trials, RngStream(57),
                                          workers=workers, min_accepted=100)
                assert np.array_equal(base.values, other.values)
                assert np.array_equal(base.standard_errors, other.standard_errors)
                assert base.accepted == other.accepted

    def test_no_pass_fails_cleanly(self):
        # The pass count is 0, so the grid has no batches.
        with pytest.raises(TooFewAcceptancesError, match="only 0 acceptances"):
            alpha_monte_carlo(TRIDIAGONAL, 0, 1, 1e-9, 10_000, RngStream(55))

    @pytest.mark.parametrize("min_accepted", [0, 1])
    def test_min_accepted_below_two_rejected(self, min_accepted):
        # One acceptance leaves the standard error undefined (0/0).
        with pytest.raises(InvalidParamsError):
            alpha_monte_carlo(TRIDIAGONAL, 0, 1, 1e-3, 200, RngStream(0),
                              min_accepted=min_accepted)


def _moments(y):
    """Second-moment means of the accepted pairs and their standard errors."""
    prods = np.stack([y[:, 0] ** 2, y[:, 0] * y[:, 1], y[:, 1] ** 2])
    return prods.mean(axis=1), prods.std(axis=1, ddof=1) / math.sqrt(len(y))


def _slab_normals(gen, t, count, capacity):
    """``count`` draws of N(0, 1) on (-t, t), by the sampler's rejection with its
    round sizes: uniform proposals kept when u^2 < 2 Exp(1) for t < 1, else
    normal proposals kept when |u| < t."""
    p = math.erf(t / math.sqrt(2.0))
    q = math.sqrt(math.pi / 2.0) * p / t if t < 1.0 else p
    kept = np.empty(0)
    while len(kept) < count:
        size = min(capacity - len(kept), int(1.02 * (count - len(kept)) / q) + 64)
        if t < 1.0:
            u = gen.random(size) * (2.0 * t) - t
            kept = np.concatenate([kept, u[u * u < 2.0 * gen.standard_exponential(size)]])
        else:
            u = gen.standard_normal(size)
            kept = np.concatenate([kept, u[np.abs(u) < t]])
    return kept[:count]


def _triangular_route(a, i, j, epsilon, trials, rng):
    """``alpha_monte_carlo``'s pass count, batch grid, stream layout and chunks,
    with one ``z @ C.T`` product per chunk (C the Cholesky factor of ``a`` with
    the pair ordered last): one binomial count of the proposals that pass the
    first screen, from a fresh copy of the root stream; those rows split over
    min(32, ceil(passed / rows)) batches, each on its child stream; per chunk of
    a batch's rows, z0 by the same rejection, the later screens' normals, the
    whole screen, then the pair's normals.  The accepted pairs."""
    d = a.shape[0]
    order = [k for k in range(d) if k not in (i, j)] + [i, j]
    c = np.linalg.cholesky(a[np.ix_(order, order)])
    rows = FOLD_ROWS // d
    t = epsilon / c[0, 0] if d > 2 else math.inf
    p0 = math.erf(t / math.sqrt(2.0))
    passed = RngStream(rng.seed, rng.stream_id).gen.binomial(trials, p0) if d > 2 else trials
    parts = []
    for index, count in enumerate(batch_counts(passed, min(32, math.ceil(passed / rows)))):
        gen = rng.child(index).gen
        for start in range(0, count, rows):
            n = min(rows, count - start)
            z = np.empty((n, d - 2))
            if d > 2:
                z[:, 0] = _slab_normals(gen, t, n, rows)
            for k in range(1, d - 2):
                z[:, k] = gen.standard_normal(n)
            z = z[np.all(np.abs(z @ c[: d - 2, : d - 2].T) < epsilon, axis=1)]
            z = np.hstack([z, gen.standard_normal((2, len(z))).T])
            parts.append((z @ c.T)[:, d - 2 :])
    return np.concatenate(parts)


def _symmetric_root_route(a, i, j, epsilon, trials, rng):
    """The former sampler: every proposal draws d normals and forms
    ``z @ sqrt(a)``; the accepted pairs."""
    d = a.shape[0]
    s = sym_sqrt(a)
    others = [k for k in range(d) if k not in (i, j)]
    parts = []
    for index, count in enumerate(batch_counts(trials)):
        y = rng.child(index).gen.standard_normal((count, d)) @ s
        parts.append(y[np.all(np.abs(y[:, others]) < epsilon, axis=1)][:, (i, j)])
    return np.concatenate(parts)


class TestAlphaRoutes:
    """The worker path (elementwise, in blocks) against plain matrix products."""

    @pytest.mark.parametrize("d, i, j", [(2, 0, 1), (3, 1, 2), (3, 2, 0), (5, 4, 0), (6, 0, 1)])
    def test_matches_matrix_product_route(self, d, i, j):
        a = helpers.random_spd(d, seed=5000 + 10 * d + i)
        est = alpha_monte_carlo(a, i, j, 0.8, 200_000, RngStream(58), workers=2,
                                min_accepted=100)
        y = _triangular_route(a, i, j, 0.8, 200_000, RngStream(58))
        values = _moments(y)[0][[0, 1, 1, 2]].reshape(2, 2)
        assert est.accepted == len(y)
        assert np.max(np.abs(est.values - values)) <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("d, i, j, eps, trials", [(3, 0, 1, 3.0, 2_000_000),
                                                      (5, 4, 0, 2.5, 400_000)])
    def test_matches_matrix_product_route_in_wide_slabs(self, d, i, j, eps, trials):
        # t = eps / c00 is 2.6 and 2.0: z0 comes from normal proposals, and at d = 3
        # each of the 32 batches takes about 62,000 passing rows, three chunks with a
        # capped round.
        a = helpers.random_spd(d, seed=5600 + d)
        est = alpha_monte_carlo(a, i, j, eps, trials, RngStream(59), workers=2)
        y = _triangular_route(a, i, j, eps, trials, RngStream(59))
        values = _moments(y)[0][[0, 1, 1, 2]].reshape(2, 2)
        assert est.accepted == len(y)
        assert np.max(np.abs(est.values - values)) <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("d, i, j, eps, trials", [(3, 1, 2, 0.3, 400_000),
                                                      (5, 4, 0, 1.0, 600_000),
                                                      (6, 2, 5, 1.2, 1_000_000)])
    def test_same_law_as_symmetric_root_route(self, d, i, j, eps, trials):
        # Seeds fixed once; the two square roots of A give the same proposal law.
        a = helpers.random_spd(d, seed=5100 + d)
        est = alpha_monte_carlo(a, i, j, eps, trials, RngStream(5200 + d), workers=2)
        means, ses = _moments(_symmetric_root_route(a, i, j, eps, trials, RngStream(5300 + d)))
        new = est.values[[0, 0, 1], [0, 1, 1]]
        new_se = est.standard_errors[[0, 0, 1], [0, 1, 1]]
        assert np.all(np.abs(new - means) < 4 * np.hypot(new_se, ses)), (new, means)


class TestSlabDraws:
    """The thinned sampler's draws against their laws."""

    @pytest.mark.parametrize("t", [0.035, 0.5, 0.99, 1.0, 2.5])
    def test_first_screen_normal_is_truncated_normal(self, t):
        # Seed fixed once; 2e6 draws of z0 on (-t, t), 1e5 per call.
        stats = pytest.importorskip("scipy.stats")
        gen = RngStream(5400).gen
        out, work = np.empty(100_000), np.empty((3, 100_000))
        draws = []
        for _ in range(20):
            _truncated_normals(gen, t, len(out), out, work)
            draws.append(out.copy())
        draws = np.concatenate(draws)
        assert np.all(np.abs(draws) <= t)
        assert stats.kstest(draws, stats.truncnorm(-t, t).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("d, i, j, eps, trials", [(3, 1, 2, 0.3, 400_000),
                                                      (5, 4, 0, 1.0, 600_000),
                                                      (6, 2, 5, 1.2, 1_000_000)])
    def test_accepted_count_matches_symmetric_root_route(self, d, i, j, eps, trials):
        # Seeds fixed once; a two-sample binomial z-test on the accepted counts.
        a = helpers.random_spd(d, seed=5100 + d)
        est = alpha_monte_carlo(a, i, j, eps, trials, RngStream(5200 + d), workers=2)
        other = len(_symmetric_root_route(a, i, j, eps, trials, RngStream(5300 + d)))
        pooled = (est.accepted + other) / (2 * trials)
        z = (est.accepted - other) / math.sqrt(2 * trials * pooled * (1.0 - pooled))
        assert abs(z) < 4, (est.accepted, other)

    @pytest.mark.parametrize("d", [3, 5])
    def test_infinite_slab_accepts_every_proposal(self, d):
        est = alpha_monte_carlo(helpers.random_spd(d, seed=5500 + d), 0, 1, math.inf, 100_000,
                                RngStream(5500 + d))
        assert est.accepted == est.proposals == 100_000
        assert np.all(np.isfinite(est.values))

    def test_pass_count_is_calibrated(self):
        # Seeds fixed once.  At d = 3 no later screen follows, so every pass is accepted;
        # the count's z-scores against Binomial(trials, p0) over 100 runs should look N(0, 1).
        trials, p0 = 200_000, math.erf(0.15)  # t = 0.3 / sqrt(2) on the pair (0, 1)
        z = np.array([(alpha_monte_carlo(TRIDIAGONAL, 0, 1, 0.3, trials, RngStream(seed)).accepted
                       - trials * p0) / math.sqrt(trials * p0 * (1.0 - p0))
                      for seed in range(8500, 8600)])
        assert abs(z.mean()) <= 0.6, z.mean()
        assert 0.6 <= z.std(ddof=1) <= 1.4, z.std(ddof=1)


class TestAlphaGrid:
    """One pass count per call, split over the batch grid a fold of rows per batch."""

    @pytest.mark.parametrize("trials, n_batches", [(400_000, 4), (6_000_000, 32)])
    def test_grid_splits_the_pass_count(self, trials, n_batches, monkeypatch):
        # At d = 3 a fold is 21,845 rows and about 16.8% of proposals pass: 67,000 rows
        # make 4 batches, and 1e6 rows are more than 32 folds, so they fill all 32.
        grids = []

        def spy(*args, **kwargs):
            bound = inspect.signature(run_batched).bind(*args, **kwargs)
            parts = run_batched(*args, **kwargs)
            grids.append((bound.arguments["total"], bound.arguments["n_batches"], len(parts)))
            return parts

        monkeypatch.setattr(conditional, "run_batched", spy)
        for workers in (1, 2, 4):
            est = alpha_monte_carlo(TRIDIAGONAL, 0, 1, 0.3, trials, RngStream(61), workers=workers)
            expected = min(32, math.ceil(est.accepted / (FOLD_ROWS // 3)))
            assert grids[-1] == (est.accepted, expected, expected)
        assert grids[0][1] == n_batches
        assert grids[0] == grids[1] == grids[2]


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
        thetas = uniform_sphere_many(5, 2000, RngStream(62))
        ranks = section_covariance(np.eye(5) - thetas[:, :, None] * thetas[:, None, :]).rank
        assert np.all(ranks == 1)

    def test_random_two_dim_deficiency_gives_rank_zero(self):
        rng = RngStream(63)
        b = np.concatenate([random_subspace_basis(6, 2, 1, rng) for _ in range(200)])
        result = section_covariance(np.eye(6) - b.swapaxes(1, 2) @ b)
        assert np.all(result.rank == 0)
        assert np.all(result.matrix == 0.0)

    def test_shared_axis(self):
        # range(A) = span(e2, e3, e4) in R^4 meets the plane only in span(e2):
        # the section is the unit segment along the second axis.
        result = section_covariance(np.diag([0.0, 1.0, 1.0, 1.0]))
        assert result.rank == 1
        assert np.max(np.abs(result.matrix - np.diag([0.0, 1.0 / 3.0]))) < 1e-12

    def test_small_angle_is_not_shared(self):
        # A = e2 e2' + t t' with t = (1, 0, 1e-5)/|.|: range(A) meets the plane
        # only in span(e2).  t leaves it at 1e-5 rad, where 1 - cos is 5e-11
        # but the sine is 1e-5.
        e2 = np.array([0.0, 1.0, 0.0])
        t = np.array([1.0, 0.0, 1e-5]) / math.hypot(1.0, 1e-5)
        result = section_covariance(np.outer(e2, e2) + np.outer(t, t))
        assert result.rank == 1
        assert np.max(np.abs(result.matrix - np.diag([0.0, 1.0 / 3.0]))) < 1e-10

    def test_tilted_complement(self):
        # theta = (e1 + e3)/sqrt(2); the plane meets its complement in span(e2).
        theta = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        result = section_covariance(projector_complement(theta))
        assert result.rank == 1
        assert np.max(np.abs(result.matrix - np.diag([0.0, 1.0 / 3.0]))) < 1e-12

    def test_contained_plane(self):
        # The plane lies inside range(A), once as all of it and once inside the
        # complement of e3: the unit disk either way.
        for a in (np.diag([1.0, 1.0, 0.0]), projector_complement(np.array([0.0, 0.0, 1.0]))):
            result = section_covariance(a)
            assert result.rank == 2
            assert np.max(np.abs(result.matrix - 0.25 * np.eye(2))) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_range_meets_plane_generically(self, seed):
        # A random k-dim range(A) in R^8 meets the plane in max(k - 6, 0)
        # dimensions almost surely.
        g = np.random.default_rng(seed)
        bases = [np.linalg.qr(g.standard_normal((8, k)))[0] for k in range(3, 9)]
        result = section_covariance(np.array([q @ q.T for q in bases]))
        assert result.rank.tolist() == [0, 0, 0, 0, 1, 2]

    def test_rank_one_on_random_directions_matches_closed_form(self):
        # The section of I - theta theta' is the unit segment along
        # v = (-theta_2, theta_1)/|theta_E|, so its covariance is v v' / 3.
        thetas = uniform_sphere_many(4, 100_000, RngStream(10))
        result = section_covariance(np.eye(4) - thetas[:, :, None] * thetas[:, None, :])
        v = np.stack([-thetas[:, 1], thetas[:, 0]], axis=1)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        assert np.all(result.rank == 1)
        assert np.max(np.abs(result.matrix - v[:, :, None] * v[:, None, :] / 3.0)) < 1e-12

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


def _mixed_sections(d, count, seed):
    """``count`` covariances in dimension d with 0, 1 or 2 null directions in
    a random frame, so section ranks 2, 1 and 0 all occur."""
    g = np.random.default_rng(seed)
    out = []
    for k in range(count):
        q = np.linalg.qr(g.standard_normal((d, d)))[0]
        w = np.concatenate([np.zeros(k % 3), g.uniform(0.5, 2.0, d - k % 3)])
        a = (q * w) @ q.T
        out.append(0.5 * (a + a.T))
    return np.array(out)


class TestStackedSections:
    """A stack of matrices gives, member by member, what one matrix gives."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_stack_matches_single_calls_bit_for_bit(self, d):
        stack = _mixed_sections(d, 30, seed=700 + d)
        result = section_covariance(stack.reshape(5, 6, d, d))
        assert result.matrix.shape == (5, 6, 2, 2)
        singles = [section_covariance(a) for a in stack]
        assert sorted({s.rank for s in singles}) == [0, 1, 2]
        assert all(isinstance(s.rank, int) for s in singles)
        assert result.rank.reshape(-1).tolist() == [s.rank for s in singles]
        expected = np.array([s.matrix for s in singles])
        assert result.matrix.reshape(-1, 2, 2).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("defect, error", [("nan", InvalidParamsError),
                                               ("asymmetric", InvalidParamsError),
                                               ("indefinite", NotPsdError)])
    def test_bad_member_raises_its_own_error(self, defect, error):
        stack = _mixed_sections(4, 6, seed=710)
        bad = stack[3]
        if defect == "nan":
            bad[0, 0] = math.nan
        elif defect == "asymmetric":
            bad[0, 1] += 1e-6
        else:
            bad -= 2.5 * np.eye(4)
        with pytest.raises(error) as single:
            section_covariance(bad)
        with pytest.raises(error) as stacked:
            section_covariance(stack)
        assert str(stacked.value) == str(single.value)

    def test_empty_stack(self):
        result = section_covariance(np.zeros((0, 3, 3)))
        assert result.matrix.shape == (0, 2, 2)
        assert result.rank.shape == (0,)


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
