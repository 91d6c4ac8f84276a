import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    Ensemble,
    InvalidParamsError,
    NotPdError,
    RngStream,
    WishartParams,
    det_moments,
    det_moments_exact,
    gram_many,
    log_density,
    log_normalizer,
    wishart_samples,
)
from precisionlab.wishart import (log_det_moment, logdet_samples, logdet_trace_many,
                                  sqrt_det_factors, trace_samples)


class TestGram:
    def test_orthonormal_rows(self):
        assert np.allclose(gram_many(np.eye(3)[None, :2]), np.eye(2))

    def test_single_vector(self):
        v = np.array([[[1.0, 2.0, 2.0]]])
        assert np.allclose(gram_many(v), [[[9.0]]])

    def test_rejects_empty(self):
        # A bare (count, dim) array is not a stack of batches.
        with pytest.raises(InvalidParamsError):
            gram_many(np.zeros((0, 3)))

    def test_trace_moment(self):
        n, d, count = 3, 8, 200_000
        x = RngStream(1).gen.standard_normal((count, n, d))
        traces = np.trace(gram_many(x), axis1=-2, axis2=-1)
        m, se = helpers.mean_se(traces)
        assert abs(m - n * d) < 5 * se  # sum of n*d squared normals


class TestLogNormalizer:
    def test_smallest_case(self):
        assert math.isclose(log_normalizer((1, 2)), math.log(2.0), rel_tol=1e-14)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_chi_square_normalizer(self, p):
        expected = 0.5 * p * math.log(2.0) + math.lgamma(0.5 * p)
        assert math.isclose(log_normalizer((1, p)), expected, rel_tol=1e-14)

    def test_two_by_two_term_by_term(self):
        expected = 3.0 * math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(1.5)
        assert math.isclose(log_normalizer((2, 3)), expected, rel_tol=1e-14)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParamsError):
            log_normalizer((3, 2))
        with pytest.raises(InvalidParamsError):
            log_normalizer((0, 2))


class TestLogDensity:
    def test_chi_square_two_dof(self):
        # dof 2 density is exp(-a/2)/2
        value = log_density((1, 2), np.array([[2.0]]))
        assert math.isclose(value, -1.0 - math.log(2.0), rel_tol=1e-12)

    def test_chi_square_four_dof(self):
        # dof 4 density is a exp(-a/2)/4; at a = 2 this equals exp(-1)/2
        value = log_density((1, 4), np.array([[2.0]]))
        assert math.isclose(value, -1.0 - math.log(2.0), rel_tol=1e-12)

    @pytest.mark.parametrize("p", [3, 5, 9])
    def test_identity_point(self, p):
        value = log_density((2, p), np.eye(2))
        assert math.isclose(value, -1.0 - log_normalizer((2, p)), rel_tol=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(NotPdError):
            log_density((2, 4), np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParamsError):
            log_density((3, 5), np.eye(2))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_normalization_one_dim(self, p):
        # Integrate the density over the cone (the positive axis) in the
        # square-root coordinate, where the integrand is smooth.
        def integrand(u):
            return math.exp(log_density((1, p), np.array([[u * u]]))) * 2.0 * u

        total = helpers.gauss_legendre_integral(integrand, 1e-8, math.sqrt(80.0), nodes=400)
        assert abs(total - 1.0) < 1e-3

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_normalization_two_dim(self, p):
        # Cone coordinates (g11, g22, g12) with g12 = sqrt(g11 g22) sin(s);
        # substituting g11 = u^2, g22 = v^2 keeps every factor smooth.  The
        # quadrature pins the reference measure: plain Lebesgue on the three
        # free entries of the symmetric matrix.
        nodes = 24
        x, w = np.polynomial.legendre.leggauss(nodes)
        upper = math.sqrt(70.0)
        u = 0.5 * (x + 1.0) * upper
        wu = 0.5 * upper * w
        s = 0.5 * x * math.pi
        ws = 0.5 * math.pi * w
        total = 0.0
        for ui, wui in zip(u, wu):
            for vi, wvi in zip(u, wu):
                r = ui * vi
                for si, wsi in zip(s, ws):
                    g12 = r * math.sin(si)
                    g = np.array([[ui * ui, g12], [g12, vi * vi]])
                    try:
                        ld = log_density((2, p), g)
                    except NotPdError:
                        continue
                    jac = (2.0 * ui) * (2.0 * vi) * r * math.cos(si)
                    total += wui * wvi * wsi * math.exp(ld) * jac
        assert abs(total - 1.0) < 1e-3


class TestDetMoments:
    @pytest.mark.parametrize("p", [1, 2, 5, 9])
    def test_chi_square_case_exact(self, p):
        moments = det_moments((1, p))
        assert moments.mean == float(p)
        assert moments.variance == float(2 * p)

    def test_two_by_four(self):
        assert det_moments((2, 4)) == (12.0, 216.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_square_case_mean_is_factorial(self, p):
        assert det_moments((p, p)).mean == float(math.factorial(p))

    def test_exact_integers(self):
        mean, variance = det_moments_exact((2, 4))
        assert (mean, variance) == (12, 216)
        mean, variance = det_moments_exact((119, 120))
        assert mean == math.factorial(120) // 1
        assert variance > 0

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParamsError):
            det_moments((5, 4))

    @pytest.mark.parametrize("n,p", [(1, 1), (1, 5), (2, 7), (3, 29), (5, 12), (9, 30)])
    def test_log_moment_matches_integer_moments(self, n, p):
        mean, variance = det_moments_exact((n, p))
        for s, exact in ((1, mean), (2, variance + mean * mean)):
            assert abs(log_det_moment((n, p), s) - math.log(exact)) <= 1e-13, (n, p, s)

    @pytest.mark.parametrize("n,p", [(1, 1), (2, 7), (3, 29), (9, 30), (299, 299)])
    def test_log_moment_matches_multivariate_gamma(self, n, p):
        # E det^s = 2^(ns) Gamma_n(p/2 + s) / Gamma_n(p/2) (Muirhead, Thm 3.2.15).
        special = pytest.importorskip("scipy.special")
        for s in (0.25, 0.5, 0.75):
            expected = (n * s * math.log(2.0) + special.multigammaln(0.5 * p + s, n)
                        - special.multigammaln(0.5 * p, n))
            assert log_det_moment((n, p), s) == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestWishartSampling:
    def test_determinism(self):
        a = wishart_samples((2, 5), 1, RngStream(3))[0]
        b = wishart_samples((2, 5), 1, RngStream(3))[0]
        assert np.array_equal(a, b)

    def test_samples_are_psd(self):
        g = wishart_samples((3, 7), 50, RngStream(4))
        for sample in g:
            eigs = np.linalg.eigvalsh(sample)
            assert eigs[0] > -1e-10 * max(eigs[-1], 1.0)

    def test_chi_square_three_dof_moments(self):
        g = wishart_samples((1, 3), 200_000, RngStream(5))[:, 0, 0]
        m, se = helpers.mean_se(g)
        assert abs(m - 3.0) < 5 * se
        v, se = helpers.var_se(g)
        assert abs(v - 6.0) < 5 * se

    def test_det_moments_two_by_four(self):
        dets = np.linalg.det(wishart_samples((2, 4), 300_000, RngStream(6)))
        m, se = helpers.mean_se(dets)
        assert abs(m - 12.0) < 5 * se
        v, se = helpers.var_se(dets)
        assert abs(v - 216.0) < 5 * se

    def test_det_moments_full_grid(self):
        # Formula-versus-sampling agreement over the whole small-parameter box.
        for n in range(1, 5):
            for p in range(n, 13):
                moments = det_moments((n, p))
                dets = np.linalg.det(
                    wishart_samples((n, p), 200_000, RngStream(100 + 100 * n + p))
                )
                m, se = helpers.mean_se(dets)
                assert abs(m - moments.mean) < 5 * se, (n, p)
                v, se = helpers.var_se(dets)
                assert abs(v - moments.variance) < 5 * se, (n, p)

    def test_importance_identity_across_one_dof(self):
        # The density ratio between adjacent degrees of freedom integrates
        # to one against the lower law.
        n, p, count = 2, 5, 300_000
        g = wishart_samples((n, p - 1), count, RngStream(7))
        _, logdet = np.linalg.slogdet(g)
        ratio = np.exp(0.5 * logdet + log_normalizer((n, p - 1)) - log_normalizer((n, p)))
        m, se = helpers.mean_se(ratio)
        assert abs(m - 1.0) < 5 * se

    def test_params_named_tuple(self):
        params = WishartParams(2, 6)
        assert params.n == 2 and params.p == 6
        assert np.array_equal(
            wishart_samples(params, 1, RngStream(9))[0],
            wishart_samples((2, 6), 1, RngStream(9))[0],
        )


class TestBartlettRoute:
    """``logdet_samples`` against the Gram construction it replaces in the TV estimators."""

    DRAWS = 200_000
    CHUNK = 20_000  # keeps the Gram route's (chunk, n, p) normals small

    def _gram_logdets(self, n, p, rng):
        parts = [logdet_trace_many(wishart_samples((n, p), self.CHUNK, rng))[0]
                 for _ in range(self.DRAWS // self.CHUNK)]
        return np.concatenate(parts)

    # (2, 2) pairs chi2_2 with chi2_1 (one Gamma(1) draw); (29, 29) ends on an
    # unpaired chi2_1.
    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 29), (3, 30), (4, 30), (9, 30),
                                     (29, 29)])
    def test_agrees_with_gram_route(self, n, p):
        bartlett = logdet_samples((n, p), self.DRAWS, RngStream(8000 + 100 * n + p))
        gram = self._gram_logdets(n, p, RngStream(8500 + 100 * n + p))
        assert bartlett.shape == (self.DRAWS,)
        for stat in (helpers.mean_se, helpers.var_se):
            (a, se_a), (b, se_b) = stat(bartlett), stat(gram)
            assert abs(a - b) < 5 * math.hypot(se_a, se_b), (stat.__name__, n, p)
        m, se = helpers.mean_se(np.exp(bartlett))
        assert abs(m - det_moments_exact((n, p))[0]) < 5 * se, (n, p)

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 59), (3, 29), (3, 30), (4, 30),
                                     (9, 30), (29, 29)])
    def test_exact_log_moments(self, n, p):
        # E log det W(n, p) = sum_i psi((p-i)/2) + n log 2 and its variance is
        # sum_i psi'((p-i)/2); a gamma shape off by one moves the mean by
        # about 80 standard errors at this size.
        special = pytest.importorskip("scipy.special")
        halves = 0.5 * (p - np.arange(n))
        exact = (float(np.sum(special.digamma(halves))) + n * math.log(2.0),
                 float(np.sum(special.polygamma(1, halves))))
        draws = logdet_samples((n, p), self.DRAWS, RngStream(7000 + 100 * n + p))
        for stat, value in zip((helpers.mean_se, helpers.var_se), exact):
            estimate, se = stat(draws)
            assert abs(estimate - value) < 5 * se, (stat.__name__, n, p)

    # At (299, 300) the log route itself rounds: its 150 logs sum to about
    # 1,700 in order, which moves exp(logdet / 2) by up to 1.1e-12 over these
    # draws (on 2,000 of them the product is within 1.4e-13 of a math.fsum of
    # the same logs).
    @pytest.mark.parametrize("n,d,rtol", [(1, 2, 1e-12), (3, 30, 1e-12), (9, 30, 1e-12),
                                          (299, 300, 2e-12)])
    def test_sqrt_det_route_matches_exp_of_logdet(self, n, d, rtol):
        # The forward TV ratio both ways from one stream, as the product a * b of its two
        # factors.  At (299, 300) the product of the unscaled gammas is about e^703 and
        # reaches e^708.4 on these draws, next to the edge of the double range (e^709.8);
        # pytest makes an overflow's RuntimeWarning an error.
        log_ratio = log_normalizer((n, d - 1)) - log_normalizer((n, d))
        a, b = sqrt_det_factors((n, d - 1), 20_000, RngStream(13), log_ratio)
        reference = np.exp(0.5 * logdet_samples((n, d - 1), 20_000, RngStream(13)) + log_ratio)
        assert a.shape == b.shape == (20_000,)
        assert np.max(np.abs(a * b / reference - 1.0)) <= rtol

    @pytest.mark.parametrize("p", [2, 30, 59])
    def test_one_row_is_log_chisquare_bitwise(self, p):
        expected = np.log(RngStream(12).gen.chisquare(p, 1000))
        assert np.array_equal(logdet_samples((1, p), 1000, RngStream(12)), expected)

    def test_determinism_and_validation(self):
        a = logdet_samples((3, 30), 1000, RngStream(11))
        assert np.array_equal(a, logdet_samples((3, 30), 1000, RngStream(11)))
        with pytest.raises(InvalidParamsError):
            logdet_samples((3, 2), 10, RngStream(0))
        with pytest.raises(InvalidParamsError):
            logdet_samples((1, 2), 0, RngStream(0))


class TestStatisticRoute:
    """``logdet_samples`` and ``trace_samples``, each against the Gram statistics of sampled
    batches: the game oracle."""

    DRAWS = 200_000
    CHUNK = 20_000  # keeps the sample route's (chunk, n, p) normals small

    def _gram_stats(self, n, p, rng):
        ensemble = Ensemble.full_rank(p)
        parts = [logdet_trace_many(gram_many(ensemble.sample_many(n, self.CHUNK, rng)))
                 for _ in range(self.DRAWS // self.CHUNK)]
        return [np.concatenate(stat) for stat in zip(*parts)]

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 59), (3, 29), (3, 30)])
    def test_agrees_with_gram_route(self, n, p):
        seed = 9000 + 100 * n + p
        rng = RngStream(seed)
        direct = [draw((n, p), self.DRAWS, rng) for draw in (logdet_samples, trace_samples)]
        gram = self._gram_stats(n, p, RngStream(seed + 500))
        for name, a, b in zip(("logdet", "trace"), direct, gram):
            assert a.shape == (self.DRAWS,)
            assert max(helpers.moment_gaps(a, b)) < 5, (name, n, p)
        # The trace is the sum of n*p squared standard normals: chi2_{np}.
        trace = direct[1]
        for (value, se), exact in ((helpers.mean_se(trace), n * p),
                                   (helpers.var_se(trace), 2 * n * p)):
            assert abs(value - exact) < 5 * se, (n, p)

    def test_trace_is_chisquare_bitwise(self):
        expected = RngStream(14).gen.chisquare(90, 1000)
        out = np.empty((1, 1000))
        got = trace_samples((3, 30), 1000, RngStream(14), out=out)
        assert np.array_equal(got, expected)
        assert np.shares_memory(got, out)

    def test_determinism_and_validation(self):
        a = trace_samples((3, 30), 1000, RngStream(13))
        assert np.array_equal(a, trace_samples((3, 30), 1000, RngStream(13)))
        with pytest.raises(InvalidParamsError):
            trace_samples((3, 2), 10, RngStream(0))
        with pytest.raises(InvalidParamsError):
            trace_samples((1, 2), 0, RngStream(0))
