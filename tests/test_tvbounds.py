import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    InvalidParamsError,
    InvariantViolationError,
    RngStream,
    tv_chi2_quadrature,
    tv_closed_form_bound,
    tv_exact_mc,
    tv_moment_ratio_bound,
    tv_report,
)
import precisionlab.tvbounds as tvbounds
from precisionlab.parallel import comoments, merge_all, moments
from precisionlab.tvbounds import tv_sqrt_moment_ratio_bound, validate_chain
from precisionlab.wishart import log_normalizer, logdet_samples, sqrt_det_sampler


def tv_two_exact(d):
    """TV(W(2, d-1), W(2, d)) in closed form, an oracle independent of the program.

    det W(2, p) has the law of G^2 with G ~ Gamma(p - 1), and the density ratio
    of Gamma(d - 1) to Gamma(d - 2) is g / (d - 2), increasing in g.  By Scheffe
    the distance is P(Gamma(d-1) > t) - P(Gamma(d-2) > t) at the crossing
    t = Z(2,d)/Z(2,d-1) = d - 2, and the Poisson-gamma identity leaves one
    Poisson mass: e^(-t) t^(d-2) / (d-2)!.
    """
    t = math.exp(log_normalizer((2, d)) - log_normalizer((2, d - 1)))
    return math.exp(-t + (d - 2) * math.log(t) - math.lgamma(d - 1))


def ratio_second_moment(n, d):
    """E x^2 = (Z(n,d-1)/Z(n,d))^2 (d-1)!/(d-1-n)! for the forward ratio x."""
    log_ratio = log_normalizer((n, d - 1)) - log_normalizer((n, d))
    return math.exp(2.0 * log_ratio + math.lgamma(d) - math.lgamma(d - n))


def assert_calibrated(z):
    """The gate on a seed sweep: z-scores that look N(0, 1)."""
    assert abs(np.mean(z)) <= 0.6, z
    assert 0.6 <= np.std(z, ddof=1) <= 1.4, z


def ratio_power_moment(n, d, t):
    """E x^t = R^t 2^(nt/2) Gamma_n((d-1+t)/2) / Gamma_n((d-1)/2), R = Z(n,d-1)/Z(n,d),
    the multivariate gamma taken from scipy (Muirhead, Thm 3.2.15)."""
    special = pytest.importorskip("scipy.special")
    log_ratio = log_normalizer((n, d - 1)) - log_normalizer((n, d))
    return math.exp(t * log_ratio + 0.5 * n * t * math.log(2.0)
                    + special.multigammaln(0.5 * (d - 1 + t), n)
                    - special.multigammaln(0.5 * (d - 1), n))


def exact_tv(n, d):
    """The TV oracle for the sweeps: quadrature at n = 1, 3, 4, closed form at n = 2."""
    if n == 1:
        return tv_chi2_quadrature(d - 1, d)
    return tv_two_exact(d) if n == 2 else helpers.tv_wishart_quadrature(n, d)


class TestClosedFormBound:
    def test_smallest_nontrivial_case(self):
        assert tv_closed_form_bound(1, 3) == 0.5

    def test_nine_thirty(self):
        assert abs(tv_closed_form_bound(9, 30) - 0.5032) < 1e-4
        assert math.isclose(tv_closed_form_bound(9, 30),
                            0.5 * math.sqrt(930.0 / 462.0 - 1.0), rel_tol=1e-14)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParamsError):
            tv_closed_form_bound(3, 3)
        with pytest.raises(InvalidParamsError):
            tv_closed_form_bound(0, 3)

    def test_small_sample_regime_stays_below_threshold(self):
        worst = 0.0
        for d in range(2, 301):
            for n in range(1, d):
                if 3 * n < d:
                    worst = max(worst, tv_closed_form_bound(n, d))
        assert worst < 0.6

    def test_threshold_is_approached_from_below(self):
        # Along the steepest admissible line the bound rises toward
        # sqrt(5)/4 ~ 0.559 without reaching 0.6.
        values = []
        for d in (30, 90, 150, 300):
            n = (d + 2) // 3 - 1  # largest n with 3n < d
            values.append(tv_closed_form_bound(n, d))
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.55
        assert values[-1] < math.sqrt(5.0) / 4.0


class TestMomentRatioBound:
    def test_chi_square_two_dof(self):
        # mean 2, variance 4 gives exactly one half.
        assert tv_moment_ratio_bound(1, 3) == 0.5

    @pytest.mark.parametrize("d", [2, 3, 5, 17, 101])
    def test_single_sample_closed_form(self, d):
        assert math.isclose(tv_moment_ratio_bound(1, d),
                            1.0 / math.sqrt(2.0 * (d - 1)), rel_tol=1e-12)

    def test_matches_closed_form_spot(self):
        assert abs(tv_moment_ratio_bound(2, 7) - tv_closed_form_bound(2, 7)) < 1e-12

    def test_matches_closed_form_grid(self):
        for d in range(2, 122):
            for n in range(1, d):
                a = tv_closed_form_bound(n, d)
                b = tv_moment_ratio_bound(n, d)
                assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParamsError):
            tv_moment_ratio_bound(2, 2)


class TestQuadratureOracle:
    def test_against_single_crossing_closed_form(self):
        assert abs(tv_chi2_quadrature(1, 2) - helpers.tv_chi2_12_closed_form()) < 1e-8

    def test_symmetry_and_zero(self):
        assert tv_chi2_quadrature(3, 3) == 0.0
        assert math.isclose(tv_chi2_quadrature(2, 5), tv_chi2_quadrature(5, 2), rel_tol=1e-10)

    def test_large_dof_pair_is_small(self):
        value = tv_chi2_quadrature(199, 200)
        assert 0.0 < value < 0.06

    def test_rejects_bad_dof(self):
        with pytest.raises(InvalidParamsError):
            tv_chi2_quadrature(0, 2)


class TestTwoSampleOracle:
    def test_known_values(self):
        assert tv_two_exact(3) == pytest.approx(1.0 / math.e, rel=1e-12)
        assert tv_two_exact(7) == pytest.approx(0.1754674, abs=5e-8)
        assert tv_two_exact(30) == pytest.approx(0.0751690, abs=5e-8)


def tv_wishart_other_route(n, d):
    """TV(W(n, d-1), W(n, d)) for n = 3 or 4 with the roles of the two factors swapped from
    ``helpers.tv_wishart_quadrature``: quadrature over G ~ Gamma(d-2) of the closed-form mean over
    U ~ Gamma(s), x = c U^h with c = R G sqrt(2) (n = 3: h = 1/2, s = (d-3)/2) or c = R G (n = 4:
    h = 1, s = d-4).  E|1 - c U^h| = c m - 1 + 2 [P(s, u) - c m P(s+h, u)], u = c^(-1/h),
    m = Gamma(s+h)/Gamma(s); R from scipy's multigammaln."""
    special, integrate = pytest.importorskip("scipy.special"), pytest.importorskip("scipy.integrate")
    s, h = ((d - 3) / 2, 0.5) if n == 3 else (d - 4.0, 1.0)
    log_r = (-0.5 * n * math.log(2.0) + special.multigammaln(0.5 * (d - 1), n)
             - special.multigammaln(0.5 * d, n) + 0.5 * math.log(2.0) * (n == 3))
    m, k = math.exp(math.lgamma(s + h) - math.lgamma(s)), d - 2.0

    def integrand(g):
        c = math.exp(log_r) * g
        u = c ** (-1.0 / h)
        inner = c * m - 1.0 + 2.0 * (special.gammainc(s, u) - c * m * special.gammainc(s + h, u))
        return inner * math.exp((k - 1.0) * math.log(g) - g - math.lgamma(k))

    return 0.5 * integrate.quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


class TestThreeFourOracle:
    def test_known_values(self):
        # Pinned from the quadrature itself; test_other_route_agrees checks the integral.
        assert helpers.tv_wishart_quadrature(3, 9) == pytest.approx(0.1898528876262602, rel=1e-12)
        assert helpers.tv_wishart_quadrature(3, 30) == pytest.approx(0.09289192170495522,
                                                                      rel=1e-12)

    @pytest.mark.parametrize("n,d", [(3, 9), (3, 30), (4, 30)])
    def test_other_route_agrees(self, n, d):
        # The closed form taken over the other factor and the integral over this one.
        assert helpers.tv_wishart_quadrature(n, d) == pytest.approx(tv_wishart_other_route(n, d),
                                                                     rel=1e-9)

    def test_rejects_other_sample_counts(self):
        with pytest.raises(ValueError):
            helpers.tv_wishart_quadrature(2, 9)


class TestExactMc:
    def test_single_sample_two_dims_matches_quadrature(self):
        est = tv_exact_mc(1, 2, 100_000, RngStream(70))
        assert abs(est.estimate - tv_chi2_quadrature(1, 2)) < 3 * est.standard_error

    def test_reverse_direction_agrees(self):
        forward = tv_exact_mc(2, 7, 100_000, RngStream(71))
        backward = tv_exact_mc(2, 7, 100_000, RngStream(72), reverse=True)
        combined = math.hypot(forward.standard_error, backward.standard_error)
        assert abs(forward.estimate - backward.estimate) < 3 * combined

    def test_reverse_refuses_infinite_variance_case(self):
        # At n = d-1 the reverse ratio det^(-1/2) has E[det^-1] = inf under W(d-1, d).
        for n, d in ((1, 2), (2, 3), (5, 6)):
            with pytest.raises(InvalidParamsError):
                tv_exact_mc(n, d, 100_000, RngStream(75), reverse=True)

    @pytest.mark.parametrize("d", [2, 10])
    def test_standard_error_is_calibrated_across_seeds(self, d):
        # Seeds fixed once; the z-scores of 20 independent runs should look N(0, 1).
        oracle = tv_chi2_quadrature(d - 1, d)
        z = []
        for seed in range(4000, 4020):
            est = tv_exact_mc(1, d, 100_000, RngStream(seed))
            z.append((est.estimate - oracle) / est.standard_error)
        assert abs(np.mean(z)) < 0.5, z
        assert 0.7 <= np.std(z, ddof=1) <= 1.3, z

    def test_large_dimension_single_sample(self):
        est = tv_exact_mc(1, 200, 50_000, RngStream(73))
        assert est.estimate < 0.06
        assert abs(est.estimate - tv_chi2_quadrature(199, 200)) < 3 * est.standard_error

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bounded_by_moment_ratio_at_sample_grid(self, n):
        for d in (n + 1, n + 5, 17, 30):
            est = tv_exact_mc(n, d, 20_000, RngStream(700 + 10 * n + d))
            assert est.estimate <= tv_moment_ratio_bound(n, d) + 3 * est.standard_error

    def test_trial_floor(self):
        with pytest.raises(InvalidParamsError):
            tv_exact_mc(1, 3, 5_000, RngStream(0))

    def test_determinism_across_workers(self):
        a = tv_exact_mc(2, 9, 20_000, RngStream(74), workers=1)
        b = tv_exact_mc(2, 9, 20_000, RngStream(74), workers=4)
        assert a == b


class TestChain:
    @pytest.mark.parametrize("n,d", [(1, 4), (3, 12)])
    def test_triple_is_nondecreasing(self, n, d):
        report = tv_report(n, d, 50_000, RngStream(80 + n + d))
        validate_chain(report)  # must not raise
        tv, mid, bound = (report.mc_estimate, report.sqrt_moment_ratio_bound,
                          report.moment_ratio_bound)
        assert tv <= mid + 3 * (report.mc_standard_error + report.sqrt_moment_ratio_se)
        assert mid <= bound + 3 * report.sqrt_moment_ratio_se

    def test_degenerate_constant_values_collapse_to_zero(self, monkeypatch):
        # Both factors, and so every forward density ratio, exactly 1: at n = 2 one trial per
        # row, at n = 3 blocks of cross-paired trials.

        def constant_factors(count, rng, out):
            out[:] = 1.0
            return out[0], out[-1]

        # The 12 batches of 8,333 or 8,334 trials each end in a short block at n = 3.  The middle
        # link is closed form, so the draws do not reach it.
        monkeypatch.setattr(tvbounds, "sqrt_det_sampler", lambda *args: constant_factors)
        for n, d in ((2, 7), (3, 30)):
            report = tv_report(n, d, 100_000, RngStream(83), workers=2)
            assert (report.mc_estimate, report.mc_standard_error, report.sqrt_moment_ratio_se,
                    report.sqrt_moment_ratio_bound) == (0.0, 0.0, 0.0,
                                                        tv_sqrt_moment_ratio_bound(n, d)), (n, d)

    def test_report_fields_and_invariants(self):
        report = tv_report(2, 7, 50_000, RngStream(81))
        assert 0.0 <= report.mc_estimate <= 1.0
        assert report.samples_used == 50_000
        assert report.moment_ratio_bound == tv_moment_ratio_bound(2, 7)
        assert report.closed_form_bound == tv_closed_form_bound(2, 7)
        assert report.sqrt_moment_ratio_bound == tv_sqrt_moment_ratio_bound(2, 7)
        assert report.sqrt_moment_ratio_se == 0.0
        validate_chain(report)  # must not raise

    def test_middle_link_in_closed_form(self):
        # At (2, 7) E x^2 = 6/5, so the link is (1/2) sqrt(1/5) = sqrt(5)/10.
        assert tv_sqrt_moment_ratio_bound(3, 30) == pytest.approx(0.11733330008960628,
                                                                  rel=0, abs=1e-15)
        assert tv_sqrt_moment_ratio_bound(2, 7) == pytest.approx(math.sqrt(5.0) / 10.0,
                                                                 rel=0, abs=1e-14)

    def test_deterministic_link_holds_exactly_on_the_threshold_grid(self):
        # Link 2 compares two closed forms with no slack, at every n < d/3, d <= 300.
        for d in range(2, 301):
            for n in range(1, -(-d // 3)):
                assert tv_sqrt_moment_ratio_bound(n, d) <= tv_moment_ratio_bound(n, d), (n, d)

    def test_validate_chain_catches_violations(self):
        report = tv_report(2, 7, 20_000, RngStream(82))
        broken = report.__class__(**{**report.__dict__, "mc_estimate": 0.9,
                                     "mc_standard_error": 0.0})
        with pytest.raises(InvariantViolationError):
            validate_chain(broken)


class TestControlVariate:
    """The forward estimator regresses |1 - x| on the controls (x, x^1/2, x^3/2, x^2)."""

    def test_matches_least_squares_fit(self):
        # Reference: ordinary least squares of y on (1, x^1/2, x, x^3/2, x^2),
        # read at the controls' exact means; the residual variance gives the error.
        n, d, count = 2, 7, 50_000
        log_ratio = log_normalizer((n, d - 1)) - log_normalizer((n, d))
        x = np.exp(0.5 * logdet_samples((n, d - 1), count, RngStream(88)) + log_ratio)
        y = np.abs(1.0 - x)
        values = np.array([x, np.sqrt(x), x * np.sqrt(x), x * x, y])  # the accumulator's order
        acc = merge_all([moments(part) for part in np.array_split(values, 7, axis=1)])
        got = tvbounds._tv_estimate(acc, n, d)
        design = np.column_stack([np.ones(count), np.sqrt(x), x, x * np.sqrt(x), x * x])
        coef, rss, _, _ = np.linalg.lstsq(design, y, rcond=None)
        expected = 0.5 * coef @ (1.0, *(ratio_power_moment(n, d, t) for t in (0.5, 1.0, 1.5, 2.0)))
        assert got.estimate == pytest.approx(expected, rel=1e-9)
        assert got.standard_error == pytest.approx(0.5 * math.sqrt(rss[0] / (count - 5) / count),
                                                   rel=1e-6)

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 7), (2, 30)])
    def test_standard_error_is_calibrated_against_exact(self, n, d):
        # Seeds fixed once; 30 runs at 1e5 trials against a deterministic oracle.
        exact = tv_chi2_quadrature(1, 2) if n == 1 else tv_two_exact(d)
        z = []
        for seed in range(6000, 6030):
            est = tv_exact_mc(n, d, 100_000, RngStream(seed))
            z.append((est.estimate - exact) / est.standard_error)
        assert_calibrated(z)

    @pytest.mark.parametrize("n,d,seeds", [(1, 2, range(30000, 30100)),
                                           (2, 7, range(31000, 31100)),
                                           (2, 30, range(32000, 32100)),
                                           (3, 9, range(33000, 33100)),
                                           (3, 30, range(34000, 34100)),
                                           (4, 30, range(35000, 35100))])
    def test_standard_error_is_calibrated_on_own_seeds(self, n, d, seeds):
        # One seed range per case, so the sweeps are independent checks; from n = 3 on the
        # rows are blocks of cross-paired trials.
        exact = exact_tv(n, d)
        z = []
        for seed in seeds:
            est = tv_exact_mc(n, d, 100_000, RngStream(seed))
            z.append((est.estimate - exact) / est.standard_error)
        assert_calibrated(z)

    def test_controls_cut_the_standard_error(self, monkeypatch):
        # At tv 3/30/1e6 --seed 41 the four controls leave under 0.3 of the
        # plain error, half the sd of |1 - x| over sqrt(N) from the same draws
        # (the two controls x, x^2 left 0.40).  The accumulator holds block
        # means, so the draws' |1 - x| is recorded at the factor seam.
        ratios = []

        def recording_sampler(*args):
            factors = sqrt_det_sampler(*args)

            def recording_factors(*args, **kwargs):
                a, b = factors(*args, **kwargs)
                ratios.append(np.abs(1.0 - a * b))
                return a, b

            return recording_factors

        monkeypatch.setattr(tvbounds, "sqrt_det_sampler", recording_sampler)
        acc = merge_all(tvbounds._ratio_moments(3, 30, 1_000_000, RngStream(41), 1, False))
        y = np.concatenate(ratios)
        assert len(y) == 1_000_000
        plain = 0.5 * np.std(y, ddof=1) / math.sqrt(len(y))
        assert tvbounds._tv_estimate(acc, 3, 30).standard_error <= 0.3 * plain

    @pytest.mark.parametrize("n,d", [(3, 30), (1, 10), (2, 7)])
    def test_middle_link_is_calibrated_against_closed_form(self, n, d):
        # half-CV(sqrt det) = (1/2) sqrt(E x^2 - 1), since E x = 1.  The report gives it in closed
        # form; the Monte Carlo half sd(x), from the accumulator's x and x^2 columns (rows are
        # blocks from n = 3 on) with its delta-method error, sweeps against it.
        exact = 0.5 * math.sqrt(ratio_second_moment(n, d) - 1.0)
        assert tv_sqrt_moment_ratio_bound(n, d) == pytest.approx(exact, rel=0, abs=1e-12)
        z = []
        for seed in range(6100, 6140):
            acc = merge_all(tvbounds._ratio_moments(n, d, 100_000, RngStream(seed), 1, False))
            rows, (m1, m2) = acc[0, 0], acc[1, [0, -2]]
            sd = math.sqrt(m2 - m1 * m1)
            grad = np.array([-0.5 * m1 / sd, 0.25 / sd])  # of (1/2) sqrt(m2 - m1^2)
            cov = comoments(acc)[np.ix_([0, -2], [0, -2])] / (rows - 1.0)
            z.append((0.5 * sd - exact) / math.sqrt(grad @ cov @ grad / rows))
        assert_calibrated(z)


class TestCrossPairs:
    """From n = 3 on, the forward rows are blocks of BLOCK trials whose two Bartlett factors are
    cross-paired: every |1 - a_i b_j| of the block, and controls mean(a^t) mean(b^t)."""

    def _reference(self, a, b, block):
        # Column by column in plain numpy: the blocks are a.reshape(block, -1)'s columns,
        # then one short block of the remaining trials.
        full = len(a) - len(a) % block
        parts = [(a[:full].reshape(block, -1)[:, m], b[:full].reshape(block, -1)[:, m])
                 for m in range(full // block)] + [(a[full:], b[full:])] * (full < len(a))
        return np.array([[np.mean(pa ** t) * np.mean(pb ** t) for t in tvbounds.CONTROL_POWERS]
                         + [np.mean(np.abs(1.0 - np.outer(pa, pb)))] for pa, pb in parts]).T

    @pytest.mark.parametrize("count,block", [(16, 4), (19, 4), (3, 4), (13, 1), (8001, 4),
                                             (10, 3)])
    def test_block_rows_match_a_direct_computation(self, count, block):
        gen = np.random.default_rng(count)
        a, b = gen.gamma(28.0, 1 / 28.0, count), np.sqrt(gen.gamma(13.5, 1 / 13.5, count))
        out = np.full((len(tvbounds.CONTROL_POWERS) + 1, -(-count // block)), np.nan)
        tvbounds._cross_pairs(a.copy(), b.copy(), block, out, np.empty(count + count // block))
        np.testing.assert_allclose(out, self._reference(a, b, block), rtol=1e-13, atol=1e-15)

    def test_pairs_cut_the_standard_error(self):
        # 0.6 of the single-trial rows' error at tv 3/30/1e6 --seed 41 (1.628e-05).
        assert tv_exact_mc(3, 30, 10**6, RngStream(41)).standard_error <= 0.6 * 1.628e-05

    @pytest.mark.parametrize("n,d,seed,estimate,error", [
        (1, 2, 90, 0.3025467265498714, 0.00012692007166721262),
        (1, 2, 91, 0.30231412164126814, 0.00012662878014471532),
        (2, 7, 90, 0.17539987980376093, 9.842726783174417e-05),
        (2, 7, 91, 0.17563263289102612, 9.289886612471728e-05)])
    def test_one_factor_keeps_single_trial_rows(self, n, d, seed, estimate, error):
        # At n <= 2 the ratio has one Bartlett factor, so rows stay single trials: the
        # values of the single-trial estimator at 1e5 trials.
        got = tv_exact_mc(n, d, 100_000, RngStream(seed))
        assert got.estimate == pytest.approx(estimate, rel=1e-12)
        assert got.standard_error == pytest.approx(error, rel=1e-12)

    def test_report_counts_trials_not_blocks(self):
        report = tv_report(3, 12, 20_003, RngStream(84))
        assert report.samples_used == 20_003

    @pytest.mark.parametrize("n,d", [(2, 7), (3, 9), (5, 30), (8, 30)])
    def test_several_chunks_a_batch(self, n, d, monkeypatch):
        # Batches of 8,333 or 8,334 trials in chunks of 1,001 that reuse the scratch: from n = 3 each chunk
        # ends in a short block, from n = 5 b moves to row 1, and at n = 8 the block rows lie in
        # dead draw rows.  Same trials, seed and workers both ways.
        whole = tv_exact_mc(n, d, 100_000, RngStream(85))
        monkeypatch.setattr(tvbounds, "FOLD_ROWS", 1001)
        chunked = tv_exact_mc(n, d, 100_000, RngStream(85))
        assert chunked != whole
        gap = abs(chunked.estimate - whole.estimate)
        assert gap <= 4.0 * math.hypot(chunked.standard_error, whole.standard_error)
