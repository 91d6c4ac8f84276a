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
from precisionlab.tvbounds import _chain_stats, validate_chain


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

    def test_degenerate_constant_values_collapse_to_zero(self):
        tv, tv_se, ratio, ratio_se = _chain_stats(np.ones(1000), [500, 500])
        assert (tv, tv_se, ratio, ratio_se) == (0.0, 0.0, 0.0, 0.0)

    def test_report_fields_and_invariants(self):
        report = tv_report(2, 7, 50_000, RngStream(81))
        assert 0.0 <= report.mc_estimate <= 1.0
        assert report.samples_used == 50_000
        assert report.moment_ratio_bound == tv_moment_ratio_bound(2, 7)
        assert report.closed_form_bound == tv_closed_form_bound(2, 7)
        validate_chain(report)  # must not raise

    def test_validate_chain_catches_violations(self):
        report = tv_report(2, 7, 20_000, RngStream(82))
        broken = report.__class__(**{**report.__dict__, "mc_estimate": 0.9,
                                     "mc_standard_error": 0.0})
        with pytest.raises(InvariantViolationError):
            validate_chain(broken)
