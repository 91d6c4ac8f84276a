import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    Detector,
    Ensemble,
    InvalidParamsError,
    RngStream,
    ThetaInEPerpError,
    UnknownDetectorError,
    bayes_three_way_detector,
    constant_detector,
    evaluate_batches,
    haar_rotation_many,
    lr_detector,
    make_detector,
    projector_complement,
    random_guess_detector,
    registry_names,
    run_fixed_theta_game,
    run_three_way_game,
    run_two_way_game,
    section_covariance,
    symmetrize_detector,
    three_way_ceiling,
    tv_chi2_quadrature,
    tv_closed_form_bound,
    tv_exact_mc,
    two_way_ceiling,
    uniform_sphere_many,
)
from precisionlab import detection
from precisionlab.detection import _vote


class TestTrueSectionRank:
    def test_identity(self):
        assert section_covariance(np.eye(6)).rank == 2

    def test_random_direction_projectors(self):
        thetas = uniform_sphere_many(6, 200, RngStream(90))
        assert all(section_covariance(projector_complement(t)).rank == 1 for t in thetas)

    def test_plane_killing_projector(self):
        assert section_covariance(np.diag([0.0, 0.0, 1.0, 1.0])).rank == 0


class TestLrDetector:
    def test_threshold_matches_density_crossing(self):
        # In the scalar case the rule flips where the two chi-square
        # densities cross; locate that point independently by bisection.
        root = helpers.bisect(
            lambda a: helpers.chi2_logpdf(2, a) - helpers.chi2_logpdf(1, a), 0.1, 2.0
        )
        assert abs(root - 2.0 / math.pi) < 1e-10
        detector = lr_detector(1, 2)

        def guess_at(a):
            return evaluate_batches(detector, np.array([[[math.sqrt(a), 0.0]]]))[0]

        assert guess_at(root - 1e-8) == 1
        assert guess_at(root + 1e-8) == 2

    def test_equal_prior_success_attains_tv_ceiling_scalar_case(self):
        # The equal-prior Bayes success equals (1 + TV)/2; the scalar case
        # has an independent quadrature value for the TV.
        report = run_two_way_game(1, 2, lr_detector(1, 2), 200_000, RngStream(91))
        target = 0.5 * (1.0 + tv_chi2_quadrature(1, 2))
        assert abs(report.joint_success - target) < 3 * report.joint_standard_error

    def test_never_below_coin_flip(self):
        report = run_two_way_game(2, 12, lr_detector(2, 12), 20_000, RngStream(92))
        assert report.joint_success >= 0.5 - 3 * report.joint_standard_error

    def test_parameter_validation(self):
        with pytest.raises(InvalidParamsError):
            lr_detector(5, 5)
        with pytest.raises(InvalidParamsError):
            lr_detector(30, 31, k=2)


class TestRegistry:
    def test_names(self):
        assert registry_names() == ["bayes3", "constant", "det", "lr", "random", "trace"]

    def test_unknown_detector(self):
        with pytest.raises(UnknownDetectorError) as err:
            make_detector("nosuch", 3, 30)
        assert "lr" in str(err.value)

    def test_all_detectors_depend_only_on_gram(self):
        # Rotating every sample changes the Gram matrix only by rounding, so
        # guesses must agree batch for batch.
        d = 12
        vectors = RngStream(94).gen.standard_normal((200, 3, d))
        t = haar_rotation_many(d, 1, RngStream(95))[0]
        rotated = vectors @ t.T
        for name in registry_names():
            detector = make_detector(name, 3, d)
            assert np.array_equal(
                evaluate_batches(detector, vectors), evaluate_batches(detector, rotated)
            ), name


class TestTwoWayGame:
    def test_constant_detector_exact_profile(self):
        report = run_two_way_game(3, 30, constant_detector(), 10_000, RngStream(96))
        by_label = {r.label: r.success for r in report.results}
        assert by_label[2] == 1.0
        assert by_label[1] == 0.0
        assert report.joint_success == 0.5

    def test_registry_respects_tv_ceiling(self):
        n, d, trials = 3, 30, 20_000
        tv = tv_exact_mc(n, d, 100_000, RngStream(97))
        for name in registry_names():
            report = run_two_way_game(n, d, make_detector(name, n, d), trials,
                                      RngStream(98))
            ceiling = 0.5 * (1.0 + tv.estimate)
            combined = math.hypot(report.joint_standard_error, 0.5 * tv.standard_error)
            assert report.joint_success <= ceiling + 3 * combined, name
            by_label = {r.label: r.success for r in report.results}
            assert not (by_label[2] > 0.9 and by_label[1] > 0.9), name

    def test_lr_attains_ceiling(self):
        n, d = 3, 30
        tv = tv_exact_mc(n, d, 200_000, RngStream(99))
        report = run_two_way_game(n, d, lr_detector(n, d), 100_000, RngStream(100))
        ceiling = 0.5 * (1.0 + tv.estimate)
        combined = math.hypot(report.joint_standard_error, 0.5 * tv.standard_error)
        assert abs(report.joint_success - ceiling) < 3 * combined

    def test_many_samples_escape_the_bound_regime(self):
        # With n = d - 1 the closed-form cap is vacuous and the detector
        # separates the ensembles far better than in the n < d/3 regime.
        report = run_two_way_game(30, 31, lr_detector(30, 31), 10_000, RngStream(101))
        assert report.ceiling == 1.0
        assert report.joint_success > 0.7

    def test_deeper_deficiency_game(self):
        report = run_two_way_game(3, 30, lr_detector(3, 30, k=2), 10_000,
                                  RngStream(102), k=2)
        labels = sorted(r.label for r in report.results)
        assert labels == [0, 2]
        assert report.joint_success <= report.ceiling + 3 * report.joint_standard_error
        # Two degrees of freedom separate better than one.
        one = run_two_way_game(3, 30, lr_detector(3, 30), 10_000, RngStream(102))
        assert report.joint_success > one.joint_success

    def test_trial_floor(self):
        with pytest.raises(InvalidParamsError):
            run_two_way_game(3, 30, constant_detector(), 5_000, RngStream(0))

    def test_worker_independence(self):
        a = run_two_way_game(2, 10, lr_detector(2, 10), 10_000, RngStream(103), workers=1)
        b = run_two_way_game(2, 10, lr_detector(2, 10), 10_000, RngStream(103), workers=4)
        assert a == b

    def test_ceiling_formula(self):
        assert two_way_ceiling(3, 30) == 0.5 * (1.0 + tv_closed_form_bound(3, 30))
        assert two_way_ceiling(30, 31) == 1.0
        expected = 0.5 * (1.0 + tv_closed_form_bound(3, 30) + tv_closed_form_bound(3, 29))
        assert two_way_ceiling(3, 30, k=2) == expected

    def test_tracing_hooks_are_called_through_module_globals(self, monkeypatch):
        # Profilers time the game layers by patching these module attributes,
        # so the game and the detectors must look them up at call time.
        calls = {"evaluate_batches": 0, "gram_many": 0, "logdet_trace_many": 0}

        def counting(name):
            original = getattr(detection, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        detector = lr_detector(3, 30)  # built before patching
        for name in calls:
            monkeypatch.setattr(detection, name, counting(name))
        run_two_way_game(3, 30, detector, 10_000, RngStream(116))
        assert all(count > 0 for count in calls.values()), calls


class TestSymmetrize:
    def test_vote_boundaries(self):
        votes = _vote(np.array([1.5, 1.49, 0.5, 0.49]))
        assert votes.tolist() == [2, 1, 1, 0]

    def test_gram_based_detector_is_fixed_point(self):
        base = lr_detector(2, 8)
        sym = symmetrize_detector(base, 16, RngStream(104))
        vectors = RngStream(105).gen.standard_normal((100, 2, 8))
        assert np.array_equal(evaluate_batches(sym, vectors), evaluate_batches(base, vectors))

    def test_rotation_count_validation(self):
        with pytest.raises(InvalidParamsError):
            symmetrize_detector(constant_detector(), 0, RngStream(0))

    def test_agreement_under_rotation_improves(self):
        # The base rule looks at one raw coordinate, which a rotation
        # scrambles; averaging over a fixed rotation panel pushes the
        # agreement rate between a batch and its rotated copy above 1/2.
        d, m, pairs = 3, 64, 1_200_000
        base = Detector("first-coord-sign", lambda vs: np.where(vs[:, 0, 0] > 0, 2, 1))
        sym = symmetrize_detector(base, m, RngStream(123))
        stream = RngStream(9)
        z = stream.gen.standard_normal((pairs, 1, d))
        rotations = haar_rotation_many(d, pairs, stream)
        zr = np.einsum("bij,bkj->bki", rotations, z)
        agree_base = float(np.mean(evaluate_batches(base, z) == evaluate_batches(base, zr)))
        agree_sym = float(np.mean(evaluate_batches(sym, z) == evaluate_batches(sym, zr)))
        se = math.sqrt(0.25 / pairs)
        assert abs(agree_base - 0.5) < 5 * se  # rotation-average of the base rule is 1/2
        assert agree_sym > 0.5 + 3 * se
        assert agree_sym > agree_base


class TestThreeWayGame:
    def test_random_guesser_sits_at_one_third(self):
        report = run_three_way_game(2, 60, 100_000, RngStream(108),
                                    detector=random_guess_detector())
        assert abs(report.joint_success - 1.0 / 3.0) < 3 * report.joint_standard_error

    def test_bayes_far_from_dimension_stays_near_one_third(self):
        report = run_three_way_game(2, 60, 20_000, RngStream(109))
        assert 0.31 < report.joint_success < 0.40
        assert report.joint_success <= report.ceiling + 3 * report.joint_standard_error

    def test_bayes_near_dimension_beats_guessing(self):
        report = run_three_way_game(2, 4, 20_000, RngStream(110))
        assert report.joint_success > 1.0 / 3.0 + 5 * report.joint_standard_error

    def test_ceiling_formula(self):
        expected = (1.0 + tv_closed_form_bound(2, 60) + tv_closed_form_bound(2, 59)) / 3.0
        assert math.isclose(three_way_ceiling(2, 60), expected, rel_tol=1e-14)

    def test_labels(self):
        report = run_three_way_game(2, 8, 10_000, RngStream(111))
        assert sorted(r.label for r in report.results) == [0, 1, 2]

    def test_trial_floor(self):
        with pytest.raises(InvalidParamsError):
            run_three_way_game(2, 8, 9_999, RngStream(0))

    def test_dimension_validation(self):
        with pytest.raises(InvalidParamsError):
            run_three_way_game(1, 2, 10_000, RngStream(0))
        with pytest.raises(InvalidParamsError):
            bayes_three_way_detector(3, 4)


class TestFixedThetaGame:
    def test_in_plane_direction_runs(self):
        theta = np.zeros(6)
        theta[0] = 1.0
        report = run_fixed_theta_game(2, 6, theta, lr_detector(2, 6), 10_000,
                                      RngStream(112))
        by_label = {r.label: r for r in report.results}
        assert set(by_label) == {1, 2}

    def test_nearly_orthogonal_direction_is_labelled_by_its_section(self):
        # theta passes the plane gate with an in-plane part of 1e-5, so its
        # section keeps one direction: the deficient label is 1, and the
        # constant guess scores a coin flip, below the 0.762 ceiling.
        theta = np.zeros(6)
        theta[0], theta[5] = 1e-5, 1.0
        theta /= np.linalg.norm(theta)
        assert Ensemble.deficient_fixed(theta).correct_label() == 1
        report = run_fixed_theta_game(2, 6, theta, constant_detector(), 10_000,
                                      RngStream(112))
        assert report.joint_success == 0.5

    def test_trial_floor(self):
        theta = np.zeros(6)
        theta[0] = 1.0
        with pytest.raises(InvalidParamsError):
            run_fixed_theta_game(2, 6, theta, lr_detector(2, 6), 9_999, RngStream(0))

    def test_direction_orthogonal_to_plane_rejected(self):
        theta = np.zeros(6)
        theta[5] = 1.0
        with pytest.raises(ThetaInEPerpError):
            run_fixed_theta_game(2, 6, theta, lr_detector(2, 6), 10_000, RngStream(0))

    def test_every_seeded_direction_defeats_the_detector(self):
        # The deficient Gram law does not depend on the direction, so the
        # criterion failure promised on average must show at each one.
        n, d = 3, 30
        detector = lr_detector(n, d)
        for seed in range(5):
            theta = uniform_sphere_many(d, 1, RngStream(5000 + seed))[0]
            report = run_fixed_theta_game(n, d, theta, detector, 10_000,
                                          RngStream(113 + seed))
            deficient = {r.label: r for r in report.results}[1]
            assert deficient.success < 0.9


class TestEnsembles:
    def test_correct_labels(self):
        assert Ensemble.full_rank(8).correct_label() == 2
        assert Ensemble.deficient_random(8, 1).correct_label() == 1
        assert Ensemble.deficient_random(8, 2).correct_label() == 0
        theta = np.zeros(5)
        theta[0] = 1.0
        assert Ensemble.deficient_fixed(theta).correct_label() == 1
        killer = np.diag([0.0, 0.0, 1.0, 1.0])
        assert Ensemble.explicit(killer).correct_label() == 0

    @pytest.mark.parametrize("seed,draw", [(0, 307), (1, 2261)])
    def test_small_principal_angles_do_not_count_as_zero(self, seed, draw):
        # These draws meet the plane at principal angles of 3.0e-5 and
        # 1.3e-4 rad; neither is a shared direction, so the rank is 0.
        ens, rng = Ensemble.deficient_random(4, 2), RngStream(seed)
        ranks = [section_covariance(ens.draw_cov(rng)).rank for _ in range(draw + 1)]
        assert set(ranks) == {0}

    def test_draw_cov_shapes(self):
        rng = RngStream(114)
        for ens in (Ensemble.full_rank(5), Ensemble.deficient_random(5, 2),
                    Ensemble.explicit(np.eye(5))):
            cov = ens.draw_cov(rng)
            assert cov.shape == (5, 5)
