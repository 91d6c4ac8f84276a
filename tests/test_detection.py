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
    log_normalizer,
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
from precisionlab.parallel import batch_counts
from precisionlab.wishart import gram_many, logdet_samples, logdet_trace_many, trace_samples


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

    @pytest.mark.parametrize("n,d,seeds", [(3, 30, range(7000, 7040)),
                                           (1, 4, range(7100, 7140)),
                                           (5, 12, range(7200, 7240))])
    def test_trace_rule_standard_error_is_calibrated(self, n, d, seeds):
        # The trace of n standard vectors in rank p is chi2_{np}, so the rule
        # "trace >= t", t = n(d - 1/2), wins with P(chi2_{nd} >= t) on the full
        # rank ensemble and P(chi2_{n(d-1)} < t) on the deficient one.
        chi2 = pytest.importorskip("scipy.stats").chi2
        t = n * (d - 0.5)
        exact = 0.5 * (chi2.sf(t, n * d) + chi2.cdf(t, n * (d - 1)))
        z = []
        for seed in seeds:
            report = run_two_way_game(n, d, make_detector("trace", n, d), 100_000,
                                      RngStream(seed))
            z.append((report.joint_success - exact) / report.joint_standard_error)
        assert abs(np.mean(z)) <= 0.6, z  # the seed-sweep gate of test_tvbounds
        assert 0.6 <= np.std(z, ddof=1) <= 1.4, z

    @pytest.mark.parametrize("n,d,seeds", [(3, 30, range(7300, 7340)),
                                           (3, 9, range(7400, 7440)),
                                           (4, 30, range(7500, 7540))])
    def test_lr_standard_error_is_calibrated(self, n, d, seeds):
        # lr is the equal-prior Bayes rule, so its joint success is (1 + TV)/2.
        exact = 0.5 * (1.0 + helpers.tv_wishart_quadrature(n, d))
        z = []
        for seed in seeds:
            report = run_two_way_game(n, d, lr_detector(n, d), 100_000, RngStream(seed))
            z.append((report.joint_success - exact) / report.joint_standard_error)
        assert abs(np.mean(z)) <= 0.6, z
        assert 0.6 <= np.std(z, ddof=1) <= 1.4, z

    def test_worker_independence(self):
        a = run_two_way_game(2, 10, lr_detector(2, 10), 20_000, RngStream(103), workers=1)
        b = run_two_way_game(2, 10, lr_detector(2, 10), 20_000, RngStream(103), workers=4)
        assert a == b

    def test_ceiling_formula(self):
        assert two_way_ceiling(3, 30) == 0.5 * (1.0 + tv_closed_form_bound(3, 30))
        assert two_way_ceiling(30, 31) == 1.0
        expected = 0.5 * (1.0 + tv_closed_form_bound(3, 30) + tv_closed_form_bound(3, 29))
        assert two_way_ceiling(3, 30, k=2) == expected

    def test_tracing_hooks_are_called_through_module_globals(self, monkeypatch):
        # Profilers time the sample route's layers by patching these module
        # attributes, so the game and the detectors must look them up at call
        # time.  A detector with a rule takes the statistic route and calls
        # none of them.
        names = ("evaluate_batches", "gram_many", "logdet_trace_many")
        calls = dict.fromkeys(names, 0)

        def counting(name):
            original = getattr(detection, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        lr = lr_detector(3, 30)  # both built before patching
        ruleless = Detector("lr", lr.evaluate)
        for name in names:
            monkeypatch.setattr(detection, name, counting(name))
        run_two_way_game(3, 30, ruleless, 10_000, RngStream(116))
        assert all(count > 0 for count in calls.values()), calls
        calls.update(dict.fromkeys(names, 0))
        run_two_way_game(3, 30, lr, 10_000, RngStream(116))
        assert not any(calls.values()), calls


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

    @pytest.mark.parametrize("d,seeds,value", [(60, range(7600, 7640), 0.368357),
                                               (9, range(7700, 7740), 0.436542)])
    def test_bayes_standard_error_is_calibrated(self, d, seeds, value):
        # det W(2, p) = G^2 with G ~ Gamma(p - 1), so each success is a difference of gamma
        # CDFs at the cuts exp(c/2); the degrees of freedom are d, d - 1, d - 2.
        gamma = pytest.importorskip("scipy.stats").gamma
        lo, hi = (math.exp(0.5 * c) for c in bayes_three_way_detector(2, d).cuts)
        exact = (gamma.sf(hi, d - 1) + gamma.cdf(hi, d - 2) - gamma.cdf(lo, d - 2)
                 + gamma.cdf(lo, d - 3)) / 3.0
        assert exact == pytest.approx(value, abs=1e-6)
        z = []
        for seed in seeds:
            report = run_three_way_game(2, d, 100_000, RngStream(seed))
            z.append((report.joint_success - exact) / report.joint_standard_error)
        assert abs(np.mean(z)) <= 0.6, z
        assert 0.6 <= np.std(z, ddof=1) <= 1.4, z

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


class TestBayesThreeWayThresholds:
    """``bayes3`` as two log-determinant thresholds against the three-way argmax it replaces."""

    @staticmethod
    def _thresholds(n, d):
        return tuple(2.0 * (log_normalizer((n, p)) - log_normalizer((n, p - 1)))
                     for p in (d - 1, d))

    def test_thresholds_increase_over_the_grid(self):
        # hi - lo is twice the second difference of logZ(n, p) in p.  The terms
        # of logZ linear in p cancel there, leaving sum_i lgamma((p + 1 - i)/2).
        smallest = math.inf
        lgammas = {p: np.cumsum([math.lgamma(0.5 * (p + 1 - i)) for i in range(1, p + 1)])
                   for p in range(1, 301)}
        for d in range(3, 301):
            gaps = 2.0 * (lgammas[d][:d - 2] - 2.0 * lgammas[d - 1][:d - 2]
                          + lgammas[d - 2][:d - 2])
            smallest = min(smallest, float(np.min(gaps)))
        assert smallest > 3e-3
        for n, d in ((1, 3), (2, 60), (50, 300), (298, 300)):
            lo, hi = self._thresholds(n, d)
            assert hi - lo > 3e-3, (n, d)

    @pytest.mark.parametrize("n,d", [(2, 60), (3, 30), (1, 3), (5, 8), (50, 300)])
    def test_labels_match_argmax_reference(self, n, d):
        lo, hi = self._thresholds(n, d)
        rng = RngStream(6000 + 10 * n + d)
        random = [logdet_samples((n, p), 100_000, rng) for p in (d, d - 1, d - 2)]
        width = max(hi - lo, 1.0)
        grid = np.linspace(lo - 10.0 * width, hi + 10.0 * width, 100_001)
        x = np.concatenate(random + [grid])
        scores = np.stack([0.5 * (p - n - 1) * x - log_normalizer((n, p))
                           for p in (d, d - 1, d - 2)])
        reference = np.array([2, 1, 0])[np.argmax(scores, axis=0)]
        rule = bayes_three_way_detector(n, d).rule
        assert np.array_equal(rule(x), reference)
        # Ties go to the higher degrees of freedom.
        below = np.nextafter(lo, -math.inf)
        assert rule(np.array([below, lo, hi])).tolist() == [0, 1, 2]


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
        # criterion failure promised on average must show at each one.  The
        # rule-less copy of lr takes the sample route, where theta projects
        # the draws.
        n, d = 3, 30
        detector = Detector("lr", lr_detector(n, d).evaluate)
        for seed in range(5):
            theta = uniform_sphere_many(d, 1, RngStream(5000 + seed))[0]
            report = run_fixed_theta_game(n, d, theta, detector, 10_000,
                                          RngStream(113 + seed))
            deficient = {r.label: r for r in report.results}[1]
            assert deficient.success < 0.9


class TestStatisticRoute:
    """Games score Gram-statistic detectors on direct draws of the statistic they read."""

    DRAWS = 200_000
    CHUNK = 20_000  # keeps the sample route's (chunk, n, d) normals small

    @staticmethod
    def _ensemble(kind: str) -> tuple[int, Ensemble]:
        theta30 = uniform_sphere_many(30, 1, RngStream(5100))[0]
        theta3 = uniform_sphere_many(3, 1, RngStream(5101))[0]
        return {
            "full-rank-1-2": (1, Ensemble.full_rank(2)),
            "random-k1-3-29": (3, Ensemble.deficient_random(30, 1)),
            "random-k2-2-59": (2, Ensemble.deficient_random(61, 2)),
            "fixed-3-29": (3, Ensemble.deficient_fixed(theta30)),
            "fixed-1-2": (1, Ensemble.deficient_fixed(theta3)),
        }[kind]

    @pytest.mark.parametrize("kind", ["full-rank-1-2", "random-k1-3-29", "random-k2-2-59",
                                      "fixed-3-29", "fixed-1-2"])
    def test_agrees_with_sample_route(self, kind):
        n, ensemble = self._ensemble(kind)
        seed = 9100 + 10 * n + ensemble.dim
        params, rng = (n, ensemble.gram_dof()), RngStream(seed)
        direct = [draw(params, self.DRAWS, rng) for draw in (logdet_samples, trace_samples)]
        rng = RngStream(seed + 500)
        parts = [logdet_trace_many(gram_many(ensemble.sample_many(n, self.CHUNK, rng)))
                 for _ in range(self.DRAWS // self.CHUNK)]
        for name, a, *chunks in zip(("logdet", "trace"), direct, *parts):
            assert max(helpers.moment_gaps(a, np.concatenate(chunks))) < 5, (name, kind)

    def test_gram_dof(self):
        assert Ensemble.full_rank(8).gram_dof() == 8
        assert Ensemble.deficient_random(8, 2).gram_dof() == 6
        assert Ensemble.deficient_fixed(np.eye(5)[0]).gram_dof() == 4
        assert Ensemble.explicit(np.eye(5)).gram_dof() is None

    def test_gram_detectors_carry_their_rule(self):
        statistics = {"bayes3": "logdet", "constant": None, "det": "logdet", "lr": "logdet",
                      "random": "trace", "trace": "trace"}
        lr_cut = 2.0 * (log_normalizer((3, 30)) - log_normalizer((3, 29)))
        det_cut = 0.5 * (math.log(30 * 29 * 28) + math.log(29 * 28 * 27))
        lo, hi = TestBayesThreeWayThresholds._thresholds(3, 30)
        cuts = {"bayes3": ((lo, hi), (0, 1, 2)), "constant": ((), ()), "random": ((), ()),
                "det": ((det_cut,), (1, 2)), "lr": ((lr_cut,), (1, 2)),
                "trace": ((3 * 29.5,), (1, 2))}
        for name in registry_names():
            detector = make_detector(name, 3, 30)
            assert (detector.rule is None) == (name == "constant"), name
            assert detector.statistic == statistics[name], name
            assert detector.cuts == pytest.approx(cuts[name][0], rel=1e-14, abs=0), name
            assert detector.labels == cuts[name][1], name
        assert make_detector("lr", 3, 30, 2).labels == (0, 2)
        assert symmetrize_detector(lr_detector(3, 30), 2, RngStream(0)).rule is None

    def test_constant_detector_keeps_the_sample_route(self):
        constant = constant_detector()
        ruleless = Detector("constant", constant.evaluate)
        assert (run_two_way_game(3, 30, constant, 10_000, RngStream(117))
                == run_two_way_game(3, 30, ruleless, 10_000, RngStream(117)))

    def test_explicit_ensemble_keeps_the_sample_route(self):
        lr = lr_detector(2, 6)
        ensemble = Ensemble.explicit(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
        a, b = (detection._success(ensemble, det, 2, 10_000, RngStream(118), 1)
                for det in (lr, Detector("lr", lr.evaluate)))
        assert a == b

    @pytest.mark.parametrize("name", ["trace", "random"])
    def test_more_samples_than_deficient_dof_keep_the_sample_route(self, name):
        # At n = d = 5 the full-rank Gram law W(5, 5) takes the statistic
        # route; the deficient one has 4 degrees of freedom, so it cannot.
        detector = make_detector(name, 5, 5)
        a = run_two_way_game(5, 5, detector, 10_000, RngStream(119))
        b = run_two_way_game(5, 5, Detector(name, detector.evaluate), 10_000, RngStream(119))
        assert a.results[1] == b.results[1]


class TestChunkedStatisticDraws:
    @pytest.mark.parametrize("name,n", [("det", 2), ("trace", 3)])
    def test_one_row_statistics_do_not_depend_on_the_chunk_size(self, monkeypatch, name, n):
        # A one-row statistic is one stream of draws, however many chunks it is drawn in.
        detector = make_detector(name, n, 9)
        ref = run_two_way_game(n, 9, detector, 20_000, RngStream(31), workers=2)
        monkeypatch.setattr(detection, "FOLD_ROWS", 100)
        assert run_two_way_game(n, 9, detector, 20_000, RngStream(31), workers=2) == ref


CUT_CASES = [(1, 3), (2, 60), (3, 30), (5, 8), (50, 300), (299, 300)]


class TestCutCounts:
    """Log-det cut detectors count root determinants past exp((c - c_0)/2) in games: the counts
    equal those of their rule on ``logdet_samples`` drawn from the same streams."""

    @staticmethod
    def _rule_hits(ensemble, detector, n, trials, rng, fold):
        label, p, hits = ensemble.correct_label(), ensemble.gram_dof(), 0
        for index, count in enumerate(batch_counts(trials)):
            stream = rng.child(index)
            for start in range(0, count, fold):
                values = logdet_samples((n, p), min(fold, count - start), stream)
                hits += int(np.count_nonzero(detector.rule(values) == label))
        return hits

    @pytest.mark.parametrize("name,n,d", [(name, n, d) for name in ("lr", "det", "bayes3")
                                          for n, d in CUT_CASES if name != "bayes3" or n < d - 1])
    def test_product_counts_equal_logdet_rule_counts(self, monkeypatch, name, n, d):
        monkeypatch.setattr(detection, "FOLD_ROWS", 37)  # chunks of 37, the last short
        detector = make_detector(name, n, d)
        trials = 3_000 if n < 50 else 2_000
        for k in (0, 1, 2) if name == "bayes3" else (0, 1):
            ensemble = Ensemble.deficient_random(d, k) if k else Ensemble.full_rank(d)
            rng = RngStream(9300 + 7 * n + d + k)
            result = detection._success(ensemble, detector, n, trials, rng, workers=2)
            hits = self._rule_hits(ensemble, detector, n, trials, rng, 37)
            assert result.success == hits / trials and type(result.success) is float, k

    def test_two_way_game_at_deficiency_two(self, monkeypatch):
        monkeypatch.setattr(detection, "FOLD_ROWS", 300)  # one batch: 34 chunks, the last 100
        lr = lr_detector(3, 30, k=2)
        report = run_two_way_game(3, 30, lr, 10_000, RngStream(9400), k=2)
        ensembles = (Ensemble.full_rank(30), Ensemble.deficient_random(30, 2))
        for idx, (ensemble, result) in enumerate(zip(ensembles, report.results)):
            hits = self._rule_hits(ensemble, lr, 3, 10_000, RngStream(9400).child(idx), 300)
            assert result.success == hits / 10_000, idx


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
