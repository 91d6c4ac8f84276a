"""Acceptance gate: one test per criterion, full stated sizes and tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Everything is seeded; reruns are bit-identical.
"""

import json
import math

import numpy as np
import pytest

import helpers
from precisionlab import (
    RngStream,
    alpha_analytic,
    alpha_monte_carlo,
    conditional_covariance_schur,
    det_moments,
    gram_many,
    kd_constant,
    make_detector,
    projector_complement,
    registry_names,
    run_three_way_game,
    run_two_way_game,
    section_covariance,
    tv_chi2_quadrature,
    tv_closed_form_bound,
    tv_exact_mc,
    tv_report,
    uniform_sphere_many,
    wishart_samples,
)
from precisionlab.cli import main
from precisionlab.parallel import run_batched
from precisionlab.sampler import deficient_batches

TRIDIAGONAL = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_bound_threshold():
    worst = 0.0
    for d in range(2, 301):
        for n in range(1, d):
            if 3 * n < d:
                worst = max(worst, tv_closed_form_bound(n, d))
    report("criterion 01 bound threshold",
           worst < 0.6,
           f"max bound over d<=300, n<d/3 is {worst:.6f} (< 0.6 required)")


def test_c02_bound_spot_values():
    v13 = tv_closed_form_bound(1, 3)
    v930 = tv_closed_form_bound(9, 30)
    ok = (v13 == 0.5) and (abs(v930 - 0.5032) <= 1e-4)
    report("criterion 02 bound spot values", ok,
           f"bound(1,3)={v13!r} (exactly 0.5), bound(9,30)={v930:.6f} (0.5032 +- 1e-4)")


@pytest.mark.parametrize("n,p", [(1, 5), (2, 4), (3, 9), (4, 12)])
def test_c03_determinant_moments(n, p):
    trials = 1_000_000
    moments = det_moments((n, p))
    if n == 1:
        assert moments.mean == float(p) and moments.variance == float(2 * p)

    def batch(count, stream):
        return np.linalg.det(wishart_samples((n, p), count, stream))

    dets = np.concatenate(run_batched(batch, trials, RngStream(300 + 10 * n + p)))
    mean, mean_se = helpers.mean_se(dets)
    var, var_stderr = helpers.var_se(dets)
    mean_dev = abs(mean - moments.mean) / mean_se
    var_dev = abs(var - moments.variance) / var_stderr
    report(f"criterion 03 det moments (n={n}, p={p})",
           mean_dev < 5 and var_dev < 5,
           f"mean {mean:.4f} vs {moments.mean:.4f} ({mean_dev:.2f} se), "
           f"var {var:.1f} vs {moments.variance:.1f} ({var_dev:.2f} se)")


def test_c04_projected_ensemble_law():
    n, d, trials = 3, 10, 1_000_000

    def batch(count, stream):
        g = gram_many(deficient_batches(d, 1, n, count, stream))
        return np.stack([np.linalg.det(g), np.trace(g, axis1=-2, axis2=-1)], axis=1)

    out = np.concatenate(run_batched(batch, trials, RngStream(44)))
    dets, traces = out[:, 0], out[:, 1]
    moments = det_moments((n, d - 1))
    t_mean, t_se = helpers.mean_se(traces)
    d_mean, d_se = helpers.mean_se(dets)
    d_var, d_var_se = helpers.var_se(dets)
    devs = (abs(t_mean - n * (d - 1)) / t_se,
            abs(d_mean - moments.mean) / d_se,
            abs(d_var - moments.variance) / d_var_se)
    report("criterion 04 projected ensemble law",
           all(x < 5 for x in devs),
           f"trace/det/var deviations = {devs[0]:.2f}/{devs[1]:.2f}/{devs[2]:.2f} se "
           f"against W({n},{d - 1}) moments")


def test_c05_exact_tv_representation():
    est = tv_exact_mc(1, 2, 1_000_000, RngStream(55))
    oracle = tv_chi2_quadrature(1, 2)
    dev = abs(est.estimate - oracle) / est.standard_error
    report("criterion 05 exact TV representation",
           dev < 3,
           f"mc {est.estimate:.6f} vs quadrature {oracle:.6f} ({dev:.2f} se)")


def test_c06_inequality_chain():
    trials = 100_000
    worst_gap = -math.inf
    pairs = 0
    for n in (1, 2, 3):
        for d in range(n + 2, 31):
            rep = tv_report(n, d, trials, RngStream(6000 + 100 * n + d))
            link1 = rep.mc_estimate - 3 * rep.mc_standard_error \
                <= rep.sqrt_moment_ratio_bound + 3 * rep.sqrt_moment_ratio_se
            link2 = rep.sqrt_moment_ratio_bound - 3 * rep.sqrt_moment_ratio_se \
                <= rep.moment_ratio_bound
            algebra = abs(rep.moment_ratio_bound - rep.closed_form_bound) \
                <= 1e-12 * max(1.0, rep.closed_form_bound)
            assert link1 and link2 and algebra, (n, d)
            pairs += 1
            worst_gap = max(worst_gap,
                            rep.mc_estimate - rep.sqrt_moment_ratio_bound,
                            rep.sqrt_moment_ratio_bound - rep.moment_ratio_bound)
    report("criterion 06 inequality chain",
           pairs == 28 + 27 + 26,
           f"triple nondecreasing on all {pairs} grid pairs; worst raw link gap "
           f"{worst_gap:.5f} (negative means strictly ordered before slack)")


def test_c07_alpha_identity():
    count = 0
    for seed in range(50):
        d = 3 + (seed % 10)
        a = helpers.random_spd(d, seed=7000 + seed)
        alpha = alpha_analytic(a, 0, 1).values
        schur = conditional_covariance_schur(a, 0, 1)
        rel = np.max(np.abs(alpha - schur)) / np.max(np.abs(schur))
        assert rel < 1e-9, seed
        count += 1
    tri = alpha_analytic(TRIDIAGONAL, 0, 1).values
    exact = np.max(np.abs(tri - np.array([[2.0, 1.0], [1.0, 1.5]]))) < 1e-12
    report("criterion 07 alpha identity",
           count == 50 and exact,
           "50 seeded matrices match the Schur path at 1e-9; "
           "tridiagonal block equals [[2, 1], [1, 3/2]]")


def test_c08_conditioning_limit():
    trials = 10_000_000
    analytic = alpha_analytic(TRIDIAGONAL, 0, 1).values
    deviations = []
    details = []
    for idx, eps in enumerate((0.2, 0.1, 0.05)):
        est = alpha_monte_carlo(TRIDIAGONAL, 0, 1, eps, trials, RngStream(8000 + idx),
                                workers=4)
        exact_slab = helpers.alpha_slab_exact_3d(TRIDIAGONAL, 0, 1, eps)
        # The sampler must match the exact finite-slab law at every width.
        assert np.all(np.abs(est.values - exact_slab) < 5 * est.standard_errors), eps
        deviations.append(float(np.max(np.abs(exact_slab - analytic))))
        if eps == 0.05:
            final_ok = np.all(np.abs(est.values - analytic)
                              < 5 * est.standard_errors + eps**2)
            details.append(f"eps=0.05 deviation within 5 se + eps^2 ({est.accepted} accepted)")
            assert final_ok
    monotone = deviations[0] > deviations[1] > deviations[2]
    report("criterion 08 conditioning limit",
           monotone,
           f"finite-slab bias {deviations[0]:.2e} > {deviations[1]:.2e} > "
           f"{deviations[2]:.2e}; {details[0]}")


def test_c09_section_proportionality():
    worst = 0.0
    for d in range(3, 9):
        k = kd_constant(d)
        assert k == 4.0
        for seed in range(20):
            a = helpers.random_spd(d, seed=9000 + 100 * d + seed)
            alpha = alpha_analytic(a, 0, 1).values
            section = section_covariance(a).matrix
            dev = np.max(np.abs(k * section - alpha)) / max(1.0, np.max(np.abs(alpha)))
            worst = max(worst, float(dev))
            assert dev < 1e-9, (d, seed)
    # Independent brute-force check of the section covariance itself at d=3.
    a = helpers.random_spd(3, seed=991)
    mc, accepted = helpers.section_disk_mc(a, trials=800_000, seed=17)
    se = 2.0 * float(np.max(np.abs(mc))) / math.sqrt(accepted)
    mc_ok = np.max(np.abs(section_covariance(a).matrix - mc)) < 5 * se
    report("criterion 09 section proportionality",
           mc_ok,
           f"single constant 4 across 120 matrices (worst rel dev {worst:.2e}); "
           f"disk rejection oracle agrees at d=3 ({accepted} points)")


def test_c10_rank_trichotomy():
    d, count = 4, 100_000
    thetas = uniform_sphere_many(d, count, RngStream(10))
    ranks = section_covariance(np.eye(d) - thetas[:, :, None] * thetas[:, None, :]).rank
    all_one = np.all(ranks == 1)
    perp = np.zeros(d)
    perp[d - 1] = 1.0
    rank_perp = section_covariance(projector_complement(perp)).rank
    killer = np.diag([0.0, 0.0, 1.0, 1.0])
    rank_killer = section_covariance(killer).rank
    report("criterion 10 rank trichotomy",
           bool(all_one) and rank_perp == 2 and rank_killer == 0,
           f"{count} random directions all rank 1; plane-orthogonal direction rank "
           f"{rank_perp}; plane-killing projector rank {rank_killer}")


def test_c11_detection_ceiling():
    n, d, game_trials = 3, 30, 100_000
    tv = tv_exact_mc(n, d, 1_000_000, RngStream(1111))
    ceiling = 0.5 * (1.0 + tv.estimate)
    summaries = []
    lr_gap_se = None
    for idx, name in enumerate(registry_names()):
        detector = make_detector(name, n, d)
        rep = run_two_way_game(n, d, detector, game_trials, RngStream(1200 + idx))
        combined = math.hypot(rep.joint_standard_error, 0.5 * tv.standard_error)
        assert rep.joint_success <= ceiling + 3 * combined, name
        by_label = {r.label: r.success for r in rep.results}
        assert not (by_label[2] > 0.9 and by_label[1] > 0.9), name
        summaries.append(f"{name}={rep.joint_success:.4f}")
        if name == "lr":
            lr_gap_se = abs(rep.joint_success - ceiling) / combined
    assert lr_gap_se is not None and lr_gap_se < 3
    report("criterion 11 detection ceiling",
           True,
           f"ceiling {ceiling:.4f}; joint successes {', '.join(summaries)}; "
           f"lr attains ceiling within {lr_gap_se:.2f} se")


def test_c12_three_way_game():
    rep = run_three_way_game(2, 60, 100_000, RngStream(12))
    ok = 0.323 <= rep.joint_success <= 0.383
    report("criterion 12 three-way success",
           ok,
           f"bayes joint success {rep.joint_success:.4f} in [0.323, 0.383] "
           "(desk-scale calibration window)")


def test_c13_cli_determinism(tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("3\n2 1 0\n1 2 1\n0 1 2\n")
    proj = tmp_path / "proj.txt"
    proj.write_text("3\n0 0 0\n0 1 0\n0 0 1\n")
    cases = [
        ["bound-table", "--d-max", "12"],
        ["tv", "--n", "2", "--d", "7", "--trials", "20000", "--seed", "1"],
        ["alpha", "--matrix-file", str(tri), "--epsilon", "0.3",
         "--trials", "400000", "--seed", "2"],
        ["moments", "--n", "2", "--d", "4", "--trials", "20000", "--seed", "3"],
        ["game", "--mode", "two-way", "--n", "3", "--d", "30", "--detector", "lr",
         "--trials", "20000", "--seed", "7"],
        ["game", "--mode", "three-way", "--n", "2", "--d", "12",
         "--trials", "20000", "--seed", "8"],
        ["game", "--mode", "fixed-theta", "--n", "2", "--d", "8",
         "--trials", "20000", "--seed", "9", "--theta-seed", "4"],
        ["section", "--matrix-file", str(proj)],
    ]
    for idx, case in enumerate(cases):
        outputs = []
        for run, workers in enumerate(("1", "1", "4")):
            out = tmp_path / f"c{idx}_{run}.json"
            args = case + ["--format", "json", "--out", str(out)]
            if any(flag == "--seed" for flag in case):
                args += ["--workers", workers]
            assert main(args) == 0, case
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], case[0]
        json.loads(outputs[0])  # well-formed document
    report("criterion 13 CLI determinism",
           True,
           f"{len(cases)} commands byte-identical across repeat runs and workers in {{1, 4}}")
