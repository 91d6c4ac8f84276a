import json
import math
import subprocess
import sys

import numpy as np
import pytest

from precisionlab import det_moments, tv_chi2_quadrature
from precisionlab.cli import main
from precisionlab.errors import InvariantViolationError

TRIDIAGONAL_FILE = "3\n2 1 0\n1 2 1\n0 1 2\n"
IDENTITY_FILE = "3\n1 0 0\n0 1 0\n0 0 1\n"
PROJECTOR_FILE = "3\n0 0 0\n0 1 0\n0 0 1\n"


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIDIAGONAL_FILE)
    return str(path)


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


class TestBoundTable:
    def test_smallest_table(self, tmp_path):
        code, doc = run_json(["bound-table", "--d-max", "3"], tmp_path)
        assert code == 0
        pairs = [(r["n"], r["d"]) for r in doc["rows"]]
        assert pairs == [(1, 2), (1, 3), (2, 3)]
        # No pair with d <= 3 satisfies n < d/3, so every flag is vacuous-true.
        assert all(r["below_0_6_flag"] for r in doc["rows"])
        assert not any(3 * r["n"] < r["d"] for r in doc["rows"])

    def test_spot_values(self, tmp_path):
        code, doc = run_json(["bound-table", "--d-max", "30"], tmp_path)
        assert code == 0
        by_pair = {(r["n"], r["d"]): r["closed_form_bound"] for r in doc["rows"]}
        assert by_pair[(1, 3)] == 0.5
        assert abs(by_pair[(9, 30)] - 0.5032) < 1e-4
        assert all(r["below_0_6_flag"] for r in doc["rows"])

    def test_rejects_tiny_dmax(self, tmp_path, capsys):
        assert main(["bound-table", "--d-max", "2"]) == 2


class TestTvCommand:
    def test_json_schema_and_determinism(self, tmp_path):
        args = ["tv", "--n", "2", "--d", "7", "--trials", "20000", "--seed", "1"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--format", "json", "--out", str(out1)]) == 0
        assert main(args + ["--format", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        for key in ("closed_form_bound", "mc_estimate", "mc_standard_error"):
            assert key in doc
        assert doc["seed"] == 1

    def test_worker_count_invisible_in_output(self, tmp_path):
        base = ["tv", "--n", "3", "--d", "12", "--trials", "20000", "--seed", "5"]
        out1 = tmp_path / "w1.json"
        out4 = tmp_path / "w4.json"
        assert main(base + ["--workers", "1", "--format", "json", "--out", str(out1)]) == 0
        assert main(base + ["--workers", "4", "--format", "json", "--out", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_scalar_case_matches_quadrature(self, tmp_path):
        code, doc = run_json(
            ["tv", "--n", "1", "--d", "2", "--trials", "100000", "--seed", "3"], tmp_path
        )
        assert code == 0
        assert abs(doc["mc_estimate"] - tv_chi2_quadrature(1, 2)) < 3 * doc["mc_standard_error"]

    def test_invariant_failure_exit_code(self, tmp_path, monkeypatch):
        import precisionlab.cli as cli_module

        def boom(report):
            raise InvariantViolationError("forced for the exit-code test")

        monkeypatch.setattr(cli_module, "validate_chain", boom)
        code = main(["tv", "--n", "2", "--d", "7", "--trials", "10000", "--seed", "0",
                     "--format", "json", "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestAlphaCommand:
    def test_tridiagonal_analytic_block(self, tri_file, tmp_path):
        code, doc = run_json(
            ["alpha", "--matrix-file", tri_file, "--epsilon", "0.2",
             "--trials", "200000", "--seed", "2"],
            tmp_path,
        )
        assert code == 0
        assert doc["analytic_ii"] == 2.0
        assert doc["analytic_ij"] == 1.0
        assert doc["analytic_jj"] == 1.5
        assert abs(doc["mc_ii"] - 2.0) < 5 * doc["se_ii"] + 0.2**2
        assert doc["accepted"] >= 1000

    def test_identity_both_paths(self, tmp_path):
        path = tmp_path / "id.txt"
        path.write_text(IDENTITY_FILE)
        code, doc = run_json(
            ["alpha", "--matrix-file", str(path), "--epsilon", "0.3",
             "--trials", "100000", "--seed", "4"],
            tmp_path,
        )
        assert code == 0
        assert doc["analytic_ii"] == 1.0 and doc["analytic_ij"] == 0.0
        assert abs(doc["mc_ij"]) < 5 * doc["se_ij"] + 0.3**2

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n2 1 0\n1 2\n0 1 2\n")
        assert main(["alpha", "--matrix-file", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_asymmetric_file(self, tmp_path, capsys):
        path = tmp_path / "asym.txt"
        path.write_text("2\n1 0.5\n0.4 1\n")
        assert main(["alpha", "--matrix-file", str(path)]) == 2
        assert "symmetric" in capsys.readouterr().err

    def test_no_pass_exits_2(self, tri_file, capsys):
        assert main(["alpha", "--matrix-file", tri_file, "--epsilon", "1e-9",
                     "--trials", "10000"]) == 2
        assert "only 0 acceptances" in capsys.readouterr().err

    def test_not_positive_definite_file(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text(PROJECTOR_FILE)
        assert main(["alpha", "--matrix-file", str(path), "--trials", "10000"]) == 2


class TestMomentsCommand:
    def test_matches_formula(self, tmp_path):
        code, doc = run_json(
            ["moments", "--n", "2", "--d", "4", "--trials", "100000", "--seed", "0"],
            tmp_path,
        )
        assert code == 0
        exact = det_moments((2, 4))
        assert doc["mean_formula"] == exact.mean
        assert doc["variance_formula"] == exact.variance
        assert abs(doc["mean_mc"] - exact.mean) < 5 * doc["mean_se"]
        assert abs(doc["variance_mc"] - exact.variance) < 5 * doc["variance_se"]

    def test_fourth_moment_beyond_float_range_is_reported(self, tmp_path):
        # The raw fourth central moment of det W(52, 63) overflows a double;
        # the reducer folds det / E det, and the reported numbers fit.
        out = tmp_path / "m.json"
        assert main(["moments", "--n", "52", "--d", "63", "--trials", "10000",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
        assert abs(doc["mean_mc"] - doc["mean_formula"]) < 5 * doc["mean_se"]
        assert doc["variance_se"] > 0.0

    def test_moments_beyond_float_range_are_refused(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["moments", "--n", "80", "--d", "300", "--trials", "10000",
                     "--format", "json", "--out", str(out)])
        assert code == 2
        assert "float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n,d,seeds", [(3, 9, range(5000, 5040)),
                                           (2, 7, range(5100, 5140)),
                                           (1, 30, range(5200, 5240))])
    def test_standard_errors_are_calibrated(self, tmp_path, n, d, seeds):
        # Against the exact det W(n, d) moments, with the seed-sweep gate of test_tvbounds.
        z = {"mean": [], "variance": []}
        for seed in seeds:
            code, doc = run_json(["moments", "--n", str(n), "--d", str(d), "--trials", "100000",
                                  "--seed", str(seed)], tmp_path)
            assert code == 0
            for key, values in z.items():
                values.append((doc[f"{key}_mc"] - doc[f"{key}_formula"]) / doc[f"{key}_se"])
        for key, values in z.items():
            assert abs(np.mean(values)) <= 0.6, (key, values)
            assert 0.6 <= np.std(values, ddof=1) <= 1.4, (key, values)

    @pytest.mark.parametrize("trials", ["1", "9999"])
    def test_trial_floor_exit_code(self, trials, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["moments", "--n", "3", "--d", "3", "--trials", trials,
                     "--format", "json", "--out", str(out)])
        assert code == 2
        assert "at least 10000 trials" in capsys.readouterr().err
        assert not out.exists()


class TestGameCommand:
    TWO_WAY = {"success_rank2": 0.55907, "se_rank2": 0.0015700660339616293,
               "success_rank1": 0.53286, "se_rank1": 0.001577720572218034,
               "joint_success": 0.545965, "joint_se": 0.0011129139179424437}
    THREE_WAY = {"success_rank2": 0.53494, "se_rank2": 0.0015772735856534213,
                 "success_rank1": 0.05298, "se_rank1": 0.0007083298638346403,
                 "success_rank0": 0.51639, "se_rank0": 0.001580289112472778,
                 "joint_success": 0.3681033333333333, "joint_se": 0.000780799934468918}

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_benchmark_calls_keep_their_numbers(self, tmp_path, workers):
        # The three game calls of the benchmark at --seed 3 and 1e5 trials; the fixed-direction
        # deficient Gram law is the random one's, so it prints the two-way numbers.
        calls = ((["two-way", "--n", "3", "--d", "30", "--detector", "lr"], self.TWO_WAY),
                 (["three-way", "--n", "2", "--d", "60", "--detector", "bayes3"], self.THREE_WAY),
                 (["fixed-theta", "--n", "3", "--d", "30", "--detector", "lr", "--theta-seed",
                   "3"], self.TWO_WAY))
        for argv, expected in calls:
            code, doc = run_json(["game", "--mode", *argv, "--trials", "100000", "--seed", "3",
                                  "--workers", workers], tmp_path)
            assert code == 0
            assert {key: doc[key] for key in expected} == expected, argv[0]

    def test_two_way_respects_ceiling(self, tmp_path):
        code, doc = run_json(
            ["game", "--mode", "two-way", "--n", "3", "--d", "30", "--detector", "lr",
             "--trials", "20000", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        assert doc["joint_success"] <= doc["ceiling"] + 3 * doc["joint_se"]
        assert doc["detector"] == "lr"

    def test_unknown_detector(self, capsys):
        code = main(["game", "--mode", "two-way", "--n", "3", "--d", "30",
                     "--detector", "nosuch", "--trials", "10000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nosuch" in err and "lr" in err

    def test_three_way_near_one_third(self, tmp_path):
        code, doc = run_json(
            ["game", "--mode", "three-way", "--n", "2", "--d", "60",
             "--trials", "20000", "--seed", "11"],
            tmp_path,
        )
        assert code == 0
        assert doc["detector"] == "bayes3"
        assert 0.31 < doc["joint_success"] < 0.40
        assert "success_rank0" in doc

    def test_fixed_theta_reports_theta_seed(self, tmp_path):
        code, doc = run_json(
            ["game", "--mode", "fixed-theta", "--n", "2", "--d", "6",
             "--trials", "10000", "--seed", "5", "--theta-seed", "3"],
            tmp_path,
        )
        assert code == 0
        assert doc["theta_seed"] == 3
        assert "success_rank1" in doc and "success_rank2" in doc

    @pytest.mark.parametrize("mode", ["two-way", "three-way", "fixed-theta"])
    def test_trial_floor_exit_code(self, mode, capsys):
        code = main(["game", "--mode", mode, "--n", "2", "--d", "8", "--trials", "9999"])
        assert code == 2
        assert "at least 10000 trials" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["2", "5"])
    def test_fixed_theta_rejects_deficiency_other_than_one(self, k, capsys):
        code = main(["game", "--mode", "fixed-theta", "--n", "2", "--d", "8", "--k", k,
                     "--trials", "10000"])
        assert code == 2
        assert f"--k {k}" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["2", "5"])
    def test_three_way_rejects_deficiency_other_than_one(self, k, capsys):
        # The three-way game has fixed deficiencies 0, 1 and 2; a detector
        # built for another --k would be scored against the wrong game.
        code = main(["game", "--mode", "three-way", "--n", "2", "--d", "8", "--k", k,
                     "--detector", "trace", "--trials", "10000"])
        assert code == 2
        assert f"--k {k}" in capsys.readouterr().err

    def test_determinism_across_workers(self, tmp_path):
        base = ["game", "--mode", "two-way", "--n", "2", "--d", "10",
                "--trials", "20000", "--seed", "9"]
        out1, out4 = tmp_path / "g1.json", tmp_path / "g4.json"
        assert main(base + ["--workers", "1", "--format", "json", "--out", str(out1)]) == 0
        assert main(base + ["--workers", "4", "--format", "json", "--out", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


@pytest.mark.parametrize("case", [
    ["tv", "--n", "2", "--d", "7"],
    ["game", "--mode", "two-way", "--n", "3", "--d", "30"],
    ["game", "--mode", "three-way", "--n", "2", "--d", "12"],
    ["game", "--mode", "fixed-theta", "--n", "2", "--d", "8"],
    ["alpha", "--epsilon", "0.3"],
    ["moments", "--n", "3", "--d", "3"],
], ids=lambda case: "-".join(case[:3]))
def test_monte_carlo_json_is_strict_at_trial_floor(case, tri_file, tmp_path):
    if case[0] == "alpha":
        case = case + ["--matrix-file", tri_file]
    out = tmp_path / "out.json"
    args = case + ["--trials", "10000", "--seed", "4", "--format", "json", "--out", str(out)]
    assert main(args) == 0
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert doc["trials"] == 10000


@pytest.mark.parametrize("case", [
    ["tv", "--n", "3", "--d", "30", "--trials", "3000000"],
    ["moments", "--n", "3", "--d", "9", "--trials", "100000"],
    ["alpha", "--epsilon", "0.3", "--trials", "6000000"],
], ids=lambda case: case[0])
def test_streamed_output_is_identical_for_any_worker_count(case, tri_file, tmp_path):
    # Each size puts more than one chunk into every batch: alpha's 6e6 proposals pass
    # about 1e6 rows, more than 32 folds of 21,845.
    if case[0] == "alpha":
        case = case + ["--matrix-file", tri_file]
    outputs = []
    for workers in ("1", "2", "4"):
        out = tmp_path / f"w{workers}.json"
        assert main(case + ["--seed", "3", "--workers", workers, "--format", "json",
                            "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


class TestSectionCommand:
    def test_segment_section(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text(PROJECTOR_FILE)
        code, doc = run_json(["section", "--matrix-file", str(path)], tmp_path)
        assert code == 0
        assert doc["rank"] == 1
        assert doc["c11"] == 0.0
        assert math.isclose(doc["c22"], 1.0 / 3.0, rel_tol=1e-12)

    def test_non_finite_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("2\n1 nan\nnan 1\n")
        assert main(["section", "--matrix-file", str(path)]) == 2
        assert "line 2, column 2" in capsys.readouterr().err

    def test_asymmetry_below_unit_scale_exit_code(self, tmp_path, capsys):
        # Entry (1,2) differs from (2,1) by a tenth of the largest entry; the
        # tolerance is relative at every scale, as it is for this file * 1e13.
        path = tmp_path / "tiny.txt"
        path.write_text("3\n1e-13 1e-14 0\n0 1e-13 0\n0 0 1e-13\n")
        assert main(["section", "--matrix-file", str(path)]) == 2
        assert "line 2, column 2" in capsys.readouterr().err

    def test_full_rank_section(self, tmp_path):
        path = tmp_path / "id.txt"
        path.write_text(IDENTITY_FILE)
        code, doc = run_json(["section", "--matrix-file", str(path)], tmp_path)
        assert code == 0
        assert doc["rank"] == 2
        assert doc["c11"] == 0.25


class TestOutputFormats:
    def test_csv_headers_match_json_keys(self, tmp_path):
        base = ["moments", "--n", "1", "--d", "5", "--trials", "10000", "--seed", "0"]
        jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
        assert main(base + ["--format", "json", "--out", str(jpath)]) == 0
        assert main(base + ["--format", "csv", "--out", str(cpath)]) == 0
        doc = json.loads(jpath.read_text())
        lines = cpath.read_text().splitlines()
        assert lines[0].split(",") == list(doc.keys())
        assert cpath.read_bytes().count(b"\r\n") == 2  # RFC 4180 line endings

    def test_bound_table_csv_rows_match_json(self, tmp_path):
        base = ["bound-table", "--d-max", "4"]
        jpath, cpath = tmp_path / "b.json", tmp_path / "b.csv"
        assert main(base + ["--format", "json", "--out", str(jpath)]) == 0
        assert main(base + ["--format", "csv", "--out", str(cpath)]) == 0
        doc = json.loads(jpath.read_text())
        lines = cpath.read_text().splitlines()
        assert lines[0].split(",") == list(doc["rows"][0].keys())
        assert len(lines) == 1 + len(doc["rows"])

    def test_human_format_prints_bound_next_to_estimate(self, capsys):
        assert main(["tv", "--n", "2", "--d", "7", "--trials", "10000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "closed_form_bound" in out
        assert "mc_estimate" in out


class TestModuleInvocation:
    def test_python_dash_m(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "precisionlab", "tv", "--n", "1", "--d", "3",
             "--trials", "10000", "--seed", "0", "--format", "json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["closed_form_bound"] == 0.5

    def test_consecutive_calls_share_no_parser_state(self, capsys):
        # One parser serves every call in a process; a flag given to one call
        # must not reach the next.  Each call alone runs in a fresh interpreter.
        base = ["tv", "--n", "1", "--d", "3", "--trials", "10000", "--seed", "0"]
        calls = [base + ["--format", "json"], base]
        together = []
        for args in calls:
            assert main(args) == 0
            together.append(capsys.readouterr().out)
        alone = [subprocess.run([sys.executable, "-m", "precisionlab", *args],
                                capture_output=True, text=True, check=True).stdout
                 for args in calls]
        assert together == alone
        assert json.loads(together[0])["seed"] == 0
        assert together[1].split()[:2] == ["command", "tv"]  # human, not the first call's json
