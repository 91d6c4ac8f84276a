import json
import math
import subprocess
import sys

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


class TestGameCommand:
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

    def test_determinism_across_workers(self, tmp_path):
        base = ["game", "--mode", "two-way", "--n", "2", "--d", "10",
                "--trials", "10000", "--seed", "9"]
        out1, out4 = tmp_path / "g1.json", tmp_path / "g4.json"
        assert main(base + ["--workers", "1", "--format", "json", "--out", str(out1)]) == 0
        assert main(base + ["--workers", "4", "--format", "json", "--out", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()


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
