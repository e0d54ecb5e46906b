import json
import math

import numpy as np
import pytest

from spherecond.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_tail_reference(self, capsys):
        code, out, _ = run(capsys, "bounds", "tail", "--p", "3", "--d", "1",
                           "--sigma", "1", "--t", "10")
        assert code == 0
        assert out.strip() == "3.50740"

    def test_expectation_problem(self, capsys):
        code, out, _ = run(capsys, "bounds", "expectation", "--problem",
                           "matrix-inversion", "--n", "2", "--sigma", "1")
        assert code == 0
        assert out.strip() == "9.65888"

    def test_linear_applicable(self, capsys):
        code, out, _ = run(capsys, "bounds", "linear", "--p", "2", "--d", "1",
                           "--sigma", "1", "--eps", "0.01")
        assert code == 0
        assert out.strip() == "0.514925"

    def test_linear_not_applicable(self, capsys):
        code, out, _ = run(capsys, "bounds", "linear", "--p", "2", "--d", "1",
                           "--sigma", "1", "--eps", "0.9")
        assert code == 0
        assert out.strip() == "not applicable"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "bounds", "tail", "--p", "3", "--d", "1",
                           "--sigma", "1", "--t", "10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["p"] == 3
        assert doc["value"] == pytest.approx(3.50740, abs=5e-6)

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "tail", "--p", "3", "--d", "1",
                           "--sigma", "1", "--t", "0.5")
        assert code == 2
        assert "error" in err

    def test_missing_t(self, capsys):
        code, _, err = run(capsys, "bounds", "tail", "--p", "3", "--d", "1",
                           "--sigma", "1")
        assert code == 2


class TestEstimateCommand:
    def test_tail_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "tail"
        code, _, _ = run(capsys, "estimate", "tail", "--problem", "matrix-inversion",
                         "--n", "2", "--sigma", "1", "--samples", "20000",
                         "--seed", "0", "--out", str(out))
        assert code == 0
        lines = (tmp_path / "tail.csv").read_text().splitlines()
        assert lines[0] == "t,empirical,ci_low,ci_high,bound,dominated"
        assert len(lines) == 7  # header + default 6-point t grid
        for line in lines[1:]:
            cols = line.split(",")
            assert len(cols) == 6
            assert cols[5] == "true"
            assert float(cols[2]) <= float(cols[1]) <= float(cols[3])
        manifest = json.loads((tmp_path / "tail.manifest.json").read_text())
        assert manifest["master_seed"] == 0
        assert manifest["sample_count"] == 20000
        assert manifest["worker_count"] == 1
        assert "command_line" in manifest
        assert manifest["wall_time_seconds"] >= 0.0
        assert manifest["artifact_version"]

    def test_manifest_records_argv_given_to_main(self, tmp_path, capsys):
        argv = ["estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
                "--samples", "2000", "--seed", "5", "--out", str(tmp_path / "cl")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        manifest = json.loads((tmp_path / "cl.manifest.json").read_text())
        assert manifest["command_line"] == " ".join(["spherecond", *argv])
        assert "argv" not in manifest["parameters"]

    def test_worker_count_invariance(self, tmp_path, capsys):
        a, b = tmp_path / "w1", tmp_path / "w4"
        run(capsys, "estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
            "--sigma", "0.5", "--samples", "20000", "--seed", "3",
            "--workers", "1", "--out", str(a))
        run(capsys, "estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
            "--sigma", "0.5", "--samples", "20000", "--seed", "3",
            "--workers", "4", "--out", str(b))
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()

    def test_logmean(self, tmp_path, capsys):
        out = tmp_path / "lm"
        code, _, _ = run(capsys, "estimate", "logmean", "--problem", "matrix-inversion",
                         "--n", "2", "--sigma", "1", "--samples", "20000",
                         "--seed", "1", "--out", str(out))
        assert code == 0
        lines = (tmp_path / "lm.csv").read_text().splitlines()
        assert lines[0] == "empirical_mean_ln,ci_low,ci_high,bound,dominated"
        cols = lines[1].split(",")
        # E ln(1/sigma_min) for 2x2 on S^3 is moderate; bound is 9.65888
        assert float(cols[3]) == pytest.approx(6 * math.log(2) + 5.5, rel=1e-10)
        assert cols[4] == "true"

    def test_tube_subsphere(self, tmp_path, capsys):
        out = tmp_path / "tube"
        code, _, _ = run(capsys, "estimate", "tube", "--variety", "subsphere:3,2",
                         "--sigma", "1", "--samples", "20000", "--seed", "2",
                         "--eps-grid", "0.1,0.3", "--out", str(out))
        assert code == 0
        lines = (tmp_path / "tube.csv").read_text().splitlines()
        assert lines[0] == "eps,empirical_ratio,ci_low,ci_high,bound,dominated"
        assert len(lines) == 3

    def test_tube_curve_from_json(self, tmp_path, capsys):
        doc = {"p": 2, "degree": 2,
               "monomials": [{"alpha": [2, 0, 0], "coeff": 1.0},
                             {"alpha": [0, 2, 0], "coeff": -1.0}]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "ctube"
        code, _, _ = run(capsys, "estimate", "tube", "--variety", f"curve:{path}",
                         "--sigma", "1", "--samples", "10000", "--seed", "4",
                         "--eps-grid", "0.05,0.2", "--out", str(out))
        assert code == 0
        for line in (tmp_path / "ctube.csv").read_text().splitlines()[1:]:
            assert line.split(",")[5] == "true"

    def test_center_file_with_warning(self, tmp_path, capsys):
        center = tmp_path / "center.json"
        center.write_text(json.dumps([2.0, 0.0, 0.0, 0.0]))  # norm 2 -> warning
        out = tmp_path / "cf"
        code, _, err = run(capsys, "estimate", "tail", "--problem", "matrix-inversion",
                           "--n", "2", "--sigma", "0.5", "--samples", "10000",
                           "--seed", "5", "--center", str(center), "--out", str(out))
        assert code == 0
        assert "warning" in err

    def test_random_center_is_seeded(self, tmp_path, capsys):
        a, b = tmp_path / "r1", tmp_path / "r2"
        for out in (a, b):
            run(capsys, "estimate", "tail", "--problem", "matrix-inversion",
                "--n", "2", "--sigma", "0.5", "--samples", "10000", "--seed", "6",
                "--center", "random", "--out", str(out))
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_unknown_variety(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "tube", "--variety", "torus:3",
                           "--samples", "100", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    def test_jintegrals(self, capsys):
        code, out, _ = run(capsys, "verify", "jintegrals")
        assert code == 0
        assert "overall: pass" in out
        assert "quadrature vs closed form" in out and "max rel err" in out

    def test_kinematic_single_case(self, capsys):
        code, out, _ = run(capsys, "verify", "kinematic", "--p", "3", "--i", "1",
                           "--alpha", "0.6", "--samples", "100000")
        assert code == 0
        assert "overall: pass" in out

    def test_weyltube(self, capsys):
        code, out, _ = run(capsys, "verify", "weyltube")
        assert code == 0
        assert "overall: pass" in out

    def test_eckart_young(self, capsys):
        code, out, _ = run(capsys, "verify", "eckart-young", "--trials", "100")
        assert code == 0
        assert "overall: pass" in out

    def test_wilkinson(self, capsys):
        code, out, _ = run(capsys, "verify", "wilkinson", "--trials", "50")
        assert code == 0
        assert "overall: pass" in out

    def test_cntr(self, capsys):
        code, out, _ = run(capsys, "verify", "cntr", "--trials", "30")
        assert code == 0
        assert "overall: pass" in out


class TestOutputFormat:
    def test_csv_17_significant_digits(self, tmp_path, capsys):
        out = tmp_path / "digits"
        run(capsys, "estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
            "--sigma", "1", "--samples", "10000", "--seed", "7", "--out", str(out))
        line = (tmp_path / "digits.csv").read_text().splitlines()[1]
        bound = line.split(",")[4]
        # round-trips exactly through float
        assert float(bound) == float(f"{float(bound):.17g}")
        assert len(bound.replace(".", "").replace("-", "").lstrip("0")) >= 10
