import importlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import spherecond
from spherecond import (
    Cap,
    DeterminantVariety,
    ProblemDescriptor,
    RngStream,
    SpherePoint,
    cli,
    conditioning,
    discriminant_distance_2x2,
    eigenvalue_condition,
    frobenius_condition,
    linear_tail_bound,
    log_tail_bound,
    mu_norm,
    system_projective_distance,
    tail_bound,
    tube_ratio_bound,
    varieties,
)
from spherecond.cli import EXIT_VERIFY_FAIL, main
from spherecond.conditioning import planted_systems
from spherecond.varieties import _BLOCK, _cap_block, run_blocks

import cntr_reference

# cli binds numpy and the library on the first estimate or verify; tests below also
# call its private helpers directly, so bind them now
cli._library()


CONIC = {"p": 2, "degree": 2, "monomials": [{"alpha": [2, 0, 0], "coeff": 1.0},
                                           {"alpha": [0, 2, 0], "coeff": -1.0}]}


# estimate inputs whose error must name a flag; {tmp} holds _write_flag_inputs' files
NAMED_FLAG_CASES = [
    # a center whose length is not p + 1
    (["tail", "--problem", "matrix-inversion", "--n", "2", "--center", "{tmp}/c3.json"],
     "--center"),
    (["tube", "--variety", "subsphere:3,1", "--center", "{tmp}/c3.json"], "--center"),
    (["tube", "--variety", "curve:{tmp}/conic.json", "--center", "{tmp}/c4.json"], "--center"),
    (["tube"], "--variety"),
    (["logmean", "--n", "2"], "--problem"),
    (["tail", "--problem", "moore-penrose", "--l", "3"], "--m"),
    # malformed specs: the error names the flag and the form it takes
    (["tail", "--problem", "matrix-inversion", "--n", "2", "--t-grid", "log:2:1000"],
     "--t-grid"),
    (["tube", "--variety", "subsphere:3"], "--variety"),
    (["tube", "--variety", "determinant:2", "--eps-grid", ""], "--eps-grid"),
    # values out of range: the error names the flag and the value
    (["tail", "--problem", "matrix-inversion", "--n", "2", "--t-grid", "10,nan"], "--t-grid"),
    (["tube", "--variety", "determinant:2", "--eps-grid", "2"], "--eps-grid"),
    (["tail", "--problem", "matrix-inversion", "--n", "2", "--sigma", "2"], "--sigma"),
    (["tube", "--variety", "subsphere:2,5"], "--variety"),
]


def _write_flag_inputs(tmp_path):
    """Centers with 3 and 4 coordinates, and a conic on S^2."""
    (tmp_path / "c3.json").write_text("[1, 0, 0]")
    (tmp_path / "c4.json").write_text("[1, 0, 0, 0]")
    (tmp_path / "conic.json").write_text(json.dumps(CONIC))


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
        assert doc["log10_value"] == pytest.approx(math.log10(doc["value"]), rel=1e-14)

    def test_json_overflowed_bound_is_null_with_finite_log10(self, capsys):
        argv = ("--p", "399", "--d", "20", "--sigma", "0.25", "--t", "2")
        code, out, err = run(capsys, "bounds", "tail", *argv, "--json")
        assert code == 0 and err == ""

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert doc["value"] is None
        assert doc["log10_value"] == pytest.approx(
            log_tail_bound(399, 20, 0.25, 2.0) / math.log(10.0), rel=1e-15)
        assert 766 < doc["log10_value"] < 767
        # the plain output still says the bound is infinite
        assert run(capsys, "bounds", "tail", *argv)[1].strip() == "inf"

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "tail", "--p", "3", "--d", "1",
                           "--sigma", "1", "--t", "0.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "tail", "--p", "3", "--d", "1", "--t", "nan"],
        ["bounds", "tail", "--p", "3", "--d", "1", "--t", "nan", "--json"],
        ["bounds", "tail", "--p", "3", "--d", "1", "--t", "inf"],
        ["estimate", "tail", "--problem", "matrix-inversion", "--n", "2", "--t-grid", "10,nan",
         "--out", "{tmp}/t"],
    ], ids=["nan", "nan-json", "inf", "estimate-grid-nan"])
    def test_non_finite_t_is_a_usage_error(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert err.startswith("error: t must be") and err.count("\n") == 1
        assert out == ""
        assert not any(tmp_path.iterdir())

    def test_missing_t(self, capsys):
        code, out, err = run(capsys, "bounds", "tail", "--p", "3", "--d", "1",
                             "--sigma", "1")
        assert code == 2
        assert "--t" in err
        assert out == ""

    def test_problem_tail_needs_t(self, capsys):
        code, out, err = run(capsys, "bounds", "tail", "--problem", "matrix-inversion", "--n", "2")
        assert code == 2
        assert err.startswith("error:")
        assert "--t" in err
        assert out == ""

    @pytest.mark.parametrize("argv,flag", [
        (["linear", "--p", "3", "--d", "1"], "--eps"),
        (["tube", "--p", "3", "--d", "1"], "--eps"),
        (["tail", "--problem", "polysys", "--t", "10"], "--degrees"),
        (["tail", "--problem", "polysys", "--degrees", "2,0", "--t", "10"], "--degrees"),
        (["expectation", "--problem", "moore-penrose", "--l", "3"], "--m"),
        (["expectation", "--problem", "eigen-real"], "--n"),
    ])
    def test_missing_flag_is_named(self, capsys, argv, flag):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 2
        assert err.startswith("error:") and flag in err
        assert out == ""

    def test_malformed_degrees_is_an_argparse_error(self, capsys):
        code, _, err = run(capsys, "bounds", "tail", "--problem", "polysys",
                           "--degrees", "2,x", "--t", "10")
        assert code == 2
        assert "--degrees" in err

    @pytest.mark.parametrize("argv,message", [
        (["--problem", "matrix-inversion", "--n", "2", "--sigma", "2"], "sigma must lie in (0, 1]"),
        (["--problem", "matrix-inversion", "--n", "2", "--sigma", "-1"], "sigma must lie in (0, 1]"),
        (["--problem", "moore-penrose", "--l", "2", "--m", "1"], "needs p >= 2"),  # p = 1
        (["--problem", "moore-penrose", "--l", "1", "--m", "1"], "p must be >= 1"),  # p = 0
    ])
    def test_problem_expectation_out_of_range(self, capsys, argv, message):
        code, out, err = run(capsys, "bounds", "expectation", *argv)
        assert code == 2
        assert err.startswith("error:") and message in err
        assert out == ""

    def test_problem_polysys_uses_problem_dims(self, capsys):
        # two quadrics in 2 variables: p = 2 C(4, 2) - 1 = 11, d = 2 * 2 * 4^2 = 64
        _, by_problem, _ = run(capsys, "bounds", "tail", "--problem", "polysys",
                               "--degrees", "2,2", "--t", "1e6")
        _, by_dims, _ = run(capsys, "bounds", "tail", "--p", "11", "--d", "64", "--t", "1e6")
        assert by_problem == by_dims == cli._fmt6(tail_bound(11, 64, 1.0, 1e6)) + "\n"

    def test_problem_tail_uses_generic(self, capsys):
        # a named problem's tail bound is the generic one at its (p, d) = (3, 2)
        code, out, _ = run(capsys, "bounds", "tail", "--problem", "matrix-inversion",
                           "--n", "2", "--sigma", "1", "--t", "10")
        assert code == 0
        assert out.strip() == cli._fmt6(tail_bound(3, 2, 1.0, 10.0))

    @pytest.mark.parametrize("dims", [(), ("--p", "3")], ids=["none", "p-only"])
    def test_missing_dims_named(self, capsys, dims):
        code, out, err = run(capsys, "bounds", "tail", *dims, "--t", "10")
        assert code == 2
        assert all(flag in err for flag in ("--problem", "--p", "--d"))
        assert out == ""

    @pytest.mark.parametrize("size", [("--n", "2"), ("--l", "3"), ("--m", "2"),
                                      ("--degrees", "2")], ids=lambda size: size[0][2:])
    def test_size_needs_problem(self, capsys, size):
        # without --problem, (p, d) come from --p/--d and a problem size would be ignored
        code, out, err = run(capsys, "bounds", "tail", "--p", "3", "--d", "1", *size, "--t", "10")
        assert code == 2
        assert err == f"error: {size[0]} is a problem size: it needs --problem\n"
        assert out == ""

    def test_problem_tube_uses_problem_dims(self, capsys):
        # matrix inversion at n = 2: (p, d) = (3, 2)
        _, by_problem, _ = run(capsys, "bounds", "tube", "--problem", "matrix-inversion",
                               "--n", "2", "--eps", "0.1")
        _, by_dims, _ = run(capsys, "bounds", "tube", "--p", "3", "--d", "2", "--eps", "0.1")
        assert by_problem.strip() == by_dims.strip() == "8.52319"

    def test_problem_linear_uses_problem_dims(self, capsys):
        code, out, _ = run(capsys, "bounds", "linear", "--problem", "matrix-inversion",
                           "--n", "2", "--eps", "0.001", "--json")
        assert code == 0
        assert json.loads(out)["value"] == linear_tail_bound(3, 2, 1.0, 0.001)


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
        # 20000 samples run as two full blocks and one of 3616
        assert manifest["block_size"] == _BLOCK == 8192
        assert manifest["block_count"] == 3
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        assert manifest["platform"] == platform.platform()
        assert manifest["cpu_count"] == os.cpu_count()

    def test_manifest_records_argv_given_to_main(self, tmp_path, capsys):
        argv = ["estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
                "--samples", "2000", "--seed", "5", "--out", str(tmp_path / "cl")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        manifest = json.loads((tmp_path / "cl.manifest.json").read_text())
        assert manifest["command_line"] == " ".join(["spherecond", *argv])
        assert "argv" not in manifest["parameters"]

    @pytest.mark.parametrize("argv,kind", [
        (["tail", "--problem", "matrix-inversion", "--n", "3"], "exact"),
        (["logmean", "--problem", "moore-penrose", "--l", "4", "--m", "3"], "exact"),
        (["tube", "--variety", "subsphere:3,1"], "exact"),
        (["tube", "--variety", "curve:{tmp}/conic.json"], "mesh-newton"),
    ])
    def test_manifest_records_distance_kind(self, tmp_path, capsys, argv, kind):
        (tmp_path / "conic.json").write_text(json.dumps(
            {"p": 2, "degree": 2, "monomials": [{"alpha": [2, 0, 0], "coeff": 1.0},
                                                {"alpha": [0, 2, 0], "coeff": -1.0}]}))
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, _ = run(capsys, "estimate", *argv, "--samples", "500",
                         "--out", str(tmp_path / "dk"))
        assert code == 0
        manifest = json.loads((tmp_path / "dk.manifest.json").read_text())
        assert manifest["distance_kind"] == kind
        assert "distance_kind" not in manifest["parameters"]
        assert kind not in (tmp_path / "dk.csv").read_text()

    @pytest.mark.parametrize("argv", [
        ["tail", "--problem", "matrix-inversion", "--n", "3", "--sigma", "0.5"],
        ["tail", "--problem", "moore-penrose", "--l", "6", "--m", "3"],
        ["logmean", "--problem", "moore-penrose", "--l", "4", "--m", "3", "--sigma", "0.25"],
    ])
    def test_three_column_worker_count_invariance(self, tmp_path, capsys, argv):
        for workers in ("1", "2"):
            code, _, _ = run(capsys, "estimate", *argv, "--samples", "20000", "--seed", "3",
                             "--workers", workers, "--out", str(tmp_path / f"w{workers}"))
            assert code == 0
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["tail", "--problem", "matrix-inversion", "--n", "8"],
        ["logmean", "--problem", "moore-penrose", "--l", "6", "--m", "4"],
    ])
    def test_bidiagonal_worker_count_invariance(self, tmp_path, capsys, argv):
        # m >= 4 runs the bidiagonal kernel, whose rows leave its arrays as they converge
        for workers in ("1", "2"):
            code, _, _ = run(capsys, "estimate", *argv, "--samples", "20000", "--seed", "3",
                             "--workers", workers, "--out", str(tmp_path / f"w{workers}"))
            assert code == 0
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_two_hundred_by_two_worker_count_invariance(self, tmp_path, capsys):
        # p = 399, two 8192-row blocks
        for workers in ("1", "2"):
            code, _, _ = run(capsys, "estimate", "tail", "--problem", "moore-penrose",
                             "--l", "200", "--m", "2", "--samples", "16384", "--seed", "3",
                             "--workers", workers, "--out", str(tmp_path / f"w{workers}"))
            assert code == 0
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_worker_count_invariance(self, tmp_path, capsys):
        a, b = tmp_path / "w1", tmp_path / "w4"
        run(capsys, "estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
            "--sigma", "0.5", "--samples", "20000", "--seed", "3",
            "--workers", "1", "--out", str(a))
        run(capsys, "estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
            "--sigma", "0.5", "--samples", "20000", "--seed", "3",
            "--workers", "4", "--out", str(b))
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["tail", "--problem", "matrix-inversion", "--n", "3", "--sigma", "0.5",
         "--center", "random"],
        ["tube", "--variety", "determinant:2", "--sigma", "0.25", "--center", "CENTER"],
    ])
    def test_reflected_center_worker_count_invariance(self, tmp_path, capsys, argv):
        # away from e0 the cap sampler applies a Householder reflection to each block
        center = tmp_path / "center.json"
        center.write_text("[-0.8, 0.36, 0.48, 0.0]")
        argv = [str(center) if a == "CENTER" else a for a in argv]
        for workers in ("1", "2"):
            code, _, _ = run(capsys, "estimate", *argv, "--samples", "20000", "--seed", "3",
                             "--workers", workers, "--out", str(tmp_path / f"w{workers}"))
            assert code == 0
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

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

    def test_logmean_half_width_on_a_tiny_cap(self, tmp_path, capsys):
        # at sigma = 1e-9 the spread of ln C is ~1e-9 of its mean: a variance from
        # sum lk^2 - mean sum lk loses 3% of the half-width to cancellation
        center = tmp_path / "center.json"
        center.write_text("[1, 0, 0, 1e-3]")
        out = tmp_path / "lm"
        code, _, _ = run(capsys, "estimate", "logmean", "--problem", "matrix-inversion",
                         "--n", "2", "--sigma", "1e-9", "--center", str(center),
                         "--samples", "20000", "--seed", "2", "--out", str(out))
        assert code == 0
        _, lo, hi = (float(v) for v in (tmp_path / "lm.csv").read_text().splitlines()[1]
                     .split(",")[:3])
        cap = Cap(center=SpherePoint.from_vector(np.array([1.0, 0.0, 0.0, 1e-3])), sigma=1e-9)
        d = np.concatenate(run_blocks(_cap_block, (DeterminantVariety(2), cap, np.copy, 2),
                                      20000))
        lk = -np.log(d)
        mean = math.fsum(lk) / lk.size
        sd = math.sqrt(math.fsum((lk - mean) ** 2) / (lk.size - 1))
        assert (hi - lo) / 2 == pytest.approx(2.5758293035489004 * sd / math.sqrt(lk.size),
                                              rel=1e-6)

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

    def test_tube_curve_worker_count_invariance(self, tmp_path, capsys):
        # the curve's polynomial travels to the workers by pickle
        doc = {"p": 2, "degree": 4,
               "monomials": [{"alpha": [4, 0, 0], "coeff": 1.0}, {"alpha": [2, 0, 2], "coeff": -1.0},
                             {"alpha": [2, 2, 0], "coeff": -1.0}, {"alpha": [0, 2, 2], "coeff": 1.0}]}
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps(doc))
        for workers in ("1", "2"):
            code, _, _ = run(capsys, "estimate", "tube", "--variety", f"curve:{path}",
                             "--sigma", "0.5", "--samples", "20000", "--seed", "8",
                             "--workers", workers, "--out", str(tmp_path / f"q{workers}"))
            assert code == 0
        assert (tmp_path / "q1.csv").read_bytes() == (tmp_path / "q2.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_reused_curve_writes_a_fresh_interpreters_csv(self, tmp_path, capsys, workers):
        # the second command gets the first one's curve from load_curve's cache
        path = tmp_path / "conic.json"
        path.write_text(json.dumps(CONIC))
        argv = ["estimate", "tube", "--variety", f"curve:{path}", "--sigma", "0.5",
                "--samples", "20000", "--seed", "9", "--workers", workers]
        assert run(capsys, *argv, "--out", str(tmp_path / "first"))[0] == 0
        hits = varieties._curve.cache_info().hits
        assert run(capsys, *argv, "--out", str(tmp_path / "second"))[0] == 0
        assert varieties._curve.cache_info().hits == hits + 1
        env = {**os.environ, "PYTHONPATH": str(Path(spherecond.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-m", "spherecond.cli", *argv,
                        "--out", str(tmp_path / "fresh")],
                       env=env, capture_output=True, timeout=120, check=True)
        first, second, fresh = ((tmp_path / f"{name}.csv").read_bytes()
                                for name in ("first", "second", "fresh"))
        assert second == fresh == first

    @pytest.mark.parametrize("argv", [
        ["logmean", "--problem", "matrix-inversion", "--n", "2", "--samples", "1"],
        ["tube", "--variety", "determinant:2", "--samples", "0"],
        ["tail", "--problem", "matrix-inversion"],
        ["tail", "--problem", "matrix-inversion", "--n", "2", "--samples", "0"],
        ["tail", "--problem", "matrix-inversion", "--n", "2", "--samples", "-3"],
        ["tail", "--problem", "matrix-inversion", "--n", "2", "--t-grid", "0.5"],
        ["tube", "--variety", "determinant:2", "--eps-grid", "0"],
        ["tail", "--problem", "matrix-inversion", "--n", "2", "--workers", "0"],
        ["logmean", "--problem", "matrix-inversion", "--n", "2", "--workers", "-2"],
        ["tail", "--problem", "moore-penrose", "--l", "1", "--m", "1"],
        *(argv for argv, _ in NAMED_FLAG_CASES),
        # an empty grid: with no rows, "every row dominated" would hold unchecked
        ["tail", "--problem", "matrix-inversion", "--n", "2", "--t-grid", "log:2:1000:0"],
        ["tube", "--variety", "determinant:2", "--eps-grid", "log:0.05:0.8:0"],
    ])
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_sampling(*args, **kwargs):
            raise AssertionError("input is checked before sampling")

        monkeypatch.setattr(cli, "run_blocks", no_sampling)
        monkeypatch.setattr(cli, "tube_cap_counts", no_sampling)
        _write_flag_inputs(tmp_path)
        out = tmp_path / "bad"
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run(capsys, "estimate", *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "bad.csv").exists()
        assert not (tmp_path / "bad.manifest.json").exists()

    @pytest.mark.parametrize("argv,flag", NAMED_FLAG_CASES)
    def test_usage_error_names_the_flag(self, tmp_path, capsys, argv, flag):
        _write_flag_inputs(tmp_path)
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run(capsys, "estimate", *argv, "--out", str(tmp_path / "bad"))
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize("doc", [
        [{"alpha": [2, 0, 0], "coeff": 1.0}],
        {"p": 2, "monomials": [{"alpha": [2, 0, 0], "coeff": 1.0}]},
        {"p": 2, "degree": 2},
        {"p": 2, "degree": 2, "monomials": [{"coeff": 1.0}]},
        {"p": 2, "degree": 2, "monomials": [{"alpha": [2, 0, 0]}]},
        # values that int() and float() would take: 2.7 -> 2, true -> 1, "1" -> 1.0
        {**CONIC, "degree": 2.7},
        {"p": 2, "degree": True, "monomials": [{"alpha": [1, 0, 0], "coeff": 1.0}]},
        {**CONIC, "monomials": [{"alpha": [2.9, 0, 0], "coeff": 1.0},
                                {"alpha": [0, 2, 0], "coeff": -1.0}]},
        {**CONIC, "monomials": [{"alpha": [True, 1, 0], "coeff": 1.0}]},
        {**CONIC, "monomials": [{"alpha": [2, 0, 0], "coeff": "1"},
                                {"alpha": [0, 2, 0], "coeff": -1.0}]},
        {**CONIC, "monomials": [{"alpha": [2, 0, 0], "coeff": math.inf},
                                {"alpha": [0, 2, 0], "coeff": -1.0}]},
        # the zero polynomial, whose "mesh" would be every lattice point
        {**CONIC, "monomials": []},
        {**CONIC, "monomials": [{"alpha": [2, 0, 0], "coeff": 1.0},
                                {"alpha": [2, 0, 0], "coeff": -1.0}]},
        # a degree past the mesh's resolution
        {"p": 2, "degree": 21, "monomials": [{"alpha": [21, 0, 0], "coeff": 1.0},
                                             {"alpha": [0, 21, 0], "coeff": -1.0}]},
    ], ids=["top-level-list", "no-degree", "no-monomials", "no-alpha", "no-coeff",
            "float-degree", "bool-degree", "float-alpha", "bool-alpha", "string-coeff",
            "infinite-coeff", "no-terms", "cancelling-terms", "degree-above-20"])
    def test_malformed_curve_json_is_a_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad_curve.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "estimate", "tube", "--variety", f"curve:{path}",
                           "--samples", "100", "--out", str(tmp_path / "bad"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "bad.csv").exists()

    def test_tail_counts_are_tube_counts(self, tmp_path, capsys):
        # P{C >= t} is the tube ratio of the singular matrices at eps = 1/t
        common = ["--sigma", "0.5", "--samples", "20000", "--seed", "12"]
        run(capsys, "estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
            "--t-grid", "2,4,10", *common, "--out", str(tmp_path / "tail"))
        run(capsys, "estimate", "tube", "--variety", "determinant:2",
            "--eps-grid", "0.5,0.25,0.1", *common, "--out", str(tmp_path / "tube"))

        def hit_columns(name):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
            return [line.split(",")[1:4] for line in lines]

        assert hit_columns("tail") == hit_columns("tube")
        assert len(hit_columns("tail")) == 3

    @pytest.mark.parametrize("which", ["tail", "logmean"])
    def test_moore_penrose_worker_count_invariance(self, tmp_path, capsys, which):
        for workers in ("1", "2"):
            code, _, _ = run(capsys, "estimate", which, "--problem", "moore-penrose",
                             "--l", "4", "--m", "3", "--sigma", "0.5", "--samples", "20000",
                             "--seed", "9", "--workers", workers,
                             "--out", str(tmp_path / f"mp{workers}"))
            assert code == 0
        assert (tmp_path / "mp1.csv").read_bytes() == (tmp_path / "mp2.csv").read_bytes()

    @pytest.mark.parametrize("l,m", [("3", "1"), ("2", "1")])
    def test_moore_penrose_column_vectors(self, tmp_path, capsys, l, m):
        code, _, _ = run(capsys, "estimate", "tail", "--problem", "moore-penrose",
                         "--l", l, "--m", m, "--samples", "1000", "--out", str(tmp_path / "v"))
        assert code == 0

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

    def test_random_center_is_stream_zero(self):
        # sample blocks use streams index + 1, so stream 0 is the center's alone
        g = RngStream(6).generator.standard_normal(4)
        assert np.array_equal(cli._resolve_center("random", 3, 6).coords, g / np.linalg.norm(g))

    def test_unknown_variety(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "tube", "--variety", "torus:3",
                           "--samples", "100", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error" in err


# sizes of each problem `estimate --problem` samples, edge cases first
PROBLEM_SIZES = {
    "matrix-inversion": [{"n": 2}, {"n": 3}, {"n": 8}],
    "moore-penrose": [{"l": 2, "m": 1}, {"l": 3, "m": 1}, {"l": 2, "m": 2}, {"l": 4, "m": 3}],
}


@pytest.mark.parametrize("kind", list(cli.PROBLEM_VARIETIES))
def test_problem_variety_has_the_problem_dims(kind):
    # a kind without sizes here fails with a KeyError: add its sizes
    for sizes in PROBLEM_SIZES[kind]:
        problem = ProblemDescriptor(kind, **sizes)
        variety = cli.PROBLEM_VARIETIES[kind](problem)
        assert (variety.p, variety.degree) == problem.ambient_dim_and_degree()


class TestVerifyCommand:
    def test_jintegrals(self, capsys):
        code, out, _ = run(capsys, "verify", "jintegrals")
        assert code == 0
        assert "overall: pass" in out
        assert "quadrature vs closed form" in out and "max rel err" in out

    def test_weyltube(self, capsys):
        code, out, _ = run(capsys, "verify", "weyltube")
        assert code == 0
        assert "overall: pass" in out

    def test_weyltube_reports_its_worst_margin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "weyltube")
        rows = out.splitlines()
        ratio, deviation = re.fullmatch(
            r"worst margin \(max lhs/rhs (\S+), max \|lhs - rhs\|/rhs at equality (\S+)\)"
            r"\s+pass", rows[-2]).groups()
        assert code == 0 and len(rows) == 4 * 8 * 3 + 2
        assert 0.9 < float(ratio) < 1.0 and float(deviation) <= 1e-12
        bound = cli.verify_weyl_tube_bound

        def one_percent_over(p, a, b):
            rhs = bound(p, a, b)[1]
            return 1.01 * rhs, rhs, False

        monkeypatch.setattr(cli, "verify_weyl_tube_bound", one_percent_over)
        code, out, _ = run(capsys, "verify", "weyltube")
        rows = out.splitlines()
        assert code == EXIT_VERIFY_FAIL
        assert rows[-2].startswith("worst margin (max lhs/rhs 1.01, ") and rows[-2].endswith("FAIL")

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
        assert "(30 trials, 1 - min mu*d_P " in out and ", min mu*d_P " in out

    @pytest.mark.parametrize("trials", ["1", "2", "4"])
    def test_cntr_with_fewer_trials_than_degrees(self, capsys, trials):
        code, out, _ = run(capsys, "verify", "cntr", "--trials", trials)
        assert code == 0 and f"({trials} trials, " in out

    def test_kinematic_rows_report_their_margin(self, capsys):
        code, out, _ = run(capsys, "verify", "kinematic", "--samples", "20000", "--seed", "3")
        assert code == 0
        margins = re.findall(r"\(\|est - exact\| / half-width (\d+\.\d\d)\)", out)
        assert len(margins) == 4 and all(float(m) <= 1.0 for m in margins)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_a_usage_error(self, capsys, monkeypatch, workers):
        def no_sampling(*args, **kwargs):
            raise AssertionError("--workers is checked before sampling")

        monkeypatch.setattr(cli, "verify_kinematic", no_sampling)
        code, out, err = run(capsys, "verify", "kinematic", "--workers", workers)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["kinematic", "--samples", "0"],
        ["kinematic", "--samples", "-3"],
        ["kinematic", "--p", "2", "--i", "5"],
        ["kinematic", "--p", "3", "--alpha", "2.0"],
        ["wilkinson", "--trials", "-1"],
        ["eckart-young", "--seed", "-1"],
        ["kinematic", "--samples", "1"],  # one sample's interval is [0, 1]
    ])
    def test_bad_input_is_a_usage_error(self, capsys, monkeypatch, argv):
        def no_suite(*args, **kwargs):
            raise AssertionError("input is checked before the suite runs")

        monkeypatch.setattr(cli, "verify_kinematic", no_suite)
        monkeypatch.setattr(cli, "eigenvalue_condition", no_suite)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


    def test_error_inside_a_suite_propagates(self, monkeypatch):
        # only input errors are usage errors; a failing suite is a bug to see
        def broken(*args, **kwargs):
            raise ValueError("broken suite")

        monkeypatch.setattr(cli, "verify_weyl_tube_bound", broken)
        with pytest.raises(ValueError, match="broken suite"):
            main(["verify", "weyltube"])


# The per-trial loops that the batched eckart-young and wilkinson suites replaced, kept
# as references: the matrices they check, in draw order, and their verdicts.
def eckart_young_reference(seed, trials):
    gen = RngStream(seed).generator
    mats, trunc_ok, prod_ok = [], True, True
    for _ in range(trials):
        n = int(gen.integers(2, 6))
        a = gen.standard_normal((n, n))
        u, s, vt = np.linalg.svd(a)
        s_trunc = s.copy()
        s_trunc[-1] = 0.0
        trunc_ok &= abs(np.linalg.norm(a - u @ np.diag(s_trunc) @ vt) - s[-1]) <= 1e-10
        ahat = a / np.linalg.norm(a)
        dist = DeterminantVariety(n).distances(ahat.reshape(1, -1))[0]
        prod_ok &= abs(frobenius_condition(ahat) * dist - 1.0) <= 1e-8
        mats.append(a)
    return mats, trunc_ok and prod_ok


def wilkinson_reference(seed, trials):
    gen = RngStream(seed).generator
    mats, eigs, ok = [], [], True
    while len(mats) < trials:
        a = gen.standard_normal((2, 2))
        eig = np.linalg.eigvals(a)
        if np.iscomplexobj(eig) and np.max(np.abs(eig.imag)) > 1e-12:
            continue
        eig = eig.real
        if abs(eig[0] - eig[1]) < 1e-6 * np.linalg.norm(a):
            continue
        bound = math.sqrt(2.0) * np.linalg.norm(a) / discriminant_distance_2x2(a)
        for lam in eig:
            ok &= eigenvalue_condition(a, float(lam)) <= bound + 1e-6
        mats.append(a)
        eigs.append(eig)
    return np.array(mats), np.array(eigs), ok


BATCH_SEEDS = [1, 3, 53, 59, 101]


class TestBatchedSuites:
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_eckart_young_sees_the_reference_matrices(self, capsys, seed):
        mats, ok = eckart_young_reference(seed, 400)
        stacks = cli._eckart_young_draws(seed, 400)
        assert sorted(stacks) == sorted({m.shape[0] for m in mats})
        for n, stack in stacks.items():
            assert np.array_equal(stack, [m for m in mats if m.shape[0] == n])
        code, out, _ = run(capsys, "verify", "eckart-young", "--trials", "400",
                           "--seed", str(seed))
        assert ok and code == 0
        rows = out.splitlines()
        assert "(max err " in rows[0] and "(max |kappa dist - 1| " in rows[1]

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_eckart_young_checks_four_by_three_matrices(self, capsys, monkeypatch, seed):
        # the 4 x 3 matrices come from stream 1 of the seed, then the 20 x 2 ones; the
        # square ones keep stream 0
        gen = RngStream(seed, 1).generator
        tall = [gen.standard_normal((400, 4, 3)), gen.standard_normal((400, 20, 2))]
        seen = []

        def recording(a):
            seen.append(a)
            return frobenius_condition(a)

        monkeypatch.setattr(cli, "frobenius_condition", recording)
        code, out, _ = run(capsys, "verify", "eckart-young", "--trials", "400",
                           "--seed", str(seed))
        for a, b in zip(seen[-2:], tall, strict=True):
            assert np.array_equal(a, b / np.linalg.norm(b, axis=(1, 2))[:, None, None])
        assert [a.shape[1:] for a in seen[:-2]] == [(n, n) for n in
                                                    cli._eckart_young_draws(seed, 400)]
        for row, shape in zip(out.splitlines()[2:4], ("4 x 3", "20 x 2")):
            margin = float(re.search(shape + r": .*\(max \|kappa dist - 1\| (\S+)\)", row)[1])
            assert code == 0 and row.endswith("pass") and margin <= 1e-8
        # a distance 1e-7 too large fails both rows: 4 x 3 is the bidiagonal kernel's,
        # 20 x 2 Gram-Schmidt's
        for name in ("_bidiagonal_smin", "_gram_schmidt_smin"):
            kernel = getattr(varieties, name)
            monkeypatch.setattr(varieties, name, lambda mats, k=kernel: k(mats) * (1.0 + 1e-7))
        code, out, _ = run(capsys, "verify", "eckart-young", "--trials", "400",
                           "--seed", str(seed))
        rows = out.splitlines()
        assert code == EXIT_VERIFY_FAIL and rows[2].endswith("FAIL") and rows[3].endswith("FAIL")
        assert rows[0].endswith("pass")

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_wilkinson_sees_the_reference_matrices(self, capsys, monkeypatch, seed):
        mats, eigs, ok = wilkinson_reference(seed, 300)
        a, eig = cli._wilkinson_draws(seed, 300)
        assert np.array_equal(a, mats) and np.array_equal(eig, eigs)
        seen = []

        def recording(a, lam):
            seen.append((a, lam))
            return eigenvalue_condition(a, lam)

        monkeypatch.setattr(cli, "eigenvalue_condition", recording)
        code, out, _ = run(capsys, "verify", "wilkinson", "--trials", "300", "--seed", str(seed))
        assert ok and code == 0
        assert [np.array_equal(m, mats) for m, _ in seen] == [True, True]
        assert np.array_equal(seen[0][1], eigs[:, 0]) and np.array_equal(seen[1][1], eigs[:, 1])
        assert "(300 matrices, max kappa/bound " in out

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_wilkinson_closed_form_row(self, capsys, seed):
        mats, eigs, _ = wilkinson_reference(seed, 300)
        # kappa^2 = |A - tr(A)/2 I|^2 / (lam1 - lam2)^2 + 1/2, the same for both eigenvalues
        exact = [math.sqrt(np.linalg.norm(a - np.trace(a) / 2 * np.eye(2)) ** 2
                           / (lams[0] - lams[1]) ** 2 + 0.5) for a, lams in zip(mats, eigs)]
        kappa = [[eigenvalue_condition(a, float(lam)) for lam in lams]
                 for a, lams in zip(mats, eigs)]
        assert np.array(kappa) == pytest.approx(np.array([exact, exact]).T, rel=1e-12)
        code, out, _ = run(capsys, "verify", "wilkinson", "--trials", "300", "--seed", str(seed))
        assert code == 0
        rel = re.search(r"closed form \(300 matrices, max rel err (\S+)\) +pass", out)
        assert rel and float(rel.group(1)) <= 1e-12

    def test_wilkinson_margin_is_the_largest_ratio(self, capsys):
        mats, eigs, _ = wilkinson_reference(7, 200)
        bound = math.sqrt(2.0) * np.linalg.norm(mats, axis=(1, 2)) / discriminant_distance_2x2(mats)
        ratio = max(eigenvalue_condition(a, float(lam)) / b
                    for a, lams, b in zip(mats, eigs, bound) for lam in lams)
        _, out, _ = run(capsys, "verify", "wilkinson", "--trials", "200", "--seed", "7")
        assert f"max kappa/bound {ratio:.3f})" in out


class TestBatchedCntr:
    @pytest.mark.parametrize("seed", [1, 3, 18, 61, 64])
    def test_cntr_sees_the_reference_systems(self, capsys, monkeypatch, seed):
        # the former one-trial-at-a-time loop draws the same zeros and raw coefficients,
        # bit for bit, and its products mu * d_P agree with the batches'
        seen = []

        def recording(n, d, normals):
            seen.append((n, d, normals))
            return planted_systems(n, d, normals)

        monkeypatch.setattr(cli, "planted_systems", recording)
        code, out, _ = run(capsys, "verify", "cntr", "--trials", "300", "--seed", str(seed))
        rows = cntr_reference.verify_cntr(seed, 300)
        assert code == 0 and min(row[3] for row in rows) >= 1.0 - 1e-6
        assert [(n, d) for n, d, _ in seen] == [(1, 2), (1, 3), (1, 4)]
        products = []
        for _, d, normals in seen:
            ref = [row for row in rows if row[0] == d]
            assert normals.shape == (100, d + 3)
            f, zeta = planted_systems(1, d, normals)
            assert np.array_equal(zeta, [row[1].coords for row in ref])
            assert np.array_equal(normals[:, 2:], [list(row[2][0].values()) for row in ref])
            g = cli.multiple_zero_witness(f, zeta)
            product = mu_norm(f, zeta) * system_projective_distance(f, g)
            assert product == pytest.approx([row[3] for row in ref], rel=1e-9)
            products.extend(product)
        assert f"min mu*d_P {min(products):.12g})" in out

    def test_cntr_passes_at_seed_805(self, capsys):
        # one planted system there has d_P = 8.3e-6, where sqrt(1 - cos^2) lost 1.2e-6 of
        # mu * d_P to round-off and the row failed its 1 - 1e-6 gate
        code, out, _ = run(capsys, "verify", "cntr", "--trials", "500", "--seed", "805")
        assert code == 0 and "FAIL" not in out
        assert float(re.search(r"min mu\*d_P ([0-9.e+-]+)\)", out).group(1)) >= 1.0 - 1e-12

    def test_cntr_prints_its_margin_to_one(self, capsys, monkeypatch):
        # every product rounds to 1 in 12 digits; the margin 1 - min is printed beside it
        products = []

        def recording(f, zeta, g):
            products.append(product(f, zeta, g))
            return products[-1]

        product = cli.cntr_witness_product
        monkeypatch.setattr(cli, "cntr_witness_product", recording)
        code, out, _ = run(capsys, "verify", "cntr", "--trials", "500", "--seed", "805")
        worst = float(np.min(np.concatenate(products)))
        assert code == 0 and f"(500 trials, 1 - min mu*d_P {1.0 - worst:.1e}, " in out

    def test_cntr_checks_each_degree_in_one_batch(self, capsys, monkeypatch):
        seen = []

        def recording(f, zeta, g):
            seen.append(f.shape)
            return product(f, zeta, g)

        product = cli.cntr_witness_product
        monkeypatch.setattr(cli, "cntr_witness_product", recording)
        code, _, _ = run(capsys, "verify", "cntr", "--trials", "500")
        assert code == 0 and seen == [(167,), (167,), (166,)]

    def test_cntr_fails_when_a_check_fails(self, capsys, monkeypatch):
        for low in (1.0 - 2e-6, math.nan):
            def one_low(f, zeta, g):
                products = np.ones(f.shape)
                products[-1] = low
                return products

            monkeypatch.setattr(cli, "cntr_witness_product", one_low)
            code, out, _ = run(capsys, "verify", "cntr", "--trials", "30")
            assert code == 1 and "overall: FAIL" in out

    def test_cntr_product_computes_mu_once_per_degree(self, capsys, monkeypatch):
        calls = []

        def counting(f, zeta):
            calls.append(f.shape)
            return mu(f, zeta)

        mu = conditioning.mu_norm
        monkeypatch.setattr(conditioning, "mu_norm", counting)
        code, _, _ = run(capsys, "verify", "cntr", "--trials", "30")
        assert code == 0 and calls == [(10,), (10,), (10,)]

    def test_an_infinite_mu_passes_and_leaves_the_margin_finite(self, capsys, monkeypatch):
        def one_multiple(f, zeta, g):
            products = np.full(f.shape, 1.5)
            products[0] = math.inf
            return products

        monkeypatch.setattr(cli, "cntr_witness_product", one_multiple)
        code, out, _ = run(capsys, "verify", "cntr", "--trials", "30")
        assert code == 0 and "min mu*d_P 1.5)" in out


@pytest.mark.parametrize("argv,choices", [
    ([], "{bounds,estimate,verify}"),
    (["bounds"], "{tail,expectation,tube,linear}"),
    (["verify"], "{kinematic,weyltube,jintegrals,eckart-young,wilkinson,cntr}"),
], ids=["command", "bounds-mode", "verify-mode"])
def test_missing_command_or_mode_names_the_choices(capsys, argv, choices):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: the following arguments are required: {choices}\n"
    assert out == ""


# one flag per case that its mode does not read, next to flags it does
UNREAD_FLAG_CASES = [
    ["estimate", "tail", "--problem", "matrix-inversion", "--n", "2", "--variety", "torus:9"],
    ["estimate", "tail", "--problem", "matrix-inversion", "--n", "2", "--m", "7"],
    ["estimate", "tube", "--variety", "determinant:2", "--t-grid", "2"],
    ["bounds", "expectation", "--problem", "matrix-inversion", "--n", "2", "--t", "3"],
    ["bounds", "tail", "--problem", "matrix-inversion", "--n", "2", "--p", "7", "--t", "10"],
    ["verify", "jintegrals", "--trials", "5"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAG_CASES,
                         ids=["tail-variety", "tail-m", "tube-t-grid", "expectation-t",
                              "bounds-problem-p", "jintegrals-trials"])
def test_unread_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("flags are checked before any work")

    for name in ("run_blocks", "tube_cap_counts", "j_integral"):
        monkeypatch.setattr(cli, name, no_work)
    if argv[0] == "estimate":
        argv = [*argv, "--out", str(tmp_path / "bad")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_manifest_parameters_are_the_flags_the_mode_reads(tmp_path, capsys):
    out = str(tmp_path / "mp")
    code, _, _ = run(capsys, "estimate", "tail", "--problem", "moore-penrose", "--l", "3",
                     "--m", "2", "--samples", "1000", "--out", out)
    assert code == 0
    manifest = json.loads((tmp_path / "mp.manifest.json").read_text())
    assert manifest["parameters"] == {
        "problem": "moore-penrose", "l": 3, "m": 2, "t_grid": "log:2:1000:6", "sigma": 1.0,
        "samples": 1000, "seed": 0, "workers": 1, "center": "north", "out": out}


BOUNDS_FLAGS = ("--problem", "--n", "--l", "--m", "--p", "--d", "--degrees", "--sigma", "--json")
PROBLEM_FLAGS = ("--problem", "--n", "--l", "--m")
SAMPLING_FLAGS = ("--sigma", "--samples", "--seed", "--workers", "--center", "--out")
MODE_FLAGS = {
    "bounds tail": (*BOUNDS_FLAGS, "--t"),
    "bounds expectation": BOUNDS_FLAGS,
    "bounds tube": (*BOUNDS_FLAGS, "--eps"),
    "bounds linear": (*BOUNDS_FLAGS, "--eps"),
    "estimate tail": (*PROBLEM_FLAGS, "--t-grid", *SAMPLING_FLAGS),
    "estimate logmean": (*PROBLEM_FLAGS, *SAMPLING_FLAGS),
    "estimate tube": ("--variety", "--eps-grid", *SAMPLING_FLAGS),
    "verify kinematic": ("--samples", "--workers", "--seed"),
    "verify jintegrals": ("--seed",),
    "verify weyltube": ("--seed",),
    "verify eckart-young": ("--trials", "--seed"),
    "verify wilkinson": ("--trials", "--seed"),
    "verify cntr": ("--trials", "--seed"),
}


@pytest.mark.parametrize("mode", list(MODE_FLAGS))
def test_help_lists_only_the_mode_flags(capsys, mode):
    # --help still exits 0, although parser errors raise ValueError
    with pytest.raises(SystemExit) as exc:
        main([*mode.split(), "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *MODE_FLAGS[mode]}


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

    def test_bounds_print_six_significant_digits(self):
        # %#.6g: the documented examples and inf read as before; trailing zeros stay,
        # and values outside [1e-4, 1e6) print in scientific notation
        assert cli._fmt6(tail_bound(3, 1, 1.0, 10.0)) == "3.50740"
        assert cli._fmt6(tube_ratio_bound(3, 2, 1.0, 0.1)) == "8.52319"
        assert cli._fmt6(math.inf) == "inf"
        assert [cli._fmt6(x) for x in (0.25, 0.2, 2.8242e11, 1e-5)] == \
            ["0.250000", "0.200000", "2.82420e+11", "1.00000e-05"]


# a fresh interpreter runs `steps` and prints, per step, the listed modules then loaded
_MODULE_PROBE = """
import contextlib, io, json, sys
watched, steps = json.loads(sys.argv[1]), json.loads(sys.argv[2])
report = []
for step in steps:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if step == "import":
            import spherecond
        elif step == "parser":
            from spherecond import cli
            cli.build_parser()
        else:
            try:
                cli.main(step)
            except SystemExit:  # --help
                pass
    report.append([step, [m for m in watched if m in sys.modules]])
print(json.dumps(report))
"""
SLOW_MODULES = ["scipy.special", "scipy.integrate", "scipy.stats", "scipy.optimize",
                "scipy.spatial", "concurrent.futures.process"]


def _run_probe(code: str, *argv: str) -> str:
    """The last stdout line of a fresh interpreter that runs `code` with `argv` and this
    spherecond."""
    env = {**os.environ, "PYTHONPATH": str(Path(spherecond.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout.splitlines()[-1]


def _modules_after(watched, steps):
    return json.loads(_run_probe(_MODULE_PROBE, json.dumps(watched), json.dumps(steps)))


# `import spherecond`, the parser, usage errors and every `bounds` mode are the cold
# start of a command: the standard library only
COLD_STEPS = [
    "import", "parser",
    ["bounds", "tail", "--p", "3", "--d", "1", "--sigma", "1", "--t", "10"],
    ["bounds", "tube", "--p", "3", "--d", "2", "--sigma", "0.5", "--eps", "0.01"],
    ["bounds", "expectation", "--p", "8", "--d", "3", "--sigma", "0.25"],
    ["bounds", "linear", "--p", "8", "--d", "2", "--eps", "1e-4", "--json"],
    ["bounds", "expectation", "--problem", "matrix-inversion", "--n", "3"],
    ["bounds", "tail", "--problem", "polysys", "--degrees", "2,3", "--t", "1e3"],
    ["bounds", "tube", "--problem", "moore-penrose", "--l", "4", "--m", "3",
     "--eps", "1e-3", "--json"],
    ["bounds", "tail", "--p", "3", "--d", "1"],  # usage error: no --t
    ["estimate", "tail", "--problem", "matrix-inversion", "--n", "0", "--out", "x"],
    ["bounds", "tail", "--help"]]


def test_import_loads_no_slow_scipy_module():
    report = _modules_after(SLOW_MODULES, COLD_STEPS)
    assert [step for step, _ in report] == COLD_STEPS
    assert all(loaded == [] for _, loaded in report), report


def test_cold_start_loads_no_numpy():
    # nor dataclasses, which imports inspect: ProblemDescriptor is a plain class
    report = _modules_after(["numpy", "dataclasses", "inspect"], COLD_STEPS)
    assert [step for step, _ in report] == COLD_STEPS
    assert all(loaded == [] for _, loaded in report), report


def test_verify_jintegrals_loads_no_scipy_integrate():
    # the quadrature cross-check is Gauss-Legendre on numpy, not scipy.integrate
    steps = ["import", "parser", ["verify", "jintegrals"]]
    report = _modules_after(["scipy.integrate", "scipy.special"], steps)
    assert report[-1] == [["verify", "jintegrals"], ["scipy.special"]], report


def test_serial_estimate_starts_no_process_pool(tmp_path):
    out = str(tmp_path / "serial")
    steps = ["import", "parser",
             ["estimate", "tail", "--problem", "matrix-inversion", "--n", "2", "--samples",
              "20000", "--workers", "1", "--out", out]]
    report = _modules_after(["concurrent.futures.process"], steps)
    assert all(loaded == [] for _, loaded in report), report
    assert (tmp_path / "serial.csv").exists()


# the public names, by the submodule that defines them
EXPORTS = {
    "geometry": ["Cap", "SpherePoint", "j_integral", "j_integral_quad", "kinematic_constant",
                 "sphere_volume"],
    "sampling": ["RngStream", "sample_uniform_cap"],
    "bounds": ["ProblemDescriptor", "application_bound", "curvature_integral_bound",
               "expectation_bound", "linear_tail_bound", "log_tail_bound",
               "log_tube_ratio_bound", "smooth_tube_bound", "tail_bound", "tube_ratio_bound"],
    "conditioning": ["PolySystem", "WeylPolynomial", "cntr_witness_check",
                     "cntr_witness_product", "discriminant_distance_2x2",
                     "eigenvalue_condition", "frobenius_condition", "mu_norm",
                     "multiple_zero_witness", "system_projective_distance", "weyl_inner",
                     "weyl_norm"],
    "varieties": ["CurveVariety", "DeterminantVariety", "SubsphereVariety", "band_volume",
                  "clopper_pearson", "geodesic_sphere_mu", "verify_kinematic",
                  "verify_weyl_tube_bound"],
}


class TestLazyBindings:
    def test_exports_are_the_submodules_own_objects(self):
        names = [name for group in EXPORTS.values() for name in group]
        assert len(names) == 38 and sorted(spherecond.__all__) == sorted(names)
        for module, group in EXPORTS.items():
            owner = importlib.import_module(f"spherecond.{module}")
            assert all(getattr(spherecond, name) is getattr(owner, name) for name in group)
        assert {*names, "__version__"} <= set(dir(spherecond))

    def test_unknown_name_is_an_attribute_error(self):
        for module in (spherecond, cli):
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name
        with pytest.raises(ImportError):
            from spherecond import no_such_name  # noqa: F401

    def test_traced_cli_names_resolve_before_any_command(self):
        # benchmark/tracing.py reads and patches every one of its targets: the cli names
        # before any command has run, the others on their modules and classes, so a
        # change that drops a traced name fails here
        probe = """
import sys
sys.path.insert(0, sys.argv[1])
from tracing import _TARGETS
from spherecond import cli
names = [attr for owner, attr in _TARGETS if owner == "cli"]
assert "np" not in vars(cli)
resolved = sum(callable(getattr(cli, name)) for name in names)
from spherecond import sampling, varieties
owners = {"cli": cli, "sampling": sampling, "varieties": varieties,
          "CurveVariety": varieties.CurveVariety,
          "DeterminantVariety": varieties.DeterminantVariety}
resolved += sum(callable(getattr(owners[owner], attr, None))
                for owner, attr in _TARGETS if owner != "cli")
print(resolved, len(_TARGETS))
"""
        out = _run_probe(probe, str(Path(__file__).resolve().parents[1] / "benchmark"))
        resolved, total = map(int, out.split())
        assert resolved == total > 0

    @pytest.mark.parametrize("which", ["logmean", "tail"])
    def test_spawned_workers_match_a_serial_run(self, tmp_path, which):
        # a spawned worker imports cli fresh and never loads the library there, so every
        # function sent to it must find its names without _library()
        probe = """
import multiprocessing, sys
from spherecond import cli
multiprocessing.set_start_method("spawn")
argv = ["estimate", sys.argv[1], "--problem", "matrix-inversion", "--n", "2",
        "--sigma", "0.5", "--samples", "20000"]
if sys.argv[1] == "tail":
    argv += ["--t-grid", "2,10"]
codes = [cli.main([*argv, "--workers", w, "--out", sys.argv[2] + w]) for w in ("1", "2")]
print(*codes)
"""
        out = str(tmp_path / which)
        assert _run_probe(probe, which, out).split() == ["0", "0"]
        assert Path(out + "1.csv").read_bytes() == Path(out + "2.csv").read_bytes()

    def test_spawned_kinematic_workers_match_a_serial_run(self):
        # the shared-draw kinematic block runs in spawned workers as it does serially
        probe = """
import contextlib, io, json, multiprocessing
from spherecond import cli
multiprocessing.set_start_method("spawn")
runs = []
for w in ("1", "2"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "kinematic", "--samples", "20000", "--workers", w])
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""
        (code1, out1), (code2, out2) = json.loads(_run_probe(probe))
        assert code1 == code2 == 0
        assert out1 == out2 and out1.count("monte carlo") == 4

    def test_a_patch_before_the_first_command_is_called(self, tmp_path):
        # cli.clopper_pearson is patched before the library loads, as the tracer does
        probe = """
import sys
from spherecond import cli
calls = []
original = cli.clopper_pearson
cli.clopper_pearson = lambda *args: calls.append(args) or original(*args)
code = cli.main(["estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
                 "--t-grid", "2,10,100", "--samples", "5000", "--out", sys.argv[1]])
print(code, len(calls))
"""
        assert _run_probe(probe, str(tmp_path / "patched")).split() == ["0", "3"]


def _run_pool_probe(code: str, out: Path) -> tuple:
    """(last stdout line, stderr) of a fresh interpreter that runs `code` with `out` and
    this spherecond, and exits."""
    env = {**os.environ, "PYTHONPATH": str(Path(spherecond.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1], done.stderr


_POOL_PROBE_HEAD = """
import json, multiprocessing, os, signal, sys
from spherecond import cli
argv = ["estimate", "tail", "--problem", "matrix-inversion", "--n", "2", "--sigma", "0.5",
        "--t-grid", "2,10", "--samples", "20000"]

def run(workers, name):
    code = cli.main([*argv, "--workers", workers, "--out", os.path.join(sys.argv[1], name)])
    return code, sorted(p.pid for p in multiprocessing.active_children())
"""


class TestProcessPool:
    def test_pool_lives_until_its_size_changes_or_the_interpreter_exits(self, tmp_path):
        probe = _POOL_PROBE_HEAD + """
runs = [run("2", "a"), run("2", "b"), run("3", "c")]
print(json.dumps(runs + [[p for p in runs[0][1] if os.path.exists(f"/proc/{p}")]]))
"""
        line, err = _run_pool_probe(probe, tmp_path)
        (a, pids_a), (b, pids_b), (c, pids_c), old_alive = json.loads(line)
        assert a == b == c == 0
        assert len(pids_a) == 2 and pids_b == pids_a  # the second command reused the pool
        assert len(pids_c) == 3 and not set(pids_c) & set(pids_a) and old_alive == []
        # shut down at exit: no worker outlives the interpreter, and nothing is printed
        assert not [p for p in pids_a + pids_c if Path(f"/proc/{p}").exists()]
        assert err == ""
        csvs = [(tmp_path / f"{name}.csv").read_bytes() for name in "abc"]
        assert csvs[0] == csvs[1] == csvs[2]

    def test_a_pytest_session_that_leaves_a_pool_ends_quietly(self, tmp_path):
        # left to the garbage collector at interpreter teardown, a live pool printed
        # "Exception ignored in ... weakref_cb" after such a session; an atexit hook shuts
        # it down before that
        (tmp_path / "test_pool.py").write_text("""
import spherecond
from spherecond.cli import main

def test_two_workers(tmp_path):
    assert main(["estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
                 "--samples", "20000", "--workers", "2", "--out", str(tmp_path / "w2")]) == 0
""")
        env = {**os.environ, "PYTHONPATH": str(Path(spherecond.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "test_pool.py"], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stdout
        assert "Exception ignored" not in done.stdout + done.stderr

    def test_a_killed_worker_does_not_break_the_next_command(self, tmp_path):
        # the pool notices the death and breaks; the next run starts a fresh pool
        probe = _POOL_PROBE_HEAD + """
first = run("2", "a")
os.kill(first[1][0], signal.SIGKILL)
print(json.dumps([first, run("2", "b"), run("1", "serial")]))
"""
        line, err = _run_pool_probe(probe, tmp_path)
        (a, pids_a), (b, pids_b), (serial, _) = json.loads(line)
        assert a == b == serial == 0
        assert len(pids_b) == 2 and pids_a[0] not in pids_b
        assert err == ""
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
