import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherecond
from spherecond import (
    Cap,
    DeterminantVariety,
    ProblemDescriptor,
    RngStream,
    SpherePoint,
    cli,
    linear_tail_bound,
    tail_bound,
)
from spherecond.cli import main
from spherecond.varieties import _cap_block, run_blocks


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

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "tail", "--p", "3", "--d", "1",
                           "--sigma", "1", "--t", "0.5")
        assert code == 2
        assert "error" in err

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
        assert err.startswith("error:")
        assert not (tmp_path / "bad.csv").exists()

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
    ], ids=["top-level-list", "no-degree", "no-monomials", "no-alpha", "no-coeff"])
    def test_malformed_curve_json_is_a_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad_curve.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "estimate", "tube", "--variety", f"curve:{path}",
                           "--samples", "100", "--out", str(tmp_path / "bad"))
        assert code == 2
        assert err.startswith("error:")
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


def test_import_loads_no_slow_scipy_module():
    # `import spherecond.cli` is the start-up cost of every command
    slow = ["scipy.optimize", "scipy.integrate", "scipy.stats", "scipy.spatial"]
    code = f"import sys, spherecond.cli; print([m for m in {slow!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(spherecond.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
