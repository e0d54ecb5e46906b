"""Acceptance suite: exact identities, oracle equivalences, and empirical
dominance of every closed-form bound at desk scale.

Each test prints one summary line so `pytest -v` doubles as a report.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import time

import numpy as np
import pytest

from spherecond import (
    Cap,
    CurveVariety,
    DeterminantVariety,
    PolySystem,
    RngStream,
    SpherePoint,
    SubsphereVariety,
    WeylPolynomial,
    clopper_pearson,
    mu_norm,
    sphere_volume,
    tube_ratio_bound,
)
from spherecond.cli import main
from spherecond.varieties import tube_cap_counts
from subsphere_tube import subsphere_tube_volume
from weyl_rotation import random_system_with_zero, rotate_system, sample_rotation


def north(p):
    v = np.zeros(p + 1)
    v[0] = 1.0
    return SpherePoint(v)


def report(name, detail):
    print(f"[acceptance] {name}: pass ({detail})")


def run_cli(*argv):
    """Run one `spherecond` command in process; return its exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def verify_rows(out):
    """A verify suite's rows as [label, "pass" or "FAIL"], without the overall line."""
    return [line.rsplit(None, 1) for line in out.splitlines()[:-1]]


def test_01_j_integral_consistency():
    t0 = time.time()
    _, out = run_cli("verify", "jintegrals")
    label, status = verify_rows(out)[0]
    assert label.startswith("quadrature vs closed form") and status == "pass", label
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("J-integral quadrature vs closed form",
           f"{label.partition('(')[2].rstrip(')')}, {elapsed:.1f}s")


def test_02_j_integral_inequalities_and_equality():
    _, out = run_cli("verify", "jintegrals")
    assert verify_rows(out)[1:] == [["moment-integral inequalities on grid", "pass"],
                                    ["exact equality at alpha = pi/2", "pass"]]
    report("J-integral inequalities and pi/2 equality", "p <= 20 grid")


def test_03_kinematic_identity_and_monte_carlo():
    t0 = time.time()
    code, out = run_cli("verify", "kinematic", "--samples", 1_000_000, "--seed", 17)
    assert code == 0, out
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("kinematic identity (analytic + Monte Carlo)", f"{elapsed:.1f}s")


def test_04_subsphere_tube_exactness():
    t0 = time.time()
    for p in (2, 3, 5):
        variety = SubsphereVariety(p, p - 1)
        cap = Cap(north(p), 1.0)  # center e0 lies on {x_p = 0}
        eps_grid = (0.1, 0.3, 0.6)
        hits = tube_cap_counts(variety, cap, eps_grid, samples=100_000, seed=23)
        for eps, h in zip(eps_grid, hits):
            lo, hi = clopper_pearson(int(h), 100_000)
            exact = subsphere_tube_volume(p, 1, eps) / sphere_volume(p)
            assert lo <= exact <= hi, (p, eps)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("subsphere tube/cap ratio matches closed form", f"{elapsed:.1f}s")


def test_05_weyl_tube_bound_grid():
    t0 = time.time()
    code, out = run_cli("verify", "weyltube")
    assert code == 0, out
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("exact band volume vs curvature tube bound", f"{elapsed:.1f}s")


def test_06_tail_bound_dominance(tmp_path):
    # each run exits 3 if a row's lower Clopper-Pearson limit exceeds the tail bound
    t0 = time.time()
    for n, sigma, center in itertools.product((2, 3), (0.25, 1.0), ("north", "random")):
        code, _ = run_cli("estimate", "tail", "--problem", "matrix-inversion", "--n", n,
                          "--sigma", sigma, "--center", center, "--t-grid", "log:2:1000:6",
                          "--samples", 100_000, "--seed", 37,
                          "--out", tmp_path / f"tail_{n}_{sigma}_{center}")
        assert code == 0, (n, sigma, center)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report("tail-probability dominance for matrix inversion", f"{elapsed:.1f}s")


def test_07_log_mean_dominance(tmp_path):
    # a sigma = 1 cap is a hemisphere and C(-a) = C(a), so this is the full-sphere law
    cases = [("n2", ["matrix-inversion", "--n", 2], 6 * math.log(2) + 5.5),
             ("mp32", ["moore-penrose", "--l", 3, "--m", 2],
              2 * math.log(3) + 4 * math.log(2) + 5.5),
             ("n3", ["matrix-inversion", "--n", 3], 6 * math.log(3) + 5.5)]
    for name, problem, pinned in cases:
        code, _ = run_cli("estimate", "logmean", "--problem", *problem, "--sigma", 1,
                          "--samples", 100_000, "--seed", 41, "--out", tmp_path / name)
        assert code == 0, name
        with open(tmp_path / f"{name}.csv") as fh:
            [row] = csv.DictReader(fh)
        mean, bound = float(row["empirical_mean_ln"]), float(row["bound"])
        assert mean <= bound, (name, mean)
        assert bound == pytest.approx(pinned, abs=5e-5)
    report("log-mean dominance", f"worst margin at n=3 mean {mean:.3f}")


def random_quadric_curve(seed):
    """Random degree-2 curve on S^2 with nonempty real zero set."""
    gen = np.random.default_rng(seed)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    while True:
        coeffs = gen.standard_normal(6)
        try:
            return CurveVariety([(a, c) for a, c in zip(monos, coeffs)], degree=2)
        except ValueError:
            continue


def test_08_tube_ratio_dominance():
    varieties = [DeterminantVariety(2)] + [random_quadric_curve(s) for s in (101, 102, 103)]
    eps_grid = [0.02, 0.05, 0.1, 0.2, 0.4, 0.8]
    for variety in varieties:
        for sigma in (0.25, 1.0):
            cap = Cap(north(variety.p), sigma)
            counts = tube_cap_counts(variety, cap, eps_grid, 100_000, seed=47)
            for eps, hits in zip(eps_grid, counts):
                lo, _ = clopper_pearson(int(hits), 100_000)
                bound = tube_ratio_bound(variety.p, variety.degree, sigma, eps)
                assert lo <= bound, (type(variety).__name__, sigma, eps)
    report("tube-ratio dominance", "determinant + 3 random quadric curves")


def test_09_eckart_young_oracle():
    code, out = run_cli("verify", "eckart-young", "--trials", 1000, "--seed", 53)
    assert code == 0, out
    report("Eckart-Young oracle", "1000 matrices, n in 2..5")


def test_10_wilkinson_inequality():
    t0 = time.time()
    code, out = run_cli("verify", "wilkinson", "--trials", 1000, "--seed", 59)
    assert code == 0, out
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("eigenvalue condition vs defectivity distance", f"1000 matrices, {elapsed:.1f}s")


def test_11_condition_number_theorem_witnesses():
    code, out = run_cli("verify", "cntr", "--trials", 1000, "--seed", 61)
    assert code == 0, out
    report("witness products bounded below by one", "1000 triples, d in {2,3,4}")


def test_12_mu_norm_closed_cases():
    for n in (1, 2, 3):
        polys = []
        for i in range(n):
            alpha = [0] * (n + 1)
            alpha[i + 1] = 1
            polys.append(WeylPolynomial(n=n, degree=1, coefficients={tuple(alpha): 1.0}))
        assert abs(mu_norm(PolySystem(tuple(polys)), north(n)) - math.sqrt(n)) <= 1e-10
    f = WeylPolynomial(n=1, degree=2, coefficients={(1, 1): 1.0})
    assert abs(mu_norm(PolySystem((f,)), north(1)) - 1.0) <= 1e-10
    f, zeta = random_system_with_zero(2, 2, np.random.default_rng(67))
    base = mu_norm(f, zeta)
    for k in range(100):
        rot = sample_rotation(3, RngStream(71, k))
        assert abs(mu_norm(rotate_system(f, rot),
                           SpherePoint.from_vector(rot @ zeta.coords)) - base) <= 1e-8 * base
    report("mu closed cases and rotation invariance", "sqrt(n), product case, 100 rotations")


def test_13_worker_count_reproducibility(tmp_path):
    outputs = []
    for workers in (1, 4):
        out = tmp_path / f"rep{workers}"
        code = main(["estimate", "tail", "--problem", "matrix-inversion", "--n", "2",
                     "--sigma", "0.5", "--samples", "50000", "--seed", "73",
                     "--workers", str(workers), "--out", str(out)])
        assert code == 0
        outputs.append((tmp_path / f"rep{workers}.csv").read_bytes())
    assert outputs[0] == outputs[1]
    for workers in (1, 4):
        out = tmp_path / f"tube{workers}"
        code = main(["estimate", "tube", "--variety", "determinant:2",
                     "--sigma", "1", "--samples", "50000", "--seed", "79",
                     "--workers", str(workers), "--out", str(out)])
        assert code == 0
    assert ((tmp_path / "tube1.csv").read_bytes()
            == (tmp_path / "tube4.csv").read_bytes())
    manifest = json.loads((tmp_path / "tube4.manifest.json").read_text())
    assert manifest["worker_count"] == 4
    report("worker-count reproducibility", "tail + tube CSVs byte-identical")
