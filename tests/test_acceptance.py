"""Acceptance suite: exact identities, oracle equivalences, and empirical
dominance of every closed-form bound at desk scale.

Each test prints one summary line so `pytest -v` doubles as a report.
"""

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
    discriminant_distance_2x2,
    eigenvalue_condition,
    frobenius_condition,
    j_integral,
    j_integral_quad,
    mu_norm,
    multiple_zero_witness,
    sample_uniform_cap,
    sample_uniform_sphere,
    sphere_volume,
    subsphere_tube_volume,
    system_projective_distance,
    tail_bound,
    tube_ratio_bound,
    verify_kinematic,
    verify_weyl_tube_bound,
)
from spherecond.cli import main
from spherecond.conditioning import random_system_with_zero
from spherecond.varieties import (
    geodesic_sphere_mu,
    kinematic_rhs_analytic,
    tube_cap_counts,
)
from weyl_rotation import rotate_system, sample_rotation


def north(p):
    v = np.zeros(p + 1)
    v[0] = 1.0
    return SpherePoint(v)


def report(name, detail):
    print(f"[acceptance] {name}: pass ({detail})")


def test_01_j_integral_consistency():
    t0 = time.time()
    alphas = np.linspace(0.1, math.pi / 2, 20)
    worst = 0.0
    for p in range(1, 21):
        for k in range(1, p + 1):
            for a in alphas:
                worst = max(worst, abs(j_integral(p, k, float(a))
                                       - j_integral_quad(p, k, float(a))))
    assert worst <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("J-integral quadrature vs closed form",
           f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_02_j_integral_inequalities_and_equality():
    alphas = np.linspace(0.1, math.pi / 2, 20)
    for p in range(1, 21):
        for a in alphas:
            eps = math.sin(a)
            for k in range(1, p + 1):
                val = j_integral(p, k, float(a))
                if k < p:
                    assert val <= eps**k / k + 1e-12
                else:
                    upper = sphere_volume(p) / (2 * sphere_volume(p - 1)) * eps**p
                    assert eps**p / p - 1e-12 <= val <= upper + 1e-12
        target = sphere_volume(p) / (2 * sphere_volume(p - 1))
        assert abs(j_integral(p, p, math.pi / 2) - target) <= 1e-12 * target
    report("J-integral inequalities and pi/2 equality", "p <= 20 grid")


def test_03_kinematic_identity_and_monte_carlo():
    t0 = time.time()
    for p in (2, 3, 4, 5):
        for i in range(p - 1):
            for a in (0.3, 0.6, 1.0, 1.4):
                lhs = geodesic_sphere_mu(p, a, i)
                rhs = kinematic_rhs_analytic(p, i, a)
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs), (p, i, a)
    for p, i in [(2, 0), (3, 0), (3, 1), (4, 1)]:
        lhs, _, lo, hi = verify_kinematic(p, i, 0.6, samples=1_000_000, seed=17)
        assert lo <= lhs <= hi, (p, i)
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
    for p in (2, 3, 4, 6):
        alphas = np.arange(0.2, math.pi / 2, 0.2).tolist() + [math.pi / 2]
        for a in alphas:
            for frac in (0.25, 0.5, 0.75):
                lhs, rhs, ok = verify_weyl_tube_bound(p, a, frac * a)
                assert ok, (p, a, frac)
                if abs(a - math.pi / 2) < 1e-12:
                    assert abs(lhs - rhs) <= 1e-12 * rhs, (p, frac)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("exact band volume vs curvature tube bound", f"{elapsed:.1f}s")


def test_06_tail_bound_dominance():
    t0 = time.time()
    t_grid = np.geomspace(2.0, 1000.0, 6)
    for n in (2, 3):
        p = n * n - 1
        centers = [north(p),
                   SpherePoint.from_vector(RngStream(31).generator.standard_normal(p + 1))]
        for sigma in (0.25, 1.0):
            for center in centers:
                cap = Cap(center, sigma)
                pts = sample_uniform_cap(cap, RngStream(37), size=100_000)
                smins = np.linalg.svd(pts.reshape(-1, n, n), compute_uv=False)[:, -1]
                for t in t_grid:
                    hits = int((smins <= 1.0 / t).sum())
                    lo, _ = clopper_pearson(hits, 100_000)
                    bound = tail_bound(p, n, sigma, float(t))
                    assert lo <= bound, (n, sigma, t)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report("tail-probability dominance for matrix inversion", f"{elapsed:.1f}s")


def test_07_log_mean_dominance():
    for n, bound in [(2, 9.6589), (3, 12.0917)]:
        pts = sample_uniform_sphere(n * n - 1, RngStream(41), size=100_000)
        kappas = frobenius_condition(pts.reshape(-1, n, n))
        mean = float(np.mean(np.log(kappas)))
        assert mean <= bound, (n, mean)
        assert bound == pytest.approx(6 * math.log(n) + 5.5, abs=5e-5)
    pts = sample_uniform_sphere(5, RngStream(43), size=100_000)
    kappas = frobenius_condition(pts.reshape(-1, 3, 2))
    mean = float(np.mean(np.log(kappas)))
    assert mean <= 2 * math.log(3) + 4 * math.log(2) + 5.5
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
    gen = RngStream(53).generator
    for _ in range(1000):
        n = int(gen.integers(2, 6))
        a = gen.standard_normal((n, n))
        u, s, vt = np.linalg.svd(a)
        s_trunc = s.copy()
        s_trunc[-1] = 0.0
        assert abs(np.linalg.norm(a - u @ np.diag(s_trunc) @ vt) - s[-1]) <= 1e-10
        ahat = a / np.linalg.norm(a)
        kappa = frobenius_condition(ahat)
        dist = DeterminantVariety(n).distances(ahat.reshape(1, -1))[0]
        assert abs(kappa * dist - 1.0) <= 1e-8
    report("Eckart-Young oracle", "1000 matrices, n in 2..5")


def test_10_wilkinson_inequality():
    t0 = time.time()
    gen = RngStream(59).generator
    checked = 0
    while checked < 1000:
        a = gen.standard_normal((2, 2))
        eig = np.linalg.eigvals(a)
        if np.max(np.abs(eig.imag)) > 1e-12:
            continue
        if abs(eig[0] - eig[1]) < 1e-6 * np.linalg.norm(a):
            continue
        bound = math.sqrt(2.0) * np.linalg.norm(a) / discriminant_distance_2x2(a)
        for lam in eig.real:
            assert eigenvalue_condition(a, float(lam)) <= bound + 1e-6
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("eigenvalue condition vs defectivity distance", f"1000 matrices, {elapsed:.1f}s")


def test_11_condition_number_theorem_witnesses():
    gen = RngStream(61).generator
    for k in range(1000):
        d = (2, 3, 4)[k % 3]
        f, zeta = random_system_with_zero(1, d, gen)
        g = multiple_zero_witness(f, zeta)
        mu = mu_norm(f, zeta)
        if math.isinf(mu):
            continue
        assert mu * system_projective_distance(f, g) >= 1.0 - 1e-6, (k, d)
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
