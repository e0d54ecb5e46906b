"""Batch experiment runner.

Subcommands:
  bounds    evaluate a closed-form bound and print it
  estimate  Monte Carlo tail / log-mean / tube-ratio experiments -> CSV + manifest
  verify    exact-identity and oracle verification suites

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    BoundParams,
    ProblemDescriptor,
    application_bound,
    expectation_bound,
    linear_tail_bound,
    tail_bound,
    tube_ratio_bound,
)
from .conditioning import (
    cntr_witness_check,
    discriminant_distance_2x2,
    eigenvalue_condition,
    frobenius_condition,
    multiple_zero_witness,
    weyl_norm,
    PolySystem,
    WeylPolynomial,
)
from .geometry import (
    Cap,
    SpherePoint,
    j_integral,
    j_integral_quad,
    sphere_volume,
)
from .sampling import RngStream, sample_uniform_cap
from .varieties import (
    DeterminantVariety,
    SubsphereVariety,
    clopper_pearson,
    load_curve,
    run_blocks,
    tube_cap_counts,
    verify_kinematic,
    verify_weyl_tube_bound,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3


def _fmt6(x: float) -> str:
    return np.format_float_positional(x, precision=6, unique=False, fractional=False)


def _fmt17(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# bounds


def _problem_from_flags(args) -> ProblemDescriptor:
    kind = args.problem
    if kind == "moore-penrose":
        return ProblemDescriptor(kind=kind, l=args.l, m=args.m)
    if kind == "polysys":
        degrees = tuple(int(d) for d in args.degrees.split(","))
        return ProblemDescriptor(kind=kind, degrees=degrees)
    return ProblemDescriptor(kind=kind, n=args.n)


def cmd_bounds(args) -> int:
    try:
        if args.problem is not None:
            problem = _problem_from_flags(args)
            if args.which in ("tail", "application") and args.t is not None:
                value = application_bound(problem, args.sigma, args.t, mode="tail")
                params = {"problem": args.problem, "sigma": args.sigma, "t": args.t}
            else:
                value = application_bound(problem, args.sigma, mode="expectation")
                params = {"problem": args.problem, "sigma": args.sigma}
        elif args.which == "tail":
            value = tail_bound(BoundParams(p=args.p, d=args.d, sigma=args.sigma, t=args.t))
            params = {"p": args.p, "d": args.d, "sigma": args.sigma, "t": args.t}
        elif args.which == "expectation":
            value = expectation_bound(BoundParams(p=args.p, d=args.d, sigma=args.sigma))
            params = {"p": args.p, "d": args.d, "sigma": args.sigma}
        elif args.which == "tube":
            value = tube_ratio_bound(BoundParams(p=args.p, d=args.d, sigma=args.sigma, eps=args.eps))
            params = {"p": args.p, "d": args.d, "sigma": args.sigma, "eps": args.eps}
        elif args.which == "linear":
            value = linear_tail_bound(args.p, args.d, args.sigma, args.eps)
            params = {"p": args.p, "d": args.d, "sigma": args.sigma, "eps": args.eps}
            if value is None:
                if args.json:
                    print(json.dumps({"params": params, "value": None}))
                else:
                    print("not applicable")
                return EXIT_OK
        else:
            raise ValueError(f"unknown bounds subcommand {args.which}")
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps({"params": params, "value": value}))
    else:
        print(_fmt6(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _parse_grid(spec: str) -> list[float]:
    """Comma list of values, or 'log:lo:hi:count' for log spacing."""
    if spec.startswith("log:"):
        _, lo, hi, count = spec.split(":")
        return [float(v) for v in np.geomspace(float(lo), float(hi), int(count))]
    return [float(v) for v in spec.split(",")]


def _resolve_center(spec: str, p: int, seed: int) -> SpherePoint:
    if spec == "north":
        v = np.zeros(p + 1)
        v[0] = 1.0
        return SpherePoint(v)
    if spec == "random":
        rng = RngStream(seed, 999_983)
        g = rng.generator.standard_normal(p + 1)
        return SpherePoint.from_vector(g)
    with open(spec) as fh:
        v = np.asarray(json.load(fh), dtype=float)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-6:
        print(f"warning: center norm {norm:.6g} deviates from 1; normalizing",
              file=sys.stderr)
    return SpherePoint.from_vector(v)


def _estimate_problem_shape(args) -> tuple[int, int, tuple[int, int]]:
    """(p, degree, matrix shape) for the sampled condition-number problem."""
    if args.problem == "matrix-inversion":
        n = args.n
        return n * n - 1, n, (n, n)
    if args.problem == "moore-penrose":
        return args.l * args.m - 1, args.m, (args.l, args.m)
    raise ValueError("estimate supports --problem matrix-inversion or moore-penrose")


def _cond_block(cap: Cap, shape: tuple[int, int], seed: int, index: int,
                count: int) -> np.ndarray:
    """Smallest singular values of `count` cap samples reshaped to matrices."""
    rng = RngStream(seed, index + 1)
    pts = sample_uniform_cap(cap, rng, size=count)
    mats = pts.reshape(count, *shape)
    return np.linalg.svd(mats, compute_uv=False)[:, -1]


def _cond_block_star(args):
    return _cond_block(*args)


def _resolve_variety(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "subsphere":
        p, m = (int(v) for v in rest.split(","))
        return SubsphereVariety(p, m)
    if kind == "determinant":
        return DeterminantVariety(int(rest))
    if kind == "curve":
        return load_curve(rest)
    raise ValueError(f"unknown variety spec {spec!r}")


def _write_outputs(args, header: list[str], rows: list[list], params: dict,
                   samples: int, t0: float) -> None:
    csv_path = args.out + ".csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt17(v) for v in row) + "\n")
    manifest = {
        "command_line": " ".join(["spherecond", *args.argv]),
        "parameters": params,
        "master_seed": args.seed,
        "worker_count": args.workers,
        "sample_count": samples,
        "wall_time_seconds": time.time() - t0,
        "artifact_version": __version__,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_estimate(args) -> int:
    t0 = time.time()
    try:
        if args.which in ("tail", "logmean"):
            p, degree, shape = _estimate_problem_shape(args)
            center = _resolve_center(args.center, p, args.seed)
            cap = Cap(center=center, sigma=args.sigma)
            smins = np.concatenate(run_blocks(_cond_block_star, (cap, shape, args.seed),
                                              args.samples, args.workers))
            if args.which == "tail":
                t_grid = _parse_grid(args.t_grid)
                rows = []
                violation = False
                for t in t_grid:
                    hits = int((smins <= 1.0 / t).sum())
                    lo, hi = clopper_pearson(hits, args.samples)
                    bound = tail_bound(BoundParams(p=p, d=degree, sigma=args.sigma, t=t))
                    dom = lo <= bound
                    violation |= not dom
                    rows.append([t, hits / args.samples, lo, hi, bound, dom])
                header = ["t", "empirical", "ci_low", "ci_high", "bound", "dominated"]
            else:
                lk = -np.log(np.maximum(smins, 1e-300))
                mean = float(np.sum(lk)) / args.samples
                sd = math.sqrt(max(float(np.sum((lk - mean) ** 2)) / (args.samples - 1), 0.0))
                half = 2.5758293035489004 * sd / math.sqrt(args.samples)
                problem = _problem_from_flags(args)
                bound = application_bound(problem, args.sigma, mode="expectation")
                dom = mean - half <= bound
                violation = not dom
                rows = [[mean, mean - half, mean + half, bound, dom]]
                header = ["empirical_mean_ln", "ci_low", "ci_high", "bound", "dominated"]
        elif args.which == "tube":
            variety = _resolve_variety(args.variety)
            p = variety.p
            center = _resolve_center(args.center, p, args.seed)
            cap = Cap(center=center, sigma=args.sigma)
            eps_grid = _parse_grid(args.eps_grid)
            counts = tube_cap_counts(variety, cap, eps_grid, args.samples,
                                     args.seed, args.workers)
            rows = []
            violation = False
            for eps, hits in zip(eps_grid, counts):
                lo, hi = clopper_pearson(int(hits), args.samples)
                bound = tube_ratio_bound(BoundParams(p=p, d=variety.degree,
                                                     sigma=args.sigma, eps=eps))
                dom = lo <= bound
                violation |= not dom
                rows.append([eps, int(hits) / args.samples, lo, hi, bound, dom])
            header = ["eps", "empirical_ratio", "ci_low", "ci_high", "bound", "dominated"]
        else:
            raise ValueError(f"unknown estimate subcommand {args.which}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "which", "argv") and v is not None}
    _write_outputs(args, header, rows, params, args.samples, t0)
    if violation:
        print("bound violation detected (dominated=false rows present)", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    print(f"wrote {args.out}.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _report(rows: list[tuple[str, bool]]) -> int:
    width = max(len(name) for name, _ in rows)
    ok = True
    for name, passed in rows:
        print(f"{name:<{width}}  {'pass' if passed else 'FAIL'}")
        ok &= passed
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_jintegrals(args) -> int:
    rows = []
    alphas = np.linspace(0.1, np.pi / 2, 20)
    worst = worst_rel = 0.0
    ineq_ok = True
    eq_ok = True
    eps = np.sin(alphas)
    for p in range(1, 21):
        for k in range(1, p + 1):
            exact = j_integral(p, k, alphas)
            quadv = np.array([j_integral_quad(p, k, float(a)) for a in alphas])
            err = np.abs(exact - quadv)
            worst = max(worst, float(np.max(err)))
            worst_rel = max(worst_rel, float(np.max(err / np.abs(quadv))))
            if k < p:
                ineq_ok &= bool(np.all(exact <= eps**k / k + 1e-12))
            else:
                upper = sphere_volume(p) / (2 * sphere_volume(p - 1)) * eps**p
                ineq_ok &= bool(np.all((eps**p / p - 1e-12 <= exact) & (exact <= upper + 1e-12)))
        equality = j_integral(p, p, np.pi / 2)
        target = sphere_volume(p) / (2 * sphere_volume(p - 1))
        eq_ok &= abs(equality - target) <= 1e-12 * target
    rows.append((f"quadrature vs closed form (max abs err {worst:.2e}, "
                 f"max rel err {worst_rel:.2e})", worst <= 1e-10))
    rows.append(("moment-integral inequalities on grid", ineq_ok))
    rows.append(("exact equality at alpha = pi/2", eq_ok))
    return _report(rows)


def _verify_kinematic(args) -> int:
    rows = []
    if args.p is not None:
        grid = [(args.p, args.i)]
        alphas = [args.alpha]
    else:
        grid = [(p, i) for p in (2, 3, 4, 5) for i in range(p - 1)]
        alphas = [0.3, 0.6, 1.0, 1.4]
    from .varieties import geodesic_sphere_mu, kinematic_rhs_analytic
    analytic_ok = True
    for p, i in grid:
        for a in alphas:
            lhs = geodesic_sphere_mu(p, a, i)
            rhs = kinematic_rhs_analytic(p, i, a)
            analytic_ok &= abs(lhs - rhs) <= 1e-10 * abs(lhs)
    rows.append(("analytic slice-average identity", analytic_ok))
    mc_cases = grid if args.p is not None else [(2, 0), (3, 0), (3, 1), (4, 1)]
    for p, i in mc_cases:
        for a in (alphas if args.p is not None else [args.alpha]):
            lhs, _, est = verify_kinematic(p, i, a, args.samples,
                                           RngStream(args.seed), args.workers)
            half = max(est.ci_high - est.estimate, est.estimate - est.ci_low)
            ok = abs(est.estimate - lhs) <= 3.0 * half
            rows.append((f"monte carlo p={p} i={i} alpha={a:.2f}", ok))
    return _report(rows)


def _verify_weyltube(args) -> int:
    rows = []
    for p in (2, 3, 4, 6):
        for a in np.arange(0.2, np.pi / 2 + 1e-9, 0.2).tolist() + [np.pi / 2]:
            a = min(a, np.pi / 2)
            for frac in (0.25, 0.5, 0.75):
                b = frac * a
                lhs, rhs, ok = verify_weyl_tube_bound(p, a, b)
                if abs(a - np.pi / 2) < 1e-12:
                    ok &= abs(lhs - rhs) <= 1e-12 * rhs
                    label = f"p={p} alpha=pi/2 beta={frac}a (equality)"
                else:
                    label = f"p={p} alpha={a:.2f} beta={frac}a"
                rows.append((label, bool(ok)))
    return _report(rows)


def _verify_eckart_young(args) -> int:
    rng = RngStream(args.seed)
    gen = rng.generator
    trunc_ok = True
    prod_ok = True
    for _ in range(args.trials):
        n = int(gen.integers(2, 6))
        a = gen.standard_normal((n, n))
        u, s, vt = np.linalg.svd(a)
        s_trunc = s.copy()
        s_trunc[-1] = 0.0
        a_trunc = u @ np.diag(s_trunc) @ vt
        trunc_ok &= abs(np.linalg.norm(a - a_trunc) - s[-1]) <= 1e-10
        ahat = a / np.linalg.norm(a)
        kappa = frobenius_condition(ahat)
        dist = DeterminantVariety(n).distances(ahat.reshape(1, -1))[0]
        prod_ok &= abs(kappa * dist - 1.0) <= 1e-8
    return _report([
        ("svd truncation distance equals smallest singular value", trunc_ok),
        ("condition number times variety distance equals one", prod_ok),
    ])


def _verify_wilkinson(args) -> int:
    rng = RngStream(args.seed)
    gen = rng.generator
    ok = True
    checked = 0
    while checked < args.trials:
        a = gen.standard_normal((2, 2))
        eig = np.linalg.eigvals(a)
        if np.iscomplexobj(eig) and np.max(np.abs(eig.imag)) > 1e-12:
            continue
        eig = eig.real
        if abs(eig[0] - eig[1]) < 1e-6 * np.linalg.norm(a):
            continue
        dist = discriminant_distance_2x2(a)
        bound = math.sqrt(2.0) * np.linalg.norm(a) / dist
        for lam in eig:
            ok &= eigenvalue_condition(a, float(lam)) <= bound + 1e-6
        checked += 1
    return _report([(f"eigenvalue condition vs distance oracle ({checked} matrices)", ok)])


def random_system_with_zero(n: int, d: int, gen) -> tuple[PolySystem, SpherePoint]:
    """Random unit-norm system with a planted zero on S^n."""
    zeta = SpherePoint.from_vector(gen.standard_normal(n + 1))
    polys = []
    for _ in range(n):
        from itertools import combinations_with_replacement
        coeffs = {}
        for combo in combinations_with_replacement(range(n + 1), d):
            alpha = [0] * (n + 1)
            for v in combo:
                alpha[v] += 1
            coeffs[tuple(alpha)] = float(gen.standard_normal())
        f = WeylPolynomial(n=n, degree=d, coefficients=coeffs)
        # subtract f(zeta) * <zeta, X>^d, which takes value 1 at zeta
        val = f(zeta.coords)
        from .conditioning import _linear_form_power_times
        corr = _linear_form_power_times(zeta.coords, zeta.coords, d)
        merged = dict(f.coefficients)
        for alpha, c in corr.coefficients.items():
            merged[alpha] = merged.get(alpha, 0.0) - val * c
        polys.append(WeylPolynomial(n=n, degree=d, coefficients=merged))
    system = PolySystem(tuple(polys))
    norm = weyl_norm(system)
    scaled = tuple(
        WeylPolynomial(n=f.n, degree=f.degree,
                       coefficients={a: c / norm for a, c in f.coefficients.items()})
        for f in system.polys
    )
    return PolySystem(scaled), zeta


def _verify_cntr(args) -> int:
    rng = RngStream(args.seed)
    gen = rng.generator
    ok = True
    for k in range(args.trials):
        d = (2, 3, 4)[k % 3]
        f, zeta = random_system_with_zero(1, d, gen)
        g = multiple_zero_witness(f, zeta)
        ok &= cntr_witness_check(f, zeta, g)
    return _report([(f"witness products >= 1 ({args.trials} trials)", ok)])


def cmd_verify(args) -> int:
    dispatch = {
        "jintegrals": _verify_jintegrals,
        "kinematic": _verify_kinematic,
        "weyltube": _verify_weyltube,
        "eckart-young": _verify_eckart_young,
        "wilkinson": _verify_wilkinson,
        "cntr": _verify_cntr,
    }
    return dispatch[args.which](args)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spherecond", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="evaluate closed-form bounds")
    pb.add_argument("which", choices=["tail", "expectation", "tube", "linear", "application"])
    pb.add_argument("--p", type=int)
    pb.add_argument("--d", type=int)
    pb.add_argument("--sigma", type=float, default=1.0)
    pb.add_argument("--t", type=float)
    pb.add_argument("--eps", type=float)
    pb.add_argument("--problem", choices=["matrix-inversion", "moore-penrose",
                                          "eigen-real", "eigen-complex", "polysys"])
    pb.add_argument("--n", type=int)
    pb.add_argument("--l", type=int)
    pb.add_argument("--m", type=int)
    pb.add_argument("--degrees", type=str)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_bounds)

    pe = sub.add_parser("estimate", help="Monte Carlo experiments -> CSV")
    pe.add_argument("which", choices=["tail", "logmean", "tube"])
    pe.add_argument("--problem", choices=["matrix-inversion", "moore-penrose"])
    pe.add_argument("--variety", type=str,
                    help="subsphere:p,m | determinant:n | curve:file.json")
    pe.add_argument("--n", type=int)
    pe.add_argument("--l", type=int)
    pe.add_argument("--m", type=int)
    pe.add_argument("--sigma", type=float, default=1.0)
    pe.add_argument("--samples", type=int, default=100_000)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--workers", type=int, default=1)
    pe.add_argument("--out", type=str, required=True)
    pe.add_argument("--t-grid", dest="t_grid", type=str, default="log:2:1000:6")
    pe.add_argument("--eps-grid", dest="eps_grid", type=str, default="0.05,0.1,0.2,0.3,0.5,0.8")
    pe.add_argument("--center", type=str, default="north",
                    help="north | random | path to JSON coordinate array")
    pe.set_defaults(func=cmd_estimate)

    pv = sub.add_parser("verify", help="verification suites")
    pv.add_argument("which", choices=["kinematic", "weyltube", "jintegrals",
                                      "eckart-young", "wilkinson", "cntr"])
    pv.add_argument("--p", type=int)
    pv.add_argument("--i", type=int, default=0)
    pv.add_argument("--alpha", type=float, default=0.6)
    pv.add_argument("--samples", type=int, default=1_000_000)
    pv.add_argument("--trials", type=int, default=1000)
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--workers", type=int, default=1)
    pv.add_argument("--n", type=int, default=2)
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in manifests as the command actually run
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
