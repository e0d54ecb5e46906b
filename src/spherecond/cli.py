"""Batch experiment runner.

Subcommands, each split into modes that declare only the flags they read:
  bounds tail|expectation|tube|linear  evaluate a closed-form bound and print it
  estimate tail|logmean|tube           Monte Carlo experiments -> CSV + manifest
  verify <suite>                       exact-identity and oracle verification suites

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 bound violation.
A usage error, argparse's own included, prints one "error: ..." line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    PROBLEM_KINDS,
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
    random_system_with_zero,
    # weyl_norm stays bound here: benchmark/tracing.py patches cli.weyl_norm.
    weyl_norm,  # noqa: F401
)
from .geometry import (
    Cap,
    SpherePoint,
    j_integral,
    j_integral_quad,
    sphere_volume,
)
# sample_uniform_cap stays bound here: benchmark/tracing.py patches cli.sample_uniform_cap.
from .sampling import RngStream, sample_uniform_cap  # noqa: F401
from .varieties import (
    DeterminantVariety,
    SubsphereVariety,
    _cap_block,
    _merge_moments,
    _moments,
    clopper_pearson,
    geodesic_sphere_mu,
    kinematic_rhs_analytic,
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


def _degrees(spec: str) -> tuple[int, ...]:
    return tuple(int(d) for d in spec.split(","))


def cmd_bounds(args) -> int:
    try:
        # (p, d) from --problem, or from --p/--d; `which` picks the bound either way
        if args.problem is not None:
            if args.p is not None or args.d is not None:
                raise ValueError("--problem gives (p, d): drop --p and --d")
            problem = ProblemDescriptor(args.problem, args.n, args.l, args.m, args.degrees)
            p, d = problem.ambient_dim_and_degree()
            params = {"problem": args.problem, "sigma": args.sigma}
        elif args.p is None or args.d is None:
            raise ValueError("bounds needs --problem, or both --p and --d")
        else:
            for size in ("n", "l", "m", "degrees"):
                if getattr(args, size) is not None:
                    raise ValueError(f"--{size} is a problem size: it needs --problem")
            problem, p, d = None, args.p, args.d
            params = {"p": p, "d": d, "sigma": args.sigma}
        if args.which == "expectation":  # a named problem gets the paper's corollary
            value = (application_bound(problem, args.sigma) if problem is not None
                     else expectation_bound(p, d, args.sigma))
        else:
            flag = "t" if args.which == "tail" else "eps"
            x = getattr(args, flag)
            bound = {"tail": tail_bound, "tube": tube_ratio_bound,
                     "linear": linear_tail_bound}[args.which]
            value = bound(p, d, args.sigma, x)  # linear: None where it does not apply
            params[flag] = x
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps({"params": params, "value": value}))
    else:
        print("not applicable" if value is None else _fmt6(value))
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
        # stream 0: sample blocks use streams index + 1
        return SpherePoint.from_vector(RngStream(seed).generator.standard_normal(p + 1))
    with open(spec) as fh:
        v = np.asarray(json.load(fh), dtype=float)
    if v.shape != (p + 1,):
        raise ValueError(f"--center must list {p + 1} coordinates for S^{p}, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-6:
        print(f"warning: center norm {norm:.6g} deviates from 1; normalizing",
              file=sys.stderr)
    return SpherePoint.from_vector(v)


def _log_moments(d: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, M2) of lk = ln C = -ln sigma_min over one block."""
    return _moments(-np.log(np.maximum(d, 1e-300)))


# estimate --problem: each kind's ill-posed set; a unit matrix has C = 1/sigma_min = 1/dist
PROBLEM_VARIETIES = {
    "matrix-inversion": lambda problem: DeterminantVariety(problem.n),
    "moore-penrose": lambda problem: DeterminantVariety(problem.l, problem.m),
}


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
                   t0: float) -> None:
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
        "sample_count": args.samples,
        "wall_time_seconds": time.time() - t0,
        "artifact_version": __version__,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_estimate(args) -> int:
    t0 = time.time()
    columns = ["ci_low", "ci_high", "bound", "dominated"]
    try:
        # each branch evaluates its bounds before sampling, so a bad grid fails at once
        if args.which == "tube":
            variety = _resolve_variety(args.variety)
            grid = eps_grid = _parse_grid(args.eps_grid)
            bounds = [tube_ratio_bound(variety.p, variety.degree, args.sigma, eps)
                      for eps in grid]
            header = ["eps", "empirical_ratio", *columns]
        else:
            problem = ProblemDescriptor(args.problem, args.n, args.l, args.m)
            variety = PROBLEM_VARIETIES[args.problem](problem)
            if args.which == "tail":
                grid = _parse_grid(args.t_grid)
                eps_grid = [1.0 / t for t in grid]  # P{C >= t} is the tube ratio at eps = 1/t
                bounds = [tail_bound(variety.p, variety.degree, args.sigma, t) for t in grid]
                header = ["t", "empirical", *columns]
            else:
                bound = application_bound(problem, args.sigma)
                header = ["empirical_mean_ln", *columns]
        cap = Cap(center=_resolve_center(args.center, variety.p, args.seed), sigma=args.sigma)
        if args.which == "logmean":
            n, mean, m2 = _merge_moments(run_blocks(
                _cap_block, (variety, cap, _log_moments, args.seed), args.samples, args.workers))
            half = 2.5758293035489004 * math.sqrt(m2 / (n - 1)) / math.sqrt(n)
            rows = [[mean, mean - half, mean + half, bound, mean - half <= bound]]
        else:
            hits = tube_cap_counts(variety, cap, eps_grid, args.samples, args.seed, args.workers)
            rows = []
            for x, h, bound in zip(grid, hits, bounds):
                lo, hi = clopper_pearson(int(h), args.samples)
                rows.append([x, int(h) / args.samples, lo, hi, bound, lo <= bound])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violation = not all(row[-1] for row in rows)
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "which", "argv") and v is not None}
    _write_outputs(args, header, rows, params, t0)
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
    analytic_ok = True
    for p in (2, 3, 4, 5):
        for i in range(p - 1):
            for a in (0.3, 0.6, 1.0, 1.4):
                lhs = geodesic_sphere_mu(p, a, i)
                rhs = kinematic_rhs_analytic(p, i, a)
                analytic_ok &= abs(lhs - rhs) <= 1e-10 * abs(lhs)
    rows = [("analytic slice-average identity", analytic_ok)]
    for p, i in [(2, 0), (3, 0), (3, 1), (4, 1)]:
        lhs, _, lo, hi = verify_kinematic(p, i, 0.6, args.samples, args.seed, args.workers)
        rows.append((f"monte carlo p={p} i={i} alpha=0.60", lo <= lhs <= hi))
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


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors as ValueError, so that main reports them like
    every other usage error: one "error: ..." line and exit code 2."""

    def error(self, message):
        raise ValueError(message)


def _int_at_least(low: int):
    """An argparse type: an int that must be >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


@functools.cache  # nested subparsers cost milliseconds to build, and main runs per command
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherecond", description=__doc__)
    # no dest: argparse then names a missing command or mode by its choices
    commands = parser.add_subparsers(required=True)
    count, seed = _int_at_least(1), _int_at_least(0)

    bounds = commands.add_parser("bounds", help="evaluate closed-form bounds").add_subparsers(
        required=True)
    for which, flag in (("tail", "t"), ("expectation", None), ("tube", "eps"), ("linear", "eps")):
        pb = bounds.add_parser(which)
        pb.add_argument("--problem", choices=PROBLEM_KINDS)
        for size in ("--n", "--l", "--m", "--p", "--d"):  # --p, --d: without --problem
            pb.add_argument(size, type=int)
        pb.add_argument("--degrees", type=_degrees)
        pb.add_argument("--sigma", type=float, default=1.0)
        if flag is not None:
            pb.add_argument(f"--{flag}", type=float, required=True)
        pb.add_argument("--json", action="store_true")
        pb.set_defaults(func=cmd_bounds, which=which)

    estimate = commands.add_parser("estimate", help="Monte Carlo experiments -> CSV")
    estimate = estimate.add_subparsers(required=True)
    for which in ("tail", "logmean", "tube"):
        pe = estimate.add_parser(which)
        if which == "tube":
            pe.add_argument("--variety", required=True,
                            help="subsphere:p,m | determinant:n | curve:file.json")
            pe.add_argument("--eps-grid", default="0.05,0.1,0.2,0.3,0.5,0.8")
        else:
            pe.add_argument("--problem", required=True, choices=list(PROBLEM_VARIETIES))
            for size in ("--n", "--l", "--m"):
                pe.add_argument(size, type=int)
        if which == "tail":
            pe.add_argument("--t-grid", default="log:2:1000:6")
        pe.add_argument("--sigma", type=float, default=1.0)
        pe.add_argument("--samples", default=100_000,  # logmean's sd divides by samples - 1
                        type=_int_at_least(2 if which == "logmean" else 1))
        pe.add_argument("--seed", type=seed, default=0)
        pe.add_argument("--workers", type=count, default=1)
        pe.add_argument("--center", default="north",
                        help="north | random | path to JSON coordinate array")
        pe.add_argument("--out", required=True)
        pe.set_defaults(func=cmd_estimate, which=which)

    verify = commands.add_parser("verify", help="verification suites").add_subparsers(
        required=True)
    trials = [("--trials", 1000)]
    for which, suite, flags in (
            ("kinematic", _verify_kinematic, [("--samples", 1_000_000), ("--workers", 1)]),
            ("weyltube", _verify_weyltube, []),
            ("jintegrals", _verify_jintegrals, []),
            ("eckart-young", _verify_eckart_young, trials),
            ("wilkinson", _verify_wilkinson, trials),
            ("cntr", _verify_cntr, trials)):
        pv = verify.add_parser(which)
        for name, default in flags:
            pv.add_argument(name, type=count, default=default)
        # every suite takes --seed, so one seed serves all; weyltube and jintegrals draw none
        pv.add_argument("--seed", type=seed, default=7)
        pv.set_defaults(func=suite)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args.argv = argv  # recorded in manifests as the command actually run
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
