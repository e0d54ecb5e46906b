"""Batch experiment runner.

Subcommands, each split into modes that declare only the flags they read:
  bounds tail|expectation|tube|linear  evaluate a closed-form bound and print it
  estimate tail|logmean|tube           Monte Carlo experiments -> CSV + manifest
  verify <suite>                       exact-identity and oracle verification suites

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 bound violation.
A usage error, argparse's own included, prints one "error: ..." line to stderr.

At import this module loads only the standard library and `bounds`, so `bounds`,
usage errors and --help start without numpy. `estimate` and `verify` call
`_library()` first, which imports numpy and the library and binds `np` and the
_LIBRARY names here; reading such a name as `cli.<name>` does the same.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

from . import __version__
from .bounds import (
    PROBLEM_KINDS,
    ProblemDescriptor,
    application_bound,
    expectation_bound,
    linear_tail_bound,
    log_tail_bound,
    log_tube_ratio_bound,
    tail_bound,
    tube_ratio_bound,
)

# the names that estimate and verify call, bound into this module by _library; a
# function sent to a worker must live in the library, since a spawned worker imports
# this module without calling _library
_LIBRARY = {
    # cntr_witness_check, weyl_norm and sample_uniform_cap are not called here:
    # benchmark/tracing.py patches them as cli attributes
    "conditioning": ("cntr_witness_check", "cntr_witness_product",
                     "discriminant_distance_2x2", "eigenvalue_condition",
                     "frobenius_condition", "multiple_zero_witness", "planted_systems",
                     "weyl_norm"),
    "geometry": ("Cap", "SpherePoint", "j_integral", "j_integral_quad", "sphere_volume"),
    "sampling": ("RngStream", "sample_uniform_cap"),
    "varieties": ("_BLOCK", "DeterminantVariety", "SubsphereVariety", "_cap_block",
                  "_log_moments", "_merge_moments", "clopper_pearson", "geodesic_sphere_mu",
                  "kinematic_rhs_analytic", "load_curve", "run_blocks", "tube_cap_counts",
                  "verify_kinematic", "verify_weyl_tube_bound"),
}


@functools.cache
def _library() -> None:
    """Import numpy and the library modules, once, and bind `np` and the _LIBRARY names
    here. `bounds`, usage errors and --help never call it, so a cold start loads only
    the standard library. A name already bound, e.g. patched, is kept."""
    import importlib

    import numpy

    names = globals()
    names.setdefault("np", numpy)
    for module, attrs in _LIBRARY.items():
        mod = importlib.import_module(f".{module}", __package__)
        for attr in attrs:
            names.setdefault(attr, getattr(mod, attr))


def __getattr__(name: str):
    # getattr(cli, name), and so patching it, works before any command has run
    if not name.startswith("__"):
        _library()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3


def _fmt6(x: float) -> str:
    return f"{x:#.6g}"


def _fmt17(x: float | bool) -> str:  # every CSV cell is a Python float or bool
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.17g}"


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
        # a tail or tube bound can leave the double range; its log10 stays finite
        log_bound = {"tail": log_tail_bound, "tube": log_tube_ratio_bound}.get(args.which)
        log10_value = (log_bound(p, d, args.sigma, x) / math.log(10.0) if log_bound
                       else None if value is None else math.log10(value))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:  # JSON has no Infinity: such a bound is null, next to its log10
        finite = value is None or math.isfinite(value)
        print(json.dumps({"params": params, "value": value if finite else None,
                          "log10_value": log10_value}, allow_nan=False))
    else:
        print("not applicable" if value is None else _fmt6(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _parse_grid(spec: str, flag: str) -> list[float]:
    """Comma list of values, or 'log:lo:hi:count' for log spacing; never empty, since
    "every row dominated" would then hold with no row checked."""
    try:
        if spec.startswith("log:"):
            _, lo, hi, count = spec.split(":")
            grid = [float(v) for v in np.geomspace(float(lo), float(hi), int(count))]
        else:
            grid = [float(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes v1,v2,... or log:lo:hi:count, got {spec!r}") from None
    if not grid:
        raise ValueError(f"{flag} {spec!r} has no points")
    return grid


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


_VARIETY_FORMS = "subsphere:p,m | determinant:n | curve:file.json"
# estimate --problem: each kind's ill-posed set; a unit matrix has C = 1/sigma_min = 1/dist
PROBLEM_VARIETIES = {
    "matrix-inversion": lambda problem: DeterminantVariety(problem.n),
    "moore-penrose": lambda problem: DeterminantVariety(problem.l, problem.m),
}


def _resolve_variety(spec: str):
    kind, _, rest = spec.partition(":")
    sizes = rest.split(",")
    with _naming("--variety", spec):
        if kind == "curve":
            return load_curve(rest)
        if all(map(str.isdecimal, sizes)):  # the strings int() reads, but for signs and spaces
            if kind == "subsphere" and len(sizes) == 2:
                return SubsphereVariety(*map(int, sizes))
            if kind == "determinant" and len(sizes) == 1:
                return DeterminantVariety(int(rest))
    raise ValueError(f"--variety takes {_VARIETY_FORMS}, got {spec!r}")


@contextlib.contextmanager
def _naming(flag: str, value):
    """Ends the message of a ValueError raised in the block with the flag and its value."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{exc}, in {flag} {value!r}") from None


def _write_outputs(args, header: list[str], rows: list[list], params: dict,
                   distance_kind: str, t0: float) -> None:
    import platform  # only manifests need these: kept off the import path of a cold `bounds`

    import scipy

    csv_path = args.out + ".csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt17(v) for v in row) + "\n")
    # what ran and where: the CSV stays a function of the parameters alone
    manifest = {
        "command_line": " ".join(["spherecond", *args.argv]),
        "parameters": params,
        "distance_kind": distance_kind,
        "master_seed": args.seed,
        "worker_count": args.workers,
        "sample_count": args.samples,
        "block_size": _BLOCK,
        "block_count": -(-args.samples // _BLOCK),
        "wall_time_seconds": time.time() - t0,
        "artifact_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_estimate(args) -> int:
    t0 = time.time()
    columns = ["ci_low", "ci_high", "bound", "dominated"]
    try:
        if args.which != "tube":  # a bad problem size fails before numpy loads
            problem = ProblemDescriptor(args.problem, args.n, args.l, args.m)
        _library()
        variety = (_resolve_variety(args.variety) if args.which == "tube"
                   else PROBLEM_VARIETIES[args.problem](problem))
        center = _resolve_center(args.center, variety.p, args.seed)
        with _naming("--sigma", args.sigma):
            cap = Cap(center=center, sigma=args.sigma)
        # each branch evaluates its bounds before sampling, so a bad grid fails at once
        if args.which == "tube":
            grid = eps_grid = _parse_grid(args.eps_grid, "--eps-grid")
            with _naming("--eps-grid", args.eps_grid):
                bounds = [tube_ratio_bound(variety.p, variety.degree, args.sigma, eps)
                          for eps in grid]
            header = ["eps", "empirical_ratio", *columns]
        elif args.which == "tail":
            grid = _parse_grid(args.t_grid, "--t-grid")
            eps_grid = [1.0 / t for t in grid]  # P{C >= t} is the tube ratio at eps = 1/t
            with _naming("--t-grid", args.t_grid):
                bounds = [tail_bound(variety.p, variety.degree, args.sigma, t) for t in grid]
            header = ["t", "empirical", *columns]
        else:
            bound = application_bound(problem, args.sigma)
            header = ["empirical_mean_ln", *columns]
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
    _write_outputs(args, header, rows, params, variety.distance_kind, t0)
    if violation:
        print("bound violation detected (dominated=false rows present)", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    print(f"wrote {args.out}.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    _library()
    return args.suite(args)


def _report(rows: list[tuple[str, bool]]) -> int:
    width = max(len(name) for name, _ in rows)
    ok = True
    for name, passed in rows:
        print(f"{name:<{width}}  {'pass' if passed else 'FAIL'}")
        ok &= passed
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_jintegrals(args) -> int:
    """J_{p,k} on p <= 20, 1 <= k <= p and 20 alphas in [0.1, pi/2]: the closed form
    against the Gauss-Legendre quadrature of all 4200 points, the moment inequalities, and
    the equality J_{p,p}(pi/2) = O_p / (2 O_{p-1})."""
    alphas = np.linspace(0.1, np.pi / 2, 20)
    eps = np.sin(alphas)
    pk = [(p, k) for p in range(1, 21) for k in range(1, p + 1)]
    p, k = (np.array(v)[:, None] for v in zip(*pk))
    exact = j_integral(p, k, alphas)
    quadv = j_integral_quad(p, k, alphas)
    err = np.abs(exact - quadv)
    worst, worst_rel = float(np.max(err)), float(np.max(err / np.abs(quadv)))
    # k < p: J <= eps^k / k; k = p: eps^p / p <= J <= O_p / (2 O_{p-1}) eps^p
    half = np.array([sphere_volume(q) / (2 * sphere_volume(q - 1)) for q in range(1, 21)])
    moment = eps**k / k
    full = (moment - 1e-12 <= exact) & (exact <= half[p - 1] * eps**p + 1e-12)
    ineq_ok = bool(np.all(np.where(k < p, exact <= moment + 1e-12, full)))
    # the last alpha is pi/2 exactly (np.linspace ends at its stop), and k = p ascends
    eq_ok = bool(np.all(np.abs(exact[(p == k)[:, 0], -1] - half) <= 1e-12 * half))
    return _report([
        (f"quadrature vs closed form (max abs err {worst:.2e}, "
         f"max rel err {worst_rel:.2e})", worst <= 1e-10),
        ("moment-integral inequalities on grid", ineq_ok),
        ("exact equality at alpha = pi/2", eq_ok),
    ])


def _verify_kinematic(args) -> int:
    """Monte Carlo rows report |estimate - exact| / half-width on the exact side (<= 1: covered).
    The four cases share one Gaussian draw per block."""
    analytic_ok = True
    for p in (2, 3, 4, 5):
        for i in range(p - 1):
            for a in (0.3, 0.6, 1.0, 1.4):
                lhs = geodesic_sphere_mu(p, a, i)
                rhs = kinematic_rhs_analytic(p, i, a)
                analytic_ok &= abs(lhs - rhs) <= 1e-10 * abs(lhs)
    rows = [("analytic slice-average identity", analytic_ok)]
    cases = [(2, 0), (3, 0), (3, 1), (4, 1)]
    # samples by keyword: benchmark/tracing.py reads it from the call's keywords
    results = verify_kinematic(cases, 0.6, samples=args.samples, seed=args.seed,
                               workers=args.workers)
    for (p, i), (lhs, est, lo, hi) in zip(cases, results):
        half = hi - est if lhs >= est else est - lo
        rows.append((f"monte carlo p={p} i={i} alpha=0.60 "
                     f"(|est - exact| / half-width {abs(est - lhs) / half:.2f})", lo <= lhs <= hi))
    return _report(rows)


def _verify_weyltube(args) -> int:
    """Band volume <= Weyl's tube bound, with equality at alpha = pi/2; a last row reports
    the largest lhs/rhs of the inequality rows and |lhs - rhs|/rhs of the equality rows."""
    rows, ratios, deviations = [], [], []
    for p in (2, 3, 4, 6):
        for a in np.arange(0.2, np.pi / 2 + 1e-9, 0.2).tolist() + [np.pi / 2]:
            a = min(a, np.pi / 2)
            for frac in (0.25, 0.5, 0.75):
                b = frac * a
                lhs, rhs, ok = verify_weyl_tube_bound(p, a, b)
                if abs(a - np.pi / 2) < 1e-12:
                    deviations.append(abs(lhs - rhs) / rhs)
                    ok &= abs(lhs - rhs) <= 1e-12 * rhs
                    label = f"p={p} alpha=pi/2 beta={frac}a (equality)"
                else:
                    ratios.append(lhs / rhs)
                    label = f"p={p} alpha={a:.2f} beta={frac}a"
                rows.append((label, bool(ok)))
    # np.max keeps a NaN, which then fails the row
    ratio, deviation = float(np.max(ratios)), float(np.max(deviations))
    rows.append((f"worst margin (max lhs/rhs {ratio:.6g}, "
                 f"max |lhs - rhs|/rhs at equality {deviation:.1e})",
                 ratio <= 1.0 + 1e-12 and deviation <= 1e-12))
    return _report(rows)


def _eckart_young_draws(seed: int, trials: int) -> dict:
    """The eckart-young matrices, stacked by n: per trial n from integers(2, 6), then an
    n x n standard normal matrix, from one stream of `seed`."""
    gen = RngStream(seed).generator
    by_n: dict = {}
    for _ in range(trials):
        n = int(gen.integers(2, 6))
        by_n.setdefault(n, []).append(gen.standard_normal((n, n)))
    return {n: np.stack(mats) for n, mats in by_n.items()}


def _verify_eckart_young(args) -> int:
    """Eckart-Young on `--trials` Gaussian matrices, in one batch per n: zeroing the
    smallest singular value moves A by exactly sigma_min, and kappa_F(B) dist(B) = 1
    for B = A / |A|, square, 4 x 3 and 20 x 2. kappa_F reads LAPACK's SVD, so these rows
    check the Gram-Schmidt distance (n x 2) and the bidiagonal one (4 x 3 and square
    n = 3 to 5) against it. Each row reports its largest deviation."""

    def product_error(a):
        unit = a / np.linalg.norm(a, axis=(1, 2))[:, None, None]
        dist = DeterminantVariety(*a.shape[1:]).distances(unit.reshape(len(a), -1))
        return np.abs(frobenius_condition(unit) * dist - 1.0)

    trunc_err, prod_err = [], []
    for a in _eckart_young_draws(args.seed, args.trials).values():
        u, s, vt = np.linalg.svd(a)
        s_trunc = s.copy()
        s_trunc[:, -1] = 0.0
        a_trunc = u @ (s_trunc[..., None] * vt)
        trunc_err.append(np.abs(np.linalg.norm(a - a_trunc, axis=(1, 2)) - s[:, -1]))
        prod_err.append(product_error(a))
    # np.max keeps a NaN, which then fails its row
    trunc, prod = (float(np.max(np.concatenate(e))) for e in (trunc_err, prod_err))
    rows = [
        (f"svd truncation distance equals smallest singular value (max err {trunc:.1e})",
         trunc <= 1e-10),
        (f"condition number times variety distance equals one (max |kappa dist - 1| {prod:.1e})",
         prod <= 1e-8),
    ]
    # stream 1 leaves the square matrices as they were; its 20 x 2 draws follow the 4 x 3
    gen = RngStream(args.seed, 1).generator
    for n, m in ((4, 3), (20, 2)):
        err = float(np.max(product_error(gen.standard_normal((args.trials, n, m)))))
        rows.append((f"{n} x {m}: condition number times variety distance equals one "
                     f"(max |kappa dist - 1| {err:.1e})", err <= 1e-8))
    return _report(rows)


def _wilkinson_draws(seed: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `trials` 2 x 2 standard normal matrices, from one stream of `seed`, with
    real eigenvalues at least 1e-6 |A| apart; returns them and their eigenvalues.
    Draws come in stacks, which hold the same values as one matrix at a time."""
    gen = RngStream(seed).generator
    mats, eigs, found = [], [], 0
    while found < trials:
        a = gen.standard_normal(((trials - found) * 3 // 2 + 16, 2, 2))  # ~71% are kept
        eig = np.linalg.eigvals(a)
        keep = np.max(np.abs(eig.imag), axis=1) <= 1e-12
        eig = eig.real
        keep &= np.abs(eig[:, 0] - eig[:, 1]) >= 1e-6 * np.linalg.norm(a, axis=(1, 2))
        mats.append(a[keep])
        eigs.append(eig[keep])
        found += int(np.count_nonzero(keep))
    return np.concatenate(mats)[:trials], np.concatenate(eigs)[:trials]


def _verify_wilkinson(args) -> int:
    """For both eigenvalues of `--trials` matrices, in one batch: the closed form
    kappa(A, lam)^2 = |A - tr(A)/2 I|_F^2 / (lam1 - lam2)^2 + 1/2, to 1e-12 relative, and
    kappa(A, lam) <= sqrt(2) |A| / dist(A, defective). Rows report their worst margin."""
    a, eig = _wilkinson_draws(args.seed, args.trials)
    bound = math.sqrt(2.0) * np.linalg.norm(a, axis=(1, 2)) / discriminant_distance_2x2(a)
    kappa = np.stack([eigenvalue_condition(a, eig[:, j]) for j in (0, 1)])
    deviation = (a[:, 0, 0] - a[:, 1, 1]) ** 2 / 2 + a[:, 0, 1] ** 2 + a[:, 1, 0] ** 2
    exact = np.sqrt(deviation / (eig[:, 0] - eig[:, 1]) ** 2 + 0.5)
    rel = float(np.max(np.abs(kappa / exact - 1.0)))  # a NaN stays and fails the row
    return _report([
        (f"eigenvalue condition vs closed form ({len(a)} matrices, max rel err {rel:.1e})",
         rel <= 1e-12),
        (f"eigenvalue condition vs distance oracle ({len(a)} matrices, "
         f"max kappa/bound {float(np.max(kappa / bound)):.3f})",
         bool(np.all(kappa <= bound + 1e-6))),
    ])


def _verify_cntr(args) -> int:
    """mu(f, zeta) d_P(f, g) >= 1 for `--trials` systems f with a planted zero zeta and
    their witnesses g, one batch per degree. The row prints the smallest product, computed
    once per system by cntr_witness_product after its witness checks, and 1 minus it. Trial
    k has degree d = (2, 3, 4)[k % 3] and draws zeta's 2 normals, then d + 1 coefficients;
    one standard_normal call draws all trials, the values one call per trial gives."""
    sizes = np.array([(2, 3, 4)[k % 3] + 3 for k in range(args.trials)])
    normals = RngStream(args.seed).generator.standard_normal(int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    products = []
    for k, d in enumerate((2, 3, 4)[:args.trials]):
        f, zeta = planted_systems(1, d, normals[starts[k::3, None] + np.arange(d + 3)])
        products.append(cntr_witness_product(f, zeta, multiple_zero_witness(f, zeta)))
    worst = float(np.min(np.concatenate(products)))  # a NaN stays and fails the row
    return _report([(f"witness products >= 1 ({args.trials} trials, 1 - min mu*d_P "
                     f"{1.0 - worst:.1e}, min mu*d_P {worst:.12g})", worst >= 1.0 - 1e-6)])


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
            pe.add_argument("--variety", required=True, help=_VARIETY_FORMS)
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
    trials = [("--trials", 1000, count)]
    for which, suite, flags in (
            # an interval from one sample is [0, 1]: every row would pass
            ("kinematic", _verify_kinematic,
             [("--samples", 1_000_000, _int_at_least(2)), ("--workers", 1, count)]),
            ("weyltube", _verify_weyltube, []),
            ("jintegrals", _verify_jintegrals, []),
            ("eckart-young", _verify_eckart_young, trials),
            ("wilkinson", _verify_wilkinson, trials),
            ("cntr", _verify_cntr, trials)):
        pv = verify.add_parser(which)
        for name, default, kind in flags:
            pv.add_argument(name, type=kind, default=default)
        # every suite takes --seed, so one seed serves all; weyltube and jintegrals draw none
        pv.add_argument("--seed", type=seed, default=7)
        pv.set_defaults(func=cmd_verify, suite=suite)

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
