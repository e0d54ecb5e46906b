"""The benchmark's two workloads: CLI command sequences and their correctness checks.

A workload is a fixed list of `spherecond` CLI invocations, made of parts:

  tail         = tail-highdim (matrix-inversion tails at p = 24, 24, 63)
                 + tail-workers (p = 3 tails at 1 and 2 workers, a log-mean)
  tube-verify  = tube-curve (tube ratios of a conic and a quartic on S^2)
                 + verify-suite (the six `verify` commands)

The parts are merged so that each of the two workloads can run long enough
to average over the slow phases of a shared host. The workload seed
is passed to every invocation as `--seed` and is the program's only varying
input. Sizes are multiplied by `scale` (1 for measurement runs, smaller for
the smoke test).

Checks run outside the timed region. After each pass, checks read the files
the commands wrote; once per run, `quality` checks test the layer the
workload leans on against an independent reference and yield the quality
counters reported by the traced run.

A check either gates (a failure counts as a failed operation and makes the
run incorrect) or is a diagnostic of a known defect of the program: it runs
and is reported on every run, and its outcome is a quality counter, but it
does not gate, because the benchmark must pass on the current program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import betainc

# spherecond is imported inside the checks: run.py puts the checkout's src/ on
# sys.path only after it has made sure the sources are there.

# Stream indices for check draws, far above the CLI's block streams (index + 1).
CHECK_STREAM = 1 << 30
# One-sided tolerances for "the oracle never reports less than the exact
# distance". The oracle returns sin(arccos(c)), which near c = 1 resolves
# distances only to about sqrt(machine epsilon) = 1.5e-8, so it reports up to
# ~1e-8 too little for points within ~1e-7 of a curve: STRICT_SLACK is a
# diagnostic, DISTANCE_SLACK (above that round-off) gates.
DISTANCE_SLACK = 1e-7
STRICT_SLACK = 1e-9
HIT_EPS = 0.02
# False-alarm probability of one radial-law KS check (Massart's DKW bound).
KS_FALSE_ALARM = 1e-6


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs must satisfy."""

    argv: tuple
    samples: int = 0          # Monte Carlo samples the command draws
    csv: str | None = None    # CSV written by an `estimate` command
    rows: int = 0             # expected CSV rows (the grid size)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    gating: bool = True  # False: diagnostic of a known defect, reported only


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    commands: Callable[[Path, int, float], list]
    # input files written during set-up: path -> JSON document
    inputs: Callable[[Path], dict] = lambda work: {}
    # once per run: (checks, quality counters)
    quality: Callable[[Path, int, float], tuple] = lambda work, seed, scale: ([], {})
    # after each pass, beyond the CSV checks
    iteration_checks: Callable[[list], list] = lambda commands: []
    # indices of the same command at --workers 1 and --workers 2, if any
    speedup_pair: tuple | None = None


def _size(base: int, scale: float, floor: int = 16) -> int:
    return max(floor, int(round(base * scale)))


def _estimate(which: str, out: Path, flags: list, samples: int, seed: int,
              rows: int) -> Command:
    argv = ["estimate", which, *flags, "--samples", str(samples), "--seed", str(seed),
            "--out", str(out)]
    return Command(tuple(argv), samples=samples, csv=str(out) + ".csv", rows=rows)


def csv_checks(commands: list) -> list:
    """Row count equals the grid size and ci_low <= empirical <= ci_high on every row."""
    checks = []
    for cmd in commands:
        if cmd.csv is None:
            continue
        try:
            lines = Path(cmd.csv).read_text().splitlines()
        except OSError as exc:
            checks.append(Check(f"csv {Path(cmd.csv).name}", False, str(exc)))
            continue
        header = lines[0].split(",")
        emp = next(i for i, h in enumerate(header) if h.startswith("empirical"))
        lo, hi = header.index("ci_low"), header.index("ci_high")
        rows = [line.split(",") for line in lines[1:]]
        bad = [r for r in rows if not float(r[lo]) <= float(r[emp]) <= float(r[hi])]
        ok = len(rows) == cmd.rows and not bad
        checks.append(Check(f"csv {Path(cmd.csv).name}", ok,
                            f"{len(rows)} rows (want {cmd.rows}), {len(bad)} outside their CI"))
    return checks


# ---------------------------------------------------------------------------
# tail-highdim (part of the tail workload)

HIGHDIM_POINTS = ((5, 0.25), (5, 0.01), (8, 0.25))  # (n, sigma); p = n*n - 1
# The radial law fails at every HIGHDIM_POINTS cap today: j_integral's
# recurrence cancels catastrophically for small alpha at large p, so the
# bisection inverts a wrong CDF. Those checks are diagnostics. The law holds
# on these wider caps of the same spheres, where the checks gate.
RADIAL_GATES = ((24, 0.5), (63, 0.9))  # (p, sigma)


def _highdim_commands(work: Path, seed: int, scale: float) -> list:
    samples = _size(8192, scale)
    return [_estimate("tail", work / f"tail_n{n}_s{s}",
                      ["--problem", "matrix-inversion", "--n", str(n), "--sigma", str(s),
                       "--t-grid", "log:2:1000:6", "--workers", "1"], samples, seed, 6)
            for n, s in HIGHDIM_POINTS]


def radial_ks(p: int, sigma: float, samples: int, seed: int, stream: int) -> tuple:
    """KS distance between sampled cap radii and the closed-form radial law.

    For z uniform on the cap of angular radius alpha around a, with
    rho = dist(z, a): sin^2(rho/2) ~ Beta(p/2, p/2) truncated at sin^2(alpha/2).
    Returns (D, threshold); P(D > threshold) <= KS_FALSE_ALARM under the law.
    """
    from spherecond.geometry import Cap, SpherePoint
    from spherecond.sampling import RngStream, sample_uniform_cap

    center = np.zeros(p + 1)
    center[0] = 1.0
    cap = Cap(SpherePoint(center), sigma)
    z = sample_uniform_cap(cap, RngStream(seed, stream), size=samples)
    # sin^2(rho/2) = |z - a|^2 / 4, without arccos round-off for small caps
    u = np.sort(np.sum((z - center) ** 2, axis=1) / 4.0)
    u0 = math.sin(cap.alpha / 2.0) ** 2
    cdf = np.clip(betainc(p / 2, p / 2, u) / betainc(p / 2, p / 2, u0), 0.0, 1.0)
    i = np.arange(1, samples + 1)
    d = float(max(np.max(i / samples - cdf), np.max(cdf - (i - 1) / samples)))
    return d, math.sqrt(math.log(2.0 / KS_FALSE_ALARM) / (2.0 * samples))


def _highdim_quality(work: Path, seed: int, scale: float) -> tuple:
    samples = _size(8192, scale, floor=256)
    points = [(n * n - 1, s, False) for n, s in HIGHDIM_POINTS]
    points += [(p, s, True) for p, s in RADIAL_GATES]
    checks, worst, failing = [], 0.0, 0
    for k, (p, s, gating) in enumerate(points):
        d, thr = radial_ks(p, s, samples, seed, CHECK_STREAM + k)
        if not gating:
            worst = max(worst, d)
            failing += d > thr
        checks.append(Check(f"radial law p={p} sigma={s}", d <= thr,
                            f"KS D={d:.4g}, threshold {thr:.4g}, n={samples}", gating))
    return checks, {"sampling.radial_ks_max": worst, "sampling.radial_ks_fail": failing}


# ---------------------------------------------------------------------------
# tube-curve (part of the tube-verify workload)

# Both curves are unions of great circles {x_i = +-x_j}; pairs (i, j) list them.
CURVES = {
    "conic": ({"p": 2, "degree": 2, "monomials": [
        {"alpha": [2, 0, 0], "coeff": 1.0}, {"alpha": [0, 2, 0], "coeff": -1.0}]},
        ((0, 1),)),
    # (x^2 - y^2)(x^2 - z^2)
    "quartic": ({"p": 2, "degree": 4, "monomials": [
        {"alpha": [4, 0, 0], "coeff": 1.0}, {"alpha": [2, 0, 2], "coeff": -1.0},
        {"alpha": [2, 2, 0], "coeff": -1.0}, {"alpha": [0, 2, 2], "coeff": 1.0}]},
        ((0, 1), (0, 2))),
}
# [0, 0, 1] lies on the conic's crossing of its two circles (and on the quartic).
CENTER = [0.0, 0.0, 1.0]


def _tube_inputs(work: Path) -> dict:
    docs = {str(work / f"{name}.json"): doc for name, (doc, _) in CURVES.items()}
    docs[str(work / "center.json")] = CENTER
    return docs


def _tube_commands(work: Path, seed: int, scale: float) -> list:
    samples = _size(32768, scale)
    grid = ["--eps-grid", "0.05,0.1,0.2,0.3,0.5,0.8", "--workers", "1"]
    cmds = []
    for name in CURVES:
        variety = ["--variety", f"curve:{work / name}.json"]
        cmds.append(_estimate("tube", work / f"tube_{name}_north", variety
                              + ["--sigma", "1", "--center", "north"] + grid, samples, seed, 6))
        cmds.append(_estimate("tube", work / f"tube_{name}_cross", variety
                              + ["--sigma", "0.25", "--center", str(work / "center.json")]
                              + grid, samples, seed, 6))
    return cmds


def exact_curve_distances(points: np.ndarray, pairs) -> np.ndarray:
    """Projective distance to the union of great circles {x_i = x_j}, {x_i = -x_j}."""
    d = [np.abs(points[:, i] + sign * points[:, j]) for i, j in pairs for sign in (1.0, -1.0)]
    return np.min(np.stack(d), axis=0) / math.sqrt(2.0)


def _tube_quality(work: Path, seed: int, scale: float) -> tuple:
    from spherecond.varieties import load_curve

    samples = _size(200_000, scale, floor=1024)
    checks, worst_over, gap, below = [], 0.0, 0, 0
    for k, (name, (_, pairs)) in enumerate(CURVES.items()):
        pts = np.random.default_rng([seed, k]).standard_normal((samples, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        oracle = load_curve(str(work / f"{name}.json")).distances(pts)
        exact = exact_curve_distances(pts, pairs)
        under = float(np.min(oracle - exact))
        worst_over = max(worst_over, float(np.max(oracle - exact)))
        gap += int(np.sum(exact < HIT_EPS)) - int(np.sum(oracle < HIT_EPS))
        below += int(np.sum(oracle < exact - STRICT_SLACK))
        detail = f"min(oracle - exact) = {under:.3g} over {samples} points"
        for slack, gating in ((DISTANCE_SLACK, True), (STRICT_SLACK, False)):
            checks.append(Check(f"{name} oracle >= exact distance - {slack:g}",
                                under >= -slack, detail, gating))
    return checks, {"varieties.curve.max_overestimate": worst_over,
                    "varieties.curve.hit_gap": gap,
                    "varieties.curve.below_exact_points": below}


# ---------------------------------------------------------------------------
# tail-workers (part of the tail workload)

def _workers_commands(work: Path, seed: int, scale: float) -> list:
    samples = _size(131072, scale)
    tail = ["--problem", "matrix-inversion", "--n", "2", "--sigma", "1",
            "--t-grid", "log:2:1000:6"]
    return [
        _estimate("tail", work / "tail_w1", tail + ["--workers", "1"], samples, seed, 6),
        _estimate("tail", work / "tail_w2", tail + ["--workers", "2"], samples, seed, 6),
        _estimate("logmean", work / "logmean_w2",
                  ["--problem", "moore-penrose", "--l", "4", "--m", "3", "--sigma", "0.5",
                   "--workers", "2"], samples, seed, 1),
    ]


# indices of tail_w1 and tail_w2 in the tail workload
WORKERS_PAIR = (len(HIGHDIM_POINTS), len(HIGHDIM_POINTS) + 1)


def _workers_identity(commands: list) -> list:
    a, b = (Path(commands[i].csv) for i in WORKERS_PAIR)
    try:
        same = a.read_bytes() == b.read_bytes()
    except OSError as exc:
        return [Check("csv identical at 1 and 2 workers", False, str(exc))]
    return [Check("csv identical at 1 and 2 workers", same)]


# ---------------------------------------------------------------------------
# verify-suite (part of the tube-verify workload)

def _verify_commands(work: Path, seed: int, scale: float) -> list:
    kin = _size(500_000, scale, floor=1000)
    trials = _size(1000, scale, floor=4)
    s = ["--seed", str(seed)]
    return [
        Command(("verify", "jintegrals", *s)),
        Command(("verify", "weyltube", *s)),
        # four Monte Carlo cases of `kin` samples each
        Command(("verify", "kinematic", "--samples", str(kin), *s), samples=4 * kin),
        Command(("verify", "eckart-young", "--trials", str(trials), *s)),
        Command(("verify", "wilkinson", "--trials", str(trials), *s)),
        Command(("verify", "cntr", "--trials", str(_size(500, scale, floor=3)), *s)),
    ]


def _tail_commands(work: Path, seed: int, scale: float) -> list:
    return _highdim_commands(work, seed, scale) + _workers_commands(work, seed, scale)


def _tube_verify_commands(work: Path, seed: int, scale: float) -> list:
    return _tube_commands(work, seed, scale) + _verify_commands(work, seed, scale)


WORKLOADS = {w.name: w for w in (
    Workload("tail", _tail_commands, quality=_highdim_quality,
             iteration_checks=_workers_identity, speedup_pair=WORKERS_PAIR),
    Workload("tube-verify", _tube_verify_commands, inputs=_tube_inputs,
             quality=_tube_quality),
)}
