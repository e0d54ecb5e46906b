"""spherecond benchmark: CLI workloads, end-to-end metrics, traced per-layer timings.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload tail --seed 0 --seconds 40 --trace 0

Workloads are defined in `workloads.py`; their names and reasons, and the
metrics with their bounds, are listed in `BENCHMARK.json` at the repo root.
Every CLI call goes through `spherecond.cli.main(argv)` in this process; the
workload's command sequence is repeated until the passes have taken
`--seconds` in all, and timings are medians over those passes.

--trace 0 reports the end-to-end metrics:
  setup_s        median wall time of a fresh interpreter that imports
                 spherecond.cli, builds its parser and writes the workload's
                 input files
  wall_s         median wall time of one pass over the command sequence
  samples_per_s  Monte Carlo samples drawn per pass divided by wall_s
  peak_rss_mb    peak resident memory of this process or of its largest
                 finished child, whichever is larger (getrusage)
--trace 1 alternates untraced and traced passes and reports per-layer
metrics (see `tracing.py`), trace coverage and tracing overhead.

Before the result, human-readable lines give the environment, every metric
with its sample count, fail_frac (failed over attempted operations),
speedup_2w on the tail workload, each failed check and the outcome of every
diagnostic check of a known defect. An operation is one CLI command (it
fails on a nonzero exit) or one gating correctness check; diagnostics are
not operations (see `workloads.py`). The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result if the checkout has no `src/spherecond`.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: with 2 pool workers
# this keeps workers x BLAS threads within the CPU count.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, install  # noqa: E402
from workloads import WORKLOADS, csv_checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from spherecond import cli
cli.build_parser()
for path, doc in json.loads(sys.argv[2]).items():
    with open(path, "w") as fh:
        json.dump(doc, fh)
"""
COLD_BOUNDS = ("bounds", "tail", "--p", "3", "--d", "1", "--sigma", "1", "--t", "10")
COLD_BOUNDS_OUT = "3.50740"
SUBPROCESS_TIMEOUT = 120
SETUP_REPS = 5


class Ops:
    """Attempted and failed operations, with a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},
    }


def measure_setup(inputs: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(inputs)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return elapsed


def cold_bounds_check(ops: Ops):
    proc = subprocess.run([sys.executable, "-m", "spherecond.cli", *COLD_BOUNDS],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    out = proc.stdout.strip()
    ops.add("cold `spherecond " + " ".join(COLD_BOUNDS) + "`",
            proc.returncode == 0 and out == COLD_BOUNDS_OUT,
            f"exit {proc.returncode}, printed {out!r}, want {COLD_BOUNDS_OUT!r}")


def invoke(cli, argv, tracer=None) -> tuple:
    """Run one CLI command in this process; return (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.call("cli", cli.main, (list(argv),))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing command is a failed operation, not a crashed run
            code = "exception"
            err.write(traceback.format_exc())
    return code, err.getvalue()


def run_pass(cli, commands, ops: Ops, workload, tracer=None) -> dict:
    """One timed pass over the command sequence, then its (untimed) output checks."""
    times = []
    codes = []
    t0 = time.perf_counter()
    for cmd in commands:
        tc = time.perf_counter()
        codes.append(invoke(cli, cmd.argv, tracer))
        times.append(time.perf_counter() - tc)
    wall = time.perf_counter() - t0
    for cmd, (code, err) in zip(commands, codes):
        ops.add(" ".join(cmd.argv[:2]), code == 0,
                f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}")
    for check in csv_checks(commands) + workload.iteration_checks(commands):
        ops.add(check.name, check.ok, check.detail)
    csv_bytes = sum(Path(c.csv).stat().st_size for c in commands
                    if c.csv and Path(c.csv).exists())
    return {"wall": wall, "times": times, "csv_bytes": csv_bytes}


def passes_for(seconds: float, run) -> list:
    """Repeat `run` until the walls of its passes add up to `seconds` (at least once)."""
    results = [run()]
    while sum(r["wall"] for r in results) < seconds:
        results.append(run())
    return results


def median(values) -> float:
    return float(statistics.median(values))


def summary(values) -> str:
    return f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


END_TO_END_METRICS = [("setup_s", "s"), ("wall_s", "s"), ("samples_per_s", "samples/s"),
                      ("peak_rss_mb", "MB")]


def end_to_end_run(cli, commands, ops, workload, seconds, set_up, setup, reps) -> tuple:
    """Passes for `seconds`, with calls of `set_up` between them until `setup`
    holds `reps` samples; returns (metrics, report lines)."""

    def one_pass():
        result = run_pass(cli, commands, ops, workload)
        # the remaining set-up samples go between passes, spread over the run
        if len(setup) < reps:
            setup.append(set_up())
        return result

    passes = passes_for(seconds, one_pass)
    while len(setup) < reps:
        setup.append(set_up())
    walls = [p["wall"] for p in passes]
    wall = median(walls)
    samples = sum(c.samples for c in commands)
    # children start as copies of this process, so their counts include its
    # pages: take the larger of the two, not the sum
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) * 1024 / 1e6
    metrics = {"setup_s": median(setup), "wall_s": wall,
               "samples_per_s": samples / wall, "peak_rss_mb": rss}
    lines = [
        f"setup_s {metrics['setup_s']:.6g} s median ({summary(setup)})",
        f"wall_s {wall:.6g} s median ({summary(walls)})",
        f"samples_per_s {metrics['samples_per_s']:.6g} samples/s "
        f"({samples} samples per pass, n={len(walls)})",
        f"peak_rss_mb {rss:.6g} MB (larger of this process and its largest child)",
    ]
    if workload.speedup_pair:
        i, j = workload.speedup_pair
        t1 = median([p["times"][i] for p in passes])
        t2 = median([p["times"][j] for p in passes])
        lines.append(f"speedup_2w {t1 / t2:.6g} ratio (workers=1 median {t1:.6g} s "
                     f"over workers=2 median {t2:.6g} s, n={len(passes)})")
    return metrics, lines


# ---------------------------------------------------------------------------
# per-layer metrics from traced passes

LAYER_METRICS = [
    ("sampling.sample_uniform_cap.self_s", "s"),
    ("sampling.sample_uniform_cap.samples", "count"),
    ("sampling.sample_uniform_cap.samples_per_s", "samples/s"),
    ("geometry.j_integral.calls", "count"),
    ("geometry.j_integral.evals", "count"),
    ("geometry.j_integral.self_s", "s"),
    ("geometry.j_integral_quad.calls", "count"),
    ("geometry.j_integral_quad.self_s", "s"),
    ("varieties.curve.distances.self_s", "s"),
    ("varieties.curve.distances.points", "count"),
    ("varieties.curve.distances.points_per_s", "points/s"),
    ("varieties.load_curve.self_s", "s"),
    ("varieties.determinant.distances.self_s", "s"),
    ("varieties.determinant.distances.points", "count"),
    ("varieties.verify_kinematic.self_s", "s"),
    ("varieties.verify_kinematic.samples", "count"),
    ("varieties.verify_weyl_tube_bound.self_s", "s"),
    ("varieties.tube_cap_counts.self_s", "s"),
    ("varieties.clopper_pearson.calls", "count"),
    ("varieties.clopper_pearson.self_s", "s"),
    ("conditioning.calls", "count"),
    ("conditioning.self_s", "s"),
    ("bounds.calls", "count"),
    ("bounds.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.csv_bytes", "B"),
]
QUALITY_METRICS = [
    ("sampling.radial_ks_max", "ratio"),
    ("varieties.curve.max_overestimate", "ratio"),
    ("varieties.curve.hit_gap", "count"),
    ("varieties.curve.below_exact_points", "count"),
    ("sampling.radial_ks_fail", "count"),
]
TRACE_METRICS = [("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio")]
_FIELD = {"calls": 0, "self_s": 1, "samples": 3, "evals": 3, "points": 3}


def layer_values(stats: dict, wall: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced pass.

    Rates divide a layer's work count by the total (not self) time of its spans.
    Coverage is the share of the pass's wall time inside some span.
    """
    out = {}
    for name, _ in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if name == "cli.csv_bytes":
            out[name] = csv_bytes
        elif layer in ("conditioning", "bounds"):
            out[name] = sum(v[_FIELD[field]] for k, v in stats.items()
                            if k.startswith(layer + "."))
        elif field.endswith("_per_s"):
            s = stats.get(layer)
            out[name] = s[3] / s[2] if s and s[2] > 0 else 0.0
        else:
            out[name] = stats.get(layer, (0, 0.0, 0.0, 0))[_FIELD[field]]
    out["trace.coverage"] = sum(v[1] for v in stats.values()) / wall
    return out


def traced_run(cli, commands, ops, workload, seconds) -> tuple:
    tracer = Tracer()
    plain, traced = [], []

    def one_pair():
        plain.append(run_pass(cli, commands, ops, workload))
        restore = install(tracer)
        try:
            r = run_pass(cli, commands, ops, workload, tracer)
        finally:
            restore()
        traced.append(layer_values(tracer.take(), r["wall"], r["csv_bytes"]))
        traced[-1]["_wall"] = r["wall"]
        return {"wall": plain[-1]["wall"] + r["wall"]}

    passes_for(seconds, one_pair)
    names = [name for name, _ in LAYER_METRICS] + ["trace.coverage"]
    metrics = {name: median([t[name] for t in traced]) for name in names}
    plain_wall = median([p["wall"] for p in plain])
    metrics["trace.overhead_frac"] = (median([t["_wall"] for t in traced]) - plain_wall) / plain_wall
    lines = [f"traced passes: {len(traced)}, untraced passes: {len(plain)}, "
             f"untraced wall_s median {plain_wall:.6g} s"]
    return metrics, lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every workload size by this (the smoke test uses 0.01)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spherecond" / "__init__.py").is_file():
        print(f"error: no spherecond sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spherecond import cli

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    lines = [f"env {json.dumps(environment(), sort_keys=True)}",
             f"workload {workload.name} seed {args.seed} trace {args.trace}"]

    inputs = workload.inputs(work)
    if args.trace:
        for path, doc in inputs.items():
            Path(path).write_text(json.dumps(doc))
    else:
        setup = [measure_setup(inputs)]  # also writes the input files the passes read

    cold_bounds_check(ops)
    checks, quality = workload.quality(work, args.seed, args.scale)
    diagnostics = [c for c in checks if not c.gating]
    for check in checks:
        if check.gating:
            ops.add(check.name, check.ok, check.detail)
        kind = "check" if check.gating else "diagnostic (known defect, not gating)"
        lines.append(f"{kind} {'pass' if check.ok else 'FAIL'} {check.name}: {check.detail}")

    commands = workload.commands(work, args.seed, args.scale)
    if args.trace:
        metrics, extra = traced_run(cli, commands, ops, workload, args.seconds)
        for name, _ in QUALITY_METRICS:
            metrics[name] = quality.get(name, 0)
        units = dict(LAYER_METRICS + QUALITY_METRICS + TRACE_METRICS)
    else:
        reps = SETUP_REPS if args.scale >= 1 else 1
        metrics, extra = end_to_end_run(cli, commands, ops, workload, args.seconds,
                                        lambda: measure_setup(inputs), setup, reps)
        units = dict(END_TO_END_METRICS)
    lines += extra

    failed = len(ops.failures)
    lines.append(f"fail_frac {failed / ops.attempted:.6g} ratio "
                 f"({failed} failed of {ops.attempted} operations)")
    lines += [f"failed: {f}" for f in ops.failures]
    if diagnostics:
        lines.append(f"known defects: {sum(not c.ok for c in diagnostics)} of "
                     f"{len(diagnostics)} diagnostic checks fail")
    if args.trace:
        lines += [f"{name} {metrics[name]:.6g} {units[name]}" for name in units]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
