"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload tail --seeds 301-310 [--trace 0]
        [--baseline benchmark/baseline.json]

Runs `run.py` once per seed, one run at a time, and prints for every metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the
interquartile range as a share of the median, next to the metric's bound in
BENCHMARK.json; speedup_2w is read from its report line. The last line is a
JSON object with the same figures. With --baseline, the figures are also
stored in that file under the workload's name (end_to_end for --trace 0,
per_layer for --trace 1), beside the environment of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 301-310 or 1,5,9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)

    values, runs = {}, []
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        doc = json.loads(lines[-1])
        env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
        for line in lines:
            if line.startswith("speedup_2w "):
                values.setdefault("speedup_2w", []).append(float(line.split()[1]))
        runs.append({"seed": seed, "correct": doc["correct"], "failed": doc["failed"],
                     "attempted": doc["attempted"]})
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct {doc['correct']} failed {doc['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                         "n": len(vals), "bound": bounds.get(name)}
        print(f"{name}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"iqr/median {'-' if spread is None else f'{spread:.4f}'} "
              f"(bound {bounds.get(name)})")
    result = {"runs": runs, "metrics": summary}
    print(json.dumps({"workload": args.workload, **result}))
    if args.baseline:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc["environment"] = env
        doc["run_seconds"] = args.seconds
        entry = doc.setdefault("workloads", {}).setdefault(args.workload, {})
        entry["per_layer" if args.trace else "end_to_end"] = result
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
