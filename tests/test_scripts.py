"""Smoke tests of the experiment scripts in scripts/, each run as a subprocess at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


TAIL_CSVS = [f"n2_sigma1.0_{center}" for center in ("north", "random")]


@pytest.mark.parametrize("name,argv,csvs", [
    ("run_tail_dominance.py", ["--sizes", "2", "--sigmas", "1.0"], TAIL_CSVS),
    ("run_tube_sweep.py", [],
     [f"{label}_sigma{s}" for label in ("det2", "subsphere", "curve") for s in (0.25, 1.0)]),
    # three blocks per command, on a pool that the sweep keeps from one command to the next
    ("run_tail_dominance.py", ["--sizes", "2", "--sigmas", "1.0", "--samples", "20000",
                               "--workers", "2"], TAIL_CSVS),
], ids=["tail", "tube", "tail-workers"])
def test_sweep_writes_csvs(tmp_path, name, argv, csvs):
    done = run_script(name, "--outdir", str(tmp_path), "--samples", "2000", *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for stem in csvs:
        assert (tmp_path / f"{stem}.csv").is_file()
        assert (tmp_path / f"{stem}.manifest.json").is_file()
    if "--workers" in argv:
        assert done.stderr == ""
        serial = tmp_path / "serial"
        done = run_script(name, "--outdir", str(serial), "--samples", "2000", *argv,
                          "--workers", "1", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        for stem in csvs:
            assert (serial / f"{stem}.csv").read_bytes() == (tmp_path / f"{stem}.csv").read_bytes()
    if name == "run_tube_sweep.py":
        # the sweep loads its curve once and reuses it for the second sigma; each CSV must
        # be the one a fresh interpreter writes
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        (tmp_path / "fresh").mkdir()
        for sigma in ("0.25", "1.0"):
            stem = f"curve_sigma{sigma}"
            subprocess.run([sys.executable, "-m", "spherecond.cli", "estimate", "tube",
                            "--variety", f"curve:{tmp_path / 'sample_curve.json'}",
                            "--sigma", sigma, "--samples", "2000", "--seed", "0",
                            "--workers", "1", "--out", str(tmp_path / "fresh" / stem)],
                           cwd=tmp_path, env=env, capture_output=True, timeout=120, check=True)
            fresh = (tmp_path / "fresh" / f"{stem}.csv").read_bytes()
            assert fresh == (tmp_path / f"{stem}.csv").read_bytes()


def test_verification_passes(tmp_path):
    done = run_script("run_verification.py", "--samples", "2000", "--trials", "5", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("overall: pass") == 6
