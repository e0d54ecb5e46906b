#!/usr/bin/env python3
"""Run every exact-identity and oracle verification suite in sequence.

Exit code is the worst suite result (0 pass, 1 any failure).
"""

import argparse
import sys

from spherecond.cli import main as cli_main

# the flags each suite reads; the CLI rejects any other
SUITE_FLAGS = {
    "jintegrals": (),
    "weyltube": (),
    "kinematic": ("samples", "seed", "workers"),
    "eckart-young": ("trials", "seed"),
    "wilkinson": ("trials", "seed"),
    "cntr": ("trials", "seed"),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1_000_000,
                    help="Monte Carlo samples for the kinematic suite")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    worst = 0
    for which, flags in SUITE_FLAGS.items():
        print(f"=== verify {which} ===")
        argv = ["verify", which]
        for flag in flags:
            argv += [f"--{flag}", str(getattr(args, flag))]
        worst = max(worst, cli_main(argv))
    return worst


if __name__ == "__main__":
    sys.exit(main())
