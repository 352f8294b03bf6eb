#!/usr/bin/env python3
"""Generate a synthetic dataset and run the full evaluation pipeline on it.

Writes dataset files, the PIR grid for all six metrics, the best- and
zero-threshold comparison series, a five-category breakdown and the
implicit-measure series under --workdir, then prints where everything is.
"""

import argparse
import sys
from pathlib import Path

from prefeval.cli import main as prefeval


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_run", help="output directory")
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--raters", type=int, default=5)
    parser.add_argument("--preferences", type=int, default=120)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    data = work / "dataset"
    sweep = work / "sweep"

    steps = [
        ["synth", "--out", str(data), "--queries", str(args.queries),
         "--raters", str(args.raters), "--preferences", str(args.preferences),
         "--seed", str(args.seed)],
        ["validate", str(data)],
        ["sweep", str(data), "--out", str(sweep), "--plot"],
        ["breakdown", str(data), "--metric", "ndcg", "--threshold", "0.01",
         "--series", str(work / "ndcg_breakdown_shares.tsv")],
        ["implicit", str(data), "--measure", "mean-click-rank",
         "--out", str(work / "implicit_mean_click_rank.tsv")],
        ["stats", str(data)],
    ]
    for step in steps:
        print(f"\n$ prefeval {' '.join(step)}")
        code = prefeval(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code

    print(f"\nAll outputs under {work}/")
    print(f"  dataset files:      {data}/")
    print(f"  PIR grids + series: {sweep}/")
    return 0


if __name__ == "__main__":
    sys.exit(run())
