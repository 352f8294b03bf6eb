#!/usr/bin/env python3
"""How much does the discount function matter for one metric?

Sweeps a metric across all seven discount functions on a synthetic
dataset and prints the best-threshold PIR per cut-off for each, the kind
of table one reads before settling on a discount.
"""

import argparse
import sys

from prefeval.config import Metric, MetricConfig
from prefeval.pir import DEFAULT_CUTOFFS, pir_sweep
from prefeval.scales import DiscountFunction
from prefeval.synth import SynthSpec, generate_synthetic

DISCOUNTS = [
    DiscountFunction.none(),
    DiscountFunction.log5(),
    DiscountFunction.log2(),
    DiscountFunction.root(),
    DiscountFunction.rank(),
    DiscountFunction.square(),
    DiscountFunction.click_based(),
]


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metric", default="ndcg",
                        choices=[m.value for m in Metric])
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--raters", type=int, default=6)
    parser.add_argument("--preferences", type=int, default=150)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--esl-n", type=float, default=2.5)
    args = parser.parse_args(argv)

    metric = Metric(args.metric)
    dataset = generate_synthetic(
        SynthSpec(n_queries=args.queries, n_raters=args.raters, seed=args.seed,
                  n_preferences=args.preferences, rater_noise=0.1)
    )
    configs = [
        MetricConfig(metric, discount,
                     esl_n=args.esl_n if metric is Metric.ESL else None)
        for discount in DISCOUNTS
    ]
    grid = pir_sweep(dataset, configs)

    header = "cutoff  " + "".join(f"{d.label():>8}" for d in DISCOUNTS)
    print(f"best-threshold PIR for {metric.value} by discount function")
    print(header)
    for cutoff in DEFAULT_CUTOFFS:
        cells = []
        for config in configs:
            _, best = grid.row(config, cutoff).best_threshold()
            cells.append(f"{best:>8.4f}")
        print(f"{cutoff:>6}  " + "".join(cells))

    deepest = DEFAULT_CUTOFFS[-1]
    excluded = {c.label(): grid.row(c, deepest).excluded_pairs for c in configs}
    dropped = {label: n for label, n in excluded.items() if n}
    if dropped:
        print(f"\nexcluded (query, rater) pairs at cut-off {deepest}: {dropped}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
