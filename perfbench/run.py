#!/usr/bin/env python3
"""prefeval benchmark: seeded study / crowd / io workloads, end-to-end and per-layer metrics.

One workload, as a harness calls it (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload study --seed 2010 --seconds 30 --trace 0

Every workload, untraced and then traced, as a readable report:

    python3 perfbench/run.py [--seed 2010 [--seed 7]] [--seconds 30]

Rewrite BENCHMARK.json from the definitions here and in workloads.py:

    python3 perfbench/run.py --write-spec

Each workload runs in its own child process (perfbench/workloads.py),
one at a time and single-threaded.  End-to-end metrics come from
untraced runs; ``--trace 1`` adds spans at the package's module
boundaries and reports per-layer self times and exact call counts.
Times are in reference-speed seconds: wall time rescaled by the core's
speed, sampled throughout each timed block (perfbench/stopwatch.py).
The readable report also prints the wall-time medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 30
CHILD_TIMEOUT_S = 170

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, end-to-end metrics it should move, workloads it shows on
PER_LAYER = (
    ("scoring.resolve_s", "s", "lower", "pass_s", "study crowd"),
    ("scoring.resolve_calls", "count", "lower", "pass_s", "study crowd"),
    ("scoring.lookups", "count", "lower", "pass_s", "study crowd"),
    ("scoring.lookups_per_distinct", "ratio", "lower", "pass_s", "study crowd"),
    ("scales.conflate_calls", "count", "lower", "pass_s", "study crowd"),
    ("metrics.score_s", "s", "lower", "pass_s", "study crowd"),
    ("metrics.score_calls", "count", "lower", "pass_s", "study crowd"),
    ("pir.aggregate_s", "s", "lower", "pass_s", "study crowd"),
    ("pir.aggregate_calls", "count", "lower", "pass_s", "study crowd"),
    ("pir.sweep_self_s", "s", "lower", "pass_s", "study crowd"),
    ("pir.scored_share", "ratio", "higher", "pass_s", "study crowd"),
    ("pir.excluded_pairs", "count", "lower", "pass_s", "crowd"),
    ("cli.output_s", "s", "lower", "pass_s", "study"),
    ("cli.files_written", "count", "lower", "pass_s", "study crowd"),
    ("plotsvg.write_s", "s", "lower", "pass_s", "study"),
    ("data_io.parse_s", "s", "lower", "pass_s load_s", "io crowd"),
    ("data_io.records_parsed", "count", "lower", "pass_s load_s", "io crowd study"),
    ("dataset.validate_s", "s", "lower", "pass_s load_s", "io crowd"),
    ("data_io.write_s", "s", "lower", "pass_s write_s", "io"),
    ("data_io.bytes_written", "bytes", "lower", "pass_s write_s", "io"),
    ("implicit.pir_s", "s", "lower", "pass_s implicit_s", "io"),
    ("implicit.stats_s", "s", "lower", "pass_s implicit_s", "io"),
    ("synth.generate_s", "s", "lower", "setup_s", "study crowd io"),
    ("trace.overhead_ratio", "ratio", "lower", "none", "study crowd io"),
)

# Reported by the readable run only.  The harness result must carry the
# same metrics on every workload, and scored_pairs_per_s, write_s and
# implicit_s exist on some workloads only, while load_s is ~40 ms of noise
# on study.  The wall-time medians are pass_s and setup_s unscaled.
REPORT_ONLY = {
    "scored_pairs_per_s": "1/s",
    "load_s": "s",
    "write_s": "s",
    "implicit_s": "s",
    "failed_share": "ratio",
    "passes": "count",
    "pass_wall_s": "s",
    "setup_wall_s": "s",
}


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process and return its JSON result."""
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def harness_result(child: dict, trace: int) -> dict:
    units = ({n: u for n, u, _, _, _ in PER_LAYER} if trace
             else {n: u for n, u, _, _ in END_TO_END})
    missing = sorted(set(units) - set(child["metrics"]))
    if missing:
        raise SystemExit(f"child result lacks metrics {missing}")
    return {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {n: {"value": child["metrics"][n], "unit": u} for n, u in units.items()},
    }


def print_block(workload: str, seed: int, child: dict, trace: int) -> None:
    print(f"== {workload} (seed {seed}, trace {trace}; nproc {os.cpu_count()},"
          f" python {platform.python_version()})")
    print(f"   why: {WORKLOADS[workload].why}")
    print(f"   output digest: {child['digest'] or '-'}; passes: {child['passes']};"
          f" operations {child['attempted']}, failed {child['failed']}")
    for problem in child["problems"][:5]:
        print(f"   problem: {problem}")
    if len(child["problems"]) > 5:
        print(f"   ... and {len(child['problems']) - 5} more problems")
    if trace:
        for name, unit, _, moves, shows_on in PER_LAYER:
            value = child["metrics"][name]
            print(f"   {name:30s} {value:>16.6g} {unit:6s} moves {moves} on {shows_on}")
        return
    for name, unit, _, _ in END_TO_END:
        print(f"   {name:30s} {child['metrics'][name]:>16.6g} {unit}")
    for name, value in child["report"].items():
        print(f"   {name:30s} {value:>16.6g} {REPORT_ONLY[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and end with the result JSON")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed (default 2010); repeat to also report on"
                             " a seed not used while writing a change")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="pass time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "prefeval" / "__init__.py").is_file():
        print(f"error: no prefeval sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    seeds = args.seed or [2010]

    if args.workload:
        if len(seeds) != 1:
            parser.error("--workload takes exactly one --seed")
        trace = args.trace or 0
        child = run_child(args.workload, seeds[0], args.seconds, trace)
        print_block(args.workload, seeds[0], child, trace)
        print(json.dumps(harness_result(child, trace)))
        return 0

    traces = [args.trace] if args.trace is not None else [0, 1]
    for trace in traces:
        for seed in seeds:
            for workload in WORKLOADS:
                print_block(workload, seed, run_child(workload, seed, args.seconds, trace), trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
