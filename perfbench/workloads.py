"""Runs one benchmark workload in this process: set up, time passes, check outputs.

    python3 perfbench/workloads.py --workload study --seed 2010 --seconds 30 --trace 0

perfbench/run.py starts this as a child process, one workload at a time,
so that the peak resident set it reports belongs to that workload alone.
The package is driven only through its public entry points.  Progress
goes to standard error; the last line of standard output is one JSON
object with the metrics, the operation counts and the output digest.

Every timed block (one set-up repetition, one pass) runs under a
Stopwatch, which reports it in reference-speed seconds (see
stopwatch.py); wall-time medians are reported beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from stopwatch import Stopwatch
from tracer import LAYER_HOOKS, LOAD_HOOKS, Hook, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CUTOFFS = tuple(range(1, 11))
STUDY_DISCOUNTS = ("none", "log5", "log2", "root", "rank", "square", "click")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_package() -> None:
    """Import prefeval from this checkout's source tree, never from elsewhere."""
    if not (SRC / "prefeval" / "__init__.py").is_file():
        raise SystemExit(f"prefeval sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("prefeval")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported prefeval from {package.__file__}, not from {SRC}")


def mod(name: str):
    return importlib.import_module(f"prefeval.{name}")


@dataclass(frozen=True)
class Sweep:
    """One ``prefeval sweep`` call; None metrics or discounts mean the CLI defaults."""

    source: str
    metrics: Optional[tuple[str, ...]] = None
    discounts: Optional[tuple[str, ...]] = None
    plot: bool = False

    def argv(self, data: Path, out: Path) -> list[str]:
        argv = ["sweep", str(data), "--rating-source", self.source, "--out", str(out)]
        if self.metrics:
            argv += ["--metrics", ",".join(self.metrics)]
        if self.discounts:
            argv += ["--discounts", ",".join(self.discounts)]
        if self.plot:
            argv.append("--plot")
        return argv

    def configs(self) -> dict:
        """label -> MetricConfig, built the way ``prefeval sweep`` builds them."""
        config, scales, cli = mod("config"), mod("scales"), mod("cli")
        metrics = [config.Metric(m) for m in self.metrics] if self.metrics else list(config.Metric)
        out = {}
        for metric in metrics:
            kinds = ([scales.DiscountKind(d) for d in self.discounts] if self.discounts
                     else [cli.DEFAULT_DISCOUNTS[metric]])
            for kind in kinds:
                discount = (scales.DiscountFunction.click_based()
                            if kind is scales.DiscountKind.CLICK_BASED
                            else scales.DiscountFunction(kind))
                cfg = config.MetricConfig(
                    metric=metric,
                    discount=discount,
                    cutoff=CUTOFFS[0],
                    esl_n=cli.DEFAULT_ESL_N if metric is config.Metric.ESL else None,
                    rating_source=config.RatingSource(self.source),
                )
                out[cfg.label()] = cfg
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, copied into BENCHMARK.json
    queries: int
    raters: int
    preferences: int
    setup_reps: int
    sweeps: tuple[Sweep, ...] = ()  # empty: the data_io / implicit pass
    oracle_cells: int = 0  # sampled grid cells per sweep checked against the oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study", "Paper scale, 84 configs x 10 cut-offs x 31 thresholds: configs share"
                 " each scale and source, so relevance resolution, scoring and aggregation"
                 " dominate.",
                 42, 31, 147, setup_reps=7, oracle_cells=12, sweeps=(
            Sweep("same-user", discounts=STUDY_DISCOUNTS, plot=True),
            Sweep("other-users", discounts=STUDY_DISCOUNTS, plot=True),
        )),
        Workload("crowd", "400 queries rated by 10 raters, one NDCG config over other-users:"
                 " nothing to share across configs; the leave-one-out mean over 9 raters"
                 " dominates.",
                 400, 10, 4000, setup_reps=3, oracle_cells=3, sweeps=(
            Sweep("other-users", metrics=("ndcg",)),
        )),
        Workload("io", "1,000 queries / 200k judgments / 20k sessions: load, validate, stats,"
                 " the four session measures and a canonical write; the sweep engine is"
                 " bypassed.",
                 1000, 10, 10000, setup_reps=3),
    )
}


@dataclass
class Op:
    """Outcome of one CLI or library call of a pass."""

    name: str
    seconds: float
    error: Optional[str] = None


@dataclass
class PassResult:
    seconds: float  # wall time, speed samples excluded
    scale: float  # reference-speed seconds per wall second
    ops: list[Op]
    tracer: Tracer
    digest: str = ""
    files: int = 0  # files the CLI wrote
    bytes_written: int = 0
    scored: int = 0  # verdict x config x cut-off triples scored
    excluded: int = 0  # triples that raised ExcludedQuery
    op_seconds: dict = field(default_factory=dict)  # io: load / write / implicit, reference speed


def call(clock: Callable[[], float], name: str, fn: Callable, *args, **kwargs):
    """Run one operation with its prints captured; returns (result, Op)."""
    sink = io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = fn(*args, **kwargs)
    except Exception:
        return None, Op(name, clock() - start, traceback.format_exc())
    op = Op(name, clock() - start)
    if name.startswith("cli") and result != 0:
        op.error = f"exit code {result}: {sink.getvalue().strip()}"
    return result, op


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.data = work / "data0"
        self.problems: list[str] = []
        self.reference = None  # first pass's digest (sweeps) or results (io)
        self.configs = [s.configs() for s in workload.sweeps]
        self.thresholds = mod("pir").DEFAULT_THRESHOLDS
        self.dataset = None  # loaded outside the timed region when a check needs it
        self.records = 0  # records in the dataset files, headers excluded
        self.passes_run = 0

    # -- set-up ---------------------------------------------------------

    def setup(self, hooks: tuple[Hook, ...]) -> tuple[list[float], list[float], list[float]]:
        """Synthesize and write the dataset ``setup_reps`` times.

        Returns the wall and reference-speed time of each repetition and
        its synth self time.  Every repetition must write the same bytes.
        """
        synth, data_io = mod("synth"), mod("data_io")
        spec = synth.SynthSpec(self.w.queries, self.w.raters, self.seed,
                               n_preferences=self.w.preferences)
        walls, times, synth_times = [], [], []
        for rep in range(self.w.setup_reps):
            with Stopwatch() as clock, Tracer(hooks, clock.now) as tracer:
                generated = synth.generate_synthetic(spec)
                data_io.write_dataset(generated, self.work / f"data{rep}")
            del generated
            walls.append(clock.work)
            times.append(clock.work * clock.scale)
            synth_times.append(tracer.self_s["synth.generate"] * clock.scale)
        first = digest_dir(self.data)
        for rep in range(1, self.w.setup_reps):
            target = self.work / f"data{rep}"
            if digest_dir(target) != first:
                self.problems.append(f"set-up repetition {rep} wrote different bytes")
            shutil.rmtree(target)
        self.records = sum(
            sum(1 for _ in p.open(encoding="utf-8")) - 1 for p in self.data.glob("*.tsv")
        )
        return walls, times, synth_times

    # -- passes ---------------------------------------------------------

    def run_pass(self, hooks: tuple[Hook, ...]) -> PassResult:
        k = self.passes_run
        self.passes_run += 1
        run = self.sweep_pass if self.w.sweeps else self.io_pass
        result = run(k, hooks)
        for op in result.ops:
            if op.error:
                self.problems.append(f"pass {k} {op.name}: {op.error}")
        return result

    def sweep_pass(self, k: int, hooks: tuple[Hook, ...]) -> PassResult:
        cli = mod("cli")
        outs = [self.work / f"pass{k}" / f"sweep{i}" for i in range(len(self.w.sweeps))]
        ops = []
        with Stopwatch() as clock, Tracer(hooks, clock.now) as tracer:
            for sweep, out in zip(self.w.sweeps, outs):
                ops.append(call(clock.now, f"cli sweep {sweep.source}", cli.main,
                                sweep.argv(self.data, out))[1])
        result = PassResult(clock.work, clock.scale, ops, tracer)
        for i, (sweep, out, op) in enumerate(zip(self.w.sweeps, outs, ops)):
            if op.error:
                continue
            problems = self.check_sweep_output(sweep, self.configs[i], out, result)
            if not problems and k == 0:
                problems = self.check_oracle(self.configs[i], out, i)
            if problems:
                op.error = "; ".join(problems[:3])
        result.digest = digest_dir(self.work / f"pass{k}")
        if self.reference is None:
            self.reference = result.digest
        elif result.digest != self.reference:
            ops[-1].error = ops[-1].error or f"output digest {result.digest} differs from pass 0"
        shutil.rmtree(self.work / f"pass{k}", ignore_errors=True)
        return result

    def check_sweep_output(self, sweep: Sweep, configs: dict, out: Path,
                           result: PassResult) -> list[str]:
        """Every expected file with the expected shape; tallies scored triples."""
        labels = list(configs)
        summaries = ["best_threshold_pir", "best_threshold_value", "zero_threshold_pir"]
        expected = {f"{kind}_{label}.tsv" for label in labels for kind in ("grid", "counts")}
        expected |= {f"{name}.tsv" for name in summaries}
        if sweep.plot:
            expected |= {f"grid_{label}.svg" for label in labels}
            expected |= {"best_threshold_pir.svg", "zero_threshold_pir.svg"}
        found = {p.name for p in out.iterdir()} if out.is_dir() else set()
        if found != expected:
            return [f"files differ from expected: missing {sorted(expected - found)[:3]},"
                    f" extra {sorted(found - expected)[:3]}"]
        result.files += len(found)
        problems = []

        def shape(name: str, rows: int, cols: int) -> list[list[str]]:
            table = read_tsv(out / name)
            if len(table) != rows or any(len(row) != cols for row in table):
                problems.append(f"{name} is not {rows} x {cols}")
            return table

        n_t = len(self.thresholds)
        for label in labels:
            shape(f"grid_{label}.tsv", 1 + n_t, 1 + len(CUTOFFS))
            counts = shape(f"counts_{label}.tsv", 1 + len(CUTOFFS) * n_t, 9)
            for row in counts[1::n_t]:  # the threshold-0 row of each cut-off
                result.scored += sum(int(v) for v in row[3:8])
                result.excluded += int(row[8])
        for name in summaries:
            shape(f"{name}.tsv", 1 + len(CUTOFFS), 1 + len(labels))
        return problems

    def check_oracle(self, configs: dict, out: Path, index: int) -> list[str]:
        """A seeded sample of cells must equal the reference oracle, as the CLI prints it."""
        oracle = mod("oracle")
        if self.dataset is None:
            self.dataset = mod("data_io").load_dataset(self.data)
        rng = random.Random(f"{self.seed}/{index}")
        labels = sorted(configs)
        problems = []
        for _ in range(self.w.oracle_cells):
            label = rng.choice(labels)
            ci = rng.randrange(len(CUTOFFS))
            ti = rng.randrange(len(self.thresholds))
            want = oracle.oracle_pir(self.dataset, configs[label], self.thresholds[ti],
                                     cutoff=CUTOFFS[ci])
            got = read_tsv(out / f"grid_{label}.tsv")[1 + ti][1 + ci]
            if got != f"{want:.4f}":
                problems.append(f"{label} c{CUTOFFS[ci]} t{self.thresholds[ti]}:"
                                f" grid {got}, oracle {want:.4f}")
        return problems

    def io_pass(self, k: int, hooks: tuple[Hook, ...]) -> PassResult:
        data_io, implicit, dataset_mod = mod("data_io"), mod("implicit"), mod("dataset")
        out = self.work / f"pass{k}"
        ops, outputs = [], {}
        with Stopwatch() as clock, Tracer(hooks, clock.now) as tracer:
            dataset, op = call(clock.now, "load_dataset", data_io.load_dataset, self.data,
                               mode=dataset_mod.ValidationMode.STRICT)
            ops.append(op)
            if dataset is not None:
                outputs["stats"], op = call(clock.now, "descriptive_stats",
                                            implicit.descriptive_stats, dataset)
                ops.append(op)
                for measure in implicit.ImplicitMeasure:
                    outputs[measure], op = call(clock.now, f"implicit_pir {measure.value}",
                                                implicit.implicit_pir, dataset, measure)
                    ops.append(op)
                ops.append(call(clock.now, "write_dataset", data_io.write_dataset, dataset, out)[1])
        result = PassResult(clock.work, clock.scale, ops, tracer)
        if dataset is None:
            ops += [Op(name, 0.0, "not run: load failed") for name in
                    ["descriptive_stats", *(f"implicit_pir {m.value}" for m in
                                            implicit.ImplicitMeasure), "write_dataset"]]
            return result
        result.op_seconds = {
            "load": ops[0].seconds * clock.scale,
            "write": ops[-1].seconds * clock.scale,
            "implicit": sum(op.seconds for op in ops[1:-1]) * clock.scale,
        }
        self.check_io_outputs(dataset, outputs, ops)
        if ops[-1].error is None:
            result.bytes_written = sum(p.stat().st_size for p in out.iterdir())
            for p in sorted(self.data.iterdir()):
                if (out / p.name).read_bytes() != p.read_bytes():
                    ops[-1].error = f"{p.name} is not byte-identical to the set-up write"
                    break
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check_io_outputs(self, dataset, outputs: dict, ops: list[Op]) -> None:
        """Session counts and threshold grids must fit the dataset and repeat across passes."""
        implicit = mod("implicit")
        stats = outputs.get("stats")
        if stats is not None and sum(v.sessions for v in stats.variants.values()) != len(dataset.sessions):
            ops[1].error = "stats session count differs from the dataset's"
        for i, measure in enumerate(implicit.ImplicitMeasure, start=2):
            series = outputs.get(measure)
            if series is None:
                continue
            if (len(series.cells) != len(implicit.DEFAULT_THRESHOLD_GRIDS[measure])
                    or series.cells[0].total_pairs == 0):
                ops[i].error = f"{measure.value} series has the wrong shape or no scored pair"
        if self.reference is None:
            self.reference = outputs
        else:
            for i, key in enumerate(["stats", *implicit.ImplicitMeasure], start=1):
                if outputs.get(key) != self.reference.get(key):
                    ops[i].error = ops[i].error or "result differs from pass 0"


def measure(bench: Bench, seconds: float, min_passes: int,
            hooks: tuple[Hook, ...]) -> list[PassResult]:
    """Run passes until the next would overrun ``seconds`` of pass time."""
    passes: list[PassResult] = []
    spent = 0.0
    while True:
        result = bench.run_pass(hooks)
        passes.append(result)
        spent += result.seconds
        log(f"  pass {len(passes)}: {result.seconds:.3f} s wall,"
            f" {result.seconds * result.scale:.3f} s at reference speed"
            + (f", digest {result.digest[:16]}" if result.digest else ""))
        if len(passes) >= min_passes and spent + statistics.median(
                p.seconds for p in passes) > seconds:
            return passes


def distinct_lookups(bench: Bench) -> int:
    """Distinct (query, rater, result) per scale and rating source a pass visits."""
    if not bench.w.sweeps:
        return 0
    dataset = bench.dataset or mod("data_io").load_dataset(bench.data)
    top = max(CUTOFFS)
    per_sweep = 0
    for p in dataset.preferences:
        pair = dataset.pair_by_query[p.query_id]
        per_sweep += len(dict.fromkeys((*pair.variant_a[:top], *pair.variant_b[:top])))
    return per_sweep * len(bench.w.sweeps)


def layer_metrics(result: PassResult, records: int, distinct: int) -> dict:
    """Per-layer metrics of one traced pass; times in reference-speed seconds."""
    s = defaultdict(float, {span: t * result.scale for span, t in result.tracer.self_s.items()})
    c = result.tracer.calls
    attempted = result.scored + result.excluded
    return {
        "scoring.resolve_s": s["scoring.resolve"],
        "scoring.resolve_calls": c["scoring.resolve_calls"],
        "scoring.lookups": c["scoring.lookups"],
        "scoring.lookups_per_distinct": c["scoring.lookups"] / distinct if distinct else 0.0,
        "scales.conflate_calls": c["scales.conflate_calls"],
        "metrics.score_s": s["metrics.score"],
        "metrics.score_calls": c["metrics.score_calls"],
        "pir.aggregate_s": s["pir.aggregate"],
        "pir.aggregate_calls": c["pir.aggregate_calls"],
        "pir.sweep_self_s": s["pir.sweep"],
        "pir.scored_share": result.scored / attempted if attempted else 0.0,
        "pir.excluded_pairs": result.excluded,
        "cli.output_s": s["cli"] + s["plotsvg.write"],
        "cli.files_written": result.files,
        "plotsvg.write_s": s["plotsvg.write"],
        "data_io.parse_s": s["data_io.parse"],
        "data_io.records_parsed": c["data_io.loads"] * records,
        "dataset.validate_s": s["dataset.validate"],
        "data_io.write_s": s["data_io.write"],
        "data_io.bytes_written": result.bytes_written,
        "implicit.pir_s": s["implicit.pir"],
        "implicit.stats_s": s["implicit.stats"],
    }


def median_of(rows: list[dict]) -> dict:
    """Per key: the median of float values, the first pass's value for counts."""
    return {
        key: statistics.median(row[key] for row in rows) if isinstance(value, float) else value
        for key, value in rows[0].items()
    }


def ref_seconds(passes: list[PassResult]) -> float:
    return statistics.median(r.seconds * r.scale for r in passes)


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    bench = Bench(workload, seed, work)
    log(f"{workload.name}: seed {seed}, set-up x{workload.setup_reps}")
    setup_walls, setup_times, synth_times = bench.setup(LAYER_HOOKS if trace else ())
    log(f"  set-up median {statistics.median(setup_walls):.3f} s wall,"
        f" {statistics.median(setup_times):.3f} s at reference speed")
    out = {"metrics": {}, "report": {}}
    if trace:
        plain = measure(bench, seconds / 2, 1, LOAD_HOOKS)
        traced = measure(bench, seconds / 2, 1, LAYER_HOOKS)
        passes = plain + traced
        distinct = distinct_lookups(bench)
        layers = median_of([layer_metrics(r, bench.records, distinct) for r in traced])
        layers["synth.generate_s"] = statistics.median(synth_times)
        layers["trace.overhead_ratio"] = ref_seconds(traced) / ref_seconds(plain)
        out["metrics"] = layers
    else:
        passes = measure(bench, seconds, 2, LOAD_HOOKS)
        pass_s = ref_seconds(passes)
        out["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report = out["report"]
        report["passes"] = len(passes)
        report["pass_wall_s"] = statistics.median(r.seconds for r in passes)
        report["setup_wall_s"] = statistics.median(setup_walls)
        if workload.sweeps:
            loads = [t * r.scale for r in passes for t in r.tracer.elapsed]
            report["scored_pairs_per_s"] = passes[0].scored / pass_s
            report["load_s"] = statistics.median(loads) if loads else 0.0
        else:
            for key in ("load", "write", "implicit"):
                report[f"{key}_s"] = statistics.median(r.op_seconds.get(key, 0.0) for r in passes)
    ops = [op for r in passes for op in r.ops]
    failed = sum(1 for op in ops if op.error)
    out.update(
        attempted=len(ops),
        failed=failed,
        correct=failed == 0 and not bench.problems,
        problems=bench.problems,
        digest=passes[0].digest,
        passes=len(passes),
    )
    out["report"]["failed_share"] = failed / len(ops) if ops else 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
