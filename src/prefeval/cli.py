"""Command-line interface: validate, eval, sweep, breakdown, implicit, stats, synth.

Exit codes: 0 success, 1 validation, data or file failure, 2 usage error,
3 empty preference denominator (no verdict to compare against; sweeps
report this per cell instead of failing).  Each failure is one stderr
line, except a validation report; a malformed or out-of-range option is
rejected before any dataset file is read.  All numbers are printed with
four decimals; computation keeps full precision.  Only ``validate``,
``implicit`` and ``stats`` read ``sessions.tsv`` and ``clicks.tsv``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from math import fsum, isfinite
from pathlib import Path
from typing import Optional, Sequence

from . import plotsvg
from .config import ApNorm, Metric, MetricConfig, RatingSource, check_cutoffs
from .data_io import ParseError, load_click_weights, load_dataset, read_dataset, write_dataset, write_tsv
from .dataset import MAX_CUTOFF, QueryType, ValidationError, ValidationMode, validate
from .implicit import (
    DEFAULT_THRESHOLD_GRIDS,
    Direction,
    ImplicitMeasure,
    SessionEndpoint,
    descriptive_stats,
    implicit_pir,
)
from .pir import CATEGORIES, DEFAULT_THRESHOLDS, check_grid, check_increasing, pir_sweep
from .scales import DiscountFunction, DiscountKind, RelevanceScale
from .scoring import MissingJudgment, resolve_preferences, scorer
from .synth import SynthSpec, generate_synthetic

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_EMPTY_PIR = 3

DEFAULT_DISCOUNTS = {
    Metric.PRECISION: DiscountKind.NONE,
    Metric.NDCG: DiscountKind.LOG2,
    Metric.MAP: DiscountKind.RANK,
    Metric.ERR: DiscountKind.RANK,
    Metric.MRR: DiscountKind.RANK,
    Metric.ESL: DiscountKind.RANK,
}
DEFAULT_ESL_N = 2.5
# The most points a START:STOP:STEP threshold grid may hold.
MAX_GRID_POINTS = 100_000


def _fmt(value: float) -> str:
    """The one four-decimal formatter; commands format each printed number once."""
    return f"{value:.4f}"


def _parse_list(option: str, form: str, text: str, sep: str, convert=float,
                count: Optional[int] = None) -> tuple:
    """``text`` split at ``sep`` into finite numbers, or a usage error naming the option's form."""
    try:  # "+ 0" reads a typed -0 as 0.0, which then never prints as -0.0000
        values = tuple(convert(v) + 0 for v in text.split(sep))
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)) or not all(map(isfinite, values)):
        raise ValueError(f"{option} must be {form}, got '{text}'")
    return values


def _parse_float_grid(text: str) -> tuple[float, ...]:
    """'0:0.3:0.01' (start:stop:step, inclusive) or a comma list '0,0.15,0.35'."""
    form = "START:STOP:STEP or a comma list of numbers"
    if ":" not in text:
        return _parse_list("--thresholds", form, text, ",")
    if _parse_list("--thresholds", form, text, ":", count=3)[2] <= 0:
        raise ValueError("step must be positive")
    # Counted and built from the decimals typed: 0:0.3:0.05 holds 0.15, not
    # 0.15000000000000002, and 0:0.36:0.1 stops at 0.3.
    first, last, inc = map(Fraction, text.split(":"))
    count = (last - first) // inc  # checked before the grid is built
    if not 0 <= count < MAX_GRID_POINTS:
        raise ValueError(f"--thresholds START:STOP:STEP must have STOP >= START and at most"
                         f" {MAX_GRID_POINTS} points, got '{text}'")
    return tuple(float(first + i * inc) for i in range(count + 1))


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    """'1-10' or a comma list '1,3,5'."""
    form = "LO-HI or a comma list of integers"
    if "-" not in text:
        return _parse_list("--cutoffs", form, text, ",", int)
    lo, hi = _parse_list("--cutoffs", form, text, "-", int, count=2)
    return tuple(range(lo, hi + 1))


def _path(text: str) -> str:
    """A file or directory argument; an empty one is a usage error, not the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file or directory, got ''")
    return text


def _add_dataset_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", type=_path, help="dataset directory")
    parser.add_argument("--lenient", action="store_true",
                        help="tolerate missing judgments (substituted as non-relevant)")


def _add_config_args(parser: argparse.ArgumentParser, single_metric: bool,
                     per_rater: bool = True) -> None:
    metric_names = [m.value for m in Metric]
    if single_metric:
        parser.add_argument("--metric", required=True, choices=metric_names)
        parser.add_argument("--discount", choices=[d.value for d in DiscountKind],
                            help="default: the metric's customary discount")
    else:
        parser.add_argument("--metrics", default=",".join(metric_names),
                            help="comma list of metrics (default: all six)")
        parser.add_argument("--discounts",
                            help="comma list of discounts applied to every metric"
                                 " (default: each metric's customary discount)")
    parser.add_argument("--click-weights", metavar="FILE", type=_path,
                        help="rank/weight table for the click-based discount")
    parser.add_argument("--scale", default=RelevanceScale.SIX_POINT.value,
                        choices=[s.value for s in RelevanceScale])
    if per_rater:
        parser.add_argument("--rating-source", default=RatingSource.SAME_USER.value,
                            choices=[r.value for r in RatingSource])
    parser.add_argument("--n", "--esl-n", dest="esl_n", default=None,
                        help=f"ESL cumulative relevance target (default {DEFAULT_ESL_N})")
    parser.add_argument("--norm", default=None, choices=[n.value for n in ApNorm],
                        help=f"AP normalization (default {ApNorm.BY_EVALUATED_COUNT.value})")
    parser.add_argument("--query-type", action="append", dest="query_types",
                        choices=[t.value for t in QueryType],
                        help="restrict to these query types (repeatable)")


def _mode(args, max_cutoff: int) -> ValidationMode:
    """The mode ``--lenient`` selects, once ``max_cutoff`` is checked; it reads no file."""
    check_cutoffs((max_cutoff,))
    return ValidationMode.LENIENT if args.lenient else ValidationMode.STRICT


def _load(args, max_cutoff: int, sessions: bool = True):
    # looked up as cli.load_dataset, where perfbench/tracer.py times the load
    return load_dataset(args.dataset, mode=_mode(args, max_cutoff), max_cutoff=max_cutoff,
                        sessions=sessions)


def _configs(args, metrics: Sequence[str], kinds: Optional[Sequence[str]],
             cutoffs: Sequence[int]):
    """One config per metric and discount, at ``cutoffs[0]``; it reads no dataset file.

    ``kinds=None`` gives each metric its customary discount.  The cut-offs,
    ``--n`` (which only ESL reads), ``--norm`` (only MAP), ``--click-weights``
    (only the click discount), the metric and discount names, a click
    table's coverage of ``max(cutoffs)`` and every config field are
    checked here.
    """
    check_cutoffs(cutoffs)
    esl_n = (_parse_list("--n", "a finite number", args.esl_n, ",", count=1)[0]
             if args.esl_n is not None else DEFAULT_ESL_N)
    metrics = [Metric(name) for name in metrics]
    if args.esl_n is not None and Metric.ESL not in metrics:
        raise ValueError(f"--n is only meaningful for esl, not {','.join(metrics)}")
    if args.norm is not None and Metric.MAP not in metrics:
        raise ValueError(f"--norm is only meaningful for map, not {','.join(metrics)}")
    ap_norm = ApNorm(args.norm or ApNorm.BY_EVALUATED_COUNT)
    kinds = kinds and [DiscountKind(name) for name in kinds]
    pairs = [(metric, kind) for metric in metrics for kind in kinds or [DEFAULT_DISCOUNTS[metric]]]
    used = dict.fromkeys(kind for _, kind in pairs)
    if args.click_weights is not None and DiscountKind.CLICK_BASED not in used:
        raise ValueError("--click-weights is only meaningful for the click discount,"
                         f" not {','.join(used)}")
    discounts = {}
    for kind in used:
        if kind is DiscountKind.CLICK_BASED:
            table = (load_click_weights(args.click_weights) if args.click_weights is not None
                     else None)
            discounts[kind] = DiscountFunction.click_based(table)
            discounts[kind].weights(max(cutoffs))  # raises ValueError at the first missing rank
        else:
            discounts[kind] = DiscountFunction(kind)
    query_filter = args.query_types and frozenset(QueryType(t) for t in args.query_types)
    return [
        MetricConfig(
            metric=metric,
            discount=discounts[kind],
            scale=RelevanceScale(args.scale),
            cutoff=cutoffs[0],
            esl_n=esl_n if metric is Metric.ESL else None,
            ap_norm=ap_norm,
            # eval has no preference rater, so it averages all raters and takes no source
            rating_source=RatingSource(getattr(args, "rating_source", RatingSource.SAME_USER)),
            query_filter=query_filter,
        )
        for metric, kind in pairs
    ]


def cmd_validate(args) -> int:
    mode = _mode(args, args.max_cutoff)
    dataset = read_dataset(args.dataset)
    report = validate(dataset, mode=mode, max_cutoff=args.max_cutoff)
    for issue in report.issues:
        print(issue, file=sys.stderr)
    print(f"queries={len(dataset.queries)} judgments={sum(map(len, dataset.judgments.values()))}"
          f" pairs={len(dataset.list_pairs)} preferences={len(dataset.preferences)}"
          f" sessions={len(dataset.sessions)}"
          f" errors={len(report.errors)} warnings={len(report.warnings)}")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_eval(args) -> int:
    (config,) = _configs(args, [args.metric], args.discount and [args.discount], (args.cutoff,))
    dataset = _load(args, max_cutoff=config.cutoff, sessions=False)
    # no preference rater: each query's lists are read as the mean over all raters
    table = resolve_preferences(dataset, config, (config.cutoff,), args.lenient,
                                ((pair.query_id, None, pair.query_id)
                                 for pair in dataset.list_pairs))
    score = scorer([config], (config.cutoff,))
    rows, excluded = [], 0
    for query_id, lists in table:
        [((score_a,), (score_b,))] = score(lists)
        if score_a is None:
            excluded += 1
        else:
            rows.append((query_id, score_a, score_b))

    print("query\tA\tB")
    for qid, score_a, score_b in rows:
        print(f"{qid}\t{_fmt(score_a)}\t{_fmt(score_b)}")
    if excluded:
        print(f"excluded queries: {excluded}", file=sys.stderr)
    if not rows:
        print("no evaluable query", file=sys.stderr)
        return EXIT_EMPTY_PIR
    _, scores_a, scores_b = zip(*rows)
    print(f"mean\t{_fmt(fsum(scores_a) / len(rows))}\t{_fmt(fsum(scores_b) / len(rows))}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    thresholds = (_parse_float_grid(args.thresholds) if args.thresholds is not None
                  else DEFAULT_THRESHOLDS)
    cutoffs = _parse_cutoffs(args.cutoffs)
    configs = _configs(args, args.metrics.split(","),
                       args.discounts.split(",") if args.discounts is not None else None,
                       cutoffs)
    check_grid(configs, thresholds)
    dataset = _load(args, max_cutoff=max(cutoffs), sessions=False)
    grid = pir_sweep(dataset, configs, thresholds, cutoffs, lenient=args.lenient)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    labels = [config.label() for config in configs]
    t_texts = [_fmt(t) for t in thresholds]
    # each row's best PIR, best threshold and t = 0 PIR: one table each, a row per cut-off
    summaries = {name: [[cutoff] for cutoff in cutoffs]
                 for name in ("best_threshold_pir", "best_threshold_value", "zero_threshold_pir")}
    empty_cells = total_excluded = 0
    for label in labels:
        rows = [grid.rows[(label, cutoff)] for cutoff in cutoffs]
        pir_texts = [[_fmt(cell.pir) for cell in row.cells] for row in rows]
        write_tsv(out / f"grid_{label}.tsv", ["threshold"] + [f"c{c}" for c in cutoffs],
                  zip(t_texts, *pir_texts))
        counts = []
        for k, (cutoff, row, pirs) in enumerate(zip(cutoffs, rows, pir_texts)):
            best = row.best_index()
            for table, text in zip(summaries.values(), (pirs[best], t_texts[best], pirs[0])):
                table[k].append(text)
            counts += ([cutoff, t, pir, *cell[2:], row.excluded]
                       for t, pir, cell in zip(t_texts, pirs, row.cells))
            empty_cells += sum(cell.empty_denominator for cell in row.cells)
            total_excluded += row.excluded
        write_tsv(out / f"counts_{label}.tsv",
                  ["cutoff", "threshold", "pir", *CATEGORIES, "excluded_pairs"], counts)
        if args.plot:
            series = {f"c{cutoff}": [(cell.threshold, cell.pir) for cell in row.cells]
                      for cutoff, row in zip(cutoffs, rows)}
            plotsvg.write_line_chart(out / f"grid_{label}.svg", label,
                                     "threshold", "PIR", series)

    for name, table in summaries.items():
        write_tsv(out / f"{name}.tsv", ["cutoff"] + labels, table)
        if args.plot and name.endswith("_pir"):
            series = {label: [(row[0], float(row[j + 1])) for row in table]
                      for j, label in enumerate(labels)}
            plotsvg.write_line_chart(out / f"{name}.svg", name.replace("_", " "),
                                     "cutoff", "PIR", series)

    print(f"wrote {len(labels)} config grids to {out}"
          f" ({len(cutoffs)} cutoffs x {len(thresholds)} thresholds)")
    if empty_cells:
        print(f"cells with empty preference denominator: {empty_cells}", file=sys.stderr)
    if total_excluded:
        print(f"excluded (query, rater) pairs across rows: {total_excluded}", file=sys.stderr)
    return EXIT_OK


def cmd_breakdown(args) -> int:
    thresholds = (_parse_float_grid(args.thresholds) if args.thresholds is not None
                  else DEFAULT_THRESHOLDS)
    threshold = _parse_list("--threshold", "a finite number", args.threshold, ",", count=1)[0]
    if threshold not in thresholds:
        thresholds = tuple(sorted({*thresholds, threshold}))
    (config,) = _configs(args, [args.metric], args.discount and [args.discount], (args.cutoff,))
    check_grid([config], thresholds)
    dataset = _load(args, max_cutoff=config.cutoff, sessions=False)
    grid = pir_sweep(dataset, [config], thresholds, (config.cutoff,), args.lenient)
    row = grid.row(config, config.cutoff)
    at = grid.cell(config, config.cutoff, threshold)
    if at.total_pairs == 0:
        print("no evaluable (query, rater) pair", file=sys.stderr)
        return EXIT_EMPTY_PIR

    print(f"config {config.label()} cutoff {config.cutoff} threshold {_fmt(threshold)}")
    print("category\tcount\tshare")
    for name, share in at.shares().items():
        print(f"{name}\t{getattr(at, name)}\t{_fmt(float(share))}")
    print(f"pir\t{_fmt(at.pir)}")
    if row.excluded:
        print(f"excluded pairs: {row.excluded}", file=sys.stderr)
    if args.series:
        rows = [[_fmt(cell.threshold), *(_fmt(float(share)) for share in cell.shares().values()),
                 _fmt(cell.pir)] for cell in row.cells]
        write_tsv(args.series, ["threshold", *CATEGORIES, "pir"], rows)
    return EXIT_OK


def cmd_implicit(args) -> int:
    measure = ImplicitMeasure(args.measure)
    thresholds = (_parse_float_grid(args.thresholds) if args.thresholds is not None
                  else DEFAULT_THRESHOLD_GRIDS[measure])
    band = (_parse_list("--band", "LO:HI", args.band, ":", count=2) if args.band is not None
            else None)
    if band and band[1] < band[0]:
        raise ValueError(f"band must be LO:HI with LO <= HI, got {args.band}")
    check_increasing(thresholds)
    dataset = _load(args, max_cutoff=args.max_cutoff)
    series = implicit_pir(
        dataset,
        measure,
        endpoint=SessionEndpoint(args.endpoint),
        direction=Direction(args.direction),
        thresholds=thresholds,
        band=band,
    )
    if all(cell.empty_denominator for cell in series.cells):
        print("no preference verdict with usable sessions", file=sys.stderr)
        return EXIT_EMPTY_PIR
    lines = [(_fmt(cell.threshold), _fmt(cell.pir)) for cell in series.cells]
    print("threshold\tpir")
    for line in lines:
        print("\t".join(line))
    t_text, pir_text = lines[series.best_index()]
    print(f"best\t{t_text} -> {pir_text}")
    if series.excluded:
        print(f"excluded queries: {series.excluded}", file=sys.stderr)
    if args.out:
        write_tsv(args.out, ["threshold", "pir"], lines)
    return EXIT_OK


def cmd_stats(args) -> int:
    dataset = _load(args, max_cutoff=args.max_cutoff)
    stats = descriptive_stats(dataset)
    for variant, vs in stats.variants.items():
        print(f"variant {variant.value}: sessions={vs.sessions}")
        if vs.zero_click_share is None:
            print("  zero-click share: undefined (no sessions)")
        else:
            print(f"  zero-click share: {_fmt(vs.zero_click_share)}")
        if vs.mean_satisfaction is not None:
            print(f"  mean satisfaction: {_fmt(vs.mean_satisfaction)}")
        if vs.clicks_per_session:
            hist = " ".join(f"{k}:{v}" for k, v in vs.clicks_per_session.items())
            print(f"  clicks per session: {hist}")
        if vs.clicks_by_rank:
            hist = " ".join(f"{k}:{v}" for k, v in vs.clicks_by_rank.items())
            print(f"  clicks by rank: {hist}")
        if vs.mean_relevance_by_rank:
            rel = " ".join(f"{k}:{_fmt(v)}" for k, v in vs.mean_relevance_by_rank.items())
            print(f"  mean relevance by rank: {rel}")
        for rank, counts in vs.grade_counts_by_rank.items():
            dist = " ".join(f"g{g}:{n}" for g, n in counts.items())
            print(f"  grades at rank {rank}: {dist}")
    for qt, qstats in stats.query_types.items():
        print(f"query type {qt}: queries={qstats.queries} mean_terms={_fmt(qstats.mean_terms)}")
    return EXIT_OK


def cmd_synth(args) -> int:
    options = {f.name: getattr(args, f.name) for f in fields(SynthSpec) if hasattr(args, f.name)}
    for name, option in (("grade_weights_a", "--grades-a"), ("grade_weights_b", "--grades-b")):
        if (text := options.pop(name, None)) is not None:
            options[name] = _parse_list(option, "a comma list of numbers", text, ",")
    spec = SynthSpec(**options)
    dataset = generate_synthetic(spec)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset.queries)} queries, {sum(map(len, dataset.judgments.values()))} judgments,"
          f" {len(dataset.preferences)} preferences, {len(dataset.sessions)} sessions"
          f" to {args.out}")
    # Each query is judged by its verdicts' raters alone (at least one), and
    # each judge grades every result, so only a query with one verdict
    # leaves its rater no one else to read: only those verdicts are resolved.
    other_users = MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE),
                               rating_source=RatingSource.OTHER_USERS)
    per_query = Counter(p.query_id for p in dataset.preferences)
    lone = ((p.query_id, p.rater_id, p.verdict) for p in dataset.preferences
            if per_query[p.query_id] == 1)
    try:
        resolve_preferences(dataset, other_users, (min(spec.list_len, MAX_CUTOFF),), readers=lone)
    except MissingJudgment as exc:
        print(f"warning: --rating-source other-users cannot sweep this dataset: {exc};"
              " give each query two or more verdicts (--preferences >= 2 x --queries)",
              file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One ``usage error:`` line and exit 2; sub-parsers share the class."""
        self.exit(EXIT_USAGE, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prefeval",
        description="Score result-list metrics by their ability to identify user preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check dataset files and invariants")
    _add_dataset_arg(p)
    p.add_argument("--max-cutoff", type=int, default=MAX_CUTOFF)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("eval", help="per-query metric table for both variants")
    _add_dataset_arg(p)
    _add_config_args(p, single_metric=True, per_rater=False)
    p.add_argument("--cutoff", type=int, default=MAX_CUTOFF)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="PIR grid over thresholds and cut-offs")
    _add_dataset_arg(p)
    _add_config_args(p, single_metric=False)
    p.add_argument("--thresholds", default=None,
                   help="start:stop:step or comma list (default 0:0.30:0.01)")
    p.add_argument("--cutoffs", default=f"1-{MAX_CUTOFF}",
                   help=f"lo-hi or comma list (default 1-{MAX_CUTOFF})")
    p.add_argument("--out", required=True, type=_path, help="output directory")
    p.add_argument("--plot", action="store_true", help="also write SVG line charts")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("breakdown", help="five-category outcome table at one threshold")
    _add_dataset_arg(p)
    _add_config_args(p, single_metric=True)
    p.add_argument("--cutoff", type=int, default=MAX_CUTOFF)
    p.add_argument("--threshold", required=True)
    p.add_argument("--thresholds", default=None,
                   help="grid for the --series evolution file (default 0:0.30:0.01)")
    p.add_argument("--series", metavar="FILE", type=_path, help="write share evolution by threshold")
    p.set_defaults(handler=cmd_breakdown)

    p = sub.add_parser("implicit", help="PIR of a session-log measure")
    _add_dataset_arg(p)
    p.add_argument("--measure", required=True, choices=[m.value for m in ImplicitMeasure])
    p.add_argument("--endpoint", default=SessionEndpoint.EXPLICIT_END.value,
                   choices=[e.value for e in SessionEndpoint])
    p.add_argument("--direction", default=Direction.LOWER_BETTER.value,
                   choices=[d.value for d in Direction])
    p.add_argument("--thresholds", help="start:stop:step or comma list, in measure units")
    p.add_argument("--band", metavar="LO:HI",
                   help="only use sessions whose measure value lies in [LO, HI]")
    p.add_argument("--max-cutoff", type=int, default=MAX_CUTOFF)
    p.add_argument("--out", metavar="FILE", type=_path, help="write threshold/PIR series")
    p.set_defaults(handler=cmd_implicit)

    p = sub.add_parser("stats", help="descriptive interaction and relevance report")
    _add_dataset_arg(p)
    p.add_argument("--max-cutoff", type=int, default=MAX_CUTOFF)
    p.set_defaults(handler=cmd_stats)

    # each dest is a SynthSpec field; an option left out is absent, so the spec's default holds
    p = sub.add_parser("synth", help="generate a seeded synthetic dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, type=_path, help="output directory")
    p.add_argument("--queries", dest="n_queries", metavar="QUERIES", type=int, required=True)
    p.add_argument("--raters", dest="n_raters", metavar="RATERS", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--list-len", type=int)
    p.add_argument("--preferences", dest="n_preferences", metavar="PREFERENCES", type=int,
                   help="total verdicts (default: one per query)")
    p.add_argument("--grades-a", dest="grade_weights_a", metavar="GRADES_A",
                   help="six comma-separated grade weights for variant A")
    p.add_argument("--grades-b", dest="grade_weights_b", metavar="GRADES_B",
                   help="six comma-separated grade weights for variant B")
    p.add_argument("--order-noise-a", type=float,
                   help="0 lays variant A out best-first, 1 shuffles it")
    p.add_argument("--order-noise-b", type=float)
    p.add_argument("--overlap", type=float)
    p.add_argument("--equal-margin", type=float)
    p.add_argument("--rater-noise", type=float)
    p.add_argument("--click-rate", type=float)
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MissingJudgment as exc:
        print(f"missing judgment: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
