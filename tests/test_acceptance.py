"""Acceptance gate: worked examples, oracle equivalence, properties, end to end.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them).
A note on scope: the toolkit ships no human-subject data.  The original
study behind this evaluation protocol never published its dataset, so its
headline outcomes (such as peak preference-identification rates around
0.92 when raters score their own queries and around 0.80 with other
raters' judgments) cannot be reproduced here and are NOT asserted.  The
gate instead pins the arithmetic of the published worked examples, exact
agreement with an independent reference implementation, the statistical
invariants of the machinery, and a direction-only smoke test on synthetic
data where one variant is constructed to dominate.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from prefeval.cli import main
from prefeval.config import Metric, MetricConfig, RatingSource
from prefeval.dataset import Verdict
from prefeval.metrics import ApNorm, average_precision, dcg
from prefeval.oracle import oracle_grid, oracle_pir
from prefeval.pir import DEFAULT_CUTOFFS, DEFAULT_THRESHOLDS, pir, pir_sweep
from prefeval.scales import DiscountFunction, DiscountKind, RelevanceScale
from prefeval.synth import SynthSpec, generate_synthetic

RANK = DiscountFunction(DiscountKind.RANK)
LOG2 = DiscountFunction(DiscountKind.LOG2)


def report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_1_map_worked_example():
    started = time.perf_counter()
    ap_first = average_precision([1, 1, 0, 1, 0], 5, RANK,
                                 ApNorm.BY_KNOWN_RELEVANT, known_relevant=3)
    ap_second = average_precision([0, 0, 1, 1, 1], 5, RANK,
                                  ApNorm.BY_KNOWN_RELEVANT, known_relevant=3)
    mean = (ap_first + ap_second) / 2
    elapsed = time.perf_counter() - started
    ok = (
        abs(ap_first - 0.9167) <= 0.0005
        and abs(ap_second - 0.4778) <= 0.0005
        and abs(mean - 0.6972) <= 0.0005
        and elapsed < 1.0
    )
    report(1, "classical AP reproduces the worked example", ok)


def test_criterion_2_dcg_worked_example():
    started = time.perf_counter()
    first = [dcg([1, 1, 0, 1, 0], c, LOG2) for c in range(1, 6)]
    second = [dcg([0, 1, 1, 1, 0], c, LOG2) for c in range(1, 6)]
    elapsed = time.perf_counter() - started
    ok = (
        first == [1.0, 2.0, 2.0, 2.5, 2.5]
        and all(abs(got - want) <= 0.005
                for got, want in zip(second, [0, 1, 1.63, 2.13, 2.13]))
        and elapsed < 1.0
    )
    report(2, "log2 DCG prefixes reproduce the worked example", ok)


def test_criterion_3_pir_worked_example(sample_pir_dataset):
    started = time.perf_counter()
    config = MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE))
    grid = pir_sweep(sample_pir_dataset, [config], thresholds=(0.0, 0.15, 0.35),
                     cutoffs=(10,))
    values = [cell.pir for cell in grid.row(config, 10).cells]
    elapsed = time.perf_counter() - started
    ok = values == [0.75, 0.875, 0.625] and elapsed < 1.0
    report(3, "PIR at thresholds 0 / 0.15 / 0.35 is exactly 0.75 / 0.875 / 0.625", ok)


def test_criterion_4_oracle_equivalence():
    configs = [
        MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE)),
        MetricConfig(Metric.NDCG, LOG2, rating_source=RatingSource.OTHER_USERS),
        MetricConfig(Metric.MAP, RANK, scale=RelevanceScale.R2_3,
                     ap_norm=ApNorm.BY_KNOWN_RELEVANT),
        MetricConfig(Metric.ERR, RANK, scale=RelevanceScale.R3_2),
        MetricConfig(Metric.MRR, RANK, scale=RelevanceScale.R2_5,
                     rating_source=RatingSource.OTHER_USERS),
        MetricConfig(Metric.ESL, RANK, esl_n=2.5),
    ]
    started = time.perf_counter()
    mismatches = 0
    spot_checks = 0
    for seed in range(100):
        dataset = generate_synthetic(
            SynthSpec(n_queries=6, n_raters=3, seed=seed, n_preferences=12,
                      rater_noise=0.2)
        )
        grid = pir_sweep(dataset, configs)
        for config in configs:
            reference = oracle_grid(dataset, config, DEFAULT_THRESHOLDS, DEFAULT_CUTOFFS)
            for cutoff in DEFAULT_CUTOFFS:
                row = grid.row(config, cutoff)
                for cell in row.cells:
                    if cell.pir != reference[(cutoff, cell.threshold)]:
                        mismatches += 1
        # per-cell oracle entry point agrees with its grid form
        config = configs[seed % len(configs)]
        cutoff = DEFAULT_CUTOFFS[seed % len(DEFAULT_CUTOFFS)]
        t = DEFAULT_THRESHOLDS[seed % len(DEFAULT_THRESHOLDS)]
        if oracle_pir(dataset, config, t, cutoff=cutoff) != grid.cell(config, cutoff, t).pir:
            mismatches += 1
        spot_checks += 1
    elapsed = time.perf_counter() - started
    cells = 100 * len(configs) * len(DEFAULT_CUTOFFS) * len(DEFAULT_THRESHOLDS)
    ok = mismatches == 0 and spot_checks == 100 and elapsed < 60.0
    report(4, f"engine equals reference on {cells} grid cells in {elapsed:.1f}s", ok)


def test_criterion_5_property_suites():
    # the randomized invariant suites (200 cases each) live in
    # test_properties.py; run them as their own pytest session so this
    # criterion reports their outcome even when invoked in isolation
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(Path(__file__).with_name("test_properties.py"))],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - started
    ok = proc.returncode == 0
    if not ok:
        print(proc.stdout[-2000:])
    report(5, f"randomized invariant suites (swap symmetry, sign/offset invariance,"
              f" threshold monotonicity, quantization, NDCG range, ESL endpoints,"
              f" MRR discount invariance, ERR monotonicity) in {elapsed:.1f}s", ok)


def test_criterion_6_direction_smoke_on_dominant_variant():
    # The source study's absolute results are out of reach without its
    # unpublished data; what must hold is the direction: when variant A
    # dominates in relevance and verdicts follow relevance, every metric
    # identifies A at better-than-chance rate at every cut-off.
    spec = SynthSpec(
        n_queries=50, n_raters=5, seed=2024, n_preferences=100,
        grade_weights_a=(0.45, 0.35, 0.10, 0.05, 0.03, 0.02),
        grade_weights_b=(0.02, 0.03, 0.05, 0.10, 0.35, 0.45),
        equal_margin=0.02,
    )
    dataset = generate_synthetic(spec)
    assert all(p.verdict is not Verdict.B for p in dataset.preferences)
    configs = [
        MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE)),
        MetricConfig(Metric.NDCG, LOG2),
        MetricConfig(Metric.MAP, RANK),
        MetricConfig(Metric.ERR, RANK),
        MetricConfig(Metric.MRR, RANK),
        MetricConfig(Metric.ESL, RANK, esl_n=2.5),
    ]
    grid = pir_sweep(dataset, configs)
    ok = True
    for config in configs:
        for cutoff in DEFAULT_CUTOFFS:
            _, best = grid.row(config, cutoff).best_threshold()
            if not best > 0.5:
                ok = False
    report(6, "every metric's best-threshold PIR beats chance at every cut-off"
              " on the dominant-variant dataset (absolute study figures are"
              " not reproducible without the unpublished study data)", ok)


def test_criterion_7_end_to_end_cli(tmp_path):
    started = time.perf_counter()
    data_dir = tmp_path / "dataset"
    sweep_dir = tmp_path / "sweep"
    ok = main(["synth", "--out", str(data_dir), "--queries", "50", "--raters", "5",
               "--seed", "42", "--preferences", "100"]) == 0
    ok = ok and main(["validate", str(data_dir)]) == 0
    ok = ok and main(["sweep", str(data_dir), "--out", str(sweep_dir)]) == 0
    elapsed = time.perf_counter() - started

    grids = sorted(sweep_dir.glob("grid_*.tsv"))
    ok = ok and len(grids) == 6
    for path in grids:
        rows = path.read_text().splitlines()
        ok = ok and len(rows) == 1 + len(DEFAULT_THRESHOLDS)
        ok = ok and all(len(r.split("\t")) == 1 + len(DEFAULT_CUTOFFS) for r in rows[1:])
    for name in ("best_threshold_pir.tsv", "best_threshold_value.tsv",
                 "zero_threshold_pir.tsv"):
        series = sweep_dir / name
        ok = ok and series.exists() and len(series.read_text().splitlines()) == 11
    ok = ok and elapsed < 10.0
    report(7, f"synth -> validate -> sweep over six metrics in {elapsed:.1f}s"
              " with complete grid and series files", ok)
