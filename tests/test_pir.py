import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import RATER, binary_pair_dataset, judgment_rows, make_query, scored_pairs, with_judgments
from prefeval.config import ApNorm, Metric, MetricConfig, RatingSource
from prefeval.dataset import (
    EvaluationDataset,
    PreferenceJudgment,
    RankedListPair,
    Verdict,
)
from prefeval.oracle import collect_pairs, oracle_grid, oracle_pir
from prefeval.pir import (
    CATEGORIES,
    DEFAULT_CUTOFFS,
    DEFAULT_THRESHOLDS,
    PirRow,
    pir,
    pir_cells,
    pir_sweep,
    pref,
)
from prefeval.scales import DiscountFunction, DiscountKind, RelevanceScale
from prefeval.synth import SynthSpec, generate_synthetic

PRECISION_NONE = MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE))

SAMPLE_PAIRS = [
    (0.4, 0.7, Verdict.B),
    (0.5, 0.4, Verdict.EQUAL),
    (0.5, 0.4, Verdict.B),
    (0.8, 0.4, Verdict.A),
    (0.6, 0.4, Verdict.A),
]


class TestPref:
    @pytest.mark.parametrize(
        "x,t,want",
        [
            (-0.3, 0.15, -1),
            (0.1, 0.15, 0),
            (0.4, 0.15, 1),
            (0.2, 0.15, 1),
            (0.2, 0.35, 0),
            (0.4, 0.35, 1),
            (-0.3, 0.35, 0),
            (0.0, 0.0, 0),
            (1e-9, 0.0, 1),
            (-1e-9, 0.0, -1),
        ],
    )
    def test_thresholded_sign(self, x, t, want):
        assert pref(x, t) == want

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            pref(0.1, -0.01)


class TestPirAggregation:
    def test_worked_example_three_thresholds(self):
        assert pir(SAMPLE_PAIRS, 0.0).pir == 0.75
        assert pir(SAMPLE_PAIRS, 0.15).pir == 0.875
        assert pir(SAMPLE_PAIRS, 0.35).pir == 0.625

    def test_threshold_beyond_score_span_is_baseline(self):
        for t in (1.0, 2.0):
            assert pir(SAMPLE_PAIRS, t).pir == 0.5

    def test_counts_partition_all_pairs(self):
        for t in (0.0, 0.15, 0.35, 1.0):
            cell = pir(SAMPLE_PAIRS, t)
            assert cell.total_pairs == len(SAMPLE_PAIRS)
            assert cell.n_preferences == 4

    def test_empty_preference_set_is_flagged(self):
        cell = pir([(0.3, 0.3, Verdict.EQUAL)], 0.0)
        assert cell.pir == 0.5
        assert cell.empty_denominator

    def test_no_pairs_at_all(self):
        cell = pir([], 0.0)
        assert cell.pir == 0.5
        assert cell.empty_denominator
        with pytest.raises(ValueError):
            cell.shares()

    def test_negative_threshold_rejected_without_pairs(self):
        with pytest.raises(ValueError):
            pir([], -0.1)


def _on_and_beside(t: float) -> list[float]:
    return [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]


# Score differences on a threshold and on its float neighbours, e.g.
# 0.19999999999999996 (grades 1 vs 2), 0.2 and 0.20000000000000007
# (grades 2 vs 3) at t = 0.2.
EDGE_THRESHOLDS = (0.0, 0.01, 0.1, 0.15, 0.2, 0.29, 0.3)
EDGE_DIFFS = sorted({d for t in EDGE_THRESHOLDS for d in _on_and_beside(t)}
                    | {1.0 - 0.8, 0.8 - 0.6, 0.6 - 0.4})
VERDICTS = st.sampled_from(list(Verdict))


def _signed_diff_pair(diff: float, negate: bool, verdict: Verdict):
    # (diff, 0.0) and (0.0, diff) subtract to exactly +diff and -diff
    return (0.0, diff, verdict) if negate else (diff, 0.0, verdict)


SCORED_PAIRS = st.one_of(
    st.tuples(st.sampled_from(EDGE_DIFFS), st.booleans(), VERDICTS).map(
        lambda args: _signed_diff_pair(*args)),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), VERDICTS),
    st.tuples(st.sampled_from([0.0, 0.25, 0.5]), st.just(0.25), VERDICTS),
)
THRESHOLD_GRIDS = st.one_of(
    st.just(DEFAULT_THRESHOLDS),
    st.lists(st.sampled_from([d for d in EDGE_DIFFS if d >= 0]) | st.floats(0, 1.5),
             max_size=8).map(sorted),
)

# Every edge difference with either sign, and both signed zeros.
SIGNED_EDGE_DIFFS = st.sampled_from([0.0, -0.0, *EDGE_DIFFS, *(-d for d in EDGE_DIFFS)])


def diffs_and_verdicts(pairs):
    """The (score_a - score_b) and verdict columns of score triples, as pir_cells takes them."""
    return [a - b for a, b, _ in pairs], [v for _, _, v in pairs]


class TestPirCells:
    """The bisect aggregator against the one-threshold reference loop."""

    @given(st.lists(SCORED_PAIRS, max_size=30), THRESHOLD_GRIDS)
    def test_equals_pir_cell_for_cell(self, pairs, thresholds):
        assert (pir_cells(*diffs_and_verdicts(pairs), thresholds)
                == tuple(pir(pairs, t) for t in thresholds))

    @given(st.lists(SCORED_PAIRS.map(lambda p: (p[0], p[1], Verdict.EQUAL)), max_size=20),
           THRESHOLD_GRIDS)
    def test_all_equal_verdicts(self, pairs, thresholds):
        cells = pir_cells(*diffs_and_verdicts(pairs), thresholds)
        assert cells == tuple(pir(pairs, t) for t in thresholds)
        assert all(cell.empty_denominator and cell.pir == 0.5 for cell in cells)

    @given(st.lists(st.tuples(SIGNED_EDGE_DIFFS, VERDICTS), max_size=30), THRESHOLD_GRIDS)
    def test_signed_zeros_and_diffs_on_grid_points(self, rows, thresholds):
        # -0.0 and 0.0 for every verdict, and |diff| exactly on a grid threshold or beside it
        diffs, verdicts = [d for d, _ in rows], [v for _, v in rows]
        pairs = [(d, 0.0, v) for d, v in rows]  # d - 0.0 is d, -0.0 included
        assert diffs_and_verdicts(pairs) == (diffs, verdicts)
        assert (pir_cells(diffs, verdicts, thresholds)
                == tuple(pir(pairs, t) for t in thresholds))
        grid_points = sorted({abs(d) for d in EDGE_DIFFS})
        assert (pir_cells(diffs, verdicts, grid_points)
                == tuple(pir(pairs, t) for t in grid_points))

    def test_equal_verdicts_with_zero_diffs_are_confirmed_at_every_threshold(self):
        diffs = [0.0, -0.0, 0.0, 0.3]
        verdicts = [Verdict.EQUAL, Verdict.EQUAL, Verdict.A, Verdict.B]
        cells = pir_cells(diffs, verdicts, (0.0, 0.3))
        assert [(cell.correct_equal, cell.false_pref) for cell in cells] == [(2, 0), (2, 0)]
        assert cells[0] == (0.0, 0.25, 0, 2, 0, 1, 1)  # a PirCell is a plain tuple too
        assert cells == tuple(pir([(d, 0.0, v) for d, v in zip(diffs, verdicts)], t)
                              for t in (0.0, 0.3))

    def test_edge_diffs_at_point_two(self):
        t = 0.2
        pairs = [_signed_diff_pair(d, False, Verdict.A) for d in _on_and_beside(t)]
        (cell,) = pir_cells(*diffs_and_verdicts(pairs), [t])
        assert (cell.correct_pref, cell.missed_pref) == (1, 2)
        assert cell == pir(pairs, t)

    def test_no_pairs(self):
        assert pir_cells([], [], DEFAULT_THRESHOLDS) == tuple(
            pir([], t) for t in DEFAULT_THRESHOLDS)
        assert pir_cells([], [], []) == ()

    def test_negative_threshold_rejected_without_pairs(self):
        with pytest.raises(ValueError):
            pir_cells([], [], [0.0, -0.1])


def one_row(dataset, config, thresholds=DEFAULT_THRESHOLDS):
    """The row of a one-config sweep at the config's own cut-off, as ``breakdown`` reads it."""
    return pir_sweep(dataset, [config], thresholds, (config.cutoff,)).row(config, config.cutoff)


class TestDetailedBreakdown:
    def test_all_equal_verdicts_with_zero_diffs(self):
        pairs = [(0.4, 0.4, Verdict.EQUAL)] * 4
        cell = pir(pairs, 0.0)
        assert cell.correct_equal == 4
        assert cell.shares()["correct_equal"] == 1

    def test_worked_example_categories_at_zero(self, sample_pir_dataset):
        row = one_row(sample_pir_dataset, PRECISION_NONE, (0.0,))
        (cell,) = row.cells
        assert row.excluded == 0
        assert dict(zip(CATEGORIES, cell[2:])) == {
            "correct_pref": 3,
            "correct_equal": 0,
            "false_pref": 1,
            "missed_pref": 0,
            "reversed_pref": 1,
        }
        assert sum(cell.shares().values()) == Fraction(1)

    def test_threshold_above_every_diff(self, sample_pir_dataset):
        pairs, _ = scored_pairs(sample_pir_dataset, PRECISION_NONE)
        cell = pir(pairs, 0.9)
        assert cell.correct_pref == cell.false_pref == cell.reversed_pref == 0
        assert cell.correct_equal == 1
        assert cell.missed_pref == 4

    def test_breakdown_row_covers_grid(self, sample_pir_dataset):
        row = one_row(sample_pir_dataset, PRECISION_NONE)
        assert len(row.cells) == len(DEFAULT_THRESHOLDS)
        assert row.excluded == 0


class TestScorePairsOnDataset:
    def test_sample_dataset_reproduces_pair_table(self, sample_pir_dataset):
        pairs, excluded = scored_pairs(sample_pir_dataset, PRECISION_NONE)
        assert excluded == 0
        got = [(round(a, 10), round(b, 10), v) for a, b, v in pairs]
        assert got == [
            (0.4, 0.7, Verdict.B),
            (0.5, 0.4, Verdict.EQUAL),
            (0.5, 0.4, Verdict.B),
            (0.8, 0.4, Verdict.A),
            (0.6, 0.4, Verdict.A),
        ]

    def test_ndcg_zero_pool_query_is_excluded_with_count(self):
        ds = binary_pair_dataset(
            [("q1", 0, 0, Verdict.A), ("q2", 3, 1, Verdict.A)], list_len=10
        )
        cfg = MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.LOG2))
        pairs, excluded = scored_pairs(ds, cfg)
        assert excluded == 1
        assert len(pairs) == 1

    def test_query_filter_skips_without_counting(self, sample_pir_dataset):
        from prefeval.dataset import QueryType

        cfg = dataclasses.replace(
            PRECISION_NONE, query_filter=frozenset({QueryType.NAVIGATIONAL})
        )
        pairs, excluded = scored_pairs(sample_pir_dataset, cfg)
        assert pairs == []
        assert excluded == 0


class TestBestThreshold:
    def row(self, mapping):
        cells = tuple(pir(SAMPLE_PAIRS, 0).__class__(  # PirCell
            threshold=t, pir=v, correct_pref=0, correct_equal=0, false_pref=0,
            missed_pref=0, reversed_pref=0,
        ) for t, v in mapping)
        return PirRow(cells=cells, excluded=0)

    def test_picks_maximum(self):
        row = self.row([(0.0, 0.75), (0.15, 0.875), (0.35, 0.625)])
        assert row.best_threshold() == (0.15, 0.875)
        best = row.cells[row.best_index()]
        assert (best.threshold, best.pir) == (0.15, 0.875)

    def test_constant_row_breaks_tie_to_zero(self):
        row = self.row([(0.0, 0.7), (0.1, 0.7), (0.2, 0.7)])
        assert row.best_threshold() == (0.0, 0.7)
        best = row.cells[row.best_index()]
        assert (best.threshold, best.pir) == (0.0, 0.7)

    def test_tie_goes_to_lowest_threshold(self):
        row = self.row([(0.0, 0.8), (0.01, 0.8), (0.02, 0.7)])
        assert row.best_threshold() == (0.0, 0.8)
        best = row.cells[row.best_index()]
        assert (best.threshold, best.pir) == (0.0, 0.8)


class TestSweep:
    def test_worked_example_grid(self, sample_pir_dataset):
        grid = pir_sweep(sample_pir_dataset, [PRECISION_NONE],
                         thresholds=(0.0, 0.15, 0.35), cutoffs=(10,))
        row = grid.row(PRECISION_NONE, 10)
        assert [cell.pir for cell in row.cells] == [0.75, 0.875, 0.625]
        assert row.best_threshold() == (0.15, 0.875)

    def test_single_query_cells_are_coarse(self):
        ds = binary_pair_dataset([("q1", 5, 2, Verdict.A)], list_len=10)
        grid = pir_sweep(ds, [PRECISION_NONE])
        for row in grid.rows.values():
            for cell in row.cells:
                assert cell.pir in (0.0, 0.5, 1.0)

    def test_cell_count_matches_grid_arithmetic(self):
        ds = generate_synthetic(SynthSpec(n_queries=8, n_raters=3, seed=3, n_preferences=16))
        configs = [
            PRECISION_NONE,
            MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.LOG2)),
            MetricConfig(Metric.ESL, DiscountFunction(DiscountKind.RANK), esl_n=2.5),
        ]
        grid = pir_sweep(ds, configs)
        cells = sum(len(row.cells) for row in grid.rows.values())
        assert cells == len(configs) * 10 * 31

    def test_threshold_grid_must_start_at_zero_and_increase(self, sample_pir_dataset):
        with pytest.raises(ValueError):
            pir_sweep(sample_pir_dataset, [PRECISION_NONE], thresholds=(0.1, 0.2))
        with pytest.raises(ValueError):
            pir_sweep(sample_pir_dataset, [PRECISION_NONE], thresholds=(0.0, 0.2, 0.2))
        for grid in ((0.0, math.inf), (0.0, math.nan, 0.1)):
            with pytest.raises(ValueError, match="threshold grid must be finite"):
                pir_sweep(sample_pir_dataset, [PRECISION_NONE], thresholds=grid)

    def test_duplicate_configs_rejected(self, sample_pir_dataset):
        with pytest.raises(ValueError):
            pir_sweep(sample_pir_dataset, [PRECISION_NONE, PRECISION_NONE],
                      thresholds=(0.0,), cutoffs=(1,))

    def test_duplicate_cutoffs_rejected(self, sample_pir_dataset):
        with pytest.raises(ValueError, match="duplicate cut-off 2"):
            pir_sweep(sample_pir_dataset, [PRECISION_NONE], thresholds=(0.0,), cutoffs=(2, 1, 2))


DISCOUNTS = [DiscountFunction(DiscountKind.NONE), DiscountFunction(DiscountKind.LOG2),
             DiscountFunction(DiscountKind.LOG5), DiscountFunction(DiscountKind.ROOT),
             DiscountFunction(DiscountKind.RANK), DiscountFunction(DiscountKind.SQUARE)]


def every_metric(discount: DiscountFunction, scale, source) -> list[MetricConfig]:
    """All six metrics under one discount, with MAP under both norms and ESL at two targets."""
    kw = dict(scale=scale, rating_source=source)
    return [MetricConfig(Metric.PRECISION, discount, **kw),
            MetricConfig(Metric.NDCG, discount, **kw),
            MetricConfig(Metric.MAP, discount, **kw),
            MetricConfig(Metric.MAP, discount, ap_norm=ApNorm.BY_KNOWN_RELEVANT, **kw),
            MetricConfig(Metric.ERR, discount, **kw),
            MetricConfig(Metric.MRR, discount, **kw),
            MetricConfig(Metric.ESL, discount, esl_n=1.0, **kw),
            MetricConfig(Metric.ESL, discount, esl_n=2.5, **kw)]


@st.composite
def gapped_datasets(draw):
    """Small synthetic datasets with disagreeing raters, shared results and dropped judgments."""
    n_queries, n_raters = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dataset = generate_synthetic(SynthSpec(
        n_queries, n_raters, draw(st.integers(0, 999)),
        n_preferences=draw(st.integers(1, n_queries * n_raters)),
        rater_noise=draw(st.sampled_from([0.0, 0.1, 0.4])),
        overlap=draw(st.sampled_from([0.0, 0.4, 1.0]))))
    rng, drop = random.Random(draw(st.integers(0, 999))), draw(st.sampled_from([0.0, 0.1, 0.5]))
    return with_judgments(dataset, [row for row in judgment_rows(dataset) if rng.random() >= drop])


class TestCompanionConfigs:
    """A config's rows are the same whichever configs share its sweep."""

    @given(gapped_datasets(),
           st.lists(st.sampled_from(DISCOUNTS), min_size=2, max_size=3, unique=True),
           st.sampled_from(list(RelevanceScale)), st.sampled_from(list(RatingSource)),
           st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True))
    def test_rows_equal_the_config_swept_alone(self, dataset, discounts, scale, source,
                                               cutoffs):
        configs = [config for discount in discounts
                   for config in every_metric(discount, scale, source)]
        thresholds = (0.0, 0.05, 0.2)
        grid = pir_sweep(dataset, configs, thresholds, cutoffs, lenient=True)
        for config in configs:
            alone = pir_sweep(dataset, [config], thresholds, cutoffs, lenient=True)
            for c in cutoffs:
                assert grid.row(config, c) == alone.row(config, c)


class TestOracle:
    def test_oracle_on_worked_example(self, sample_pir_dataset):
        assert oracle_pir(sample_pir_dataset, PRECISION_NONE, 0.0) == 0.75
        assert oracle_pir(sample_pir_dataset, PRECISION_NONE, 0.15) == 0.875
        assert oracle_pir(sample_pir_dataset, PRECISION_NONE, 0.35) == 0.625

    def test_oracle_baseline_beyond_span(self, sample_pir_dataset):
        assert oracle_pir(sample_pir_dataset, PRECISION_NONE, 1.0) == 0.5

    def test_grid_agrees_with_per_cell_oracle(self):
        ds = generate_synthetic(SynthSpec(n_queries=5, n_raters=3, seed=21, n_preferences=10))
        cfg = MetricConfig(Metric.MAP, DiscountFunction(DiscountKind.RANK))
        grid = oracle_grid(ds, cfg, (0.0, 0.05, 0.2), (1, 4, 7))
        for (cutoff, t), value in grid.items():
            assert value == oracle_pir(ds, cfg, t, cutoff=cutoff)

    def test_engine_matches_oracle_smoke(self):
        ds = generate_synthetic(
            SynthSpec(n_queries=6, n_raters=3, seed=33, n_preferences=12, rater_noise=0.2)
        )
        for cfg in (
            PRECISION_NONE,
            MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.LOG2),
                         rating_source=RatingSource.OTHER_USERS),
        ):
            grid = pir_sweep(ds, [cfg])
            reference = oracle_grid(ds, cfg, DEFAULT_THRESHOLDS, DEFAULT_CUTOFFS)
            for cutoff in DEFAULT_CUTOFFS:
                row = grid.row(cfg, cutoff)
                for cell in row.cells:
                    assert cell.pir == reference[(cutoff, cell.threshold)]

    def test_engine_matches_oracle_on_fifty_query_dataset(self):
        ds = generate_synthetic(
            SynthSpec(n_queries=50, n_raters=5, seed=50, n_preferences=100)
        )
        cfg = MetricConfig(Metric.ESL, DiscountFunction(DiscountKind.RANK), esl_n=2.5)
        grid = pir_sweep(ds, [cfg])
        reference = oracle_grid(ds, cfg, DEFAULT_THRESHOLDS, DEFAULT_CUTOFFS)
        for cutoff in DEFAULT_CUTOFFS:
            for cell in grid.row(cfg, cutoff).cells:
                assert cell.pir == reference[(cutoff, cell.threshold)]

    def test_collect_pairs_matches_engine_pairs(self, sample_pir_dataset):
        engine_pairs, _ = scored_pairs(sample_pir_dataset, PRECISION_NONE)
        assert collect_pairs(sample_pir_dataset, PRECISION_NONE) == engine_pairs


class TestRatingSourceDirection:
    """A rater's own grades should predict their verdicts better than other raters' grades."""

    def test_same_user_beats_other_users_at_the_best_threshold(self):
        wins = rows = 0
        for seed in range(2010, 2015):
            ds = generate_synthetic(SynthSpec(42, 31, seed, n_preferences=147, rater_noise=0.2))
            best = []
            for source in (RatingSource.SAME_USER, RatingSource.OTHER_USERS):
                configs = [MetricConfig(metric, DiscountFunction(DiscountKind.RANK),
                                        esl_n=2.5 if metric is Metric.ESL else None,
                                        rating_source=source)
                           for metric in Metric]
                grid = pir_sweep(ds, configs)
                best.append([grid.row(config, cutoff).best_threshold()[1]
                             for config in configs for cutoff in DEFAULT_CUTOFFS])
            same_user, other_users = best
            wins += sum(s > o for s, o in zip(same_user, other_users))
            rows += len(same_user)
        assert rows == 300
        assert wins >= 0.85 * rows  # 286 of 300 when this was written



class TestAgreeingRaters:
    """Where every rater gives the same grades, the rating source cannot move a cell."""

    def test_same_user_and_other_users_give_identical_cells(self):
        dataset = generate_synthetic(SynthSpec(12, 10, 3, n_preferences=40))
        discounts = [DiscountFunction.click_based() if kind is DiscountKind.CLICK_BASED
                     else DiscountFunction(kind) for kind in DiscountKind]
        by_source = []  # each source's cells, keyed by (metric, discount, cut-off)
        for source in (RatingSource.SAME_USER, RatingSource.OTHER_USERS):
            configs = [MetricConfig(metric, discount, rating_source=source,
                                    esl_n=2.5 if metric is Metric.ESL else None)
                       for metric in Metric for discount in discounts]
            grid = pir_sweep(dataset, configs)
            by_source.append({(config.metric, config.discount.kind, c): grid.row(config, c).cells
                              for config in configs for c in grid.cutoffs})
        same, other = by_source
        assert len(same) == 6 * 7 * len(DEFAULT_CUTOFFS)
        differ = sum(a != b for key, cells in same.items() for a, b in zip(cells, other[key]))
        assert differ == 0


class TestEqualGradeGaps:
    """Verdicts whose lists differ by the same grade gap meet every threshold alike."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: whether |delta| > t is decided by float rounding, so one grade "
        "apart on the six-point scale clears t = 0.2 at 2 vs 3 but not at 1 vs 2"))
    def test_equal_grade_gaps_give_equal_outcomes(self):
        # query g: variant A's one result graded g, B's graded g + 1, verdict A
        counts = []
        for g in range(1, 6):
            q = f"q{g}"
            dataset = EvaluationDataset(
                queries=(make_query(q),),
                judgments={(q, f"{q}-a"): {RATER: g}, (q, f"{q}-b"): {RATER: g + 1}},
                list_pairs=(RankedListPair(q, (f"{q}-a",), (f"{q}-b",)),),
                preferences=(PreferenceJudgment(q, RATER, Verdict.A),),
            )
            row = pir_sweep(dataset, [PRECISION_NONE], cutoffs=(1,)).row(PRECISION_NONE, 1)
            assert [cell.threshold for cell in row.cells] == list(DEFAULT_THRESHOLDS)
            counts.append([cell[2:] for cell in row.cells])
        assert counts == [counts[0]] * 5
