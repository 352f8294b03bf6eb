"""Randomized invariant suites for the preference identification machinery.

Each suite runs 200 generated cases (the session-wide hypothesis profile).
Scores are drawn on hundredth grids and relevance on the six-point unit
grid, matching what graded judgments can actually produce.
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from prefeval.config import Metric, MetricConfig
from prefeval.dataset import (
    EvaluationDataset,
    PreferenceJudgment,
    RankedListPair,
    Verdict,
)
from prefeval.metrics import err, esl, ndcg, reciprocal_rank
from prefeval.pir import DEFAULT_THRESHOLDS, pir, pir_sweep, pref
from prefeval.scales import DiscountFunction, DiscountKind

from conftest import make_query, score_pair

unit_rel = st.integers(0, 5).map(lambda i: i / 5)
score = st.integers(0, 100).map(lambda i: i / 100)
verdict = st.sampled_from([Verdict.A, Verdict.B, Verdict.EQUAL])
scored_pairs = st.lists(st.tuples(score, score, verdict), min_size=1, max_size=25)
threshold = st.sampled_from(DEFAULT_THRESHOLDS)

STRICT_DISCOUNTS = [
    DiscountFunction(DiscountKind.ROOT),
    DiscountFunction(DiscountKind.RANK),
    DiscountFunction(DiscountKind.SQUARE),
    DiscountFunction.click_based({r: 0.9 ** (r - 1) for r in range(1, 11)}),
]


@st.composite
def graded_datasets(draw):
    """Small single-rater dataset: random grades per variant, random verdicts."""
    n_queries = draw(st.integers(1, 3))
    list_len = draw(st.integers(2, 4))
    queries, pairs, judgments, preferences = [], [], {}, []
    for qi in range(n_queries):
        qid = f"q{qi}"
        queries.append(make_query(qid))
        ids_a = tuple(f"{qid}a{r}" for r in range(list_len))
        ids_b = tuple(f"{qid}b{r}" for r in range(list_len))
        pairs.append(RankedListPair(query_id=qid, variant_a=ids_a, variant_b=ids_b))
        for rid in (*ids_a, *ids_b):
            judgments[qid, rid] = {"r1": draw(st.integers(1, 6))}
        preferences.append(
            PreferenceJudgment(query_id=qid, rater_id="r1", verdict=draw(verdict))
        )
    ds = EvaluationDataset(
        queries=tuple(queries),
        judgments=judgments,
        list_pairs=tuple(pairs),
        preferences=tuple(preferences),
    )
    return ds, list_len


def swap_variants(ds: EvaluationDataset) -> EvaluationDataset:
    flipped = {Verdict.A: Verdict.B, Verdict.B: Verdict.A, Verdict.EQUAL: Verdict.EQUAL}
    return dataclasses.replace(
        ds,
        list_pairs=tuple(
            dataclasses.replace(p, variant_a=p.variant_b, variant_b=p.variant_a)
            for p in ds.list_pairs
        ),
        preferences=tuple(
            dataclasses.replace(p, verdict=flipped[p.verdict]) for p in ds.preferences
        ),
    )


class TestSwapSymmetry:
    @given(graded_datasets())
    def test_swapping_variants_and_verdicts_changes_no_cell(self, case):
        ds, list_len = case
        configs = [
            MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE), cutoff=1),
            MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.LOG2), cutoff=1),
            MetricConfig(Metric.ESL, DiscountFunction(DiscountKind.RANK), esl_n=1.0, cutoff=1),
        ]
        cutoffs = tuple(range(1, list_len + 1))
        thresholds = (0.0, 0.05, 0.1, 0.2)
        grid = pir_sweep(ds, configs, thresholds, cutoffs)
        swapped = pir_sweep(swap_variants(ds), configs, thresholds, cutoffs)
        for key, row in grid.rows.items():
            assert swapped.rows[key].cells == row.cells
            assert swapped.rows[key].excluded == row.excluded


class TestSignAndOffsetInvariance:
    @given(scored_pairs, st.sampled_from([0.1, 0.5, 2.0, 10.0]),
           st.integers(-100, 100).map(lambda i: i / 10))
    def test_scaling_and_shifting_scores_leaves_zero_threshold_pir(self, pairs, lam, shift):
        baseline = pir(pairs, 0.0)
        scaled = [(lam * a, lam * b, v) for a, b, v in pairs]
        shifted = [(a + shift, b + shift, v) for a, b, v in pairs]
        assert pir(scaled, 0.0).pir == baseline.pir
        assert pir(shifted, 0.0).pir == baseline.pir


class TestThresholdMonotonicity:
    @given(scored_pairs)
    def test_category_counts_move_monotonically(self, pairs):
        cells = [pir(pairs, t) for t in DEFAULT_THRESHOLDS]
        n_equal = sum(1 for _, _, v in pairs if v is Verdict.EQUAL)
        for earlier, later in zip(cells, cells[1:]):
            assert later.correct_pref <= earlier.correct_pref
            assert later.reversed_pref <= earlier.reversed_pref
            assert later.missed_pref >= earlier.missed_pref
            assert later.correct_equal >= earlier.correct_equal
            assert later.false_pref <= earlier.false_pref
        for cell in cells:
            assert cell.correct_equal + cell.false_pref == n_equal


class TestPirQuantization:
    @given(scored_pairs, threshold)
    def test_pir_is_half_plus_integer_over_twice_n(self, pairs, t):
        cell = pir(pairs, t)
        assert 0.0 <= cell.pir <= 1.0
        n = cell.n_preferences
        if n == 0:
            assert cell.pir == 0.5
            return
        k = round((cell.pir - 0.5) * 2 * n)
        assert abs(k) <= n
        assert cell.pir == 0.5 + k / (2 * n)


class TestNdcgRange:
    @given(st.lists(unit_rel, min_size=1, max_size=10), st.lists(unit_rel, max_size=6),
           st.sampled_from([DiscountFunction(DiscountKind.NONE),
                            DiscountFunction(DiscountKind.LOG2),
                            DiscountFunction(DiscountKind.RANK), DiscountFunction.click_based()]))
    def test_within_unit_interval(self, rels, extra, discount):
        pool = rels + extra
        value = ndcg(rels, pool, len(rels), discount)
        if value is None:
            assert not any(pool)
            return
        assert 0.0 <= value <= 1.0

    @given(st.lists(unit_rel, min_size=1, max_size=10),
           st.sampled_from([DiscountFunction(DiscountKind.NONE),
                            DiscountFunction(DiscountKind.LOG2),
                            DiscountFunction(DiscountKind.RANK)]))
    def test_perfect_order_scores_exactly_one(self, pool, discount):
        if not any(pool):
            return
        ordered = sorted(pool, reverse=True)
        assert ndcg(ordered, pool, len(ordered), discount) == 1.0


class TestEslEndpoints:
    @given(st.lists(unit_rel, max_size=9),
           st.sampled_from([DiscountFunction(DiscountKind.NONE),
                            DiscountFunction(DiscountKind.RANK),
                            DiscountFunction(DiscountKind.SQUARE)]),
           st.sampled_from([0.25, 0.5, 1.0]))
    def test_perfect_first_result_scores_one(self, tail, discount, n):
        rels = [1.0] + tail
        assert esl(rels, len(rels), discount, n=n) == 1.0

    @given(st.integers(1, 10),
           st.sampled_from([DiscountFunction(DiscountKind.NONE),
                            DiscountFunction(DiscountKind.LOG2),
                            DiscountFunction(DiscountKind.RANK)]),
           st.sampled_from([0.5, 1.0, 2.5]))
    def test_all_irrelevant_scores_zero(self, c, discount, n):
        assert esl([0.0] * c, c, discount, n=n) == 0.0

    @given(st.integers(1, 10))
    def test_half_relevant_unreached_target_scores_half(self, c):
        rels = [0.5] * c
        assert esl(rels, c, DiscountFunction(DiscountKind.NONE), n=0.5 * c + 1) == 0.5


class TestMrrDiscountChoiceInvariance:
    @given(st.lists(unit_rel, min_size=1, max_size=10),
           st.lists(unit_rel, min_size=1, max_size=10))
    def test_strictly_decreasing_discounts_agree_at_zero_threshold(self, rels_a, rels_b):
        c = min(len(rels_a), len(rels_b))
        signs = {
            pref(
                reciprocal_rank(rels_a, c, f) - reciprocal_rank(rels_b, c, f), 0.0
            )
            for f in STRICT_DISCOUNTS
        }
        assert len(signs) == 1


class TestErrMonotonicity:
    @given(st.lists(unit_rel, min_size=1, max_size=10), st.data())
    def test_raising_one_relevance_never_lowers_err(self, rels, data):
        index = data.draw(st.integers(0, len(rels) - 1))
        if rels[index] == 1.0:
            return
        bumped = list(rels)
        bumped[index] = data.draw(
            st.sampled_from([v / 5 for v in range(int(rels[index] * 5) + 1, 6)])
        )
        f = DiscountFunction(DiscountKind.RANK)
        assert err(bumped, len(bumped), f) >= err(rels, len(rels), f) - 1e-12


class TestPrecisionNdcgAgreement:
    @given(graded_datasets())
    def test_same_preference_without_discount(self, case):
        # without a discount the two metrics differ only in their normalizer,
        # which both variants share, so the preferred list is the same;
        # mathematical ties may land a last-bit apart, hence the noise floor
        ds, list_len = case
        prec = MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE), cutoff=list_len)
        ndcg_cfg = MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.NONE), cutoff=list_len)
        for p in ds.preferences:
            pa, pb = score_pair(ds, prec, p.query_id, p.rater_id)
            na, nb = score_pair(ds, ndcg_cfg, p.query_id, p.rater_id)
            if na is None:
                assert nb is None
                continue
            if min(abs(pa - pb), abs(na - nb)) < 1e-9:
                assert max(abs(pa - pb), abs(na - nb)) < 1e-9
                continue
            assert pref(pa - pb, 0.0) == pref(na - nb, 0.0)
