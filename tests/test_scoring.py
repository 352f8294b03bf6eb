import ast
import dataclasses
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (binary_pair_dataset, count_grade_reads, judgment_rows, make_query, score_pair,
                      with_judgments)
from prefeval.config import Metric, MetricConfig, RatingSource
from prefeval.data_io import load_dataset, write_dataset
from prefeval.dataset import (
    EvaluationDataset,
    PreferenceJudgment,
    QueryType,
    RankedListPair,
    ValidationError,
    Verdict,
)
from prefeval import cli, metrics, oracle, scales, scoring
from prefeval.implicit import ImplicitMeasure, descriptive_stats, implicit_pir
from prefeval.metrics import ApNorm
from prefeval.oracle import judged_lists, metric_score
from prefeval.pir import pir_sweep
from prefeval.scales import UNIT_NUMERATORS, DiscountFunction, DiscountKind, RelevanceScale
from prefeval.scoring import (
    JudgedLists,
    MissingJudgment,
    resolve_preferences,
    scorer,
)
from prefeval.synth import SynthSpec, generate_synthetic


def multi_rater_dataset(grades_by_rater):
    """One query, two 2-result variants; every rater grades all four results."""
    ids_a, ids_b = ("a1", "a2"), ("b1", "b2")
    judgments = {}
    for rater, grades in grades_by_rater.items():
        for rid in (*ids_a, *ids_b):
            judgments.setdefault(("q1", rid), {})[rater] = grades[rid]
    return EvaluationDataset(
        queries=(make_query("q1"),),
        judgments=judgments,
        list_pairs=(RankedListPair(query_id="q1", variant_a=ids_a, variant_b=ids_b),),
    )


def config(metric=Metric.PRECISION, source=RatingSource.SAME_USER, cutoff=2, **kw):
    return MetricConfig(metric=metric, discount=DiscountFunction(DiscountKind.NONE),
                        rating_source=source, cutoff=cutoff, **kw)


def unit_relevance(ds, result_id, scale, source, rater, lenient=False):
    """The engine's relevance of one of q1's variant-A results, as one reader reads it."""
    cfg = config(source=source, scale=scale)
    [(_, lists)] = resolve_preferences(ds, cfg, (2,), lenient, [("q1", rater, None)])
    return lists.rels_a[ds.pair_by_query["q1"].variant_a.index(result_id)]


class TestUnitRelevance:
    """One result's relevance for one reader, read from the engine's grade rows."""

    def test_same_user_takes_own_grade(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=3, b1=6, b2=6),
                                  "r2": dict(a1=6, a2=6, b1=1, b2=1)})
        got = unit_relevance(ds, "a1", RelevanceScale.SIX_POINT, RatingSource.SAME_USER, "r1")
        assert got == 1.0

    def test_other_users_mean_of_singleton(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=1, b2=1),
                                  "r2": dict(a1=3, a2=3, b1=3, b2=3)})
        got = unit_relevance(ds, "a1", RelevanceScale.SIX_POINT, RatingSource.OTHER_USERS, "r1")
        assert got == pytest.approx(0.6)

    def test_other_users_mean_of_two(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=1, b2=1),
                                  "r2": dict(a1=2, a2=2, b1=2, b2=2),
                                  "r3": dict(a1=6, a2=6, b1=6, b2=6)})
        got = unit_relevance(ds, "a1", RelevanceScale.SIX_POINT, RatingSource.OTHER_USERS, "r3")
        assert got == pytest.approx((1.0 + 0.8) / 2) == pytest.approx(0.9)

    def test_conflation_happens_before_averaging(self):
        # grades 1 and 3 under R2_3 are both relevant: mean of conflated is 1.0,
        # not the conflation of the mean grade
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=1, b2=1),
                                  "r2": dict(a1=3, a2=3, b1=3, b2=3),
                                  "r3": dict(a1=6, a2=6, b1=6, b2=6)})
        got = unit_relevance(ds, "a1", RelevanceScale.R2_3, RatingSource.OTHER_USERS, "r3")
        assert got == 1.0

    def test_missing_same_user_strict_and_lenient(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=1, b2=1)})
        with pytest.raises(MissingJudgment,
                           match=r"^rater 'r2' has no judgment for \('q1', 'a1'\)$"):
            unit_relevance(ds, "a1", RelevanceScale.SIX_POINT, RatingSource.SAME_USER, "r2")
        got = unit_relevance(ds, "a1", RelevanceScale.SIX_POINT, RatingSource.SAME_USER, "r2",
                             lenient=True)
        assert got == 0.0

    def test_missing_other_users_strict_and_lenient(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=1, b2=1)})
        with pytest.raises(MissingJudgment,
                           match=r"^no rater besides 'r1' judged \('q1', 'a1'\)$"):
            unit_relevance(ds, "a1", RelevanceScale.SIX_POINT, RatingSource.OTHER_USERS, "r1")
        got = unit_relevance(ds, "a1", RelevanceScale.SIX_POINT, RatingSource.OTHER_USERS, "r1",
                             lenient=True)
        assert got == 0.0


class TestJudgedLists:
    """The oracle's own walk: one reader's judged lists at one cut-off."""

    def test_single_rater_same_user_lists(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=3, b1=4, b2=6)})
        rels_a, rels_b, pool = judged_lists(ds, "q1", "r1", config())
        assert rels_a == [1.0, 0.6]
        assert rels_b == [0.4, 0.0]
        assert sorted(pool, reverse=True) == [1.0, 0.6, 0.4, 0.0]

    def test_shared_result_counted_once_in_pool(self):
        ds = binary_pair_dataset([("q1", 2, 2, Verdict.A)], list_len=3, shared_results=True)
        rels_a, rels_b, pool = judged_lists(ds, "q1", "r1", config(cutoff=3))
        assert len(pool) == 3  # variant B is a permutation of the same results
        assert sorted(rels_a) == sorted(rels_b)

    def test_cutoff_truncates(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=3, b1=4, b2=6)})
        rels_a, rels_b, pool = judged_lists(ds, "q1", "r1", config(cutoff=1))
        assert rels_a == [1.0]
        assert rels_b == [0.4]
        assert len(pool) == 2

    def test_list_shorter_than_the_cutoff_is_rejected(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=3, b1=4, b2=6)})
        with pytest.raises(ValueError, match=r"^cut-off 3 exceeds list length 2$"):
            judged_lists(ds, "q1", "r1", config(cutoff=3))
        short_b = dataclasses.replace(ds, list_pairs=(RankedListPair(
            query_id="q1", variant_a=("a1", "a2"), variant_b=("b1",)),))
        with pytest.raises(ValueError, match=r"^cut-off 2 exceeds list length 1$"):
            judged_lists(short_b, "q1", "r1", config())
        # a table resolves to its deepest cut-off, so that is the one named
        with pytest.raises(ValueError, match=r"^cut-off 10 exceeds list length 2$"):
            resolve_preferences(dataclasses.replace(ds, preferences=(
                PreferenceJudgment(query_id="q1", rater_id="r1", verdict=Verdict.A),)),
                config(), (3, 10))


class TestResolvePreferences:
    @pytest.fixture
    def overlapping(self):
        return generate_synthetic(SynthSpec(n_queries=6, n_raters=3, seed=4,
                                            n_preferences=12, overlap=0.6))

    def test_pools_match_judged_lists_at_every_cutoff(self, overlapping):
        cfg = config(metric=Metric.NDCG, source=RatingSource.OTHER_USERS)
        cutoffs = (1, 3, 4, 7)
        resolved = resolve_preferences(overlapping, cfg, cutoffs)
        assert len(resolved) == len(overlapping.preferences)
        for p, (verdict, entry) in zip(overlapping.preferences, resolved):
            assert verdict is p.verdict
            for c in cutoffs:
                rels_a, rels_b, pool = judged_lists(overlapping, p.query_id, p.rater_id,
                                                    cfg.at_cutoff(c))
                assert entry.rels_a[:c] == rels_a
                assert entry.rels_b[:c] == rels_b
                assert entry.pool[: entry.pool_ends[c - 1]] == pool

    def test_pool_is_in_first_rank_order(self):
        ds = binary_pair_dataset([("q1", 2, 2, Verdict.A)], list_len=4, shared_results=True)
        # A = a01 a02 a03 a04, B = a04 a03 a02 a01; grade k tells a0k apart
        ds = with_judgments(ds, [(qid, rid, rater, int(rid[-2:]))
                                 for qid, rid, rater, _ in judgment_rows(ds)])
        _, _, pool = judged_lists(ds, "q1", "r1", config(cutoff=4))
        assert pool == [1.0, 0.4, 0.8, 0.6]  # a01, a04, a02, a03
        [(_, entry)] = resolve_preferences(ds, config(), (1, 2, 4))
        assert entry.pool == pool
        assert entry.pool_ends == (2, 4, 4, 4)  # the pool's end at every rank

    def test_sweep_looks_up_each_distinct_result_once(self, overlapping):
        # one grade-index read per (table, query, distinct result) on a query-sorted dataset
        calls = []
        count_grade_reads(overlapping, calls)
        configs = [MetricConfig(metric, DiscountFunction(DiscountKind.RANK), rating_source=source,
                                esl_n=2.0 if metric is Metric.ESL else None)
                   for metric in Metric for source in RatingSource]
        pir_sweep(overlapping, configs, cutoffs=(2, 5, 8))
        query_ids = [p.query_id for p in overlapping.preferences]
        assert query_ids == sorted(query_ids)
        per_table = []
        for qid in dict.fromkeys(query_ids):
            pair = overlapping.pair_by_query[qid]
            per_table += [(qid, rid) for rid in dict.fromkeys((*pair.variant_a[:8],
                                                                *pair.variant_b[:8]))]
        assert calls == per_table * len(RatingSource)

    def test_rows_work_out_only_the_raters_who_read_them(self, monkeypatch):
        # eight raters grade each query, two give verdicts: one mean per (verdict, result)
        graded = generate_synthetic(SynthSpec(n_queries=3, n_raters=8, seed=2, n_preferences=24))
        readers = graded.preferences[::4]
        dataset = dataclasses.replace(graded, preferences=readers)
        calls = []
        original = scoring._relevance

        def counted(by_rater, units, same_user, rater_id):
            calls.append(rater_id)
            return original(by_rater, units, same_user, rater_id)

        monkeypatch.setattr(scoring, "_relevance", counted)
        rows = sum(len({*pair.variant_a[:10], *pair.variant_b[:10]})
                   for pair in dataset.list_pairs)
        for source in RatingSource:
            calls.clear()
            resolve_preferences(dataset, config(source=source), (10,))
            assert len(calls) == 2 * rows  # two readers per result, not eight graders
            assert set(calls) == {p.rater_id for p in readers}

    def test_sweep_never_calls_the_scalar_metrics(self, overlapping, tmp_path, monkeypatch):
        # nor does eval: every command scores through scoring.scorer
        write_dataset(overlapping, tmp_path)
        calls = []

        def patch(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        patch(oracle, "metric_score")
        for name in ("precision_at", "dcg", "ideal_ranking", "ndcg", "average_precision",
                     "err", "reciprocal_rank", "esl"):
            patch(metrics, name)
        configs = [MetricConfig(metric, DiscountFunction(DiscountKind.RANK), rating_source=source,
                                esl_n=2.0 if metric is Metric.ESL else None)
                   for metric in Metric for source in RatingSource]
        grid = pir_sweep(overlapping, configs)
        assert grid.rows
        for metric in Metric:
            assert cli.main(["eval", str(tmp_path), "--metric", metric.value]) == 0
        assert calls == []


def engine_by_cutoff(dataset, config, cutoffs, lenient):
    """Each :func:`resolve_preferences` entry cut at every cut-off c: lists to c, pool to its end."""
    return [(verdict, [(lists.rels_a[:c], lists.rels_b[:c], lists.pool[: lists.pool_ends[c - 1]])
                       for c in cutoffs])
            for verdict, lists in resolve_preferences(dataset, config, cutoffs, lenient)]


def oracle_by_cutoff(dataset, config, cutoffs, lenient):
    """The same, verdict by verdict, from the oracle's walk at each cut-off.

    Each verdict is walked first at the deepest cut-off, which the engine
    resolves to, so both raise the same first error; each cut-off's pool
    is then built afresh, independent of the engine's pool ends.
    """
    scope, table = config.query_filter, []
    for p in dataset.preferences:
        if scope is None or dataset.query_by_id[p.query_id].query_type in scope:
            judged_lists(dataset, p.query_id, p.rater_id, config.at_cutoff(max(cutoffs)), lenient)
            table.append((p.verdict, [judged_lists(dataset, p.query_id, p.rater_id,
                                                   config.at_cutoff(c), lenient)
                                      for c in cutoffs]))
    return table


def exact_outcome(resolve, *args):
    """``resolve(*args)`` as exact text (each value by ``float.hex``), or what it raised."""
    try:
        table = resolve(*args)
    except (MissingJudgment, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [(verdict, [[[x.hex() for x in part] for part in cut] for cut in cuts])
            for verdict, cuts in table]


def perturbed(spec, seed, drop, outsider, shuffle):
    """A synthetic dataset with a share ``drop`` of its judgments dropped at random.

    With ``outsider`` a rater who judged nothing there gives a verdict on
    one query, and with ``shuffle`` the verdicts lose their query order.
    """
    dataset = generate_synthetic(spec)
    rng = random.Random(seed)
    judgments = [row for row in judgment_rows(dataset) if rng.random() >= drop]
    preferences = list(dataset.preferences)
    if outsider:
        qid = rng.choice(dataset.queries).id
        preferences.append(PreferenceJudgment(query_id=qid, rater_id="outsider",
                                              verdict=Verdict.B))
    if shuffle:
        rng.shuffle(preferences)
    return dataclasses.replace(with_judgments(dataset, judgments), preferences=tuple(preferences))


@st.composite
def perturbed_datasets(draw):
    """Small datasets with sole judges (one verdict on a query), disagreeing raters and gaps."""
    n_queries, n_raters = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spec = SynthSpec(n_queries, n_raters, draw(st.integers(0, 999)),
                     n_preferences=draw(st.integers(0, n_queries * n_raters)),
                     rater_noise=draw(st.sampled_from([0.0, 0.1, 0.4])),
                     overlap=draw(st.sampled_from([0.0, 0.4, 1.0])))
    return perturbed(spec, draw(st.integers(0, 999)), draw(st.sampled_from([0.0, 0.1, 0.5])),
                     draw(st.booleans()), draw(st.booleans()))


NOISY = SynthSpec(4, 3, 11, n_preferences=6, rater_noise=0.1, overlap=0.4)


class TestResolveEquivalence:
    """The engine's per-query walk against the oracle's per-verdict walk, cut-off by cut-off."""

    @given(perturbed_datasets(),
           st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True),
           st.none() | st.sets(st.sampled_from(list(QueryType)), min_size=1))
    @example(perturbed(NOISY, 1, 0.1, True, True), [1, 5, 10], None)
    @example(perturbed(NOISY, 2, 0.0, True, False), [10], None)
    def test_every_entry_equals_judged_lists(self, dataset, cutoffs, query_filter):
        # strict and lenient, every scale and both sources, each entry's prefix at every
        # cut-off by float.hex; where the walk raises, the engine raises the same first error
        for scale in RelevanceScale:
            for source in RatingSource:
                cfg = MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.NONE), scale=scale,
                                   rating_source=source, query_filter=query_filter)
                for lenient in (False, True):
                    args = (dataset, cfg, cutoffs, lenient)
                    assert (exact_outcome(engine_by_cutoff, *args)
                            == exact_outcome(oracle_by_cutoff, *args))

    def test_shuffled_verdicts_raise_the_first_missing_judgment_in_dataset_order(self):
        # q001's and q002's verdicts are split, and q004's sole judge comes before q003's
        dataset = perturbed(NOISY, 1, 0.0, False, True)
        assert [(p.query_id, p.rater_id) for p in dataset.preferences] == [
            ("q002", "u01"), ("q001", "u01"), ("q002", "u03"), ("q004", "u01"),
            ("q003", "u03"), ("q001", "u02")]
        cfg = MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.NONE),
                           rating_source=RatingSource.OTHER_USERS)
        message = "no rater besides 'u01' judged ('q004', 'q004-a01')"
        with pytest.raises(MissingJudgment, match=rf"^{re.escape(message)}$"):
            resolve_preferences(dataset, cfg, (3, 10))
        with pytest.raises(MissingJudgment, match=rf"^{re.escape(message)}$"):
            oracle_by_cutoff(dataset, cfg, (3, 10), False)
        lenient = (dataset, cfg, (3, 10), True)
        assert (exact_outcome(engine_by_cutoff, *lenient)
                == exact_outcome(oracle_by_cutoff, *lenient))

    def test_a_shuffled_dataset_and_its_written_copy_sweep_alike(self, tmp_path, capsys):
        # the written copy keeps the verdicts' order, so its sweep names the same judgment
        write_dataset(perturbed(NOISY, 1, 0.0, False, True), tmp_path / "ds")
        code = cli.main(["sweep", str(tmp_path / "ds"), "--rating-source", "other-users",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "missing judgment: no rater besides 'u01' judged ('q004', 'q004-a01')\n")


# Every public analysis that takes a dataset, as the gate test runs it; the layering
# guard checks that no other public function takes one.
GATED_ANALYSES = {
    "pir_sweep": lambda ds, cfg: pir_sweep(ds, [cfg]),
    "resolve_preferences": lambda ds, cfg: resolve_preferences(ds, cfg, (cfg.cutoff,)),
    "implicit_pir": lambda ds, cfg: implicit_pir(ds, ImplicitMeasure.CLICK_COUNT),
    "descriptive_stats": lambda ds, cfg: descriptive_stats(ds),
    "judged_lists": lambda ds, cfg: judged_lists(ds, ds.preferences[0].query_id,
                                                 ds.preferences[0].rater_id, cfg),
    "collect_pairs": lambda ds, cfg: oracle.collect_pairs(ds, cfg),
    "oracle_pir": lambda ds, cfg: oracle.oracle_pir(ds, cfg, 0.0),
    "oracle_grid": lambda ds, cfg: oracle.oracle_grid(ds, cfg, (0.0, 0.1), (1, 2)),
}


class TestGradeIndex:
    """One grade index, built and checked by validation, read unchecked by the engine."""

    CONFIGS = [MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.LOG2), scale=scale,
                            rating_source=source)
               for scale in (RelevanceScale.SIX_POINT, RelevanceScale.R3_2)
               for source in RatingSource]

    def test_loaded_dataset_holds_the_index_validation_built(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_queries=4, n_raters=3, seed=2, n_preferences=6))
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert "grades" in loaded.__dict__
        expected: dict = {}
        for qid, rid, rater, grade in judgment_rows(ds):
            expected.setdefault((qid, rid), {})[rater] = grade
        assert loaded.grades == expected
        assert loaded.grades is loaded.judgments

    def test_engine_checks_no_grade_after_loading(self, tmp_path, monkeypatch):
        write_dataset(generate_synthetic(SynthSpec(n_queries=4, n_raters=3, seed=2,
                                                   n_preferences=6, rater_noise=0.3)), tmp_path)
        loaded = load_dataset(tmp_path)
        calls = []
        original = scales.check_grade

        def counted(grade):
            calls.append(grade)
            return original(grade)

        monkeypatch.setattr(scales, "check_grade", counted)
        pir_sweep(loaded, self.CONFIGS, lenient=True)
        for cfg in self.CONFIGS:
            oracle.oracle_pir(loaded, cfg, 0.1, cutoff=5, lenient=True)
        descriptive_stats(loaded)
        assert calls == []

    @pytest.mark.parametrize("grade", [0, 9, True])
    @pytest.mark.parametrize("run", [
        lambda ds, cfg: pir_sweep(ds, [cfg]),
        lambda ds, cfg: oracle.oracle_pir(ds, cfg, 0.0),
        lambda ds, cfg: descriptive_stats(ds),
    ], ids=["pir_sweep", "oracle_pir", "descriptive_stats"])
    def test_bad_library_grade_is_a_validation_error(self, grade, run):
        # grade 0 would read the last unit table entry, 0.0, were it not checked
        ds = binary_pair_dataset([("q1", 3, 2, Verdict.A), ("q2", 1, 4, Verdict.B)])
        first, *rest = judgment_rows(ds)
        bad = with_judgments(ds, [(*first[:3], grade), *rest])
        with pytest.raises(ValidationError) as info:
            run(bad, self.CONFIGS[0])
        assert [issue.kind for issue in info.value.report.errors] == ["grade-range"]

    @pytest.mark.parametrize("run", [
        lambda ds, cfg: pir_sweep(ds, [cfg]),
        lambda ds, cfg: oracle.oracle_pir(ds, cfg, 0.0),
        lambda ds, cfg: oracle.oracle_grid(ds, cfg, (0.0, 0.1), (1, 2)),
    ], ids=["pir_sweep", "oracle_pir", "oracle_grid"])
    def test_verdict_without_list_pair_is_a_validation_error(self, run):
        ds = binary_pair_dataset([("q1", 3, 2, Verdict.A), ("q2", 1, 4, Verdict.B)])
        unpaired = dataclasses.replace(ds, list_pairs=ds.list_pairs[1:])
        with pytest.raises(ValidationError) as info:
            run(unpaired, self.CONFIGS[0])
        assert [issue.kind for issue in info.value.report.errors] == ["unpaired-preference"]

    @pytest.mark.parametrize("name", GATED_ANALYSES)
    def test_plain_string_verdict_is_a_validation_error_everywhere(self, name):
        # implicit_pir once read no grade, so it counted these verdicts (compared by identity)
        # as (6, 0, 0, 6, 0) at t = 0 where the enum verdicts count (0, 2, 4, 4, 2)
        ds = generate_synthetic(SynthSpec(6, 3, 4, n_preferences=12))
        plain = dataclasses.replace(ds, preferences=tuple(
            dataclasses.replace(p, verdict=p.verdict.value) for p in ds.preferences))
        with pytest.raises(ValidationError) as info:
            GATED_ANALYSES[name](plain, self.CONFIGS[0])
        assert [(i.kind, i.message) for i in info.value.report.errors] == [
            ("bad-field", f"verdict {plain.preferences[0].verdict!r} is not a Verdict")]


class TestScorePair:
    def test_single_rater_same_user_matches_grades(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=6, b2=6)})
        assert score_pair(ds, config(), "q1", "r1") == (1.0, 0.0)

    def test_other_users_three_raters(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=6, b2=6),
                                  "r2": dict(a1=2, a2=2, b1=6, b2=6),
                                  "r3": dict(a1=6, a2=6, b1=1, b2=1)})
        score_a, score_b = score_pair(ds, config(source=RatingSource.OTHER_USERS),
                                      "q1", "r3")
        assert score_a == pytest.approx(0.9)
        assert score_b == pytest.approx(0.0)

    def test_map_known_relevant_comes_from_pool(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=6, b1=6, b2=6)})
        cfg = config(metric=Metric.MAP, ap_norm=ApNorm.BY_KNOWN_RELEVANT)
        score_a, score_b = score_pair(ds, cfg, "q1", "r1")
        # one known relevant result in the pool; AP_A = 1*1*1 / 1
        assert score_a == pytest.approx(1.0)
        assert score_b == 0.0


# Each scale's grade -> unit rule as exact fractions, written from the scale's definition
# rather than read from ``scales``: relevance must be the float nearest their exact mean.
EXACT_UNITS = {
    RelevanceScale.SIX_POINT: lambda g: Fraction(6 - g, 5),
    RelevanceScale.R2_1: lambda g: Fraction(g <= 1),
    RelevanceScale.R2_3: lambda g: Fraction(g <= 3),
    RelevanceScale.R2_5: lambda g: Fraction(g <= 5),
    RelevanceScale.R3_2: lambda g: Fraction((g <= 2) + (g <= 4), 2),
    RelevanceScale.R3_1: lambda g: Fraction((g <= 1) + (g <= 5), 2),
}


class TestExactMean:
    """Every reader's relevance is the exact mean of its raters' units, correctly rounded."""

    @given(st.lists(st.tuples(*[st.integers(1, 6)] * 4), min_size=1, max_size=12),
           st.sampled_from(list(RelevanceScale)), st.sampled_from(list(RatingSource)),
           st.none() | st.integers(0, 11))
    # equal units whose float mean is not the unit: nine 0.8s (leave one out of ten) sum to
    # 7.199999999999999, and six (all of six) to 4.8, which over 6 is 0.7999999999999999
    @example([(2, 2, 3, 5)] * 10, RelevanceScale.SIX_POINT, RatingSource.OTHER_USERS, 0)
    @example([(2, 2, 3, 5)] * 6, RelevanceScale.SIX_POINT, RatingSource.SAME_USER, None)
    def test_relevance_is_the_exact_mean_rounded_once(self, rows, scale, source, reader):
        # one to twelve raters grade q1's four results; a reader is a rater or None
        raters = [f"r{i:02d}" for i in range(len(rows))]
        results = ("a1", "a2", "b1", "b2")
        ds = multi_rater_dataset({r: dict(zip(results, row)) for r, row in zip(raters, rows)})
        if reader is not None:
            reader %= len(rows)
        if reader is None:
            selected = rows
        elif source is RatingSource.SAME_USER:
            selected = [rows[reader]]
        else:
            selected = rows[:reader] + rows[reader + 1:]
        rater = None if reader is None else raters[reader]
        cfg = config(source=source, scale=scale)
        if not selected:
            with pytest.raises(MissingJudgment):
                resolve_preferences(ds, cfg, (2,), readers=[("q1", rater, None)])
            return
        [(_, lists)] = resolve_preferences(ds, cfg, (2,), readers=[("q1", rater, None)])
        unit = EXACT_UNITS[scale]
        means = [float(sum(unit(row[k]) for row in selected) / len(selected))
                 for k in range(len(results))]
        assert [x.hex() for x in (*lists.rels_a, *lists.rels_b)] == [x.hex() for x in means]


def consensus(dataset, config, lenient=False):
    """The engine's judged lists of every query for a None reader, as ``eval`` reads them."""
    readers = [(pair.query_id, None, pair.query_id) for pair in dataset.list_pairs]
    return resolve_preferences(dataset, config, (config.cutoff,), lenient, readers)


class TestConsensusLists:
    def test_mean_over_all_raters(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=6, b2=6),
                                  "r2": dict(a1=3, a2=3, b1=6, b2=6)})
        [(query_id, lists)] = consensus(ds, config())
        assert query_id == "q1"
        assert lists.rels_a == [pytest.approx(0.8), pytest.approx(0.8)]
        assert lists.rels_b == [0.0, 0.0]
        # without a preference rater the rating source has no one to single out
        assert consensus(ds, config(source=RatingSource.OTHER_USERS)) == [("q1", lists)]

    def test_missing_judgment_strict(self):
        ds = multi_rater_dataset({"r1": dict(a1=1, a2=1, b1=6, b2=6)})
        trimmed = with_judgments(ds, judgment_rows(ds)[:-1])
        for source in RatingSource:
            with pytest.raises(MissingJudgment, match=r"^\('q1', 'b2'\) has no judgment$"):
                consensus(trimmed, config(source=source))
            [(_, lists)] = consensus(trimmed, config(source=source), lenient=True)
            assert lists.rels_b[-1] == 0.0

    @pytest.mark.parametrize("source", list(RatingSource))
    def test_none_reader_reads_the_mean_over_all_raters(self, source):
        # every scale, by float.hex, against the exact mean of each result's units, rounded once
        dataset = generate_synthetic(SynthSpec(4, 3, 6, n_preferences=8, rater_noise=0.3,
                                               overlap=0.4))
        for scale in RelevanceScale:
            unit = EXACT_UNITS[scale]

            def mean(qid, rid):
                values = [unit(grade) for grade in dataset.judgments[qid, rid].values()]
                return float(sum(values) / len(values)).hex()

            cfg = config(source=source, scale=scale, cutoff=10)
            for pair, (qid, lists) in zip(dataset.list_pairs, consensus(dataset, cfg),
                                          strict=True):
                assert qid == pair.query_id
                assert [x.hex() for x in lists.rels_a] == [mean(qid, r) for r in pair.variant_a]
                assert [x.hex() for x in lists.rels_b] == [mean(qid, r) for r in pair.variant_b]


class TestMetricScoreDispatch:
    def test_every_metric_has_a_route(self):
        rels, pool = [1.0, 0.4], [1.0, 0.4, 0.2]
        for metric in Metric:
            kw = {"esl_n": 1.0} if metric is Metric.ESL else {}
            cfg = MetricConfig(metric=metric, discount=DiscountFunction(DiscountKind.RANK),
                               cutoff=2, **kw)
            value = metric_score(rels, pool, cfg)
            assert isinstance(value, float)

    def test_esl_requires_target(self):
        with pytest.raises(ValueError):
            MetricConfig(metric=Metric.ESL, discount=DiscountFunction(DiscountKind.RANK))
        for esl_n in (math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                MetricConfig(metric=Metric.ESL, discount=DiscountFunction(DiscountKind.RANK),
                             esl_n=esl_n)

    def test_esl_n_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            MetricConfig(metric=Metric.MAP, discount=DiscountFunction(DiscountKind.RANK), esl_n=1.0)

    def test_cutoff_range_enforced(self):
        with pytest.raises(ValueError):
            MetricConfig(metric=Metric.MAP, discount=DiscountFunction(DiscountKind.RANK), cutoff=11)
        with pytest.raises(ValueError):
            MetricConfig(metric=Metric.MAP, discount=DiscountFunction(DiscountKind.RANK), cutoff=0)


SIX_POINT_NUMERATORS, SIX_POINT_DEN = UNIT_NUMERATORS[RelevanceScale.SIX_POINT]
SIX_POINT_UNITS = tuple(k / SIX_POINT_DEN for k in SIX_POINT_NUMERATORS)
CONFLATED_UNITS = (1.0, 0.5, 0.0)
DISCOUNTS = [DiscountFunction.click_based() if kind is DiscountKind.CLICK_BASED
             else DiscountFunction(kind) for kind in DiscountKind]
WALK_CONFIGS = [
    MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE)),
    MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.NONE)),
    MetricConfig(Metric.MAP, DiscountFunction(DiscountKind.NONE),
                 ap_norm=ApNorm.BY_EVALUATED_COUNT),
    MetricConfig(Metric.MAP, DiscountFunction(DiscountKind.NONE), ap_norm=ApNorm.BY_KNOWN_RELEVANT),
    MetricConfig(Metric.ERR, DiscountFunction(DiscountKind.NONE)),
    MetricConfig(Metric.MRR, DiscountFunction(DiscountKind.NONE)),
    MetricConfig(Metric.ESL, DiscountFunction(DiscountKind.NONE), esl_n=1.0),
]
ESL_TARGETS = (0.5, 1.0, 2.5, 4.0)


@st.composite
def random_judged_lists(draw):
    """Judged lists with random relevance and pool, and a random set of cut-offs.

    Relevance comes from the six-point or the conflated unit values;
    the cut-offs are any non-empty subset of 1..depth in any order, and
    each rank's pool end is any prefix length of the pool.
    """
    rel = st.sampled_from(draw(st.sampled_from([SIX_POINT_UNITS, CONFLATED_UNITS])))
    depth = draw(st.integers(1, 10))
    rels_a = draw(st.lists(rel, min_size=depth, max_size=depth + 2))
    rels_b = draw(st.lists(rel, min_size=depth, max_size=depth + 2))
    pool = draw(st.lists(rel, max_size=2 * depth))
    cutoffs = tuple(draw(st.lists(st.integers(1, depth), min_size=1, unique=True)))
    pool_ends = tuple(draw(st.integers(0, len(pool))) for _ in range(depth))
    return JudgedLists(rels_a, rels_b, pool, pool_ends), cutoffs


def assert_scores_equal_the_reference(lists, config, cutoffs, scores):
    """Both variants' scores at every cut-off equal ``metric_score`` bit for bit, or are None."""
    for c, got_a, got_b in zip(cutoffs, *scores, strict=True):
        pool = lists.pool[: lists.pool_ends[c - 1]]
        for rels, got in ((lists.rels_a, got_a), (lists.rels_b, got_b)):
            want = metric_score(rels, pool, config.at_cutoff(c))
            if want is None:
                assert got is None
            else:
                assert got is not None and got.hex() == want.hex()


def scores_of(lists, config, cutoffs):
    """(scores_a, scores_b) of one config, from a one-config scorer."""
    [scores] = scorer([config], cutoffs)(lists)
    return scores


class TestScoreCutoffs:
    """The one-walk prefix scorers of a one-config group against the scalar metric."""

    @pytest.mark.parametrize("base", WALK_CONFIGS, ids=lambda cfg: cfg.label())
    @given(random_judged_lists(), st.sampled_from(DISCOUNTS), st.sampled_from(ESL_TARGETS))
    def test_equals_metric_score_at_every_cutoff(self, base, drawn, discount, esl_n):
        lists, cutoffs = drawn
        cfg = dataclasses.replace(base, discount=discount)
        if cfg.metric is Metric.ESL:
            cfg = dataclasses.replace(cfg, esl_n=esl_n)
        assert_scores_equal_the_reference(lists, cfg, cutoffs, scores_of(lists, cfg, cutoffs))

    def test_partial_unsorted_cutoffs_follow_the_given_order(self):
        lists = JudgedLists([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                            [0.0] * 7, [1.0, 0.0, 1.0, 1.0], (1, 2, 2, 3, 3, 4, 4))
        cfg = MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE))
        assert scores_of(lists, cfg, (7, 3)) == ([3 / 7, 2 / 3], [0.0, 0.0])

    def test_ndcg_exclusion_is_per_cutoff(self):
        # the pool holds no relevant result at c=1, one from c=3 on
        lists = JudgedLists([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], (1, 2, 3))
        cfg = MetricConfig(Metric.NDCG, DiscountFunction(DiscountKind.NONE))
        scores_a, scores_b = scores_of(lists, cfg, (1, 3))
        assert scores_a == [None, 1.0]
        assert scores_b == [None, 0.0]


def discount_instance(kind):
    """A newly built discount of ``kind``: equal to, but not, any other instance."""
    if kind is DiscountKind.CLICK_BASED:
        return DiscountFunction.click_based(dict(scales.EXAMPLE_CLICK_WEIGHTS))
    return DiscountFunction(kind)


@st.composite
def mixed_scopes(draw):
    """Configs of one scope over several metrics and discounts, each with its own instance.

    Discounts of one kind are equal but distinct objects, so they must
    group by value; MAP comes in both norms, ESL with several targets.
    """
    kinds = draw(st.lists(st.sampled_from(list(DiscountKind)), min_size=1, max_size=4))
    bases = draw(st.lists(st.sampled_from(WALK_CONFIGS), min_size=1, max_size=7))
    targets = draw(st.lists(st.sampled_from(ESL_TARGETS), min_size=len(bases),
                            max_size=len(bases)))
    configs = []
    for kind in kinds:
        for base, n in zip(bases, targets):
            esl_n = n if base.metric is Metric.ESL else None
            configs.append(dataclasses.replace(base, discount=discount_instance(kind),
                                               esl_n=esl_n))
    return configs


class TestScoreGroup:
    """A scope's scorer: every config of every discount group, in the configs' order."""

    @given(random_judged_lists(), mixed_scopes())
    def test_equals_metric_score_for_every_config(self, drawn, configs):
        lists, cutoffs = drawn
        for cfg, scores in zip(configs, scorer(configs, cutoffs)(lists), strict=True):
            assert_scores_equal_the_reference(lists, cfg, cutoffs, scores)

    def test_weights_are_taken_once_per_discount_value(self, monkeypatch):
        # equal discounts built apart form one group; scoring a verdict takes no weights
        taken = []
        original = DiscountFunction.weights

        def counted(discount, c):
            taken.append(discount.kind)
            return original(discount, c)

        monkeypatch.setattr(DiscountFunction, "weights", counted)
        configs = [dataclasses.replace(base, discount=discount_instance(kind))
                   for base in WALK_CONFIGS for kind in DiscountKind]
        score = scorer(configs, (1, 4, 10))
        assert sorted(taken) == sorted(DiscountKind)
        taken.clear()
        lists = JudgedLists([1.0, 0.4] * 5, [0.0, 0.6] * 5, [1.0, 0.0, 0.4, 0.6], (2,) + (4,) * 9)
        for _ in range(3):
            assert len(score(lists)) == len(configs)
        assert taken == []

    @pytest.mark.parametrize("scale", [RelevanceScale.SIX_POINT, RelevanceScale.R3_2])
    @pytest.mark.parametrize("source, lenient", [(RatingSource.SAME_USER, False),
                                                 (RatingSource.OTHER_USERS, True)])
    def test_sweep_tables_equal_metric_score(self, scale, source, lenient):
        # resolved tables, with lenient gaps where every other judgment is dropped
        dataset = generate_synthetic(SynthSpec(8, 3, 5, n_preferences=12, rater_noise=0.2))
        if lenient:
            dataset = with_judgments(dataset, judgment_rows(dataset)[::2])
        configs = [dataclasses.replace(base, discount=discount_instance(kind), scale=scale,
                                       rating_source=source)
                   for kind in DiscountKind for base in WALK_CONFIGS]
        cutoffs = (1, 4, 10)
        score = scorer(configs, cutoffs)
        for _, lists in resolve_preferences(dataset, configs[0], cutoffs, lenient):
            for cfg, scores in zip(configs, score(lists), strict=True):
                assert_scores_equal_the_reference(lists, cfg, cutoffs, scores)


def imported_modules(path):
    """Names of the prefeval modules one source file imports, relative or absolute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("prefeval."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level and module.split(".")[0] != "prefeval":
                continue
            module = module.removeprefix("prefeval").lstrip(".")
            if module:
                yield module.split(".")[0]
            else:  # from . import x
                yield from (a.name for a in node.names)


class TestLayering:
    def test_only_the_reference_imports_the_reference(self):
        # the engine, config and commands never reach the scalar metrics or the oracle
        sources = Path(scoring.__file__).parent.glob("*.py")
        importers = {path.stem for path in sources
                     if {"metrics", "oracle"} & set(imported_modules(path))}
        assert "oracle" in importers  # the scan sees oracle's own imports
        assert importers <= {"metrics", "oracle", "__init__"}

    def test_only_validation_checks_grades(self):
        # the engine reads validated grades through the unit tables, with no check of its own
        checks = {"check_grade", "conflate", "grade_to_unit"}
        importers = set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and checks & {a.name for a in node.names}:
                    importers.add(path.stem)
                elif isinstance(node, ast.Attribute) and node.attr in checks:
                    importers.add(path.stem)
        assert "data_io" in importers  # the scan sees the parser's check
        assert importers <= {"dataset", "data_io"}

    def test_only_validate_and_the_writer_run_the_id_rule(self):
        # one rule for what a record file can hold, so validate and write_dataset cannot disagree
        definers, callers, importers = set(), set(), set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name == "record_faults":
                    definers.add(path.stem)
                elif isinstance(node, ast.FunctionDef) and any(
                        isinstance(n, ast.Name) and n.id == "record_faults"
                        or isinstance(n, ast.Attribute) and n.attr == "record_faults"
                        for n in ast.walk(node)):
                    callers.add((path.stem, node.name))
                elif isinstance(node, ast.alias) and node.name == "record_faults":
                    importers.add(path.stem)
        assert definers == {"dataset"}
        assert callers == {("dataset", "validate"), ("data_io", "write_dataset")}
        assert importers == {"data_io"}

    def test_only_the_record_rule_checks_a_field(self):
        # the writer keeps no field loop of its own beside the rule
        namers = set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Name) and node.id == "field_fault"
                        or isinstance(node, ast.Attribute) and node.attr == "field_fault"
                        or isinstance(node, ast.alias) and node.name == "field_fault"):
                    namers.add(path.stem)
        assert namers == {"dataset"}

    def test_other_modules_import_only_the_engine_entry_points(self):
        # one scorer entry point, so a second one cannot come back unseen
        names = set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            if path.stem == "scoring":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in ("scoring",
                                                                        "prefeval.scoring"):
                    names |= {a.name for a in node.names}
                elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the whole module
                    names |= {a.name for a in node.names if a.name.endswith("scoring")}
        assert names == {"MissingJudgment", "resolve_preferences", "scorer", "_relevance",
                         "_missing"}

    def test_only_scoring_divides_to_make_a_relevance(self):
        # the unit tables are named only where they are written, read or handed to _relevance,
        # and only scoring (the rule's mean) divides anything bound from a grade or a table,
        # such as a count of graders: a second mean beside the one rule cannot come back unseen
        tables = {"UNIT_NUMERATORS"}
        namers, dividers = set(), set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            nodes = list(ast.walk(ast.parse(path.read_text())))
            if tables & {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
                         for n in nodes}:
                namers.add(path.stem)
            bindings = [(n.targets, n.value) for n in nodes if isinstance(n, ast.Assign)]
            bindings += [([n.target], n.iter) for n in nodes
                         if isinstance(n, (ast.For, ast.comprehension))]
            from_grades = set(tables)  # names bound, at any depth, from a grade or a unit table

            def reads_grades(node):
                return any(isinstance(n, ast.Name) and n.id in from_grades
                           or isinstance(n, ast.Attribute)
                           and n.attr in ("grade", "grades", "judgments")
                           for n in ast.walk(node))

            while True:
                bound = {n.id for targets, value in bindings if reads_grades(value)
                         for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)}
                if bound <= from_grades:
                    break
                from_grades |= bound
            if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div) and reads_grades(n)
                   for n in nodes):
                dividers.add(path.stem)
        assert namers == {"scales", "scoring", "oracle", "implicit"}
        assert dividers == {"scoring"}  # the scan sees the rule's mean

    def test_every_dataset_analysis_is_in_the_gate_test(self):
        # each public function that takes a dataset, but the gate and the writer, validates it
        # first; a new one cannot skip that unseen
        takers = set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.args.args and node.args.args[0].arg == "dataset"):
                    takers.add(node.name)
        assert "pir_sweep" in takers  # the scan sees the engine
        assert takers - {"validate", "record_faults", "write_dataset"} == set(GATED_ANALYSES)

    def test_only_data_io_reads_a_file(self):
        # datasets and click tables are read in one module, so their byte-fault rule is one
        readers = set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and (
                        isinstance(node.func, ast.Name) and node.func.id == "open"
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("open", "read_bytes", "read_text")):
                    readers.add(path.stem)
        assert readers == {"data_io"}

    def test_only_the_session_measures_read_click_order(self):
        # the loader keeps clicks in file order; measure_session alone orders them
        namers = set()
        for path in Path(scoring.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Name) and node.id == "CLICK_ORDER"
                        or isinstance(node, ast.Attribute) and node.attr == "CLICK_ORDER"
                        or isinstance(node, ast.alias) and node.name == "CLICK_ORDER"):
                    namers.add(path.stem)
        assert namers == {"dataset", "implicit"}
