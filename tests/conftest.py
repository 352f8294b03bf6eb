"""Shared fixture builders: hand-sized datasets with known scores."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, settings

from prefeval.dataset import (
    Click,
    EvaluationDataset,
    Language,
    PreferenceJudgment,
    Query,
    QueryType,
    RankedListPair,
    Session,
    Variant,
    Verdict,
)
from prefeval.oracle import judged_lists, metric_score
from prefeval.scoring import resolve_preferences, scorer

settings.register_profile(
    "suite",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

RATER = "r1"


def score_pair(dataset, config, query_id, rater_id):
    """Reference scores (variant A, variant B) of one (query, preference rater)."""
    rels_a, rels_b, pool = judged_lists(dataset, query_id, rater_id, config)
    return metric_score(rels_a, pool, config), metric_score(rels_b, pool, config)


def scored_pairs(dataset, config, lenient=False):
    """(score pairs, excluded count) of one config at its own cut-off, in dataset order."""
    cutoffs = (config.cutoff,)
    score = scorer([config], cutoffs)
    pairs, excluded = [], 0
    for verdict, lists in resolve_preferences(dataset, config, cutoffs, lenient):
        [((score_a,), (score_b,))] = score(lists)
        if score_a is None:
            excluded += 1
        else:
            pairs.append((score_a, score_b, verdict))
    return pairs, excluded


def count_grade_reads(dataset, calls):
    """Replace ``dataset``'s validated grade index by a copy that logs every key read into ``calls``."""

    class Counted(dict):
        def get(self, key, default=None):
            calls.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            calls.append(key)
            return super().__getitem__(key)

    dataset.__dict__["grades"] = Counted(dataset.grades)
    return dataset


def judgment_rows(dataset) -> list[tuple]:
    """``dataset``'s judgments as (query_id, result_id, rater_id, grade) rows, in order."""
    return [(qid, rid, rater, grade) for (qid, rid), raters in dataset.judgments.items()
            for rater, grade in raters.items()]


def with_judgments(dataset, rows):
    """``dataset`` judged by the (query_id, result_id, rater_id, grade) ``rows``.

    Its snippet flags are kept where their judgment still is.
    """
    index = {}
    for qid, rid, rater, grade in rows:
        index.setdefault((qid, rid), {})[rater] = grade
    snippets = {key: kept for key, flags in dataset.snippets.items()
                if (kept := {r: f for r, f in flags.items() if r in index.get(key, {})})}
    return dataclasses.replace(dataset, judgments=index, snippets=snippets)


def make_query(qid: str, query_type: QueryType = QueryType.INFORMATIONAL) -> Query:
    return Query(
        id=qid,
        text=f"query {qid}",
        info_need=f"information need behind {qid}",
        language=Language.EN,
        query_type=query_type,
    )


def binary_pair_dataset(rows, list_len=10, shared_results=False):
    """Dataset from (query_id, ones_a, ones_b, verdict) rows of binary relevance.

    ``ones_x`` is the number of relevant results (grade 1) in the top
    ``list_len`` of the variant, placed first; the rest get grade 6.
    With ``shared_results`` both variants rank the same result ids
    (variant B reversed); otherwise the variants are disjoint.
    """
    queries, pairs, judgments, preferences = [], [], {}, []
    for qid, ones_a, ones_b, verdict in rows:
        queries.append(make_query(qid))
        ids_a = tuple(f"{qid}-a{r:02d}" for r in range(1, list_len + 1))
        if shared_results:
            ids_b = tuple(reversed(ids_a))
        else:
            ids_b = tuple(f"{qid}-b{r:02d}" for r in range(1, list_len + 1))
        pairs.append(RankedListPair(query_id=qid, variant_a=ids_a, variant_b=ids_b))
        graded = {}
        for i, rid in enumerate(ids_a):
            graded[rid] = 1 if i < ones_a else 6
        if not shared_results:
            for i, rid in enumerate(ids_b):
                graded[rid] = 1 if i < ones_b else 6
        for rid, grade in graded.items():
            judgments[qid, rid] = {RATER: grade}
        if verdict is not None:
            preferences.append(
                PreferenceJudgment(query_id=qid, rater_id=RATER, verdict=verdict)
            )
    return EvaluationDataset(
        queries=tuple(queries),
        judgments=judgments,
        list_pairs=tuple(pairs),
        preferences=tuple(preferences),
    )


@pytest.fixture
def sample_pir_dataset() -> EvaluationDataset:
    """Five queries whose precision@10 pairs are the classic worked example:

    (0.4, 0.7) pref B; (0.5, 0.4) equal; (0.5, 0.4) pref B;
    (0.8, 0.4) pref A; (0.6, 0.4) pref A.
    """
    return binary_pair_dataset(
        [
            ("q1", 4, 7, Verdict.B),
            ("q2", 5, 4, Verdict.EQUAL),
            ("q3", 5, 4, Verdict.B),
            ("q4", 8, 4, Verdict.A),
            ("q5", 6, 4, Verdict.A),
        ]
    )


@pytest.fixture
def two_query_map_dataset() -> EvaluationDataset:
    """Two queries of five binary-judged results each.

    Variant A carries the patterns [1,1,0,1,0] and [0,0,1,1,1]; variant B
    ranks the same results in reverse order.
    """
    graded = {"qa": (1, 1, 0, 1, 0), "qb": (0, 0, 1, 1, 1)}
    queries, pairs, judgments = [], [], {}
    for qid, bits in graded.items():
        queries.append(make_query(qid))
        ids = tuple(f"{qid}-d{r}" for r in range(1, 6))
        pairs.append(
            RankedListPair(query_id=qid, variant_a=ids, variant_b=tuple(reversed(ids)))
        )
        for rid, bit in zip(ids, bits):
            judgments[qid, rid] = {RATER: 1 if bit else 6}
    return EvaluationDataset(
        queries=tuple(queries),
        judgments=judgments,
        list_pairs=tuple(pairs),
    )


def make_session(qid="q1", rater=RATER, variant=Variant.A, start=100, end=200,
                 click_ranks_ts=(), satisfied=None) -> Session:
    clicks = tuple(Click(rank=r, ts=ts) for r, ts in click_ranks_ts)
    return Session(query_id=qid, rater_id=rater, variant=variant,
                   start_ts=start, end_ts=end, clicks=clicks, satisfied=satisfied)
