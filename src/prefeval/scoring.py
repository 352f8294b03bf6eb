"""Turns dataset grades into judged relevance lists and metric scores.

This is the substrate both the sweep engine and the reference oracle
build on: per-result unit relevance under a scale and rating source (or,
with no preference rater, the mean over all raters), the two judged lists
of a query truncated to the cut-off, the judged pool for normalization,
and the single-list metric dispatch.  The sweep engine resolves each
verdict's lists once for all cut-offs (:func:`resolve_preferences`) and
scores every row from that table.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import metrics
from .config import Metric, MetricConfig, RatingSource
from .dataset import EvaluationDataset, RankedListPair, Verdict
from .metrics import ApNorm, ExcludedQuery
from .scales import RelevanceScale, conflate

ScoredPair = tuple[float, float, Verdict]


class MissingJudgment(Exception):
    """A grade needed under the active rating source does not exist.

    Raised in strict mode; lenient scoring substitutes relevance 0.0
    (the unit value of the worst grade).
    """


def unit_relevance(
    dataset: EvaluationDataset,
    query_id: str,
    result_id: str,
    scale: RelevanceScale,
    source: RatingSource,
    rater_id: Optional[str],
    lenient: bool = False,
) -> float:
    """Unit relevance of one result as seen by one preference rater.

    Grades are conflated onto the scale per rater first; OTHER_USERS then
    averages the conflated values of all raters except ``rater_id``.  With
    no rater (``None``) there is no one to single out, and every source
    averages over all raters.
    """
    grades = dataset.grades.get((query_id, result_id), {})
    if source is RatingSource.SAME_USER and rater_id is not None:
        grade = grades.get(rater_id)
        if grade is None:
            if lenient:
                return 0.0
            raise MissingJudgment(
                f"rater {rater_id!r} has no judgment for ({query_id!r}, {result_id!r})"
            )
        return conflate(grade, scale)
    others = [conflate(g, scale) for r, g in grades.items() if r != rater_id]
    if not others:
        if lenient:
            return 0.0
        if rater_id is None:
            raise MissingJudgment(f"({query_id!r}, {result_id!r}) has no judgment")
        raise MissingJudgment(
            f"no rater besides {rater_id!r} judged ({query_id!r}, {result_id!r})"
        )
    return sum(others) / len(others)


def judged_lists(
    dataset: EvaluationDataset,
    query_id: str,
    rater_id: Optional[str],
    config: MetricConfig,
    lenient: bool = False,
) -> tuple[list[float], list[float], list[float]]:
    """Relevance lists of both variants at the configured cut-off, plus the pool.

    Relevance is as :func:`unit_relevance` gives it for ``rater_id``; a
    ``rater_id`` of ``None`` gives the mean over all raters, as plain
    metric tables use it.  The pool holds the unit relevance of every
    distinct result visible in either variant's top ``config.cutoff``, in
    first-occurrence order; it feeds NDCG normalization and the
    known-relevant count of classical AP.  Each distinct result is looked
    up once.
    """
    pair = dataset.pair_by_query[query_id]
    top_a = pair.variant_a[: config.cutoff]
    top_b = pair.variant_b[: config.cutoff]
    values = {
        rid: unit_relevance(dataset, query_id, rid, config.scale, config.rating_source,
                            rater_id, lenient)
        for rid in dict.fromkeys((*top_a, *top_b))
    }
    return [values[rid] for rid in top_a], [values[rid] for rid in top_b], list(values.values())


def pool_ranks(pair: RankedListPair, depth: int) -> list[int]:
    """First rank of each result in the pool :func:`judged_lists` forms at ``depth``.

    Entry i is the rank at which the i-th pooled result first shows in
    either variant, so the pool at a cut-off c <= ``depth`` holds exactly
    the results whose first rank is at most c.
    """
    first: dict[str, int] = {}
    for ranking in (pair.variant_a[:depth], pair.variant_b[:depth]):
        for rank, rid in enumerate(ranking, start=1):
            first[rid] = min(first.get(rid, rank), rank)
    return list(first.values())


def metric_score(
    rels: Sequence[float],
    pool: Sequence[float],
    config: MetricConfig,
) -> float:
    """Score one judged list under the configured metric."""
    c = config.cutoff
    m = config.metric
    if m is Metric.PRECISION:
        return metrics.precision_at(rels, c, discount=config.discount)
    if m is Metric.NDCG:
        return metrics.ndcg(rels, pool, c, config.discount)
    if m is Metric.MAP:
        known: Optional[int] = None
        if config.ap_norm is ApNorm.BY_KNOWN_RELEVANT:
            known = sum(1 for v in pool if v > 0)
        return metrics.average_precision(
            rels, c, config.discount, config.ap_norm, known_relevant=known
        )
    if m is Metric.ERR:
        return metrics.err(rels, c, config.discount)
    if m is Metric.MRR:
        return metrics.reciprocal_rank(
            rels, c, config.discount, relevant_threshold=config.rr_threshold
        )
    if m is Metric.ESL:
        assert config.esl_n is not None
        return metrics.esl(rels, c, config.discount, config.esl_n)
    raise ValueError(f"unknown metric {m!r}")


def score_pair(
    dataset: EvaluationDataset,
    config: MetricConfig,
    query_id: str,
    rater_id: str,
    lenient: bool = False,
) -> tuple[float, float]:
    """Metric scores (variant A, variant B) for one (query, preference rater).

    Raises ExcludedQuery when the configuration cannot score the query
    (zero ideal gain, no known relevant result) and MissingJudgment for
    rating-source gaps in strict mode.
    """
    rels_a, rels_b, pool = judged_lists(dataset, query_id, rater_id, config, lenient)
    return metric_score(rels_a, pool, config), metric_score(rels_b, pool, config)


class ResolvedPreference(NamedTuple):
    """One preference verdict with its judged lists resolved down to a depth.

    ``pool`` is the judged pool at that depth ordered by first rank, so
    ``pool[:pool_ends[c]]`` holds the pool of cut-off c.  Only its order
    differs from the pool :func:`judged_lists` forms at c, and the metrics
    use a pool as a multiset (sorted, or counted).
    """

    verdict: Verdict
    rels_a: list[float]
    rels_b: list[float]
    pool: list[float]
    pool_ends: dict[int, int]


def resolve_preferences(
    dataset: EvaluationDataset,
    config: MetricConfig,
    cutoffs: Sequence[int],
    lenient: bool = False,
) -> list[ResolvedPreference]:
    """Judged lists of every verdict in the config's query scope, resolved once.

    Only the config's scale, rating source and query filter matter, so
    every config sharing them can score from the same table.  Each
    verdict's lists are resolved once, down to ``max(cutoffs)``, with one
    :func:`unit_relevance` lookup per distinct result.  The lists stay at
    that depth, since metrics ignore entries beyond their cut-off, and a
    per-query table of first ranks turns each cut-off's pool into a
    prefix of the deepest one.  Queries outside the query filter are
    skipped.
    """
    deepest = config.at_cutoff(max(cutoffs))
    layouts: dict[str, tuple[list[int], dict[int, int]]] = {}
    resolved = []
    for p in dataset.preferences:
        if config.query_filter is not None:
            if dataset.query_by_id[p.query_id].query_type not in config.query_filter:
                continue
        rels_a, rels_b, pool = judged_lists(dataset, p.query_id, p.rater_id, deepest, lenient)
        layout = layouts.get(p.query_id)
        if layout is None:
            ranks = pool_ranks(dataset.pair_by_query[p.query_id], deepest.cutoff)
            order = sorted(range(len(ranks)), key=ranks.__getitem__)
            ends = {c: sum(1 for r in ranks if r <= c) for c in cutoffs}
            layout = layouts[p.query_id] = order, ends
        order, ends = layout
        resolved.append(
            ResolvedPreference(p.verdict, rels_a, rels_b, [pool[i] for i in order], ends)
        )
    return resolved


def score_resolved(
    resolved: Sequence[ResolvedPreference], config: MetricConfig
) -> tuple[list[ScoredPair], int]:
    """(score_a, score_b, verdict) of each resolved verdict at the config's cut-off.

    Returns the pairs in order and the number of verdicts the config had
    to exclude (ExcludedQuery, e.g. zero ideal gain).
    """
    pairs: list[ScoredPair] = []
    excluded = 0
    c = config.cutoff
    for verdict, rels_a, rels_b, deepest_pool, pool_ends in resolved:
        pool = deepest_pool[: pool_ends[c]]
        try:
            pairs.append(
                (metric_score(rels_a, pool, config), metric_score(rels_b, pool, config), verdict)
            )
        except ExcludedQuery:
            excluded += 1
    return pairs, excluded
