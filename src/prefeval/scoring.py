"""Judged relevance lists from dataset grades, and the engine that scores them.

Resolution is what the engine and the reference oracle share: per-result
unit relevance under a scale and rating source (or, with no preference
rater, the mean over all raters), and :func:`judged_lists`, one walk down
a query's two lists that checks their depth and yields both judged lists,
the judged pool in first-rank order and the pool's end at every rank.
Scoring is the engine's alone, and the only scorer any command runs:
:func:`resolve_preferences` pairs each verdict with its judged lists,
resolved once for all cut-offs, and :func:`score_cutoffs` scores every
cut-off of both lists in one walk per list.  Nothing here imports the
scalar reference, :mod:`prefeval.metrics`; only the oracle scores
through it (:func:`prefeval.oracle.metric_score`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .config import ERR_GRADE_MAX, ApNorm, Metric, MetricConfig, RatingSource
from .dataset import EvaluationDataset, Verdict
from .scales import UNITS, RelevanceScale


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

    The mean of the selected raters' grades, each conflated onto the scale
    first, in rater order.  SAME_USER selects ``rater_id`` alone,
    OTHER_USERS every rater except ``rater_id``.  With no rater (``None``)
    there is no one to single out, and every source selects all raters.
    Validated grades are read through the scale's unit table, unchecked.
    """
    grades = dataset.grades.get((query_id, result_id), {})
    units = UNITS[scale]
    same_user = source is RatingSource.SAME_USER and rater_id is not None
    if same_user:
        values = [units[grades[rater_id] - 1]] if rater_id in grades else []
    else:
        values = [units[g - 1] for r, g in grades.items() if r != rater_id]
    if values:
        return sum(values) / len(values)
    if lenient:
        return 0.0
    if same_user:
        raise MissingJudgment(
            f"rater {rater_id!r} has no judgment for ({query_id!r}, {result_id!r})")
    if rater_id is None:
        raise MissingJudgment(f"({query_id!r}, {result_id!r}) has no judgment")
    raise MissingJudgment(f"no rater besides {rater_id!r} judged ({query_id!r}, {result_id!r})")


class JudgedLists(NamedTuple):
    """Both variants' judged lists of one query down to a depth, and their pool.

    ``rels_a`` and ``rels_b`` hold unit relevance by rank, ``pool`` the
    judged pool of that depth in first-rank order; ``pool[:pool_ends[c - 1]]``
    is exactly the pool of cut-off c, for every c from 1 to the depth.
    """

    rels_a: list[float]
    rels_b: list[float]
    pool: list[float]
    pool_ends: tuple[int, ...]


def judged_lists(
    dataset: EvaluationDataset,
    query_id: str,
    rater_id: Optional[str],
    config: MetricConfig,
    lenient: bool = False,
) -> JudgedLists:
    """Judged lists of both variants at the configured cut-off, plus the pool.

    Relevance is as :func:`unit_relevance` gives it for ``rater_id``; a
    ``rater_id`` of ``None`` gives the mean over all raters, as plain
    metric tables use it.  A variant shorter than the cut-off raises
    ValueError.  One walk down the ranks builds the pool (A1, B1, A2, B2,
    ..., first occurrence kept) and its end at every rank; NDCG
    normalization and the known-relevant count of classical AP use it as
    a multiset.  Each distinct result is looked up once, A's results
    first, then B's unseen ones.
    """
    pair = dataset.pair_by_query[query_id]
    depth = config.cutoff
    for ranked in (pair.variant_a, pair.variant_b):
        if depth > len(ranked):
            raise ValueError(f"cut-off {depth} exceeds list length {len(ranked)}")
    top_a, top_b = pair.variant_a[:depth], pair.variant_b[:depth]
    pooled: dict[str, None] = {}
    ends = []
    for rid_a, rid_b in zip(top_a, top_b):
        pooled[rid_a] = pooled[rid_b] = None
        ends.append(len(pooled))
    values = {
        rid: unit_relevance(dataset, query_id, rid, config.scale, config.rating_source,
                            rater_id, lenient)
        for rid in dict.fromkeys((*top_a, *top_b))
    }
    return JudgedLists([values[rid] for rid in top_a], [values[rid] for rid in top_b],
                       [values[rid] for rid in pooled], tuple(ends))


def resolve_preferences(
    dataset: EvaluationDataset,
    config: MetricConfig,
    cutoffs: Sequence[int],
    lenient: bool = False,
) -> list[tuple[Verdict, JudgedLists]]:
    """Every verdict in the config's query scope with its judged lists, resolved once.

    Only the config's scale, rating source and query filter matter, so
    every config sharing them can score from the same table.  Each
    verdict's lists are resolved once, down to ``max(cutoffs)``, with one
    :func:`unit_relevance` lookup per distinct result; metrics ignore
    entries beyond their cut-off, and each cut-off's pool is a prefix of
    the deepest one.  Consecutive verdicts share equal pool ends.  Queries
    outside the query filter are skipped.
    """
    dataset.grades  # validates a dataset nobody validated, before any pair is read
    deepest = config.at_cutoff(max(cutoffs))
    resolved: list[tuple[Verdict, JudgedLists]] = []
    for p in dataset.preferences:
        if config.query_filter is not None:
            if dataset.query_by_id[p.query_id].query_type not in config.query_filter:
                continue
        lists = judged_lists(dataset, p.query_id, p.rater_id, deepest, lenient)
        if resolved and resolved[-1][1].pool_ends == lists.pool_ends:
            lists = lists._replace(pool_ends=resolved[-1][1].pool_ends)
        resolved.append((p.verdict, lists))
    return resolved


def _prefix_gains(rels: Sequence[float], weights: Sequence[float],
                  ends: Sequence[int]) -> list[float]:
    """``math.fsum`` of ``rel * weight`` over ``rels[:end]`` for each end in ``ends``."""
    products = [r * w for r, w in zip(rels, weights)]
    return [math.fsum(products[:end]) for end in ends]


def score_cutoffs(
    lists: JudgedLists, config: MetricConfig, cutoffs: Sequence[int]
) -> tuple[list[Optional[float]], list[Optional[float]]]:
    """Scores of both judged lists at every cut-off, none deeper than the lists.

    Entry ``k`` of each list equals the reference
    :func:`prefeval.oracle.metric_score` of that variant at ``cutoffs[k]``
    bit for bit, or is None where the config excludes the lists there
    (where the scalar metric returns None too), for both variants alike.
    Each list is walked once for all cut-offs: precision, NDCG and ESL
    read ``math.fsum`` over prefixes of one list of ``rel * weight``
    products, AP and ERR read running totals at each cut-off, and MRR
    reads the first relevant rank.  Each cut-off's normalizer (NDCG's
    ideal DCG, classical AP's known-relevant count) is computed once from
    ``pool[:pool_ends[c - 1]]`` for both variants.  :func:`judged_lists`
    checked the depth, and nothing here calls the scalar metrics.
    """
    m = config.metric
    deepest = max(cutoffs)
    weights = config.discount.weights(deepest)

    if m is Metric.PRECISION:
        def score(rels):
            return [gain / c for gain, c in zip(_prefix_gains(rels, weights, cutoffs), cutoffs)]
    elif m is Metric.NDCG:
        ideals = []
        for c in cutoffs:
            best = sorted(lists.pool[: lists.pool_ends[c - 1]], reverse=True)[:c]
            ideals.append(math.fsum([v * w for v, w in zip(best, weights)]))

        def score(rels):
            return [None if ideal == 0.0 else min(1.0, gain / ideal)
                    for gain, ideal in zip(_prefix_gains(rels, weights, cutoffs), ideals)]
    elif m is Metric.MAP:
        divisors: Sequence[int] = cutoffs
        if config.ap_norm is ApNorm.BY_KNOWN_RELEVANT:
            divisors = [sum(1 for v in lists.pool[: lists.pool_ends[c - 1]] if v > 0)
                        for c in cutoffs]

        def score(rels):
            running = []  # the sum through each rank
            total = cumulated = 0.0
            for i in range(deepest):
                cumulated += rels[i]
                if rels[i]:
                    total += rels[i] * cumulated * weights[i]
                running.append(total)
            return [running[c - 1] / float(d) if d > 0 else None
                    for c, d in zip(cutoffs, divisors)]
    elif m is Metric.ERR:
        denom = 2.0 ** ERR_GRADE_MAX

        def score(rels):
            running = []
            total, continue_p = 0.0, 1.0
            for i in range(deepest):
                satisfied = (2.0 ** (ERR_GRADE_MAX * rels[i]) - 1.0) / denom
                total += weights[i] * continue_p * satisfied
                continue_p *= 1.0 - satisfied
                running.append(total)
            return [running[c - 1] for c in cutoffs]
    elif m is Metric.MRR:
        def score(rels):
            first = next((i for i in range(deepest) if rels[i] > 0), deepest)
            return [weights[first] if first < c else 0.0 for c in cutoffs]
    elif m is Metric.ESL:
        n = config.esl_n  # MetricConfig holds it finite and positive
        assert n is not None

        def score(rels):
            # the target's rank, found once, then capped at each cut-off
            reach, cumulated = deepest, 0.0
            for i in range(deepest):
                cumulated += rels[i]
                if cumulated >= n:
                    reach = i + 1
                    break
            reaches = [min(reach, c) for c in cutoffs]
            return [1.0 - (r - gain) / c
                    for r, gain, c in zip(reaches, _prefix_gains(rels, weights, reaches), cutoffs)]
    else:
        raise ValueError(f"unknown metric {m!r}")
    return score(lists.rels_a), score(lists.rels_b)
