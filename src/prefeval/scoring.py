"""Judged relevance lists from dataset grades, and the engine that scores them.

Relevance has one rule, :func:`_relevance`: the exact mean of the
selected raters' units, an integer sum of unit numerators divided once.
Every command turns grades into judged lists through one walk,
:func:`resolve_preferences`: it resolves each query once, sums each
distinct result's numerators once, and gives each reader (a verdict's
rater, or ``eval``'s mean over all raters) one O(1) relevance per
distinct result and judged lists for all cut-offs.
Scoring is the engine's alone, and :func:`scorer` is the only scorer any
command runs.  Built once per scope, it groups the scope's configs by
discount and binds each discount's weights; the function it returns
scores every cut-off of both of a verdict's lists for every config,
taking what every discount reads alike (each cut-off's NDCG ideal and
known-relevant count, AP's and ERR's per-rank factors, the cumulated
relevance) once, and one list of ``rel * weight`` products per list and
discount.
Nothing here imports the scalar reference, :mod:`prefeval.metrics`; only
the oracle scores through it, from judged lists it walks itself.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import fsum
from operator import mul
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .config import ERR_GRADE_MAX, ApNorm, Metric, MetricConfig, RatingSource
from .dataset import EvaluationDataset
from .scales import UNIT_NUMERATORS, DiscountFunction


class MissingJudgment(Exception):
    """A grade needed under the active rating source does not exist.

    Raised in strict mode; lenient scoring substitutes relevance 0.0
    (the unit value of the worst grade).
    """


def _relevance(graded: tuple[Mapping[str, int], Optional[int]],
               scale: tuple[Sequence[int], int], same_user: bool,
               rater_id: Optional[str]) -> Optional[float]:
    """The one relevance rule: the exact mean of the selected raters' units; None if none.

    ``graded`` holds one (query, result)'s ``{rater: grade}`` and the sum S
    of its graders' unit numerators, or None for this call to sum them;
    ``scale`` is a scale's numerators and denominator (``UNIT_NUMERATORS``).
    A None rater selects every rater, under either source.  Otherwise
    same-user selects ``rater_id`` alone, and other-users every rater but
    ``rater_id``.  The mean of n selected units is one correctly rounded
    integer division, ``(S - own numerator) / (den * n)``, so it depends on
    the grades alone: raters who agree give every reader the same float.
    """
    by_rater, total = graded
    numerators, den = scale
    own = by_rater.get(rater_id)
    if same_user and rater_id is not None:
        return None if own is None else numerators[own - 1] / den
    if total is None:
        total = sum([numerators[g - 1] for g in by_rater.values()])
    n = len(by_rater)
    if own is not None:
        total, n = total - numerators[own - 1], n - 1
    return total / (den * n) if n else None


def _missing(query_id: str, result_id: str, same_user: bool,
             rater_id: Optional[str]) -> MissingJudgment:
    if rater_id is None:
        return MissingJudgment(f"({query_id!r}, {result_id!r}) has no judgment")
    if same_user:
        return MissingJudgment(
            f"rater {rater_id!r} has no judgment for ({query_id!r}, {result_id!r})")
    return MissingJudgment(f"no rater besides {rater_id!r} judged ({query_id!r}, {result_id!r})")


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


def resolve_preferences(
    dataset: EvaluationDataset,
    config: MetricConfig,
    cutoffs: Sequence[int],
    lenient: bool = False,
    readers: Optional[Iterable[tuple[str, Optional[str], Any]]] = None,
) -> list[tuple[Any, JudgedLists]]:
    """``(tag, judged lists)`` for each reader in the config's query scope, in one pass.

    A reader is ``(query id, rater id or None, tag)``; by default each
    verdict of the dataset, tagged by its verdict.  Only the config's
    scale, rating source and query filter matter, so configs sharing them
    share the table.  Lists reach ``max(cutoffs)``; metrics ignore entries
    beyond their cut-off.  Readers are grouped by query id, whatever their
    order: a query outside the query filter is skipped, any other is
    resolved once: the depth check, the pool in first-rank order (A1, B1,
    A2, B2, ..., first occurrence kept) and its ends, and each distinct
    result's ``{rater: grade}`` from the grade index, A's first, then B's
    unseen ones, with its numerator sum unless the scope is same-user.
    Each reader then takes one O(1) :func:`_relevance` per distinct
    result.  Entries come in reader order; the first missing relevance in
    reader order raises MissingJudgment, or reads 0.0 when ``lenient``.
    """
    grades = dataset.grades  # validates a dataset nobody validated, before any pair is read
    if readers is None:
        readers = ((p.query_id, p.rater_id, p.verdict) for p in dataset.preferences)
    depth = max(cutoffs)
    scale = UNIT_NUMERATORS[config.scale]
    numerators = scale[0]
    same_user = config.rating_source is RatingSource.SAME_USER
    scope = config.query_filter
    by_query: dict[str, list] = {}  # each query's readers as (position, rater, tag)
    for i, (query_id, rater, tag) in enumerate(readers):
        by_query.setdefault(query_id, []).append((i, rater, tag))
    resolved: list = [None] * sum(map(len, by_query.values()))
    try:
        for query_id, run in by_query.items():
            if scope is not None and dataset.query_by_id[query_id].query_type not in scope:
                continue
            pair = dataset.pair_by_query[query_id]
            for ranked in (pair.variant_a, pair.variant_b):
                if depth > len(ranked):
                    raise ValueError(f"cut-off {depth} exceeds list length {len(ranked)}")
            top_a, top_b = pair.variant_a[:depth], pair.variant_b[:depth]
            distinct = list(dict.fromkeys((*top_a, *top_b)))
            graded = [(by_rater, None if same_user
                       else sum([numerators[g - 1] for g in by_rater.values()]))
                      for by_rater in (grades.get((query_id, rid), {}) for rid in distinct)]
            at = {rid: i for i, rid in enumerate(distinct)}
            pooled: dict[int, None] = {}  # distinct-result indexes in first-rank order
            by_rank = []
            for rid_a, rid_b in zip(top_a, top_b):
                pooled[at[rid_a]] = pooled[at[rid_b]] = None
                by_rank.append(len(pooled))
            ends = tuple(by_rank)
            at_a, at_b = [at[rid] for rid in top_a], [at[rid] for rid in top_b]
            at_pool = list(pooled)
            for i, rater, tag in run:
                values = [_relevance(summary, scale, same_user, rater) for summary in graded]
                if None in values:
                    if not lenient:
                        raise _missing(query_id, distinct[values.index(None)], same_user, rater)
                    values = [0.0 if v is None else v for v in values]
                take = values.__getitem__
                resolved[i] = (tag, JudgedLists(list(map(take, at_a)), list(map(take, at_b)),
                                                list(map(take, at_pool)), ends))
    except (MissingJudgment, ValueError):
        if len(by_query) > 1:  # one reader at a time, so the first fault in reader order raises
            for _, query_id, rater, tag in sorted((i, query_id, rater, tag) for query_id, run
                                                  in by_query.items() for i, rater, tag in run):
                resolve_preferences(dataset, config, cutoffs, lenient, [(query_id, rater, tag)])
        raise
    return [entry for entry in resolved if entry is not None]


class _ListParts(NamedTuple):
    """One judged list's discount-independent parts by rank; None where no metric reads them."""

    cumulated: Optional[array]  # relevance summed through each rank (MAP, MRR, ESL)
    rel_running: Optional[array]  # MAP: rel * cumulated relevance
    satisfied: Optional[array]  # ERR: satisfaction
    continued: Optional[array]  # ERR: chance that no earlier rank satisfied


# Enum members bound once: an enum class attribute costs ten plain name lookups.
_PRECISION, _NDCG, _MAP, _ERR, _MRR, _ESL = (
    Metric.PRECISION, Metric.NDCG, Metric.MAP, Metric.ERR, Metric.MRR, Metric.ESL)
_KNOWN_RELEVANT = ApNorm.BY_KNOWN_RELEVANT

Scores = list[tuple[list[Optional[float]], list[Optional[float]]]]


def _list_parts(rels: Sequence[float], metrics: frozenset[Metric]) -> _ListParts:
    cumulated = rel_running = satisfied = continued = None
    if _MAP in metrics or _MRR in metrics or _ESL in metrics:
        cumulated = array("d", accumulate(rels))
    if _MAP in metrics:
        rel_running = array("d", map(mul, rels, cumulated))
    if _ERR in metrics:
        denom = 2.0 ** ERR_GRADE_MAX
        satisfied = array("d", [(2.0 ** (ERR_GRADE_MAX * rel) - 1.0) / denom for rel in rels])
        continued = array("d", accumulate([1.0 - s for s in satisfied], mul, initial=1.0))
    return _ListParts(cumulated, rel_running, satisfied, continued)


def scorer(configs: Sequence[MetricConfig],
           cutoffs: Sequence[int]) -> Callable[[JudgedLists], Scores]:
    """The one scorer of every command: judged lists to each config's scores at every cut-off.

    Built once per scope, it groups ``configs`` by discount value and
    takes each discount's weights, the set of metrics and whether any
    classical AP needs a known-relevant count.  The function it returns
    maps one verdict's :class:`JudgedLists` to one ``(scores_a,
    scores_b)`` per config, in order.  Entry ``k`` of each list equals
    the reference :func:`prefeval.oracle.metric_score` of that variant at
    ``cutoffs[k]`` bit for bit, or is None where the config excludes the
    lists there (where the scalar metric returns None too), for both
    variants alike.

    Per call, what every discount reads alike is computed once and shared
    by the discount groups: each cut-off's NDCG ideal (its pool sorted
    once) and known-relevant count, and per list the cumulated relevance
    and AP's and ERR's per-rank factors.  Per discount and list, the
    ``rel * weight`` products and their prefix ``math.fsum`` at each
    cut-off are computed once, and precision, NDCG and ESL all read them;
    AP and ERR read running totals of the parts times the weights, MRR
    the first relevant rank and ESL the rank that reaches its target.
    Resolution checked the depth, and nothing here calls the scalar
    metrics.
    """
    cutoffs = tuple(cutoffs)
    metrics = frozenset(config.metric for config in configs)
    known_relevant = any(config.metric is _MAP and config.ap_norm is _KNOWN_RELEVANT
                         for config in configs)
    groups: dict[DiscountFunction, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(config.discount, []).append(i)
    # per discount: its weights, where its configs sit in ``configs``, and the configs
    bound = [(discount.weights(max(cutoffs)), at, [configs[i] for i in at])
             for discount, at in groups.items()]

    def score(lists: JudgedLists) -> Scores:
        ideals = known = None
        if _NDCG in metrics:
            ideals = [sorted(lists.pool[: lists.pool_ends[c - 1]], reverse=True)[:c]
                      for c in cutoffs]
        if known_relevant:
            positives = list(accumulate((v > 0 for v in lists.pool), initial=0))
            known = [positives[lists.pool_ends[c - 1]] for c in cutoffs]
        parts_a, parts_b = _list_parts(lists.rels_a, metrics), _list_parts(lists.rels_b, metrics)
        scored: list = [None] * len(configs)
        for weights, at, group in bound:
            weighted = ideals and [fsum(map(mul, best, weights)) for best in ideals]
            scored_a = _score_list(lists.rels_a, parts_a, group, cutoffs, weights, weighted, known)
            scored_b = _score_list(lists.rels_b, parts_b, group, cutoffs, weights, weighted, known)
            for i, scores in zip(at, zip(scored_a, scored_b)):
                scored[i] = scores
        return scored

    return score


def _score_list(rels, parts: _ListParts, configs, cutoffs, weights, ideals, known) -> list:
    products = list(map(mul, rels, weights))
    gains: list[float] = []  # fsum of the products through each cut-off, once read
    scored = []
    for config in configs:
        m = config.metric
        if not gains and (m is _PRECISION or m is _NDCG or m is _ESL):
            gains = [fsum(products[:c]) for c in cutoffs]
        if m is _PRECISION:
            scores = [gain / c for gain, c in zip(gains, cutoffs)]
        elif m is _NDCG:
            scores = [None if ideal == 0.0 else min(1.0, gain / ideal)
                      for gain, ideal in zip(gains, ideals)]
        elif m is _MAP:
            running = list(accumulate(map(mul, parts.rel_running, weights)))
            divisors = known if config.ap_norm is _KNOWN_RELEVANT else cutoffs
            scores = [running[c - 1] / float(d) if d > 0 else None
                      for c, d in zip(cutoffs, divisors)]
        elif m is _ERR:
            running = list(accumulate(map(mul, map(mul, weights, parts.continued),
                                          parts.satisfied)))
            scores = [running[c - 1] for c in cutoffs]
        elif m is _MRR:
            first = bisect_right(parts.cumulated, 0.0)  # relevance is never negative
            scores = [weights[first] if first < c else 0.0 for c in cutoffs]
        elif m is _ESL:
            # the first rank whose cumulated relevance reaches n; capped at c, it is c
            reach = bisect_left(parts.cumulated, config.esl_n) + 1
            short = fsum(products[:reach])
            scores = [1.0 - (c - gain) / c if reach >= c else 1.0 - (reach - short) / c
                      for gain, c in zip(gains, cutoffs)]
        else:
            raise ValueError(f"unknown metric {m!r}")
        scored.append(scores)
    return scored
