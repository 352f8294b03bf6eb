"""Reference PIR computation by plain enumeration, for cross-checking the engine.

No command runs this module.  It walks the preference judgments one by
one, resolves each verdict's lists at one cut-off through its own walk,
:func:`judged_lists` (with its own depth check and pool), scores each
list through :func:`metric_score`, which dispatches to the scalar metrics
(pinned against published worked examples), and counts each threshold
through :func:`~prefeval.pir.pir`.  It shares with the engine only the
relevance rule (:func:`~prefeval.scoring._relevance`, with its
missing-judgment message) and the discount tables, so grid cells can be
required to match exactly.  A verdict with a None score is left out, as
the engine leaves it out.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import metrics
from .config import ApNorm, Metric, MetricConfig, RatingSource
from .dataset import EvaluationDataset
from .pir import ScoredPair, pir
from .scales import UNIT_NUMERATORS
from .scoring import _missing, _relevance


def judged_lists(dataset: EvaluationDataset, query_id: str, rater_id: Optional[str],
                 config: MetricConfig, lenient: bool = False
                 ) -> tuple[list[float], list[float], list[float]]:
    """One reader's ``(rels_a, rels_b, pool)`` of one query at the config's cut-off.

    A None rater reads the mean over all raters.  A variant shorter than
    the cut-off raises ValueError.  The pool is A1, B1, A2, B2, ..., first
    occurrence kept.  The first missing relevance, A's results first, then
    B's unseen ones, raises MissingJudgment, or reads 0.0 when ``lenient``.
    """
    pair = dataset.pair_by_query[query_id]
    c = config.cutoff
    for ranked in (pair.variant_a, pair.variant_b):
        if c > len(ranked):
            raise ValueError(f"cut-off {c} exceeds list length {len(ranked)}")
    top_a, top_b = pair.variant_a[:c], pair.variant_b[:c]
    same_user = config.rating_source is RatingSource.SAME_USER
    values = {}
    for rid in dict.fromkeys((*top_a, *top_b)):
        value = _relevance((dataset.grades.get((query_id, rid), {}), None),
                           UNIT_NUMERATORS[config.scale], same_user, rater_id)
        if value is None and not lenient:
            raise _missing(query_id, rid, same_user, rater_id)
        values[rid] = 0.0 if value is None else value
    pool = dict.fromkeys(rid for ranked in zip(top_a, top_b) for rid in ranked)
    return ([values[rid] for rid in top_a], [values[rid] for rid in top_b],
            [values[rid] for rid in pool])


def metric_score(rels: Sequence[float], pool: Sequence[float],
                 config: MetricConfig) -> Optional[float]:
    """Score one judged list at the config's cut-off; None where the config excludes it."""
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
        return metrics.average_precision(rels, c, config.discount, config.ap_norm, known)
    if m is Metric.ERR:
        return metrics.err(rels, c, config.discount)
    if m is Metric.MRR:
        return metrics.reciprocal_rank(rels, c, config.discount)
    if m is Metric.ESL:
        assert config.esl_n is not None
        return metrics.esl(rels, c, config.discount, config.esl_n)
    raise ValueError(f"unknown metric {m!r}")


def collect_pairs(
    dataset: EvaluationDataset, config: MetricConfig, lenient: bool = False
) -> list[ScoredPair]:
    """Score triples for every verdict the configuration can evaluate."""
    dataset.grades  # validates a dataset nobody validated, before any pair is read
    pairs: list[ScoredPair] = []
    for p in dataset.preferences:
        if config.query_filter is not None:
            if dataset.query_by_id[p.query_id].query_type not in config.query_filter:
                continue
        rels_a, rels_b, pool = judged_lists(dataset, p.query_id, p.rater_id, config, lenient)
        score_a = metric_score(rels_a, pool, config)
        if score_a is not None:  # both variants share the pool, so B is None alike
            pairs.append((score_a, metric_score(rels_b, pool, config), p.verdict))
    return pairs


def oracle_pir(
    dataset: EvaluationDataset,
    config: MetricConfig,
    t: float,
    cutoff: int | None = None,
    lenient: bool = False,
) -> float:
    """Single-cell reference PIR; ``cutoff`` overrides the config's when given."""
    if cutoff is not None:
        config = config.at_cutoff(cutoff)
    return pir(collect_pairs(dataset, config, lenient), t).pir


def oracle_grid(
    dataset: EvaluationDataset,
    config: MetricConfig,
    thresholds: Sequence[float],
    cutoffs: Sequence[int],
    lenient: bool = False,
) -> dict[tuple[int, float], float]:
    """Reference PIR for every (cutoff, threshold) cell of one configuration.

    Cell for cell equal to calling :func:`oracle_pir`; the score triples
    of a cut-off are computed once and each threshold cell is then
    counted by :func:`~prefeval.pir.pir`.
    """
    grid: dict[tuple[int, float], float] = {}
    for cutoff in cutoffs:
        pairs = collect_pairs(dataset, config.at_cutoff(cutoff), lenient)
        for t in thresholds:
            grid[(cutoff, t)] = pir(pairs, t).pir
    return grid
