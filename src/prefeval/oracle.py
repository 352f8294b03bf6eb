"""Reference PIR computation by plain enumeration, for cross-checking the engine.

This module deliberately re-derives preference identification the long
way: walk the preference judgments one by one, skip the verdicts that
state no preference, compare each score difference against the threshold
with explicit branches, and sum agreement integers.  It shares only the
per-pair metric scoring substrate with the engine (that substrate is
pinned separately against published worked examples); everything the
sweep engine adds on top (caching, grids, category counting)
is recomputed here from scratch, so grid cells can be required to match
exactly, not approximately.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .config import MetricConfig
from .dataset import EvaluationDataset, Verdict
from .metrics import ExcludedQuery
from .scoring import score_pair

NaivePair = Tuple[float, float, Verdict]


def naive_pir(pairs: Iterable[NaivePair], t: float) -> float:
    """PIR over (score_a, score_b, verdict) triples, spelled out step by step."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    total = 0
    n = 0
    for score_a, score_b, verdict in pairs:
        if verdict is Verdict.EQUAL:
            continue
        n += 1
        diff = score_a - score_b
        if diff > t:
            metric_says = 1
        elif diff < -t:
            metric_says = -1
        else:
            metric_says = 0
        if verdict is Verdict.A:
            user_says = 1
        else:
            user_says = -1
        total += metric_says * user_says
    if n == 0:
        return 0.5
    return 0.5 + total / (2 * n)


def collect_pairs(
    dataset: EvaluationDataset, config: MetricConfig, lenient: bool = False
) -> list[NaivePair]:
    """Score triples for every verdict the configuration can evaluate."""
    pairs: list[NaivePair] = []
    for p in dataset.preferences:
        if config.query_filter is not None:
            if dataset.query_by_id[p.query_id].query_type not in config.query_filter:
                continue
        try:
            score_a, score_b = score_pair(dataset, config, p.query_id, p.rater_id, lenient)
        except ExcludedQuery:
            continue
        pairs.append((score_a, score_b, p.verdict))
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
    return naive_pir(collect_pairs(dataset, config, lenient), t)


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
    enumerated naively.
    """
    grid: dict[tuple[int, float], float] = {}
    for cutoff in cutoffs:
        pairs = collect_pairs(dataset, config.at_cutoff(cutoff), lenient)
        for t in thresholds:
            grid[(cutoff, t)] = naive_pir(pairs, t)
    return grid
