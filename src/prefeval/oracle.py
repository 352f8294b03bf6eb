"""Reference PIR computation by plain enumeration, for cross-checking the engine.

This module re-derives every cell the long way: walk the preference
judgments one by one, score each through :func:`~prefeval.scoring.score_pair`
(pinned separately against published worked examples), and count the
pairs of each threshold through :func:`~prefeval.pir.pir`, the spelled-out
one-threshold rule that no command runs.  Everything the sweep engine
adds on top (resolve-once tables, one walk per list for all cut-offs, grids,
bisection counting) is recomputed here from scratch, so grid cells can
be required to match exactly, not approximately.
"""

from __future__ import annotations

from typing import Sequence

from .config import MetricConfig
from .dataset import EvaluationDataset
from .metrics import ExcludedQuery
from .pir import pir
from .scoring import ScoredPair, score_pair


def collect_pairs(
    dataset: EvaluationDataset, config: MetricConfig, lenient: bool = False
) -> list[ScoredPair]:
    """Score triples for every verdict the configuration can evaluate."""
    pairs: list[ScoredPair] = []
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
