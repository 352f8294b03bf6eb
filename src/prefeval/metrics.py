"""Explicit result-list metrics over unit relevance values.

Every function scores one ranked list for one query: ``rels`` holds
unit relevance in [0, 1] by rank (index 0 = rank 1) and ``c`` is the
cut-off, i.e. how many top results take part.  Entries beyond ``c`` are
ignored, so a list may be passed at full length for any cut-off.  This
is the reference: the worked examples pin these functions, and only the
oracle scores through them (:func:`prefeval.oracle.metric_score`).  The
engine, the function :func:`prefeval.scoring.scorer` builds for a
scope, is what every command scores with; it scores each list once for
all cut-offs and every config of each discount, and imports nothing from
here: both read ``ERR_GRADE_MAX`` and ``ApNorm`` from the config.

Normalization against an ideal ordering (NDCG) takes a judged pool, from
which the best achievable ranking is formed.  The scoring layer passes
the unit relevances of the distinct results in the top ``c`` of either
variant of the query, not every result judged for it.  Where their
normalizer is undefined, NDCG and classical AP return None, as the engine.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .config import ERR_GRADE_MAX, ApNorm
from .scales import DiscountFunction, DiscountKind


def _check_cutoff(rels: Sequence[float], c: int) -> None:
    if c < 1:
        raise ValueError(f"cut-off must be >= 1, got {c}")
    if c > len(rels):
        raise ValueError(f"cut-off {c} exceeds list length {len(rels)}")


def precision_at(
    rels: Sequence[float],
    c: int,
    discount: DiscountFunction = DiscountFunction(DiscountKind.NONE),
) -> float:
    """Mean (optionally discounted) relevance of the top ``c`` results.

    With binary input and no discount this is the classical fraction of
    relevant results.
    """
    return dcg(rels, c, discount) / c


def dcg(rels: Sequence[float], c: int, discount: DiscountFunction) -> float:
    """Discounted cumulated gain: sum of rel(r) * weight(r) for r 1..c."""
    _check_cutoff(rels, c)
    weights = discount.weights(c)
    return math.fsum(rels[i] * weights[i] for i in range(c))


def ideal_ranking(pool: Iterable[float], c: int) -> list[float]:
    """Best achievable top-``c`` relevance sequence from the judged pool."""
    best = sorted(pool, reverse=True)
    return best[:c]


def ndcg(
    rels: Sequence[float],
    pool: Iterable[float],
    c: int,
    discount: DiscountFunction,
) -> Optional[float]:
    """DCG divided by the DCG of the ideal ranking built from ``pool``.

    None when the ideal DCG is zero (no relevant results are known for
    the query, so normalization is undefined).
    """
    _check_cutoff(rels, c)
    ideal = ideal_ranking(pool, c)
    ideal_score = dcg(ideal, len(ideal), discount) if ideal else 0.0
    if ideal_score == 0.0:
        return None
    # the list's gain cannot really exceed the ideal's; cap the last-bit
    # float overshoot that reordered summation can produce
    return min(1.0, dcg(rels, c, discount) / ideal_score)


def average_precision(
    rels: Sequence[float],
    c: int,
    discount: DiscountFunction,
    norm: ApNorm = ApNorm.BY_EVALUATED_COUNT,
    known_relevant: Optional[int] = None,
) -> Optional[float]:
    """Discount-generalized average precision over the top ``c`` results.

    Each rank contributes rel(r) * (cumulated gain through r) * weight(r);
    with binary input, RANK discount and BY_KNOWN_RELEVANT normalization
    this reduces to classical AP, whose addends divide by the rank.  Note
    that for discounts shallower than the rank the score may exceed 1.
    BY_KNOWN_RELEVANT without a positive ``known_relevant`` gives None.
    """
    _check_cutoff(rels, c)
    if norm is ApNorm.BY_KNOWN_RELEVANT:
        if known_relevant is None or known_relevant <= 0:
            return None
        divisor = float(known_relevant)
    else:
        divisor = float(c)
    weights = discount.weights(c)
    total = 0.0
    cumulated = 0.0
    for i in range(c):
        cumulated += rels[i]
        if rels[i]:
            total += rels[i] * cumulated * weights[i]
    return total / divisor


def err(rels: Sequence[float], c: int, discount: DiscountFunction) -> float:
    """Expected reciprocal rank with a configurable discount.

    Each rank's gain is damped by the probability that no earlier result
    already satisfied the user; per-result satisfaction probability is
    (2^g - 1) / 2^gmax with g = gmax * rel and gmax = 5.
    """
    _check_cutoff(rels, c)
    weights = discount.weights(c)
    total = 0.0
    continue_p = 1.0
    denom = 2.0 ** ERR_GRADE_MAX
    for i in range(c):
        satisfied = (2.0 ** (ERR_GRADE_MAX * rels[i]) - 1.0) / denom
        total += weights[i] * continue_p * satisfied
        continue_p *= 1.0 - satisfied
    return total


def reciprocal_rank(rels: Sequence[float], c: int, discount: DiscountFunction) -> float:
    """Discount weight of the first relevant rank; 0.0 if none within ``c``.

    Relevant = unit relevance above 0, so the scale alone decides which
    grades count.
    """
    _check_cutoff(rels, c)
    for i in range(c):
        if rels[i] > 0:
            return discount.weight(i + 1)
    return 0.0


def esl(rels: Sequence[float], c: int, discount: DiscountFunction, n: float) -> float:
    """Normalized search-length score for a cumulative relevance target ``n``.

    Let r_n be the first rank whose cumulated relevance reaches ``n`` (or
    ``c`` when the target is never met).  The score is
    1 - (r_n - sum of discounted relevance through r_n) / c: 1.0 for a
    perfect run of results, 0.0 for a completely non-relevant list.
    """
    _check_cutoff(rels, c)
    if n <= 0:
        raise ValueError(f"cumulative relevance target must be > 0, got {n}")
    reach = c
    cumulated = 0.0
    for i in range(c):
        cumulated += rels[i]
        if cumulated >= n:
            reach = i + 1
            break
    return 1.0 - (reach - dcg(rels, reach, discount)) / c
