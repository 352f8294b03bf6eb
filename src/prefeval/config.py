"""Metric configurations, and the constants both scorers read, so neither imports the other."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from math import isfinite
from typing import Optional, Sequence

from .dataset import MAX_CUTOFF, QueryType
from .scales import DiscountFunction, RelevanceScale

MIN_CUTOFF = 1
ERR_GRADE_MAX = 5  # exponent span of ERR's satisfaction model: unit rel 1.0 -> 2^5


def check_cutoffs(cutoffs: Sequence[int]) -> None:
    """Reject an empty cut-off list, a cut-off outside 1..MAX_CUTOFF or a repeated one."""
    if not cutoffs:
        raise ValueError("no cut-off given")
    seen: set[int] = set()
    for c in cutoffs:
        if not MIN_CUTOFF <= c <= MAX_CUTOFF:
            raise ValueError(f"cut-off must be in {MIN_CUTOFF}..{MAX_CUTOFF}, got {c}")
        if c in seen:
            raise ValueError(f"duplicate cut-off {c}")
        seen.add(c)


class Metric(str, Enum):
    PRECISION = "precision"
    NDCG = "ndcg"
    MAP = "map"
    ERR = "err"
    MRR = "mrr"
    ESL = "esl"


class ApNorm(str, Enum):
    """Divisor of the average-precision sum: the number of results known to be
    relevant (BY_KNOWN_RELEVANT, the classical definition, requires a count)
    or the cut-off (BY_EVALUATED_COUNT, well-defined for graded input)."""

    BY_KNOWN_RELEVANT = "known-relevant"
    BY_EVALUATED_COUNT = "evaluated-count"


class RatingSource(str, Enum):
    """Whose grades feed a preference rater's metric scores.

    SAME_USER uses the preference rater's own judgments; OTHER_USERS the
    mean unit relevance over every other rater who judged the result
    (leave-one-out), the realistic setting for an operator.
    """

    SAME_USER = "same-user"
    OTHER_USERS = "other-users"


@dataclass(frozen=True)
class MetricConfig:
    metric: Metric
    discount: DiscountFunction
    scale: RelevanceScale = RelevanceScale.SIX_POINT
    cutoff: int = MAX_CUTOFF
    esl_n: Optional[float] = None
    ap_norm: ApNorm = ApNorm.BY_EVALUATED_COUNT
    rating_source: RatingSource = RatingSource.SAME_USER
    query_filter: Optional[frozenset[QueryType]] = field(default=None)

    def __post_init__(self) -> None:
        check_cutoffs((self.cutoff,))
        if self.metric is Metric.ESL:
            if self.esl_n is None or self.esl_n <= 0:
                raise ValueError("ESL requires a positive cumulative relevance target esl_n")
            if not isfinite(self.esl_n):
                raise ValueError(f"ESL target esl_n must be finite, got {self.esl_n}")
        elif self.esl_n is not None:
            raise ValueError(f"esl_n is only meaningful for ESL, not {self.metric.value}")
        if self.query_filter is not None:
            object.__setattr__(self, "query_filter", frozenset(self.query_filter))

    def at_cutoff(self, cutoff: int) -> "MetricConfig":
        return replace(self, cutoff=cutoff)

    def label(self) -> str:
        """Stable identifier of everything but the cut-off, for grid keys and file names."""
        parts = [self.metric.value, self.discount.label(), self.scale.value,
                 self.rating_source.value]
        if self.metric is Metric.ESL:
            parts.append(f"n{self.esl_n:g}")
        if self.metric is Metric.MAP and self.ap_norm is ApNorm.BY_KNOWN_RELEVANT:
            parts.append("knownrel")
        if self.query_filter is not None:
            parts.append("+".join(sorted(t.value for t in self.query_filter)))
        return "_".join(parts)
