"""Session-log measures and their preference identification.

Scores are derived from single-list interaction logs (duration, clicks)
instead of explicit grades, one value per session (``measure_session``),
then compared against the same preference verdicts through the PIR
machinery (``implicit_pir``).  Thresholds are in the measure's own unit
(seconds, clicks, ranks).  Click-free sessions take the conventional rank
21, one below the last result a rater could reach.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .dataset import CLICK_ORDER, EvaluationDataset, Session, Variant, Verdict
from .pir import PirRow, check_increasing, pir_cells
from .scales import UNIT_NUMERATORS, RelevanceScale
from .scoring import _relevance

NO_CLICK_RANK = 21


class SessionEndpoint(str, Enum):
    EXPLICIT_END = "explicit-end"
    LAST_CLICK = "last-click"


class Direction(str, Enum):
    LOWER_BETTER = "lower-better"
    HIGHER_BETTER = "higher-better"


class ImplicitMeasure(str, Enum):
    DURATION = "duration"
    CLICK_COUNT = "clicks"
    MEAN_CLICK_RANK = "mean-click-rank"
    FIRST_CLICK_RANK = "first-click-rank"


# Spans of the threshold axes that make sense for each measure's unit.
DEFAULT_THRESHOLD_GRIDS: Mapping[ImplicitMeasure, tuple[float, ...]] = {
    ImplicitMeasure.DURATION: tuple(float(t) for t in range(0, 125, 5)),
    ImplicitMeasure.CLICK_COUNT: tuple(float(t) for t in range(0, 11)),
    ImplicitMeasure.MEAN_CLICK_RANK: tuple(float(t) for t in range(0, 21)),
    ImplicitMeasure.FIRST_CLICK_RANK: tuple(float(t) for t in range(0, 21)),
}


def measure_session(
    s: Session,
    measure: ImplicitMeasure,
    endpoint: SessionEndpoint = SessionEndpoint.EXPLICIT_END,
) -> Optional[float]:
    """One session's value of ``measure``, or None where the session has none.

    DURATION runs from the session start to its recorded end (EXPLICIT_END)
    or to its final click (LAST_CLICK, the last moment an operator without
    explicit feedback can see), so a click-free session has no LAST_CLICK
    duration.  CLICK_COUNT counts repeat clicks on a rank each time.
    FIRST_CLICK_RANK is the rank of the first click in ``CLICK_ORDER``, not
    the lowest rank clicked nor the first click stored: no measure depends
    on the order of ``s.clicks``.  ``endpoint`` applies to DURATION only.
    """
    clicks = s.clicks
    if measure is ImplicitMeasure.DURATION:
        if endpoint is SessionEndpoint.EXPLICIT_END:
            return float(s.end_ts - s.start_ts)
        return float(max(c.ts for c in clicks) - s.start_ts) if clicks else None
    if measure is ImplicitMeasure.CLICK_COUNT:
        return float(len(clicks))
    if measure is ImplicitMeasure.MEAN_CLICK_RANK:
        return sum(c.rank for c in clicks) / len(clicks) if clicks else float(NO_CLICK_RANK)
    if measure is ImplicitMeasure.FIRST_CLICK_RANK:
        return float(min(clicks, key=CLICK_ORDER).rank) if clicks else float(NO_CLICK_RANK)
    raise ValueError(f"unknown measure {measure!r}")


def implicit_pir(
    dataset: EvaluationDataset,
    measure: ImplicitMeasure,
    endpoint: SessionEndpoint = SessionEndpoint.EXPLICIT_END,
    direction: Direction = Direction.LOWER_BETTER,
    thresholds: Optional[Sequence[float]] = None,
    band: Optional[tuple[float, float]] = None,
) -> PirRow:
    """PIR of a session measure across a strictly increasing grid of thresholds in its unit.

    A variant scores a query by the mean of ``measure_session`` over all
    raters' sessions of that variant that have a value and, when ``band``
    is given, whose value lies in [lo, hi] (bounds included).  The values
    are summed exactly (``math.fsum``), so session order cannot move a
    cell.  A query with no such session on either side is excluded: none
    of its verdicts is compared, and it counts once in the row's
    ``excluded``.  LOWER_BETTER negates both means, so every query's
    difference A - B feeds the standard higher-is-better PIR aggregation.
    A dataset no validation passed is validated leniently first, as
    scoring does.
    """
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLD_GRIDS[measure]
    check_increasing(thresholds)
    dataset.grades  # validates a dataset nobody validated, before any verdict is read
    sign = -1.0 if direction is Direction.LOWER_BETTER else 1.0
    sessions = dataset.sessions_by_query_variant
    diff_by_query: dict[str, Optional[float]] = {}
    differences: list[float] = []
    verdicts: list[Verdict] = []
    for p in dataset.preferences:
        qid = p.query_id
        if qid not in diff_by_query:
            means = []
            for variant in (Variant.A, Variant.B):
                values = [v for s in sessions.get((qid, variant), ())
                          if (v := measure_session(s, measure, endpoint)) is not None
                          and (band is None or band[0] <= v <= band[1])]
                means.append(sign * (math.fsum(values) / len(values)) if values else None)
            diff_by_query[qid] = None if None in means else means[0] - means[1]
        if diff_by_query[qid] is not None:
            differences.append(diff_by_query[qid])
            verdicts.append(p.verdict)
    excluded = sum(diff is None for diff in diff_by_query.values())
    return PirRow(pir_cells(differences, verdicts, thresholds), excluded)


@dataclass(frozen=True)
class VariantStats:
    """Descriptive interaction and relevance statistics for one variant."""

    sessions: int
    zero_click_share: Optional[float]
    clicks_per_session: Mapping[int, int]
    clicks_by_rank: Mapping[int, int]
    mean_satisfaction: Optional[float]
    mean_relevance_by_rank: Mapping[int, float]
    grade_counts_by_rank: Mapping[int, Mapping[int, int]]


@dataclass(frozen=True)
class QueryTypeStats:
    queries: int
    mean_terms: float


@dataclass(frozen=True)
class DescriptiveStats:
    variants: Mapping[Variant, VariantStats]
    query_types: Mapping[str, QueryTypeStats]


def _variant_stats(dataset: EvaluationDataset, variant: Variant) -> VariantStats:
    sessions = [s for s in dataset.sessions if s.variant is variant]
    clicks_per_session = Counter(len(s.clicks) for s in sessions)
    clicks_by_rank = Counter(c.rank for s in sessions for c in s.clicks)
    zero_share = None
    if sessions:
        zero_share = sum(1 for s in sessions if not s.clicks) / len(sessions)
    satisfaction = [s.satisfied for s in sessions if s.satisfied is not None]
    mean_satisfaction = sum(satisfaction) / len(satisfaction) if satisfaction else None

    six_point = UNIT_NUMERATORS[RelevanceScale.SIX_POINT]
    rel_by_rank: dict[int, list[float]] = {}
    grades_by_rank: dict[int, Counter] = {}
    for pair in dataset.list_pairs:
        for rank, result_id in enumerate(pair.variant(variant), start=1):
            grades = dataset.grades.get((pair.query_id, result_id), {})
            if not grades:
                continue
            mean = _relevance((grades, None), six_point, False, None)
            rel_by_rank.setdefault(rank, []).append(mean)
            grades_by_rank.setdefault(rank, Counter()).update(grades.values())

    return VariantStats(
        sessions=len(sessions),
        zero_click_share=zero_share,
        clicks_per_session=dict(sorted(clicks_per_session.items())),
        clicks_by_rank=dict(sorted(clicks_by_rank.items())),
        mean_satisfaction=mean_satisfaction,
        mean_relevance_by_rank={
            rank: math.fsum(vals) / len(vals) for rank, vals in sorted(rel_by_rank.items())
        },
        grade_counts_by_rank={
            rank: dict(sorted(counter.items()))
            for rank, counter in sorted(grades_by_rank.items())
        },
    )


def descriptive_stats(dataset: EvaluationDataset) -> DescriptiveStats:
    """Interaction and relevance summary per variant, plus the query-type mix.

    Per-rank relevance averages each result over its raters first, then
    averages those result means across queries, summed exactly (``math.fsum``).
    """
    variants = {v: _variant_stats(dataset, v) for v in (Variant.A, Variant.B)}  # validates first
    by_type: dict[str, list[int]] = {}
    for q in dataset.queries:
        by_type.setdefault(q.query_type.value, []).append(len(q.text.split()))
    return DescriptiveStats(
        variants=variants,
        query_types={
            qt: QueryTypeStats(queries=len(lengths), mean_terms=sum(lengths) / len(lengths))
            for qt, lengths in sorted(by_type.items())
        },
    )
