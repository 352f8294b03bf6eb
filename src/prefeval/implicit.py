"""Session-log measures and their preference identification.

Scores are derived from single-list interaction logs (duration, clicks)
instead of explicit grades, then compared against the same preference
verdicts through the PIR machinery.  Thresholds are in the measure's own
unit (seconds, clicks, ranks).  Click-free sessions take the conventional
rank 21, one below the last result a rater could reach.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .config import RatingSource
from .dataset import EvaluationDataset, Session, Variant, Verdict
from .pir import PirCell, check_increasing, pir_cells
from .scales import RelevanceScale
from .scoring import unit_relevance

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


class ExcludedSession(Exception):
    """The session cannot yield this measure (e.g. no click to end it with)."""


def session_duration(
    s: Session, endpoint: SessionEndpoint = SessionEndpoint.EXPLICIT_END
) -> int:
    """Seconds from session start to its end point.

    EXPLICIT_END uses the recorded end timestamp; LAST_CLICK the final
    click, the last moment an operator without explicit feedback can see.
    """
    if endpoint is SessionEndpoint.EXPLICIT_END:
        return s.end_ts - s.start_ts
    if not s.clicks:
        raise ExcludedSession("no click to end the session with")
    return max(c.ts for c in s.clicks) - s.start_ts


def click_count(s: Session) -> int:
    """Number of click events; repeat clicks on a rank count each time."""
    return len(s.clicks)


def mean_click_rank(s: Session) -> float:
    """Arithmetic mean of clicked ranks; click-free sessions score rank 21."""
    if not s.clicks:
        return float(NO_CLICK_RANK)
    return sum(c.rank for c in s.clicks) / len(s.clicks)


def first_click_rank(s: Session) -> float:
    """Rank of the earliest click by timestamp (not the lowest rank clicked);
    click-free sessions score rank 21."""
    if not s.clicks:
        return float(NO_CLICK_RANK)
    return float(min(s.clicks, key=lambda c: c.ts).rank)


def measure_session(
    s: Session,
    measure: ImplicitMeasure,
    endpoint: SessionEndpoint = SessionEndpoint.EXPLICIT_END,
) -> float:
    if measure is ImplicitMeasure.DURATION:
        return float(session_duration(s, endpoint))
    if measure is ImplicitMeasure.CLICK_COUNT:
        return float(click_count(s))
    if measure is ImplicitMeasure.MEAN_CLICK_RANK:
        return mean_click_rank(s)
    if measure is ImplicitMeasure.FIRST_CLICK_RANK:
        return first_click_rank(s)
    raise ValueError(f"unknown measure {measure!r}")


@dataclass(frozen=True)
class ImplicitSeries:
    """PIR across thresholds for one session measure."""

    cells: tuple[PirCell, ...]
    excluded_queries: int


def variant_score(
    dataset: EvaluationDataset,
    query_id: str,
    variant: Variant,
    measure: ImplicitMeasure,
    endpoint: SessionEndpoint = SessionEndpoint.EXPLICIT_END,
    band: Optional[tuple[float, float]] = None,
) -> float:
    """Measure for one (query, variant): mean over all raters' usable sessions.

    ``band`` restricts the evaluation to sessions whose measure value
    falls inside [lo, hi], for band-specific questions such as "do very
    short sessions behave differently".  Raises ExcludedSession when no
    session of the variant yields the measure, which excludes the query
    from the comparison.
    """
    sessions = dataset.sessions_by_query_variant.get((query_id, variant), ())
    values = []
    for s in sessions:
        try:
            value = measure_session(s, measure, endpoint)
        except ExcludedSession:
            continue
        if band is not None and not band[0] <= value <= band[1]:
            continue
        values.append(value)
    if not values:
        raise ExcludedSession(f"query {query_id!r} has no usable {variant.value} session")
    return sum(values) / len(values)


def implicit_pairs(
    dataset: EvaluationDataset,
    measure: ImplicitMeasure,
    endpoint: SessionEndpoint = SessionEndpoint.EXPLICIT_END,
    direction: Direction = Direction.LOWER_BETTER,
    band: Optional[tuple[float, float]] = None,
) -> tuple[list[tuple[float, float, Verdict]], int]:
    """Oriented score pairs per preference verdict, plus excluded-query count.

    Orientation maps the measure onto "higher is better" (LOWER_BETTER
    negates both scores), so the pairs feed the standard PIR aggregation.
    """
    sign = -1.0 if direction is Direction.LOWER_BETTER else 1.0
    scores: dict[str, tuple[float, float]] = {}
    excluded: set[str] = set()
    pairs: list[tuple[float, float, Verdict]] = []
    for p in dataset.preferences:
        qid = p.query_id
        if qid in excluded:
            continue
        if qid not in scores:
            try:
                score_a = variant_score(dataset, qid, Variant.A, measure, endpoint, band)
                score_b = variant_score(dataset, qid, Variant.B, measure, endpoint, band)
            except ExcludedSession:
                excluded.add(qid)
                continue
            scores[qid] = (sign * score_a, sign * score_b)
        score_a, score_b = scores[qid]
        pairs.append((score_a, score_b, p.verdict))
    return pairs, len(excluded)


def implicit_pir(
    dataset: EvaluationDataset,
    measure: ImplicitMeasure,
    endpoint: SessionEndpoint = SessionEndpoint.EXPLICIT_END,
    direction: Direction = Direction.LOWER_BETTER,
    thresholds: Optional[Sequence[float]] = None,
    band: Optional[tuple[float, float]] = None,
) -> ImplicitSeries:
    """PIR of a session measure across a strictly increasing grid of thresholds in its unit."""
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLD_GRIDS[measure]
    check_increasing(thresholds)
    pairs, excluded = implicit_pairs(dataset, measure, endpoint, direction, band)
    cells = pir_cells([a - b for a, b, _ in pairs], [v for _, _, v in pairs], thresholds)
    return ImplicitSeries(cells=cells, excluded_queries=excluded)


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

    rel_by_rank: dict[int, list[float]] = {}
    grades_by_rank: dict[int, Counter] = {}
    for pair in dataset.list_pairs:
        for rank, result_id in enumerate(pair.variant(variant), start=1):
            grades = dataset.grades.get((pair.query_id, result_id), {})
            if not grades:
                continue
            rel_by_rank.setdefault(rank, []).append(unit_relevance(
                dataset, pair.query_id, result_id, RelevanceScale.SIX_POINT,
                RatingSource.SAME_USER, None))
            grades_by_rank.setdefault(rank, Counter()).update(grades.values())

    return VariantStats(
        sessions=len(sessions),
        zero_click_share=zero_share,
        clicks_per_session=dict(sorted(clicks_per_session.items())),
        clicks_by_rank=dict(sorted(clicks_by_rank.items())),
        mean_satisfaction=mean_satisfaction,
        mean_relevance_by_rank={
            rank: sum(vals) / len(vals) for rank, vals in sorted(rel_by_rank.items())
        },
        grade_counts_by_rank={
            rank: dict(sorted(counter.items()))
            for rank, counter in sorted(grades_by_rank.items())
        },
    )


def descriptive_stats(dataset: EvaluationDataset) -> DescriptiveStats:
    """Interaction and relevance summary per variant, plus the query-type mix.

    Per-rank relevance averages each result over its raters first, then
    averages those result means across queries.
    """
    by_type: dict[str, list[int]] = {}
    for q in dataset.queries:
        by_type.setdefault(q.query_type.value, []).append(len(q.text.split()))
    return DescriptiveStats(
        variants={v: _variant_stats(dataset, v) for v in (Variant.A, Variant.B)},
        query_types={
            qt: QueryTypeStats(queries=len(lengths), mean_terms=sum(lengths) / len(lengths))
            for qt, lengths in sorted(by_type.items())
        },
    )
