"""Dataset schema shared by all evaluation stages, plus its validation rules.

A dataset bundles, per query, the two competing ranked result lists
(variants A and B), six-point relevance judgments for individual results,
per-rater preference verdicts between the variants, and single-list
interaction sessions.  Judgments are held once, as the grade index every
analysis reads: ``(query_id, result_id) -> {rater_id: grade}``, with the
snippet flags a file gives in a map of the same shape.  Datasets are
treated as immutable once built; validation reports rather than mutates,
except that a dataset that passes keeps its judgments as its ``grades``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Optional

from .scales import GRADE_BEST, GRADE_WORST, check_grade

# The deepest cut-off any metric is evaluated at, and every command's default one.
MAX_CUTOFF = 10


class QueryType(str, Enum):
    INFORMATIONAL = "informational"
    TRANSACTIONAL = "transactional"
    NAVIGATIONAL = "navigational"
    FACTUAL = "factual"
    META = "meta"


class Language(str, Enum):
    DE = "DE"
    EN = "EN"


class Variant(str, Enum):
    A = "A"
    B = "B"


class Verdict(str, Enum):
    A = "A"
    B = "B"
    EQUAL = "EQUAL"


class ValidationMode(str, Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@dataclass(frozen=True, slots=True)
class Query:
    id: str
    text: str
    info_need: str
    language: Language
    query_type: QueryType


@dataclass(frozen=True, slots=True)
class RankedListPair:
    """The two competing ranked result lists for one query."""

    query_id: str
    variant_a: tuple[str, ...]
    variant_b: tuple[str, ...]

    def variant(self, which: Variant) -> tuple[str, ...]:
        return self.variant_a if which is Variant.A else self.variant_b


@dataclass(frozen=True, slots=True)
class PreferenceJudgment:
    """One rater's verdict for one query: variant A better, B better, or equal."""

    query_id: str
    rater_id: str
    verdict: Verdict


@dataclass(frozen=True, slots=True)
class Click:
    rank: int
    ts: int


# Clicks in time order, ties to the lower rank; a session keeps its clicks as given.
CLICK_ORDER = attrgetter("ts", "rank")


@dataclass(frozen=True, slots=True)
class Session:
    """One rater's interaction log with a single result-list variant."""

    query_id: str
    rater_id: str
    variant: Variant
    start_ts: int
    end_ts: int
    clicks: tuple[Click, ...] = ()
    satisfied: Optional[bool] = None


@dataclass(frozen=True)
class EvaluationDataset:
    """``judgments`` maps (query_id, result_id) to {rater_id: six-point grade, 1 best},
    and ``snippets`` to the snippet-relevant flags given, in the order given.  Equality
    compares the maps, not their order, and a dataset has no hash."""

    queries: tuple[Query, ...]
    judgments: Mapping[tuple[str, str], Mapping[str, int]]
    list_pairs: tuple[RankedListPair, ...]
    preferences: tuple[PreferenceJudgment, ...] = ()
    sessions: tuple[Session, ...] = ()
    snippets: Mapping[tuple[str, str], Mapping[str, bool]] = field(default_factory=dict)

    @cached_property
    def query_by_id(self) -> Mapping[str, Query]:
        return {q.id: q for q in self.queries}

    @cached_property
    def pair_by_query(self) -> Mapping[str, RankedListPair]:
        return {p.query_id: p for p in self.list_pairs}

    @cached_property
    def grades(self) -> Mapping[tuple[str, str], Mapping[str, int]]:
        """``judgments``, once a validation has passed it (lenient if none ran)."""
        report = validate(self, ValidationMode.LENIENT, max_cutoff=0)
        if not report.ok:
            raise ValidationError(report)
        return self.__dict__["grades"]

    @cached_property
    def sessions_by_query_variant(self) -> Mapping[tuple[str, Variant], tuple[Session, ...]]:
        index: dict[tuple[str, Variant], list[Session]] = {}
        for s in self.sessions:
            index.setdefault((s.query_id, s.variant), []).append(s)
        return {key: tuple(ss) for key, ss in index.items()}


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.kind}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    mode: ValidationMode
    issues: tuple[ValidationIssue, ...] = field(default_factory=tuple)

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


class ValidationError(Exception):
    """Raised when a dataset fails validation in the requested mode."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = [str(issue) for issue in report.errors]
        super().__init__("dataset validation failed:\n" + "\n".join(lines))


def field_fault(value: object) -> Optional[str]:
    """Why a record file cannot hold ``value`` as one field, or None if it can."""
    if type(value) is not str:
        return "is not a string"
    if "\t" in value or "\n" in value or "\r" in value:
        return "holds a tab or line break"
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return "does not encode as UTF-8"
    return None


def record_faults(dataset: EvaluationDataset) -> list[tuple[str, str]]:
    """``(kind, message)`` for each field of ``dataset`` that a record file cannot hold.

    First ``bad-field``: each query text or information need :func:`field_fault` refuses, then
    each enum, int or bool field of another type (a bool is no int), empty rater map and snippet
    flag without its judgment, naming the first.  Then ``bad-id``, once per kind of id (query,
    result, rater) naming its smallest: an id is a non-empty UTF-8 string with no tab, LF or CR.
    """
    faults = [("bad-field", f"query {q.id!r} {name} {fault}, which a record file cannot hold")
              for q in dataset.queries for name in ("text", "info_need")
              if (fault := field_fault(getattr(q, name)))]
    get, judgments = attrgetter, dataset.judgments
    clicks = [c for s in dataset.sessions for c in s.clicks]
    for records, name, types, what in (
            (dataset.queries, "query_type", {QueryType}, "a QueryType"),
            (dataset.queries, "language", {Language}, "a Language"),
            (dataset.preferences, "verdict", {Verdict}, "a Verdict"),
            (dataset.sessions, "variant", {Variant}, "a Variant"),
            (dataset.sessions, "start_ts", {int}, "an int"), (dataset.sessions, "end_ts", {int}, "an int"),
            (clicks, "rank", {int}, "an int"), (clicks, "ts", {int}, "an int"),
            (dataset.sessions, "satisfied", {bool, type(None)}, "a bool or None")):
        if set(map(type, map(get(name), records))) - types:  # one pass in C per field
            bad = next(v for v in map(get(name), records) if type(v) not in types)
            faults.append(("bad-field", f"{name} {bad!r} is not {what}"))
    flags = [f for raters in dataset.snippets.values() for f in raters.values()]
    if set(map(type, flags)) - {bool}:
        bad = next(f for f in flags if type(f) is not bool)
        faults.append(("bad-field", f"snippet_relevant {bad!r} is not a bool"))
    if not all(judgments.values()):
        key = next(key for key, raters in judgments.items() if not raters)
        faults.append(("bad-field", f"judgment {key!r} has no rater, which a record file cannot hold"))
    for key, raters in dataset.snippets.items():
        judged = judgments.get(key, {})
        if not raters.keys() <= judged.keys():
            rater = next(r for r in raters if r not in judged)
            faults.append(("bad-field", f"snippet flag {(*key, rater)!r} has no judgment,"
                                        " which a record file cannot hold"))
            break
    for kind, sources in _ids(dataset).items():
        try:
            ids = set().union(*sources)
        except TypeError:  # an unhashable id in a record, which no set holds
            ids = [i for source in _ids(dataset)[kind] for i in source]
        strings = set(map(type, ids)) <= {str}
        if strings and "" in ids:
            faults.append(("bad-id", f"{kind} id is empty, which a record file cannot load"))
        elif fault := (field_fault("\0".join(ids)) if strings else "is not a string"):
            bad = min((i for i in ids if field_fault(i) == fault), key=str)
            faults.append(("bad-id", f"{kind} id {bad!r} {fault}, which a record file cannot hold"))
    return faults


def _ids(dataset: EvaluationDataset) -> dict[str, tuple[Iterable, ...]]:
    """The iterables over each kind of id (query, result, rater) that ``dataset`` holds."""
    get, pairs, judged = attrgetter, dataset.list_pairs, dataset.judgments
    holders = (dataset.preferences, dataset.sessions)
    return {"query": (map(get("id"), dataset.queries), map(get("query_id"), pairs), map(itemgetter(0), judged),
                      *(map(get("query_id"), records) for records in holders)),
            "result": (map(itemgetter(1), judged),
                       *map(get("variant_a"), pairs), *map(get("variant_b"), pairs)),
            "rater": (chain.from_iterable(judged.values()),
                      *(map(get("rater_id"), records) for records in holders))}


def validate(
    dataset: EvaluationDataset,
    mode: ValidationMode = ValidationMode.STRICT,
    max_cutoff: int = MAX_CUTOFF,
) -> ValidationReport:
    """Check every schema invariant and return the full report.

    Malformed records (bad grades, click ranks below 1, inverted timestamps, duplicates,
    dangling references, a verdict on a query without a list pair) are errors in both modes,
    and so, last, is each :func:`record_faults` fault (``bad-field``, ``bad-id``).  A listed
    result at rank <= ``max_cutoff`` without any judgment is an error in strict mode and a
    warning in lenient mode, where downstream scoring substitutes relevance 0 for it.  A
    mistyped field that a check cannot compare or key on leaves the record faults as the only
    errors.  A report with no error makes ``judgments`` the dataset's ``grades``.
    """
    faults = record_faults(dataset)
    try:
        issues = _check_records(dataset, mode, max_cutoff)
    except TypeError:  # a mistyped field, which the faults name
        if not faults:
            raise
        issues = []
    report = ValidationReport(mode, tuple(issues + [ValidationIssue("error", *f) for f in faults]))
    if report.ok:
        dataset.__dict__["grades"] = dataset.judgments
    return report


def _check_records(dataset: EvaluationDataset, mode: ValidationMode, max_cutoff: int) -> list:
    """:func:`validate`'s checks but the record rule."""
    issues: list[ValidationIssue] = []

    def error(kind: str, message: str) -> None:
        issues.append(ValidationIssue("error", kind, message))

    def warning(kind: str, message: str) -> None:
        issues.append(ValidationIssue("warning", kind, message))

    seen_queries: set[str] = set()
    for q in dataset.queries:
        if q.id in seen_queries:
            error("duplicate-query", f"query {q.id!r} defined more than once")
        seen_queries.add(q.id)

    known = dataset.query_by_id
    ranked: dict[str, set[str]] = {}  # results at any rank in either variant

    for pair in dataset.list_pairs:
        if pair.query_id in ranked:
            error("duplicate-pair", f"query {pair.query_id!r} has more than one list pair")
        if pair.query_id not in known:
            error("dangling-query", f"list pair references unknown query {pair.query_id!r}")
        for variant, ranking in (("A", pair.variant_a), ("B", pair.variant_b)):
            if len(set(ranking)) != len(ranking):
                error(
                    "duplicate-result",
                    f"query {pair.query_id!r} variant {variant} lists a result twice",
                )
            if len(ranking) < max_cutoff:
                error(
                    "short-list",
                    f"query {pair.query_id!r} variant {variant} has {len(ranking)} results,"
                    f" fewer than the evaluated cut-off {max_cutoff}",
                )
        ranked[pair.query_id] = set(pair.variant_a).union(pair.variant_b)

    for (qid, rid), raters in dataset.judgments.items():  # one message per (query, result, rater)
        dangling = None
        if qid not in known:
            dangling = ("dangling-query", f"judgment references unknown query {qid!r}")
        elif qid in ranked and rid not in ranked[qid]:
            dangling = ("dangling-result", f"judgment for query {qid!r} references result"
                                           f" {rid!r} absent from both variants")
        for rater, g in raters.items():
            if dangling:
                error(*dangling)
            if not (type(g) is int and GRADE_BEST <= g <= GRADE_WORST):
                try:
                    check_grade(g)
                except ValueError as exc:
                    error("grade-range", f"judgment ({qid!r}, {rid!r}, {rater!r}): {exc}")

    for qid, pair in dataset.pair_by_query.items():  # key=str sorts a bad-id non-string too
        for result_id in sorted({*pair.variant_a[:max_cutoff], *pair.variant_b[:max_cutoff]}, key=str):
            if not dataset.judgments.get((qid, result_id)):  # an empty rater map is a bad-field
                missing = (
                    f"result {result_id!r} of query {qid!r} appears at rank"
                    f" <= {max_cutoff} but has no judgment"
                )
                if mode is ValidationMode.STRICT:
                    error("missing-judgment", missing)
                else:
                    warning("missing-judgment", missing)

    seen_verdicts: set[tuple[str, str]] = set()
    for p in dataset.preferences:
        if p.query_id not in known:
            error("dangling-query", f"preference references unknown query {p.query_id!r}")
        elif p.query_id not in ranked:
            error("unpaired-preference",
                  f"rater {p.rater_id!r} has a verdict for query {p.query_id!r},"
                  " which has no list pair")
        key = (p.query_id, p.rater_id)
        if key in seen_verdicts:
            error(
                "duplicate-preference",
                f"rater {p.rater_id!r} has more than one verdict for query {p.query_id!r}",
            )
        seen_verdicts.add(key)

    def session_error(kind: str, s: Session, message: str) -> None:
        variant = getattr(s.variant, "value", s.variant)  # a bad-field variant has no value
        error(kind, f"session ({s.query_id!r}, {s.rater_id!r}, {variant}) {message}")

    for s in dataset.sessions:
        if s.query_id not in known:
            session_error("dangling-query", s, "references an unknown query")
        if s.start_ts > s.end_ts:
            session_error("time-order", s, "starts after it ends")
        for click in s.clicks:
            if click.rank < 1:
                session_error("click-rank", s, f"has a click at rank {click.rank}")
            if not s.start_ts <= click.ts <= s.end_ts:
                session_error("click-time", s, "has a click outside the session interval")
    for (qid, variant), group in dataset.sessions_by_query_variant.items():
        sessions_by_rater = Counter(s.rater_id for s in group)
        for rater in [r for r, n in sessions_by_rater.items() if n > 1]:
            error("duplicate-session", f"rater {rater!r} has more than one"
                  f" {getattr(variant, 'value', variant)} session for query {qid!r}")

    return issues
