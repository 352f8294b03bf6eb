"""Seeded synthetic datasets for tests, demos and desk-scale experiments.

Generation is pure in (spec, seed): the same spec always yields the same
dataset, record for record.  All randomness comes from one
``random.Random(seed)`` (CPython's Mersenne Twister), so reproducing a
dataset elsewhere requires the same generator; anything meant to be
stable across environments should be shipped as written files instead.
Grade frequencies follow the configured per-variant distributions by
exact quota (largest remainder), so the marginals match the spec exactly
whenever the counts divide evenly; the quota grades are then laid out
over the ranks by the order-noise model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf, isfinite
from typing import Optional, Sequence

from .dataset import (
    Click,
    EvaluationDataset,
    GradedJudgment,
    Language,
    PreferenceJudgment,
    Query,
    QueryType,
    RankedListPair,
    Session,
    Variant,
    Verdict,
)
from .scales import UNITS, RelevanceScale

_WORDS = (
    "alpine", "battery", "census", "drought", "estuary", "fresco", "granite",
    "harbor", "isotope", "juniper", "kiln", "lagoon", "meridian", "nebula",
    "orchard", "pylon", "quarry", "reef", "sonar", "tundra",
)

_TYPE_PATTERN = (
    QueryType.INFORMATIONAL, QueryType.INFORMATIONAL, QueryType.INFORMATIONAL,
    QueryType.TRANSACTIONAL, QueryType.INFORMATIONAL, QueryType.NAVIGATIONAL,
    QueryType.INFORMATIONAL, QueryType.FACTUAL, QueryType.INFORMATIONAL,
    QueryType.META,
)

UNIFORM_GRADES = (1 / 6,) * 6


@dataclass(frozen=True)
class SynthSpec:
    """Shape and models of a generated dataset.

    ``n_preferences`` verdicts are spread as evenly as possible over the
    queries; every query keeps at least one judging rater even when it
    receives no verdict.  ``grade_weights_a``/``_b`` are per-variant grade
    distributions over grades 1..6, realized by exact quota.  The quota
    grades are placed by ``order_noise``: 0.0 lays them out best-first,
    1.0 shuffles them completely; by default variant A is nearly sorted
    and variant B is random, so the variants differ in ordering even when
    their grade mix is identical.  ``overlap`` is the fraction of each
    pair's results shared between the variants (shared results keep their
    variant-A grade).  Preferences follow the rater's mean relevance,
    attention-weighted toward early ranks: a rater prefers the variant
    whose weighted mean under their own grades is higher by more than
    ``equal_margin``, otherwise judges the lists equal.
    """

    n_queries: int
    n_raters: int
    seed: int
    list_len: int = 10
    n_preferences: Optional[int] = None
    grade_weights_a: tuple[float, ...] = UNIFORM_GRADES
    grade_weights_b: tuple[float, ...] = UNIFORM_GRADES
    order_noise_a: float = 0.5
    order_noise_b: float = 1.0
    overlap: float = 0.0
    equal_margin: float = 0.03
    rater_noise: float = 0.0
    click_rate: float = 0.7

    def __post_init__(self) -> None:
        if self.n_queries < 1 or self.n_raters < 1 or self.list_len < 1:
            raise ValueError("n_queries, n_raters and list_len must all be >= 1")
        for name in ("grade_weights_a", "grade_weights_b"):
            weights = getattr(self, name)
            if len(weights) != 6 or any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError(f"{name} must be six non-negative weights with a positive sum")
            if not all(map(isfinite, weights)):  # nan and inf pass the tests above
                raise ValueError(f"{name} must be six finite weights")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")
        if not 0.0 <= self.order_noise_a <= 1.0 or not 0.0 <= self.order_noise_b <= 1.0:
            raise ValueError("order noise must be in [0, 1]")
        if not 0.0 <= self.rater_noise <= 1.0:
            raise ValueError("rater_noise must be in [0, 1]")
        if not 0.0 <= self.click_rate <= 1.0:
            raise ValueError("click_rate must be in [0, 1]")
        if not 0.0 <= self.equal_margin < inf:
            raise ValueError("equal_margin must be finite and >= 0")
        n_pref = self.n_preferences
        if n_pref is not None:
            if n_pref < 0:
                raise ValueError("n_preferences must be >= 0")
            if n_pref > self.n_queries * self.n_raters:
                raise ValueError("n_preferences exceeds one verdict per (query, rater)")
            per_query = -(-n_pref // self.n_queries)  # ceil
            if per_query > self.n_raters:
                raise ValueError("n_preferences needs more raters per query than exist")


def _quota_grades(weights: Sequence[float], count: int) -> list[int]:
    """Grade multiset of size ``count`` matching ``weights`` by largest remainder."""
    total = sum(weights)
    exact = [count * w / total for w in weights]
    counts = [int(x) for x in exact]
    short = count - sum(counts)
    remainders = sorted(range(6), key=lambda g: exact[g] - counts[g], reverse=True)
    for g in remainders[:short]:
        counts[g] += 1
    grades: list[int] = []
    for grade, n in enumerate(counts, start=1):
        grades.extend([grade] * n)
    return grades


def _place_grades(grades: list[int], order_noise: float, rng: random.Random) -> list[int]:
    """Order a grade multiset: 0.0 is best-first, 1.0 a full shuffle.

    A ``order_noise`` fraction of the positions is re-shuffled within the
    otherwise sorted layout.
    """
    out = sorted(grades)
    k = round(order_noise * len(out))
    if k >= 2:
        positions = rng.sample(range(len(out)), k)
        values = [out[i] for i in positions]
        rng.shuffle(values)
        for i, v in zip(positions, values):
            out[i] = v
    return out


def _attention_mean(units: Sequence[float]) -> float:
    """Mean relevance weighted toward early ranks (what a scanning user sees)."""
    weights = [rank ** -0.5 for rank in range(1, len(units) + 1)]
    return sum(u * w for u, w in zip(units, weights)) / sum(weights)


def generate_synthetic(spec: SynthSpec) -> EvaluationDataset:
    """Build a strict-valid dataset from ``spec``; deterministic in (spec, seed)."""
    rng = random.Random(spec.seed)
    raters = [f"u{i:02d}" for i in range(1, spec.n_raters + 1)]

    queries: list[Query] = []
    pairs: list[RankedListPair] = []
    judgments: list[GradedJudgment] = []
    preferences: list[PreferenceJudgment] = []
    sessions: list[Session] = []

    n_pref = spec.n_preferences if spec.n_preferences is not None else spec.n_queries
    base_pref, extra_pref = divmod(n_pref, spec.n_queries)

    for qi in range(spec.n_queries):
        qid = f"q{qi + 1:03d}"
        terms = rng.sample(_WORDS, rng.randint(2, 3))
        queries.append(
            Query(
                id=qid,
                text=" ".join(terms),
                info_need=f"Background information about {' and '.join(terms)}",
                language=Language.EN if qi % 2 == 0 else Language.DE,
                query_type=_TYPE_PATTERN[qi % len(_TYPE_PATTERN)],
            )
        )

        results_a = [f"{qid}-a{r:02d}" for r in range(1, spec.list_len + 1)]
        n_shared = round(spec.overlap * spec.list_len)
        shared = rng.sample(results_a, n_shared)
        fresh = [f"{qid}-b{r:02d}" for r in range(1, spec.list_len - n_shared + 1)]
        results_b = shared + fresh
        rng.shuffle(results_b)
        pairs.append(RankedListPair(query_id=qid, variant_a=tuple(results_a), variant_b=tuple(results_b)))

        grades_a = _place_grades(
            _quota_grades(spec.grade_weights_a, spec.list_len), spec.order_noise_a, rng
        )
        base_grade = dict(zip(results_a, grades_a))
        grades_b = _place_grades(
            _quota_grades(spec.grade_weights_b, spec.list_len), spec.order_noise_b, rng
        )
        for result_id, grade in zip(results_b, grades_b):
            if result_id not in base_grade:  # shared results keep their variant-A grade
                base_grade[result_id] = grade

        n_verdicts = base_pref + (1 if qi < extra_pref else 0)
        n_judges = max(1, n_verdicts)
        start = (qi * n_judges) % spec.n_raters
        judges = [raters[(start + k) % spec.n_raters] for k in range(n_judges)]

        rater_rel: dict[tuple[str, str], float] = {}  # each rater's unit relevance
        for rater in judges:
            for result_id in sorted(base_grade):
                grade = base_grade[result_id]
                if spec.rater_noise and rng.random() < spec.rater_noise:
                    grade = min(6, max(1, grade + rng.choice((-1, 1))))
                rater_rel[(rater, result_id)] = UNITS[RelevanceScale.SIX_POINT][grade - 1]
                judgments.append(
                    GradedJudgment(
                        query_id=qid, result_id=result_id, rater_id=rater,
                        grade=grade, snippet_relevant=grade <= 3,
                    )
                )

        for rater in judges[:n_verdicts]:
            seen_a = _attention_mean([rater_rel[(rater, rid)] for rid in results_a])
            seen_b = _attention_mean([rater_rel[(rater, rid)] for rid in results_b])
            diff = seen_a - seen_b
            if diff > spec.equal_margin:
                verdict = Verdict.A
            elif diff < -spec.equal_margin:
                verdict = Verdict.B
            else:
                verdict = Verdict.EQUAL
            preferences.append(PreferenceJudgment(query_id=qid, rater_id=rater, verdict=verdict))

        for ri, rater in enumerate(judges):
            for variant, ranking in ((Variant.A, results_a), (Variant.B, results_b)):
                start_ts = 1_500_000_000 + (qi * spec.n_raters + ri) * 3600 + (0 if variant is Variant.A else 1800)
                clicks = []
                ts = start_ts
                for rank, result_id in enumerate(ranking, start=1):
                    rel = rater_rel[(rater, result_id)]
                    attention = rank ** -0.5
                    if rng.random() < spec.click_rate * rel * attention:
                        ts += rng.randint(4, 12)
                        clicks.append(Click(rank=rank, ts=ts))
                end_ts = (clicks[-1].ts if clicks else start_ts) + rng.randint(8, 30)
                top = ranking[: min(3, len(ranking))]
                satisfied = sum(rater_rel[(rater, rid)] for rid in top) / len(top) >= 0.5
                sessions.append(
                    Session(
                        query_id=qid, rater_id=rater, variant=variant,
                        start_ts=start_ts, end_ts=end_ts,
                        clicks=tuple(clicks), satisfied=satisfied,
                    )
                )

    judgments.sort(key=lambda j: (j.query_id, j.result_id, j.rater_id))
    preferences.sort(key=lambda p: (p.query_id, p.rater_id))
    sessions.sort(key=lambda s: (s.query_id, s.rater_id, s.variant.value))
    return EvaluationDataset(
        queries=tuple(queries),
        judgments=tuple(judgments),
        list_pairs=tuple(pairs),
        preferences=tuple(preferences),
        sessions=tuple(sessions),
    )
