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

Draws follow a fixed order, query after query (:func:`generate_synthetic`
lists it).  Records come out in canonical order, and
:func:`data_io.write_dataset` keeps the order it is given, so the files it
writes from them are canonical: queries and list pairs by query id
(``q1000`` sorts between ``q100`` and ``q101``), judgments by (query,
result, rater), verdicts by (query, rater) and sessions by (query, rater,
variant).

Generation is the one call in the package that pauses the cyclic garbage
collector.  It allocates a whole dataset's rater maps, records and tuples
in one call, all of them kept and none in a cycle, so each collection the
allocations trigger there walks the survivors again and frees nothing: on
the benchmark's ``io`` spec, generating and writing without the pause took
about 7% longer.  Reading, validating and writing leave the collector alone,
since there the pause measured no gain end to end: the collection it put
off ran once the collector was back on.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from functools import wraps
from itertools import chain
from math import inf, isfinite
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .dataset import (
    Click,
    EvaluationDataset,
    Language,
    PreferenceJudgment,
    Query,
    QueryType,
    RankedListPair,
    Session,
    Variant,
    Verdict,
)

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


def _attention_mean(units: Sequence[float], ranked: Sequence[int],
                    weights: Sequence[float], total: float) -> float:
    """Mean of ``units`` read in ``ranked`` order, weighted toward early ranks.

    This is what a scanning user sees: ``weights`` are the ranks'
    attention and ``total`` their sum.
    """
    return sum(units[i] * w for i, w in zip(ranked, weights)) / total


def _gc_paused(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic garbage collector off, as the caller had it after.

    A caller that turned the collector off finds it off.  The switch is
    process-wide, and the package starts no threads that could find it off.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@_gc_paused
def generate_synthetic(spec: SynthSpec) -> EvaluationDataset:
    """Build a strict-valid dataset from ``spec``; deterministic in (spec, seed).

    Each query's draws come in a fixed order: its terms, the shared
    results and variant B's shuffle, the two grade layouts, each judge's
    rater noise over the results in id order, then each judge's sessions,
    variant A before B.  The query's records are built in canonical order
    (the module docstring gives it), since :func:`data_io.write_dataset`
    keeps the order it is given: that is what makes the files canonical.
    """
    rng = random.Random(spec.seed)
    draw, choice, randint = rng.random, rng.choice, rng.randint
    n_raters, list_len = spec.n_raters, spec.list_len
    raters = [f"u{i:02d}" for i in range(1, n_raters + 1)]
    quota_a = _quota_grades(spec.grade_weights_a, list_len)
    quota_b = _quota_grades(spec.grade_weights_b, list_len)
    n_shared = round(spec.overlap * list_len)
    noise, click_rate, margin = spec.rater_noise, spec.click_rate, spec.equal_margin
    # A scanning user's attention to each rank, and its total.
    attention = [rank ** -0.5 for rank in range(1, list_len + 1)]
    attention_sum = sum(attention)

    n_pref = spec.n_preferences if spec.n_preferences is not None else spec.n_queries
    base_pref, extra_pref = divmod(n_pref, spec.n_queries)

    blocks = []  # per query: (id, query, pair, judgments, verdicts, sessions, snippets)
    for qi in range(spec.n_queries):
        qid = f"q{qi + 1:03d}"
        terms = rng.sample(_WORDS, randint(2, 3))
        query = Query(qid, " ".join(terms), f"Background information about {' and '.join(terms)}",
                      Language.EN if qi % 2 == 0 else Language.DE,
                      _TYPE_PATTERN[qi % len(_TYPE_PATTERN)])

        results_a = [f"{qid}-a{r:02d}" for r in range(1, list_len + 1)]
        results_b = rng.sample(results_a, n_shared)
        results_b += [f"{qid}-b{r:02d}" for r in range(1, list_len - n_shared + 1)]
        rng.shuffle(results_b)
        pair = RankedListPair(qid, tuple(results_a), tuple(results_b))

        base_grade = dict(zip(results_a, _place_grades(quota_a, spec.order_noise_a, rng)))
        for result_id, grade in zip(results_b, _place_grades(quota_b, spec.order_noise_b, rng)):
            base_grade.setdefault(result_id, grade)  # shared results keep their variant-A grade
        results = sorted(base_grade)
        base = [base_grade[rid] for rid in results]
        at = {rid: i for i, rid in enumerate(results)}
        at_a, at_b = [at[rid] for rid in results_a], [at[rid] for rid in results_b]

        n_verdicts = base_pref + (1 if qi < extra_pref else 0)
        n_judges = max(1, n_verdicts)
        start = (qi * n_judges) % n_raters
        judges = [raters[(start + k) % n_raters] for k in range(n_judges)]
        by_id = sorted(range(n_judges), key=judges.__getitem__)  # judge indexes in rater-id order

        # Each judge's grades of ``results``, drawn judge by judge, and their six-point units.
        graded = [[min(6, max(1, g + choice((-1, 1)))) if noise and draw() < noise else g
                   for g in base] for _ in judges]
        rels = [[(6 - g) / 5 for g in grades] for grades in graded]
        judgments = {(qid, rid): {judges[j]: g for j, g in zip(by_id, column)}
                     for rid, column in zip(results, zip(*(graded[j] for j in by_id)))}
        snippets = {key: {rater: g <= 3 for rater, g in raters.items()}
                    for key, raters in judgments.items()}

        verdicts = []
        for j in by_id:
            if j >= n_verdicts:  # judges[:n_verdicts] give verdicts
                continue
            diff = (_attention_mean(rels[j], at_a, attention, attention_sum)
                    - _attention_mean(rels[j], at_b, attention, attention_sum))
            verdict = (Verdict.A if diff > margin else Verdict.B if diff < -margin
                       else Verdict.EQUAL)
            verdicts.append(PreferenceJudgment(qid, judges[j], verdict))

        judge_sessions = []  # per judge, in draw order: its (A, B) sessions
        for ri, rater in enumerate(judges):
            units = rels[ri]
            both = []
            for variant, at_v, offset in ((Variant.A, at_a, 0), (Variant.B, at_b, 1800)):
                start_ts = ts = 1_500_000_000 + (qi * n_raters + ri) * 3600 + offset
                clicks = []
                for rank, (i, weight) in enumerate(zip(at_v, attention), start=1):
                    if draw() < click_rate * units[i] * weight:
                        ts += randint(4, 12)
                        clicks.append(Click(rank, ts))
                end_ts = ts + randint(8, 30)
                top = [units[i] for i in at_v[:3]]
                both.append(Session(qid, rater, variant, start_ts, end_ts, tuple(clicks),
                                    sum(top) / len(top) >= 0.5))
            judge_sessions.append(both)
        sessions = [s for j in by_id for s in judge_sessions[j]]

        blocks.append((qid, query, pair, judgments, verdicts, sessions, snippets))

    blocks.sort(key=itemgetter(0))  # q1000 sorts between q100 and q101
    _, queries, pairs, judgments, verdicts, sessions, snippets = zip(*blocks)
    return EvaluationDataset(
        queries=queries,
        judgments=dict(chain.from_iterable(map(dict.items, judgments))),
        list_pairs=pairs,
        preferences=tuple(chain.from_iterable(verdicts)),
        sessions=tuple(chain.from_iterable(sessions)),
        snippets=dict(chain.from_iterable(map(dict.items, snippets))),
    )
