"""Preference identification: scoring metric configurations against user verdicts.

For every (query, preference rater) pair the engine computes the metric
scores of both result-list variants, turns the score difference into a
thresholded preference, and aggregates agreement with the rater's actual
verdict into the preference identification ratio (PIR):

    PIR = 0.5 + sum(pref(m_a - m_b) * verdict_sign) / (2 * n)

over the n pairs whose verdict states a preference.  0.5 is the guessing
baseline, 1.0 means every stated preference is recognized.  Verdicts of
equal quality stay out of the ratio (the user is no better or worse off
either way) but are tracked in the five-category breakdown.

:func:`pir_sweep` walks each scope's verdicts once, scoring every
verdict once through a scorer built for the scope
(:func:`~prefeval.scoring.scorer`), and counts each row from one sort
(:func:`pir_cells`).  A :class:`PirRow` is one threshold series, of a config or of
a session measure, and :meth:`PirRow.best_index` its one best-threshold rule.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isfinite, isnan, nan
from operator import sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import MetricConfig, check_cutoffs
from .dataset import MAX_CUTOFF, EvaluationDataset, Verdict
from .scoring import resolve_preferences, scorer

ScoredPair = tuple[float, float, Verdict]  # (score_a, score_b, verdict), as pir() counts them

DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(i / 100 for i in range(31))
DEFAULT_CUTOFFS: tuple[int, ...] = tuple(range(1, MAX_CUTOFF + 1))

CATEGORIES = (
    "correct_pref",
    "correct_equal",
    "false_pref",
    "missed_pref",
    "reversed_pref",
)


def _check_threshold(t: float) -> None:
    if t < 0:
        raise ValueError(f"threshold must be >= 0, got {t}")


def pref(x: float, t: float) -> int:
    """Thresholded sign: +1 if x > t, -1 if x < -t, otherwise 0."""
    _check_threshold(t)
    if x > t:
        return 1
    if x < -t:
        return -1
    return 0


class PirCell(NamedTuple):
    """PIR plus the five-way outcome counts at one threshold.

    The counts partition every evaluated (query, rater) pair: stated
    preferences are recognized (correct_pref), inverted (reversed_pref)
    or not seen (missed_pref); stated equality is confirmed
    (correct_equal) or contradicted (false_pref).  A tuple: the counts
    are ``cell[2:]``, in ``CATEGORIES`` order.
    """

    threshold: float
    pir: float
    correct_pref: int
    correct_equal: int
    false_pref: int
    missed_pref: int
    reversed_pref: int

    @property
    def total_pairs(self) -> int:
        return sum(self[2:])

    @property
    def n_preferences(self) -> int:
        """Pairs whose verdict states a preference (the PIR denominator)."""
        return self.correct_pref + self.missed_pref + self.reversed_pref

    @property
    def empty_denominator(self) -> bool:
        return self.n_preferences == 0

    def shares(self) -> dict[str, Fraction]:
        """Exact category shares over all evaluated pairs; they sum to 1."""
        total = self.total_pairs
        if total == 0:
            raise ValueError("no evaluated pairs, shares undefined")
        return {name: Fraction(n, total) for name, n in zip(CATEGORIES, self[2:])}


def pir(pairs: Sequence[ScoredPair], t: float = 0.0) -> PirCell:
    """Aggregate scored pairs into a PirCell at threshold ``t``.

    Each pair is (score_a, score_b, verdict).  With no preferring pairs
    the PIR is the 0.5 baseline and the cell flags the empty denominator.
    This is the one-threshold reference the oracle counts with; sweeps
    use :func:`pir_cells`.
    """
    _check_threshold(t)
    counts = dict.fromkeys(CATEGORIES, 0)
    agreement = 0
    n_pref = 0
    for score_a, score_b, verdict in pairs:
        p = pref(score_a - score_b, t)
        if verdict is Verdict.EQUAL:
            counts["correct_equal" if p == 0 else "false_pref"] += 1
            continue
        n_pref += 1
        u = 1 if verdict is Verdict.A else -1
        product = p * u
        agreement += product
        if product > 0:
            counts["correct_pref"] += 1
        elif product < 0:
            counts["reversed_pref"] += 1
        else:
            counts["missed_pref"] += 1
    value = 0.5 + agreement / (2 * n_pref) if n_pref else 0.5
    return PirCell(threshold=t, pir=value, **counts)


def pir_cells(
    diffs: Sequence[float], verdicts: Sequence[Verdict], thresholds: Sequence[float]
) -> tuple[PirCell, ...]:
    """``pir(pairs, t)`` for every t in ``thresholds``, from one sort per verdict kind.

    ``diffs[i]`` is ``score_a - score_b`` of the pair whose verdict is
    ``verdicts[i]``.  With u = +1 for verdict A and -1 for B, a
    preferring pair's x = diff * u is a correct preference at t iff
    x > t and a reversed one iff x < -t, and an equal verdict is a false
    preference iff |diff| > t: the strict comparisons of :func:`pref`.
    So the preferring pairs' x and the equal verdicts' nonzero |diff| go
    into two sorted lists, and each count is one bisection.
    """
    for t in thresholds:
        _check_threshold(t)
    a, eq = Verdict.A, Verdict.EQUAL
    signed = sorted([x if v is a else -x
                     for x, v in zip(diffs, verdicts, strict=True) if v is not eq])
    equal = sorted([abs(x) for x, v in zip(diffs, verdicts) if v is eq and abs(x) > 0])
    n_pref = len(signed)
    n_equal = len(diffs) - n_pref
    cells = []
    for t in thresholds:
        correct = n_pref - bisect_right(signed, t)
        reversed_pref = bisect_left(signed, -t)
        false_pref = len(equal) - bisect_right(equal, t)
        value = 0.5 + (correct - reversed_pref) / (2 * n_pref) if n_pref else 0.5
        cells.append(PirCell(t, value, correct, n_equal - false_pref, false_pref,
                             n_pref - correct - reversed_pref, reversed_pref))
    return tuple(cells)


@dataclass(frozen=True)
class PirRow:
    """The threshold cells of one config at one cut-off, or of one session measure.

    ``excluded`` counts the verdicts (a config) or queries (a session measure) left out.
    """

    cells: tuple[PirCell, ...]
    excluded: int

    def best_index(self) -> int:
        """The first cell of maximal PIR, so on an increasing grid ties go to the lowest t."""
        pirs = [cell.pir for cell in self.cells]
        return pirs.index(max(pirs))

    def best_threshold(self) -> tuple[float, float]:
        """(threshold, PIR) of the :meth:`best_index` cell."""
        best = self.cells[self.best_index()]
        return best.threshold, best.pir


@dataclass(frozen=True)
class PirGrid:
    """PIR cells over (configuration, cut-off, threshold)."""

    cutoffs: tuple[int, ...]
    rows: Mapping[tuple[str, int], PirRow]

    def row(self, config: MetricConfig, cutoff: int) -> PirRow:
        return self.rows[(config.label(), cutoff)]

    def cell(self, config: MetricConfig, cutoff: int, t: float) -> PirCell:
        row = self.row(config, cutoff)
        for cell in row.cells:
            if cell.threshold == t:
                return cell
        raise KeyError(f"threshold {t} not in grid")


def check_increasing(thresholds: Sequence[float]) -> None:
    """Reject a grid that is not strictly increasing (so ties go to the lowest t) or is negative."""
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("threshold grid must be strictly increasing")
    _check_threshold(min(thresholds, default=0.0))


def check_grid(configs: Sequence[MetricConfig], thresholds: Sequence[float]) -> None:
    """Reject a sweep :func:`pir_sweep` cannot run, before any dataset is read.

    The threshold grid must start at 0, strictly increase and be finite,
    and no two configs may share a label, which keys their rows.
    """
    if not thresholds or thresholds[0] != 0:
        raise ValueError("threshold grid must start at 0")
    check_increasing(thresholds)
    if not all(map(isfinite, thresholds)):
        raise ValueError("threshold grid must be finite")
    labels = [config.label() for config in configs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"duplicate configuration {label!r}")


def pir_sweep(
    dataset: EvaluationDataset,
    configs: Iterable[MetricConfig],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
    lenient: bool = False,
) -> PirGrid:
    """Evaluate every configuration over the full (cut-off, threshold) grid.

    This is the one way to score a PIR row: ``prefeval sweep`` takes the
    whole grid, and ``prefeval breakdown`` a one-config, one-cut-off grid
    whose single row holds its threshold series and excluded count.

    No work repeats across configs, cut-offs or thresholds:

    - configs that share a scale, rating source and query filter share
      one table from :func:`~prefeval.scoring.resolve_preferences`: each
      verdict's judged lists, resolved once down to ``max(cutoffs)``, one
      relevance per distinct result of its query, and the pool of each
      cut-off taken from the deepest one by position;
    - each scope builds one :func:`~prefeval.scoring.scorer`, which
      groups its configs by discount once, and walks its table once: per
      verdict, the scorer computes the discount-independent parts once
      for all the scope's configs, and per discount the ``rel * weight``
      products and their prefix sums once for all its configs and
      cut-offs;
    - a config keeps its score differences in one array, a verdict's
      cut-offs side by side, and takes each cut-off's row from it by
      stride once the walk is done;
    - :func:`pir_cells` sorts a row's differences once and counts each
      threshold cell by bisection.
    """
    configs = tuple(configs)
    cutoffs = tuple(cutoffs)
    check_grid(configs, thresholds)
    check_cutoffs(cutoffs)

    scopes: dict[tuple, list[MetricConfig]] = {}
    for config in configs:
        scopes.setdefault((config.scale, config.rating_source, config.query_filter),
                          []).append(config)
    rows: dict[tuple[str, int], PirRow] = dict.fromkeys(
        (config.label(), c) for config in configs for c in cutoffs)
    for scope_configs in scopes.values():
        table = resolve_preferences(dataset, scope_configs[0], cutoffs, lenient)
        score = scorer(scope_configs, cutoffs)
        # per config, each verdict's differences at every cut-off in a row; NaN
        # stands for a score the config excludes (scores are finite otherwise)
        flats = [array("d") for _ in scope_configs]
        for _, lists in table:
            for flat, (scores_a, scores_b) in zip(flats, score(lists)):
                flat.extend(map(sub, scores_a, scores_b) if None not in scores_a
                            else [nan if a is None else a - b
                                  for a, b in zip(scores_a, scores_b)])
        verdicts = [verdict for verdict, _ in table]
        for config, flat in zip(scope_configs, flats):
            label = config.label()
            for k, c in enumerate(cutoffs):
                column, kept = flat[k::len(cutoffs)], verdicts
                excluded = sum(map(isnan, column))
                if excluded:
                    keep = [not isnan(x) for x in column]
                    column, kept = list(compress(column, keep)), list(compress(kept, keep))
                rows[(label, c)] = PirRow(pir_cells(column, kept, thresholds), excluded)
    return PirGrid(cutoffs=cutoffs, rows=rows)
