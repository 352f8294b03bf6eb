"""Relevance scales and rank discount functions.

Individual results are graded on a six-point school scale (1 best, 6
worst).  Metrics consume unit relevance in [0, 1]; this module owns the
one grade-to-unit table per scale, ``UNIT_NUMERATORS``: integer
numerators over one denominator, so a mean of units is an integer sum
divided once.  It is read unchecked once validation's :func:`check_grade`
has passed each grade.
It also holds the catalog of rank discount functions shared by all list
metrics.  A discount is a plain value; click-weight tables are read from
files by ``data_io``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

GRADE_BEST = 1
GRADE_WORST = 6


class RelevanceScale(str, Enum):
    """How raw six-point grades are mapped to unit relevance.

    The binary scales R2_k treat grades 1..k as relevant (1.0) and the
    rest as non-relevant (0.0).  The ternary scales map to {1.0, 0.5, 0.0}:
    R3_2 splits the grades into equal bands, R3_1 keeps only the extreme
    grades at the endpoints.
    """

    SIX_POINT = "six"
    R2_1 = "r2_1"
    R2_3 = "r2_3"
    R2_5 = "r2_5"
    R3_1 = "r3_1"
    R3_2 = "r3_2"


class DiscountKind(str, Enum):
    NONE = "none"
    LOG5 = "log5"
    LOG2 = "log2"
    ROOT = "root"
    RANK = "rank"
    SQUARE = "square"
    CLICK_BASED = "click"


def check_grade(grade: int) -> None:
    """Reject anything but a six-point grade: an int (not a bool) in 1..6."""
    if not isinstance(grade, int) or isinstance(grade, bool):
        raise ValueError(f"grade must be an integer, got {grade!r}")
    if not GRADE_BEST <= grade <= GRADE_WORST:
        raise ValueError(f"grade must be {GRADE_BEST}..{GRADE_WORST}, got {grade}")


# Unit relevance of grades 1..6 under each scale as integer numerators over one
# denominator, unchecked: grade g's unit is ``numerators[g - 1] / denominator``.
UNIT_NUMERATORS: Mapping[RelevanceScale, tuple[tuple[int, ...], int]] = {
    RelevanceScale.SIX_POINT: ((5, 4, 3, 2, 1, 0), 5),  # 6 - grade
    RelevanceScale.R2_1: ((1, 0, 0, 0, 0, 0), 1),
    RelevanceScale.R2_3: ((1, 1, 1, 0, 0, 0), 1),
    RelevanceScale.R2_5: ((1, 1, 1, 1, 1, 0), 1),
    RelevanceScale.R3_2: ((2, 2, 1, 1, 0, 0), 2),
    RelevanceScale.R3_1: ((2, 1, 1, 1, 1, 0), 2),
}


# Illustrative click-through weights, normalized so rank 1 has weight 1.
# Click rates are not monotone in rank: they rebound at rank 3 and again
# at rank 7 (the first result below the typical scroll fold).  These
# numbers are a plausible stand-in, not measured ground truth; real
# evaluations should load their own table.
EXAMPLE_CLICK_WEIGHTS: Mapping[int, float] = {
    1: 1.0,
    2: 0.23,
    3: 0.25,
    4: 0.17,
    5: 0.14,
    6: 0.12,
    7: 0.14,
    8: 0.10,
    9: 0.08,
    10: 0.07,
}


@dataclass(frozen=True)
class DiscountFunction:
    """A rank-indexed weight in (0, 1] modeling declining user attention.

    ``click_weights`` is required iff ``kind`` is CLICK_BASED and must map
    every rank the caller will evaluate; rank 1 must carry weight 1.
    Equality compares the kind and the click table; the hash reads the
    kind alone, so equal discounts hash alike without hashing a dict.
    """

    kind: DiscountKind
    click_weights: Optional[Mapping[int, float]] = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if self.kind is DiscountKind.CLICK_BASED:
            if not self.click_weights:
                raise ValueError("CLICK_BASED discount requires a click_weights table")
            table = dict(self.click_weights)
            for rank, weight in table.items():
                if rank < 1:
                    raise ValueError(f"click table rank must be >= 1, got {rank}")
                if not 0.0 < weight <= 1.0:
                    raise ValueError(
                        f"click weight must be in (0, 1], got {weight} at rank {rank}"
                    )
            if table.get(1) != 1.0:
                raise ValueError("click table must assign weight 1.0 to rank 1")
            object.__setattr__(self, "click_weights", table)
        elif self.click_weights is not None:
            raise ValueError(f"{self.kind.value} discount takes no click_weights table")

    def weight(self, rank: int) -> float:
        """Weight of ``rank``; every kind yields 1.0 at rank 1."""
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        kind = self.kind
        if kind is DiscountKind.NONE:
            return 1.0
        if kind is DiscountKind.LOG5:
            return 1.0 if rank < 5 else 1.0 / math.log(rank, 5)
        if kind is DiscountKind.LOG2:
            return 1.0 if rank < 2 else 1.0 / math.log2(rank)
        if kind is DiscountKind.ROOT:
            return 1.0 / math.sqrt(rank)
        if kind is DiscountKind.RANK:
            return 1.0 / rank
        if kind is DiscountKind.SQUARE:
            return 1.0 / (rank * rank)
        assert self.click_weights is not None
        try:
            return self.click_weights[rank]
        except KeyError:
            raise ValueError(f"click table has no weight for rank {rank}") from None

    def weights(self, c: int) -> tuple[float, ...]:
        """Weights of ranks 1..``c``: entry ``i`` is ``weight(i + 1)``."""
        return tuple(map(self.weight, range(1, c + 1)))

    def label(self) -> str:
        return self.kind.value

    @classmethod
    def click_based(cls, weights: Optional[Mapping[int, float]] = None) -> "DiscountFunction":
        if weights is None:
            weights = EXAMPLE_CLICK_WEIGHTS
        return cls(DiscountKind.CLICK_BASED, weights)
