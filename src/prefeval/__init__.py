"""Meta-evaluation of search result-list metrics against stated user preferences."""

from .config import ApNorm, Metric, MetricConfig, RatingSource
from .dataset import (
    Click,
    EvaluationDataset,
    Language,
    PreferenceJudgment,
    Query,
    QueryType,
    RankedListPair,
    Session,
    ValidationError,
    ValidationMode,
    ValidationReport,
    Variant,
    Verdict,
    validate,
)
from .pir import PirCell, PirGrid, pir, pir_sweep, pref
from .scales import DiscountFunction, DiscountKind, RelevanceScale
from .synth import SynthSpec, generate_synthetic

__all__ = [
    "ApNorm",
    "Click",
    "DiscountFunction",
    "DiscountKind",
    "EvaluationDataset",
    "Language",
    "Metric",
    "MetricConfig",
    "PirCell",
    "PirGrid",
    "PreferenceJudgment",
    "Query",
    "QueryType",
    "RankedListPair",
    "RatingSource",
    "RelevanceScale",
    "Session",
    "SynthSpec",
    "ValidationError",
    "ValidationMode",
    "ValidationReport",
    "Variant",
    "Verdict",
    "generate_synthetic",
    "pir",
    "pir_sweep",
    "pref",
    "validate",
]

__version__ = "0.1.0"
