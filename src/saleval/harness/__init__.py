"""Dataset ingestion, the evaluation protocol, aggregation and reports."""

from .dataset import (
    BASELINE_MODELS,
    COMPLEXITIES,
    DISTORTION_LEVELS,
    DISTORTION_TYPES,
    DatasetManifest,
    ImageEntry,
    ModelEntry,
    load_manifest,
    synth_dataset,
)
from .protocol import (
    ALL_METRICS,
    SHUFFLED_METRICS,
    EvalConfig,
    EvaluationRecord,
    evaluate_batch,
    evaluate_pair,
)
from .report import RECORD_FIELDS, emit_report, read_records
from .stats import (
    aggregate_scores,
    build_rankings,
    kendalls_w,
    normalized_std_table,
    rank_by_score,
)

__all__ = [
    "ALL_METRICS",
    "BASELINE_MODELS",
    "COMPLEXITIES",
    "DISTORTION_LEVELS",
    "DISTORTION_TYPES",
    "RECORD_FIELDS",
    "SHUFFLED_METRICS",
    "DatasetManifest",
    "EvalConfig",
    "EvaluationRecord",
    "ImageEntry",
    "ModelEntry",
    "aggregate_scores",
    "build_rankings",
    "emit_report",
    "evaluate_batch",
    "evaluate_pair",
    "kendalls_w",
    "load_manifest",
    "normalized_std_table",
    "rank_by_score",
    "read_records",
    "synth_dataset",
]
