"""Preference-budgeted merging of task vectors.

Combines per-task parameter deltas into a single model under explicit
per-task element budgets, builds those budgets from dataset similarity or
a geometric schedule, and ships a deterministic synthetic pipeline for
verifying steering behavior end to end.
"""

__version__ = "0.1.0"

from .container import (
    ParameterSet,
    TensorSpec,
    decode_container,
    encode_container,
)
from .errors import (
    CodecError,
    ConfigError,
    DegenerateInputError,
    MergeToolError,
    ShapeMismatchError,
    UsageError,
    ValidationError,
)
from .merging import (
    Assignment,
    MERGE_METHODS,
    RESIDUAL_RANDOM,
    Rows,
    assignment_census,
    merge,
    read_assignment,
    selection_stream,
    write_assignment,
)
from .preference import (
    PreferenceVector,
    SimilarityVector,
    largest_remainder_counts,
    load_preference,
    preference_from_alpha,
    preference_from_similarities,
    save_preference,
    validate_preference,
)
from .similarity import (
    EmbeddingSet,
    LabelHistogram,
    OTConfig,
    SinkhornResult,
    cosine_mean_distance,
    label_similarity,
    median_heuristic_bandwidth,
    mmd_rbf,
    ot_similarity,
    pairwise_sq_dists,
    similarity_vector,
    sinkhorn_ot,
)
from .harness import (
    EvalResult,
    PipelineConfig,
    PipelineReport,
    SyntheticTask,
    TargetEnvironment,
    evaluate,
    generate_task_suite,
    mix_target_environment,
    run_pipeline,
    sequential_finetune_analog,
)

__all__ = [
    "__version__",
    "ParameterSet",
    "TensorSpec",
    "decode_container",
    "encode_container",
    "CodecError",
    "ConfigError",
    "DegenerateInputError",
    "MergeToolError",
    "ShapeMismatchError",
    "UsageError",
    "ValidationError",
    "Assignment",
    "MERGE_METHODS",
    "PreferenceVector",
    "RESIDUAL_RANDOM",
    "Rows",
    "assignment_census",
    "merge",
    "read_assignment",
    "selection_stream",
    "write_assignment",
    "SimilarityVector",
    "load_preference",
    "preference_from_alpha",
    "preference_from_similarities",
    "save_preference",
    "validate_preference",
    "EmbeddingSet",
    "LabelHistogram",
    "OTConfig",
    "SinkhornResult",
    "cosine_mean_distance",
    "label_similarity",
    "median_heuristic_bandwidth",
    "mmd_rbf",
    "ot_similarity",
    "pairwise_sq_dists",
    "similarity_vector",
    "sinkhorn_ot",
    "EvalResult",
    "PipelineConfig",
    "PipelineReport",
    "SyntheticTask",
    "TargetEnvironment",
    "evaluate",
    "generate_task_suite",
    "largest_remainder_counts",
    "mix_target_environment",
    "run_pipeline",
    "sequential_finetune_analog",
]
