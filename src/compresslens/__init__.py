"""compresslens: train populations of small compressed classifiers and audit
the disparate impact of compression.

Compression barely moves top-line accuracy while concentrating damage on a
narrow slice of classes and examples. This toolkit trains baseline and
compressed model populations, then surfaces that slice: per-class Welch
significance tests on mean-shifted recall, Pruning Identified Exemplar (PIE)
detection via modal-label disagreement, subset accuracy, attribute
representation, and corruption-robustness normalization.
"""

from .data_model import (
    AuditConfig,
    CompressionSpec,
    ExampleRecord,
    LabeledDataset,
    PredictionLog,
    class_recall_matrix,
    model_accuracy,
    read_dataset,
    read_prediction_log,
    write_dataset,
    write_prediction_log,
)
from .pie_audit import (
    PIESet,
    attribute_relative_representation,
    identify_pies,
    modal_labels,
    subset_accuracy,
)
from .pipeline import ExperimentConfig, load_experiment_config, run_pipeline
from .robustness import (
    CorruptionSpec,
    RobustnessRow,
    corrupt,
    relative_accuracy,
    robustness_report,
)
from .stats_audit import (
    ClassAccuracySample,
    ClassAuditRow,
    WelchResult,
    audit_classes,
    mean_shift,
    normalized_recall_difference,
    regularized_incomplete_beta,
    welch_t_test,
)
from .synth import SynthLongTailSpec, generate, synthesize
from .trainer import (
    MLPModel,
    PruneSchedule,
    TrainConfig,
    apply_magnitude_mask,
    prune_window,
    quantize_model,
    sparsity_at_step,
    train_population,
)

__version__ = "0.1.0"

__all__ = [
    "AuditConfig",
    "ClassAccuracySample",
    "ClassAuditRow",
    "CompressionSpec",
    "CorruptionSpec",
    "ExampleRecord",
    "ExperimentConfig",
    "LabeledDataset",
    "MLPModel",
    "PIESet",
    "PredictionLog",
    "PruneSchedule",
    "RobustnessRow",
    "SynthLongTailSpec",
    "TrainConfig",
    "WelchResult",
    "apply_magnitude_mask",
    "attribute_relative_representation",
    "audit_classes",
    "class_recall_matrix",
    "corrupt",
    "generate",
    "identify_pies",
    "load_experiment_config",
    "mean_shift",
    "modal_labels",
    "model_accuracy",
    "normalized_recall_difference",
    "prune_window",
    "quantize_model",
    "read_dataset",
    "read_prediction_log",
    "regularized_incomplete_beta",
    "relative_accuracy",
    "robustness_report",
    "run_pipeline",
    "sparsity_at_step",
    "subset_accuracy",
    "synthesize",
    "train_population",
    "welch_t_test",
    "write_dataset",
    "write_prediction_log",
]
