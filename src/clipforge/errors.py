"""Exception types shared across the package.

Each maps to a stable CLI error code so scripted callers can match on the
first stderr line.
"""


class ClipforgeError(Exception):
    """Base class for all package errors."""

    code = "E_INTERNAL"


class DimensionError(ClipforgeError):
    """Tensor shapes incompatible with the requested operation."""

    code = "E_DIMENSION"


class GraphError(ClipforgeError):
    """Invalid use of the computation graph (e.g. non-scalar backward root)."""

    code = "E_GRAPH"


class ConfigError(ClipforgeError):
    """Invalid run or model configuration."""

    code = "E_CONFIG"


class CheckpointFormatError(ClipforgeError):
    """Checkpoint file has the wrong magic, version or layout for its contents."""

    code = "E_CHECKPOINT_FORMAT"


class CheckpointIntegrityError(ClipforgeError):
    """Checkpoint file is truncated or fails its checksum."""

    code = "E_CHECKPOINT_INTEGRITY"


class DatasetFormatError(ClipforgeError):
    """Dataset manifest violates the on-disk schema."""

    code = "E_DATASET_FORMAT"


class TrainingError(ClipforgeError):
    """Non-finite gradients or loss during optimization."""

    code = "E_TRAINING"


class EvaluationError(ClipforgeError):
    """Evaluation cannot proceed (e.g. no shared languages)."""

    code = "E_EVAL"


class ComparisonError(ClipforgeError):
    """Baseline comparison has no common rows."""

    code = "E_COMPARISON"
