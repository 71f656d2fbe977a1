"""Layer-wise entropy-adaptive regularization for replay-based continual learning."""

__version__ = "0.1.0"

from .buffers import ReplayBuffer, ValidationBuffer, evaluate_layer_accuracies
from .errors import ConfigError, DimensionError, FormatError
from .metrics import (
    average_forgetting,
    backward_transfer,
    cross_layer_entropy_spread,
    entropy_deviation,
    final_average_accuracy,
)
from .model import LayeredNet, load_checkpoint, save_checkpoint
from .modulation import (
    EntropyStats,
    ModulatorState,
    alpha_from_accuracies,
    composite_loss,
    gamma_from_entropies,
    entropy_summary,
    layer_zscores,
)
from .streams import (
    StreamConfig,
    TaskSpec,
    batches,
    load_csv_stream,
    load_idx_stream,
    load_source,
    make_stream,
    make_synthetic_stream,
    save_stream_csv,
)
from .training import RunConfig, adam_step, run_sequence, run_task

__all__ = [
    "ConfigError",
    "DimensionError",
    "EntropyStats",
    "FormatError",
    "LayeredNet",
    "ModulatorState",
    "ReplayBuffer",
    "RunConfig",
    "StreamConfig",
    "TaskSpec",
    "ValidationBuffer",
    "adam_step",
    "alpha_from_accuracies",
    "average_forgetting",
    "backward_transfer",
    "batches",
    "composite_loss",
    "cross_layer_entropy_spread",
    "entropy_deviation",
    "entropy_summary",
    "evaluate_layer_accuracies",
    "final_average_accuracy",
    "gamma_from_entropies",
    "layer_zscores",
    "load_checkpoint",
    "load_csv_stream",
    "load_idx_stream",
    "load_source",
    "make_stream",
    "make_synthetic_stream",
    "run_sequence",
    "run_task",
    "save_checkpoint",
    "save_stream_csv",
]
