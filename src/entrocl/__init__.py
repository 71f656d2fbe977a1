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
from .model import LayeredNet
from .modulation import (
    EntropyStats,
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
    load_source,
    make_stream,
    make_synthetic_stream,
    save_stream_csv,
)
from .training import RunConfig, adam_step, boundary_states, run_sequence, run_task

__all__ = [
    "ConfigError",
    "DimensionError",
    "EntropyStats",
    "FormatError",
    "LayeredNet",
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
    "boundary_states",
    "composite_loss",
    "cross_layer_entropy_spread",
    "entropy_deviation",
    "entropy_summary",
    "evaluate_layer_accuracies",
    "final_average_accuracy",
    "gamma_from_entropies",
    "layer_zscores",
    "load_source",
    "make_stream",
    "make_synthetic_stream",
    "run_sequence",
    "run_task",
    "save_stream_csv",
]
