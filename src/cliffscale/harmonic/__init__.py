"""Bandlimited harmonic targets, an MLP regressor, and bandwidth regularization."""

from .basis import (
    BandwidthRegularizer,
    HarmonicFunction,
    build_basis_matrix,
    canonical_frequencies,
    regularizer_value,
    sample_harmonic,
)
from .network import (
    AdamState,
    MlpModel,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward_batch,
)
from .training import (
    DivergenceError,
    TrainConfig,
    TrainResult,
    run_harmonic_scaling,
    train,
)

__all__ = [
    "AdamState",
    "BandwidthRegularizer",
    "DivergenceError",
    "HarmonicFunction",
    "MlpModel",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "build_basis_matrix",
    "canonical_frequencies",
    "init_mlp",
    "mlp_backward",
    "mlp_forward_batch",
    "regularizer_value",
    "run_harmonic_scaling",
    "sample_harmonic",
    "train",
]
