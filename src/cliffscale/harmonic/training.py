"""Training harness for the harmonic regression task.

Minibatch MSE plus an optional bandwidth penalty evaluated on all m
regularizer points every step, with validation-based early stopping.
The checkpoint in effect when training stops is the one reported
(no best-checkpoint rewind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import streams
# aggregate_trials is not called here; benchmarks/tracing.py wraps it at this name.
from ..curves import ScalingCurve, aggregate_trials, run_cells
from .basis import BandwidthRegularizer, HarmonicFunction, regularizer_value, sample_harmonic
from .network import (
    AdamState,
    MlpModel,
    Workspace,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward_batch,
)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "DivergenceError",
    "train",
    "run_harmonic_scaling",
    "ARMS",
    "INPUT_DIM",
]

# The names of run_harmonic_scaling's arms.
ARMS = ("reg", "noreg")

# The input dimension d of every harmonic run: targets and points lie in [0,1]^2.
INPUT_DIM = 2

# The dtype of every harmonic network, its training inputs and its optimizer state.
DTYPE = np.dtype(np.float32)

class DivergenceError(FloatingPointError):
    """Raised when the training loss stops being finite."""

    def __init__(self, step: int):
        super().__init__(f"training loss became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    width: int = 256
    hidden_layers: int = 3
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_steps: int = 20_000
    patience: int = 1_000
    eval_every: int = 25
    val_size: int = 512
    test_size: int = 4096
    reg_points: int = 20_000

    def __post_init__(self):
        # At 0 each of these builds no network, steps on no rows, divides by
        # zero, takes no step, stops without waiting or draws no regularizer point.
        for name in ("width", "batch_size", "eval_every", "val_size", "test_size", "max_steps", "patience", "reg_points"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        # Adam descends only with a positive step size.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate: must be finite and > 0, got {self.learning_rate}")


@dataclass
class TrainResult:
    model: MlpModel
    test_mse: float
    steps: int
    stopped_early: bool
    val_mse: float
    # The penalty trained with, if any; reg_value evaluates it on request.
    regularizer: BandwidthRegularizer | None = field(default=None, repr=False, compare=False)

    @cached_property
    def reg_value(self) -> float | None:
        """The regularizer's value on ``model`` as it is at first access, or None without one.

        Computed on first access, by a forward pass over the m regularizer
        points in a workspace of its own, so that a caller reading only the
        errors does not pay for it and the training workspace is not kept.
        """
        if self.regularizer is None:
            return None
        # As in training, a non-finite output raises rather than warns.
        with np.errstate(over="ignore", invalid="ignore"):
            preds, _ = mlp_forward_batch(self.model, self.regularizer.points.astype(DTYPE))
        return regularizer_value(self.regularizer, preds)


def _mse(model: MlpModel, xs: np.ndarray, targets: np.ndarray, work: Workspace) -> float:
    preds, _ = mlp_forward_batch(model, xs, work)
    resid = preds.astype(float) - targets
    return float(resid @ resid) / len(targets)


def train(
    target: HarmonicFunction,
    n: int,
    config: TrainConfig = TrainConfig(),
    regularizer: BandwidthRegularizer | None = None,
    *,
    rng: np.random.Generator,
) -> TrainResult:
    """Fit an MLP to n uniform samples of the target.

    Draws training, validation and test points from ``rng`` (uniform on
    the unit cube), then runs Adam on the minibatch MSE plus, when a
    regularizer is supplied, its penalty (1/m) |P y|^2 with weight 1. Stops
    after ``patience`` steps without a validation improvement or at
    ``max_steps``, whichever comes first.
    """
    if n < 0:
        raise ValueError(f"training-set size must be >= 0, got {n}")
    if n == 0 and regularizer is None:
        raise ValueError("nothing to train on: n = 0 and no regularizer")

    train_x = rng.uniform(size=(n, target.d))
    val_x = rng.uniform(size=(config.val_size, target.d))
    test_x = rng.uniform(size=(config.test_size, target.d))
    train_y = target(train_x).astype(DTYPE)
    val_y = target(val_x)
    test_y = target(test_x)

    sizes = [target.d] + [config.width] * config.hidden_layers + [1]
    model = init_mlp(sizes, rng, dtype=DTYPE)
    state = AdamState.for_model(model, config.learning_rate)
    params = model.parameters()

    reg_x = regularizer.points.astype(DTYPE) if regularizer is not None else None
    train_x = train_x.astype(DTYPE)
    val_x = val_x.astype(DTYPE)
    test_xd = test_x.astype(DTYPE)

    batch = min(config.batch_size, n) if n else 0
    # One step's inputs are the minibatch rows followed by the fixed
    # regularizer points; every step overwrites all of dout.
    rows = batch + (len(reg_x) if reg_x is not None else 0)
    xs = np.empty((rows, target.d), dtype=DTYPE)
    if reg_x is not None:
        xs[batch:] = reg_x
    dout = np.empty(rows, dtype=DTYPE)
    work = Workspace(model, max(rows, len(val_x), len(test_xd)))
    order = np.zeros(0, dtype=np.intp)
    cursor = 0

    # Overflow and invalid values raise no numpy warning: a diverging run is
    # caught from its non-finite outputs and loss, and raises DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"):
        best_val = np.inf
        last_improvement = 0
        step = 0
        stopped_early = False
        while step < config.max_steps:
            step += 1
            if n:
                if cursor + batch > len(order):
                    order = rng.permutation(n)
                    cursor = 0
                idx = order[cursor : cursor + batch]
                cursor += batch
                xs[:batch] = train_x[idx]
                yb = train_y[idx]

            try:
                out, cache = mlp_forward_batch(model, xs, work)
            except FloatingPointError:
                raise DivergenceError(step) from None
            loss = 0.0
            if batch:
                resid = out[:batch] - yb
                loss += float(resid @ resid) / batch
                dout[:batch] = (2.0 / batch) * resid
            if regularizer is not None:
                r = regularizer.residual(out[batch:])
                loss += float(r @ r) / regularizer.m
                dout[batch:] = (2.0 / regularizer.m) * r
            if not np.isfinite(loss):
                raise DivergenceError(step)

            adam_step(state, params, mlp_backward(model, cache, dout, work))

            if step % config.eval_every == 0:
                val = _mse(model, val_x, val_y, work)
                if val < best_val:
                    best_val = val
                    last_improvement = step
                elif step - last_improvement >= config.patience:
                    stopped_early = True
                    break

        final_val = _mse(model, val_x, val_y, work)
        test_mse = _mse(model, test_xd, test_y, work)
    return TrainResult(
        model=model,
        test_mse=test_mse,
        steps=step,
        stopped_early=stopped_early,
        val_mse=final_val,
        regularizer=regularizer,
    )


def run_harmonic_scaling(
    B: int,
    arm: str,
    n_grid,
    trials: int,
    seed: int,
    config: TrainConfig = TrainConfig(),
) -> ScalingCurve:
    """Scaling curve for the harmonic task, regularized or not.

    Each trial draws a fresh unit-norm target; each (trial, n) cell
    draws fresh training data, regularizer points and initialization
    from its own stream, so the two arms see identical targets and data
    under the same seed.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r} (expected one of {ARMS})")
    streams.check_key(seed)

    def cell(n_idx: int, n: int, trial: int) -> float:
        regularizer = None
        if arm == "reg":
            # Built first, so too few points for a large B fail before the target's (2B+1)^2 draws.
            pts = streams.stream(seed, streams.REG_POINTS, trial, n_idx).uniform(
                size=(config.reg_points, INPUT_DIM)
            )
            regularizer = BandwidthRegularizer(B=B, d=INPUT_DIM, points=pts)
        target = sample_harmonic(B, INPUT_DIM, streams.stream(seed, streams.TARGET, trial))
        result = train(
            target,
            n,
            config=config,
            regularizer=regularizer,
            rng=streams.stream(seed, streams.TRAIN, trial, n_idx),
        )
        return result.test_mse

    meta = {"task": "harmonic", "arm": arm, "B": B, "d": INPUT_DIM, "width": config.width, "seed": seed}
    return run_cells(cell, n_grid, trials, meta)
