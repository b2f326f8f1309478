"""Training harness for the harmonic regression task.

Minibatch MSE plus an optional bandwidth penalty evaluated on all m
regularizer points every step, with validation-based early stopping.
The checkpoint in effect when training stops is the one reported
(no best-checkpoint rewind).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import _blas, streams
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
    reg_lambda: float = 1.0


@dataclass
class TrainResult:
    model: MlpModel
    test_mse: float
    steps: int
    stopped_early: bool
    val_mse: float
    reg_value: float | None


def _mse(model: MlpModel, xs: np.ndarray, targets: np.ndarray, work: Workspace) -> float:
    preds, _ = mlp_forward_batch(model, xs, work)
    resid = preds.astype(float) - targets
    return float(resid @ resid) / len(targets)


def train(
    target: HarmonicFunction,
    n: int,
    config: TrainConfig = TrainConfig(),
    regularizer: BandwidthRegularizer | None = None,
    rng: np.random.Generator | None = None,
) -> TrainResult:
    """Fit an MLP to n uniform samples of the target.

    Draws training, validation and test points from ``rng`` (uniform on
    the unit cube), then runs Adam on the minibatch MSE, adding
    ``lam * penalty`` from the regularizer when one is supplied. Stops
    after ``patience`` steps without a validation improvement or at
    ``max_steps``, whichever comes first.
    """
    if rng is None:
        raise ValueError("a seeded generator is required for reproducible training")
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

    # A step's largest product is its rows by a width x width layer. The
    # validation and test forwards run in the same scope. Overflow and
    # invalid values raise no numpy warning: a diverging run is caught from
    # its non-finite outputs and loss, and raises DivergenceError.
    with _blas.threads_for(rows * config.width * config.width), np.errstate(over="ignore", invalid="ignore"):
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
                loss += regularizer.lam * float(r @ r) / regularizer.m
                dout[batch:] = regularizer.lam * (2.0 / regularizer.m) * r
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
        reg_value = None
        if regularizer is not None:
            preds, _ = mlp_forward_batch(model, reg_x, work)
            reg_value = regularizer_value(regularizer, preds)
    return TrainResult(
        model=model,
        test_mse=test_mse,
        steps=step,
        stopped_early=stopped_early,
        val_mse=final_val,
        reg_value=reg_value,
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

    def cell(n_idx: int, n: int, trial: int) -> float:
        target = sample_harmonic(B, INPUT_DIM, streams.stream(seed, streams.TARGET, trial))
        regularizer = None
        if arm == "reg":
            pts = streams.stream(seed, streams.REG_POINTS, trial, n_idx).uniform(
                size=(config.reg_points, INPUT_DIM)
            )
            regularizer = BandwidthRegularizer(B=B, d=INPUT_DIM, points=pts, lam=config.reg_lambda)
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
