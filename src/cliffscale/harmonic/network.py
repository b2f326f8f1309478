"""Fully connected ReLU regressor with hand-rolled backprop and Adam.

Kept deliberately small and explicit: dense affine layers, ReLU between
them, exact gradients assembled layer by layer so they can be checked
against finite differences.

Forward and backward passes write into a ``Workspace``. Given one, the
returned ``out``, ``cache`` and gradients are views into it, valid until
its next use; without one, each call builds its own, so the results are
fresh arrays. A backward pass writes each delta over its layer's
activation, spending a cache from its workspace but not ``out``. A
training loop reuses one workspace, so no step allocates an (m x width) array.

Where a regularized step's memory goes: one (rows x width) buffer per
hidden layer, holding its activation and then its backward delta; the
(rows x 1) output; a boolean ReLU mask of one row block; and the packed
copy of an operand that the BLAS makes inside a matrix product and keeps
for the life of the process. Hidden-layer products run in blocks of at
most ``ROW_BLOCK`` rows, so that copy, like the mask, is bounded by one
block rather than by the batch. The output layer's width -> 1 product,
the bias-gradient sums and the weight-gradient products run on the whole
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MlpModel",
    "init_mlp",
    "mlp_forward_batch",
    "mlp_backward",
    "Workspace",
    "AdamState",
    "adam_step",
]

# Most rows one hidden-layer product, bias add, ReLU or mask handles at once.
ROW_BLOCK = 4096

# Adam's decay rates and denominator offset (Kingma & Ba 2015), fixed for every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _row_blocks(rows: int) -> list[slice]:
    """Row slices of near-equal blocks, none longer than ROW_BLOCK.

    k = ceil(rows / ROW_BLOCK) blocks with boundaries at rows * j // k.
    When the rows are split, every block has at least ROW_BLOCK / 2 of
    them, and the BLAS rounds its products as it rounds the unblocked
    one; a fixed stride can leave a tail of a few rows, which it rounds
    differently.
    """
    k = max(1, -(-rows // ROW_BLOCK))
    return [slice(rows * j // k, rows * (j + 1) // k) for j in range(k)]


@dataclass
class MlpModel:
    """Affine-ReLU stack; ``weights[i]`` maps layer i to layer i+1."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be nonempty and parallel")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer shapes disagree: {w.shape} vs {b.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("model parameters must be finite")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] (views, not copies)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def init_mlp(layer_sizes, rng: np.random.Generator, dtype=np.float64) -> MlpModel:
    """He-initialized network; final layer must be scalar."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or sizes[-1] != 1 or any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must end in 1 and be positive, got {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append((scale * rng.standard_normal((fan_in, fan_out))).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpModel(weights=weights, biases=biases)


class Workspace:
    """Reusable buffers for forward and backward passes of one model shape.

    Holds, for up to ``rows`` inputs, one activation buffer per layer
    (each hidden one also takes that layer's backward delta), a ReLU mask
    for one row block (``min(rows, ROW_BLOCK)`` rows, as wide as the
    widest hidden layer), and gradient arrays shaped like
    ``model.parameters()``. A pass on fewer rows uses leading-row views.
    The BLAS's packed operand copy, outside numpy, is bounded by one block.
    """

    def __init__(self, model: MlpModel, rows: int):
        dtype = model.weights[0].dtype
        self.rows = int(rows)
        self.layer_sizes = model.layer_sizes
        self.dtype = dtype
        self.activations = [np.empty((self.rows, w.shape[1]), dtype=dtype) for w in model.weights]
        hidden = max((w.shape[0] for w in model.weights[1:]), default=0)
        self._mask = np.empty(min(self.rows, ROW_BLOCK) * hidden, dtype=bool)
        self.grads = [np.empty_like(p) for p in model.parameters()]

    def _check(self, model: MlpModel, rows: int) -> None:
        if model.layer_sizes != self.layer_sizes or model.weights[0].dtype != self.dtype:
            raise ValueError(
                f"workspace was built for {self.layer_sizes} {self.dtype}, "
                f"not {model.layer_sizes} {model.weights[0].dtype}"
            )
        if rows > self.rows:
            raise ValueError(f"workspace holds {self.rows} rows, got {rows}")


def mlp_forward_batch(model: MlpModel, xs: np.ndarray, work: Workspace | None = None):
    """Outputs and the activation cache for a batch of inputs.

    Returns (out, cache): out has shape (m,), cache holds the input and
    every post-ReLU activation for the backward pass. Apart from the
    input, both are views into ``work`` (a fresh workspace when none is
    given).
    """
    a = np.asarray(xs, dtype=model.weights[0].dtype)
    if a.ndim != 2 or a.shape[1] != model.weights[0].shape[0]:
        raise ValueError(f"inputs must have shape (m, {model.weights[0].shape[0]}), got {a.shape}")
    rows = len(a)
    if work is None:
        work = Workspace(model, rows)
    work._check(model, rows)
    cache = [a]
    last = len(model.weights) - 1
    blocks = _row_blocks(rows)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = work.activations[i][:rows]
        if i == last:
            np.matmul(a, w, out=z)
            z += b
        else:
            for blk in blocks:
                zb = np.matmul(a[blk], w, out=z[blk])
                zb += b
                np.maximum(zb, 0.0, out=zb)
        cache.append(z)
        a = z
    out = cache.pop()[:, 0]
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite activations: training diverged")
    return out, cache


def mlp_backward(
    model: MlpModel, cache: list[np.ndarray], dout: np.ndarray, work: Workspace | None = None
) -> list[np.ndarray]:
    """Exact gradients of sum_i dout_i * f(x_i) in parameters() order.

    ``cache`` is the activation list from mlp_forward_batch on the same
    batch; ``dout`` is the loss gradient with respect to the outputs.
    The gradients are views into ``work`` (a fresh workspace when none
    is given). Each hidden delta overwrites its layer's activation buffer
    in ``work``, so a cache from ``work`` is spent; ``out`` is not.
    """
    dout = np.asarray(dout, dtype=model.weights[0].dtype)
    rows = len(cache[0])
    if dout.shape != (rows,):
        raise ValueError(f"dout must have shape ({rows},), got {dout.shape}")
    if work is None:
        work = Workspace(model, rows)
    work._check(model, rows)
    grads = work.grads
    blocks = _row_blocks(rows)
    delta = dout[:, None]
    for i in range(len(model.weights) - 1, -1, -1):
        w = model.weights[i]
        np.sum(delta, axis=0, out=grads[2 * i + 1])
        np.matmul(cache[i].T, delta, out=grads[2 * i])
        if i > 0:
            nxt = work.activations[i - 1][:rows]
            for blk in blocks:
                # A block's mask is taken before its rows of nxt, which may
                # be cache[i], are overwritten.
                src, dst = cache[i][blk], nxt[blk]
                mask = np.greater(src, 0, out=work._mask[: src.size].reshape(src.shape))
                if w.shape[1] == 1:
                    # A product over one column is one rounding per element,
                    # as in the matrix product, without the BLAS call.
                    np.multiply(delta[blk], w.T, out=dst)
                else:
                    np.matmul(delta[blk], w.T, out=dst)
                dst *= mask
            delta = nxt
    return list(grads)


@dataclass
class AdamState:
    """Adaptive-moment optimizer state mirroring a parameter list."""

    first: list[np.ndarray]
    second: list[np.ndarray]
    learning_rate: float
    step: int = 0
    # Two arrays per parameter for adam_step's intermediate terms, made on first use.
    scratch: list[np.ndarray] = field(default_factory=list, init=False, repr=False, compare=False)

    @classmethod
    def for_model(cls, model: MlpModel, learning_rate: float) -> "AdamState":
        params = model.parameters()
        return cls(
            first=[np.zeros_like(p) for p in params],
            second=[np.zeros_like(p) for p in params],
            learning_rate=learning_rate,
        )


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place.

    Per element: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= (lr / c1) m / (sqrt(v / c2) + eps), where b1, b2 and eps are
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS. It is evaluated in the parameter
    dtype through the state's scratch arrays, so a step allocates nothing.
    """
    if len(params) != len(state.first) or len(grads) != len(params):
        raise ValueError("parameter, gradient and moment lists must be parallel")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if g.dtype != p.dtype:
            raise ValueError(f"gradient dtype {g.dtype} != parameter dtype {p.dtype}")
    if not state.scratch:
        state.scratch = [np.empty((2, *m.shape), dtype=m.dtype) for m in state.first]
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correct1 = 1.0 - b1 ** state.step
    correct2 = 1.0 - b2 ** state.step
    scale = state.learning_rate / correct1
    for p, g, m, v, (num, den) in zip(params, grads, state.first, state.second, state.scratch):
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=num)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=num), 1.0 - b2, out=num)
        np.multiply(m, scale, out=num)
        np.sqrt(np.divide(v, correct2, out=den), out=den)
        den += ADAM_EPS
        p -= np.divide(num, den, out=num)
