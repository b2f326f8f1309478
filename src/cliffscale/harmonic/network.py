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
hidden layer, holding its activation and then its backward delta, except
that with three or more hidden layers the first and the third share one
buffer, so the default three-layer harmonic model holds two such
buffers, not three; the (rows x 1) output; a boolean ReLU mask of one row
block per thread slot; and the packed copy of an operand that the BLAS
makes inside a matrix product and keeps for the life of the process, one
per thread that runs products. The forward pass
writes the third activation over the first and leaves the first out of
its cache. The backward pass recomputes it from the input, with the
forward pass's blocks and operations, into that buffer once the third
layer's delta there has been used: a product over the input dimension,
2 in the harmonic task, which costs a few milliseconds of a step whose
(rows x width) @ (width x width) products cost a few hundred. Hidden-layer
products run in blocks of at most ``ROW_BLOCK`` rows, so the BLAS's
copy, like the mask, is bounded by one block rather than by the batch.
The output layer's width -> 1 product, the bias-gradient sums and the
weight-gradient products run on the whole batch.

A pass over more than ``ROW_BLOCK`` rows runs its independent pieces on
one thread per usable CPU, as the k-d tree of ``linreg`` does, when the
BLAS runs on one thread (as every cell of ``curves.run_cells`` does): the
hidden-layer blocks, the backward delta blocks, and each weight gradient
split by output rows. The block threads issue the serial loop's calls,
and a weight gradient is split only where its pieces round as the whole
product (``_output_row_pieces``), each call on one BLAS thread, so the
bits do not depend on how many threads ran them. A process pinned to one
CPU, or on more BLAS threads, runs the serial loop. The threads are
started and joined within each pass, so none outlives it.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field

import numpy as np

from .. import _blas, _parallel

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


def _output_row_pieces(fan_in: int, fan_out: int, rows: int, parts: int) -> list[slice]:
    """At most ``parts`` near-equal slices of a weight gradient's output rows, or one slice of all of them.

    One BLAS thread rounds ``act[:, h].T @ delta`` into ``g[h]`` as the
    whole ``act.T @ delta`` when every piece is a multiple of 64 rows and
    either fan_out is 1 (a matrix-vector product) or every piece takes
    more than 10^6 multiply-adds, above which OpenBLAS leaves its
    small-matrix kernels. This held on its SkylakeX kernels for fan_in 64
    to 1024, fan_out 1 to 1000 and 4097 to 20 100 rows, in float32 and
    float64, in 2 to 8 pieces; the tail of fan_in 100, halves of fan_in 16
    and 64-row pieces at fan_out 2 rounded differently. So a gradient that
    cannot be split so is one piece.
    """
    unit = 64
    if fan_in % unit == 0:
        units = fan_in // unit
        bounds = sorted({unit * (units * j // parts) for j in range(parts + 1)})
        if fan_out == 1 or min(b - a for a, b in zip(bounds, bounds[1:])) * fan_out * rows > 10**6:
            return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [slice(0, fan_in)]


def _threads(work: "Workspace", tasks: int) -> int:
    """How many threads a pass spreads its ``tasks`` independent pieces over.

    One per usable CPU, capped at the pieces and at the workspace's mask
    slots (the CPUs may have changed since it was built); 1 unless the BLAS
    runs on one thread, so a caller on more BLAS threads keeps the serial
    loop and its bits.
    """
    slots = len(work._mask)
    if tasks < 2 or slots < 2 or _blas.thread_count() != 1:
        return 1
    return min(tasks, slots, len(_parallel.usable_cpus()))


def _spread(threads: int, share, items: list) -> None:
    """``share(slot, items[slot::threads])`` for every slot, each on its own thread.

    This thread runs slot 0; the others start here and are joined before
    this returns or raises. Each runs in a copy of this thread's context,
    so numpy's error state (``np.errstate``) applies in it as here. An
    exception in any slot is raised here, the lowest slot's first.
    """
    if threads < 2:
        share(0, items)
        return
    errors = [None] * threads

    def run(slot):
        try:
            share(slot, items[slot::threads])
        except BaseException as exc:  # raised again in the caller below
            errors[slot] = exc

    started = []
    try:
        for slot in range(1, threads):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(run, slot))
            worker.start()
            started.append(worker)
        share(0, items[0::threads])
    finally:
        for worker in started:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc


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

    Holds, for up to ``rows`` inputs, one activation array per layer
    (each hidden one also takes that layer's backward delta), a ReLU mask
    for one row block (``min(rows, ROW_BLOCK)`` rows, as wide as the
    widest hidden layer) per thread slot, and gradient arrays shaped like
    ``model.parameters()``. When ``recomputes_first`` (three or more
    hidden layers), ``activations[0]`` and ``activations[2]`` are views of
    one buffer: the first hidden activation is not kept for the backward
    pass, which recomputes it. A pass on fewer rows uses leading-row
    views. The BLAS's packed operand copy, outside numpy, is bounded by
    one block per thread. A pass spreads over at most as many threads as
    the mask has slots: one per CPU usable when the workspace is built, up
    to one per row block.
    """

    def __init__(self, model: MlpModel, rows: int):
        dtype = model.weights[0].dtype
        self.rows = int(rows)
        self.layer_sizes = model.layer_sizes
        self.dtype = dtype
        widths = [w.shape[1] for w in model.weights]
        self.recomputes_first = len(widths) > 3
        flat = {}
        if self.recomputes_first:
            flat[0] = flat[2] = np.empty(self.rows * max(widths[0], widths[2]), dtype=dtype)
        self.activations = [
            flat[i][: self.rows * k].reshape(self.rows, k) if i in flat else np.empty((self.rows, k), dtype=dtype)
            for i, k in enumerate(widths)
        ]
        hidden = max((w.shape[0] for w in model.weights[1:]), default=0)
        # One mask block per thread slot: per CPU usable now, up to one per row block.
        slots = min(len(_parallel.usable_cpus()), len(_row_blocks(self.rows)))
        self._mask = np.empty((slots, min(self.rows, ROW_BLOCK) * hidden), dtype=bool)
        self.grads = [np.empty_like(p) for p in model.parameters()]

    def _check(self, model: MlpModel, rows: int) -> None:
        if model.layer_sizes != self.layer_sizes or model.weights[0].dtype != self.dtype:
            raise ValueError(
                f"workspace was built for {self.layer_sizes} {self.dtype}, "
                f"not {model.layer_sizes} {model.weights[0].dtype}"
            )
        if rows > self.rows:
            raise ValueError(f"workspace holds {self.rows} rows, got {rows}")


def _hidden_layer(
    a: np.ndarray, w: np.ndarray, b: np.ndarray, z: np.ndarray, blocks: list[slice], threads: int
) -> None:
    """z = max(a @ w + b, 0), one row block at a time, the blocks spread over ``threads`` threads."""

    def share(_slot, blks):
        for blk in blks:
            zb = np.matmul(a[blk], w, out=z[blk])
            zb += b
            np.maximum(zb, 0.0, out=zb)

    _spread(threads, share, blocks)


def mlp_forward_batch(model: MlpModel, xs: np.ndarray, work: Workspace | None = None):
    """Outputs and the activation cache for a batch of inputs.

    Returns (out, cache): out has shape (m,), cache holds the input and
    every post-ReLU activation for the backward pass, except that
    ``cache[1]``, the first hidden activation, is None when the workspace
    ``recomputes_first``. Apart from the input, both are views into
    ``work`` (a fresh workspace when none is given).
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
    threads = _threads(work, len(blocks))
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = work.activations[i][:rows]
        if i == last:
            np.matmul(a, w, out=z)
            z += b
        else:
            _hidden_layer(a, w, b, z, blocks, threads)
        # The third hidden layer writes over the first.
        cache.append(None if i == 0 and work.recomputes_first else z)
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
    When ``cache[1]`` is None, the first hidden activation is recomputed
    from ``cache[0]`` into ``work``. The gradients are views into ``work``
    (a fresh workspace when none is given). Each hidden delta overwrites
    its layer's activation buffer in ``work``, so a cache from ``work`` is
    spent; ``out`` is not.
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
    threads = _threads(work, len(blocks))
    delta = dout[:, None]
    for i in range(len(model.weights) - 1, -1, -1):
        w = model.weights[i]
        act = cache[i]
        if act is None:
            # activations[0] holds nothing still needed here: at most the
            # third hidden layer's delta, already spent.
            act = work.activations[0][:rows]
            _hidden_layer(cache[0], model.weights[0], model.biases[0], act, blocks, threads)
        np.sum(delta, axis=0, out=grads[2 * i + 1])
        _weight_gradient(act, delta, grads[2 * i], threads)
        if i > 0:
            nxt = work.activations[i - 1][:rows]
            _delta_blocks(act, delta, w, nxt, work._mask, blocks, threads)
            delta = nxt
    return list(grads)


def _weight_gradient(act: np.ndarray, delta: np.ndarray, g: np.ndarray, threads: int) -> None:
    """g = act.T @ delta, its output rows split over ``threads`` threads where that keeps the bits."""
    pieces = _output_row_pieces(*g.shape, len(act), threads) if threads > 1 else [slice(None)]

    def share(_slot, hs):
        for h in hs:
            np.matmul(act[:, h].T, delta, out=g[h])

    _spread(min(threads, len(pieces)), share, pieces)


def _delta_blocks(
    act: np.ndarray, delta: np.ndarray, w: np.ndarray, nxt: np.ndarray, masks: np.ndarray, blocks: list[slice],
    threads: int,
) -> None:
    """nxt = (delta @ w.T) * (act > 0), one row block at a time, each thread on its own mask slot."""

    def share(slot, blks):
        for blk in blks:
            # A block's mask is taken before its rows of nxt, which may
            # be act, are overwritten.
            src, dst = act[blk], nxt[blk]
            mask = np.greater(src, 0, out=masks[slot, : src.size].reshape(src.shape))
            if w.shape[1] == 1:
                # A product over one column is one rounding per element,
                # as in the matrix product, without the BLAS call.
                np.multiply(delta[blk], w.T, out=dst)
            else:
                np.matmul(delta[blk], w.T, out=dst)
            dst *= mask

    _spread(threads, share, blocks)


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
