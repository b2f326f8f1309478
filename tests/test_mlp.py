"""Tests for the MLP forward/backward pass and the Adam optimizer."""

import numpy as np
import pytest

from cliffscale import streams
from cliffscale.harmonic import network
from cliffscale.harmonic.network import (
    ROW_BLOCK,
    AdamState,
    MlpModel,
    Workspace,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward_batch,
)


def rng_for(*key):
    return streams.stream(31337, *key)


def reference_forward(model, xs):
    """The plain expression form of mlp_forward_batch, one fresh array per op."""
    a = np.asarray(xs, dtype=model.weights[0].dtype)
    cache = [a]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        cache.append(a)
    return cache.pop()[:, 0], cache


def reference_backward(model, cache, dout):
    """The plain expression form of mlp_backward."""
    grads = []
    delta = np.asarray(dout, dtype=model.weights[0].dtype)[:, None]
    for i in range(len(model.weights) - 1, -1, -1):
        grads.append(delta.sum(axis=0))
        grads.append(cache[i].T @ delta)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (cache[i] > 0)
    grads.reverse()
    return grads


def reference_adam(state, params, grads):
    """The plain expression form of adam_step."""
    state.step += 1
    b1, b2 = network.ADAM_BETA1, network.ADAM_BETA2
    correct1 = 1.0 - b1 ** state.step
    correct2 = 1.0 - b2 ** state.step
    scale = state.learning_rate / correct1
    for p, g, m, v in zip(params, grads, state.first, state.second):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= scale * m / (np.sqrt(v / correct2) + network.ADAM_EPS)


def assert_arrays_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def flat_loss(model, xs, dout_fn):
    """Scalar loss sum_i c_i f(x_i) for gradient checking."""
    out, _ = mlp_forward_batch(model, xs)
    return float(dout_fn @ out)


class TestForward:
    def test_zero_weights_output_bias(self):
        model = init_mlp([2, 4, 4, 1], rng_for(1))
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][:] = 1.25
        out, _ = mlp_forward_batch(model, np.array([[0.3, 0.9]]))
        assert out.shape == (1,)
        assert float(out[0]) == pytest.approx(1.25)

    def test_single_linear_layer_is_affine(self):
        model = init_mlp([3, 1], rng_for(2))
        w = model.weights[0][:, 0]
        b = model.biases[0][0]
        x = rng_for(3).standard_normal(3)
        out, _ = mlp_forward_batch(model, x[None, :])
        assert float(out[0]) == pytest.approx(float(x @ w + b))

    def test_batch_matches_single(self):
        model = init_mlp([2, 8, 8, 8, 1], rng_for(4))
        xs = rng_for(5).uniform(size=(10, 2))
        out, _ = mlp_forward_batch(model, xs)
        for x, o in zip(xs, out):
            single, _ = mlp_forward_batch(model, x[None, :])
            assert float(single[0]) == pytest.approx(float(o))

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError):
            MlpModel(weights=[np.array([[np.inf]])], biases=[np.zeros(1)])


class TestBackward:
    def test_gradcheck_small_model(self):
        # Central finite differences on a width-8 model, inputs jittered
        # away from ReLU kinks by construction (random irrational-ish draws).
        rng = rng_for(6)
        model = init_mlp([2, 8, 8, 8, 1], rng)
        xs = rng.uniform(0.05, 0.95, size=(12, 2))
        coeffs = rng.standard_normal(12)
        out, cache = mlp_forward_batch(model, xs)
        grads = mlp_backward(model, cache, coeffs)
        params = model.parameters()
        step = 1e-6
        checked = 0
        for _ in range(100):
            pi = int(rng.integers(len(params)))
            arr = params[pi]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + step
            plus = flat_loss(model, xs, coeffs)
            arr[idx] = orig - step
            minus = flat_loss(model, xs, coeffs)
            arr[idx] = orig
            numeric = (plus - minus) / (2 * step)
            analytic = grads[pi][idx]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-4
            checked += 1
        assert checked == 100

    def test_degenerate_linear_layer_matches_least_squares(self):
        # One affine layer trained on squared error reproduces the linear
        # regression gradient 2/b * X'(Xw + c - y).
        rng = rng_for(7)
        model = init_mlp([3, 1], rng)
        xs = rng.standard_normal((20, 3))
        ys = rng.standard_normal(20)
        out, cache = mlp_forward_batch(model, xs)
        resid = out - ys
        grads = mlp_backward(model, cache, (2.0 / len(xs)) * resid)
        expected_w = 2.0 / len(xs) * xs.T @ resid
        expected_b = 2.0 / len(xs) * resid.sum()
        assert np.allclose(grads[0][:, 0], expected_w)
        assert grads[1][0] == pytest.approx(expected_b)

    def test_shape_mismatch_rejected(self):
        model = init_mlp([2, 4, 1], rng_for(8))
        xs = rng_for(9).uniform(size=(5, 2))
        _, cache = mlp_forward_batch(model, xs)
        with pytest.raises(ValueError):
            mlp_backward(model, cache, np.zeros(6))


class TestWorkspace:
    MODELS = {"deep": [2, 8, 16, 8, 1], "linear": [3, 1]}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sizes", MODELS.values(), ids=MODELS.keys())
    def test_matches_reference_at_and_below_capacity(self, dtype, sizes):
        rng = rng_for(30)
        model = init_mlp(sizes, rng, dtype=dtype)
        xs = rng.uniform(size=(60, sizes[0]))
        dout = rng.standard_normal(60)
        work = Workspace(model, 60)
        for rows in (60, 59, 17, 1):
            want_out, want_cache = reference_forward(model, xs[:rows])
            want_grads = reference_backward(model, want_cache, dout[:rows])
            for w in (work, None):
                out, cache = mlp_forward_batch(model, xs[:rows], w)
                assert_arrays_equal([out, *cache], [want_out, *want_cache])
                assert_arrays_equal(mlp_backward(model, cache, dout[:rows], w), want_grads)

    def test_matches_reference_at_training_scale(self):
        # The output layer's k = 1 product is an elementwise multiply here
        # and a BLAS call in the reference; both round once per element.
        rng = rng_for(31)
        model = init_mlp([2, 64, 64, 1], rng, dtype=np.float32)
        xs = rng.uniform(size=(2060, 2))
        dout = rng.standard_normal(2060)
        out, cache = mlp_forward_batch(model, xs, Workspace(model, 2060))
        want_out, want_cache = reference_forward(model, xs)
        assert_arrays_equal([out, *cache], [want_out, *want_cache])
        assert_arrays_equal(mlp_backward(model, cache, dout), reference_backward(model, want_cache, dout))

    def test_results_live_in_the_workspace(self):
        rng = rng_for(32)
        model = init_mlp([2, 8, 8, 1], rng)
        work = Workspace(model, 10)
        out, cache = mlp_forward_batch(model, rng.uniform(size=(10, 2)), work)
        kept_out = out.copy()
        grads = mlp_backward(model, cache, np.ones(10), work)
        assert all(np.shares_memory(a, b) for a, b in zip(cache[1:], work.activations))
        assert np.shares_memory(out, work.activations[-1])
        # The backward pass spends the hidden activations but not the output.
        assert_arrays_equal([out], [kept_out])
        assert all(g is w for g, w in zip(grads, work.grads))

    def test_fresh_results_survive_later_calls(self):
        rng = rng_for(33)
        model = init_mlp([2, 8, 8, 1], rng)
        xs, other = rng.uniform(size=(2, 12, 2))
        out, cache = mlp_forward_batch(model, xs)
        grads = mlp_backward(model, cache, np.ones(12))
        kept = [a.copy() for a in (out, *cache, *grads)]
        _, other_cache = mlp_forward_batch(model, other)
        mlp_backward(model, other_cache, np.full(12, -3.0))
        assert_arrays_equal([out, *cache, *grads], kept)

    def test_backward_without_a_workspace_leaves_the_cache_intact(self):
        rng = rng_for(35)
        model = init_mlp([2, 8, 8, 8, 1], rng, dtype=np.float32)
        out, cache = mlp_forward_batch(model, rng.uniform(size=(12, 2)), Workspace(model, 12))
        dout = rng.standard_normal(12)
        kept = [a.copy() for a in (out, *cache)]
        grads = mlp_backward(model, cache, dout)
        assert_arrays_equal([out, *cache], kept)
        assert_arrays_equal(grads, reference_backward(model, kept[1:], dout))

    def test_rejects_more_rows_or_another_model(self):
        rng = rng_for(34)
        model = init_mlp([2, 8, 1], rng)
        work = Workspace(model, 4)
        with pytest.raises(ValueError, match="4 rows"):
            mlp_forward_batch(model, np.zeros((5, 2)), work)
        with pytest.raises(ValueError, match="built for"):
            mlp_forward_batch(init_mlp([2, 8, 1], rng, dtype=np.float32), np.zeros((3, 2)), work)
        with pytest.raises(ValueError, match="built for"):
            mlp_forward_batch(init_mlp([2, 4, 1], rng), np.zeros((3, 2)), work)


class TestRowBlocks:
    # Totals just past one and two blocks: a fixed ROW_BLOCK stride would
    # leave 1- to 4-row tails here, which the BLAS rounds differently.
    BLOCKED_ROWS = [ROW_BLOCK + 1, ROW_BLOCK + 2, ROW_BLOCK + 4, 2 * ROW_BLOCK + 1, 20_060]

    @pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK, *BLOCKED_ROWS])
    def test_blocks_are_near_equal_and_cover_the_rows(self, rows):
        blocks = network._row_blocks(rows)
        sizes = [blk.stop - blk.start for blk in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, -(-rows // ROW_BLOCK))
        assert max(sizes) <= ROW_BLOCK and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", BLOCKED_ROWS)
    def test_blocked_passes_match_reference(self, rows, dtype):
        # Inner dimensions 2, 64 and 256 forward, 64 and 256 backward.
        rng = rng_for(36)
        model = init_mlp([2, 64, 256, 64, 1], rng, dtype=dtype)
        xs = rng.uniform(size=(rows, 2))
        dout = rng.standard_normal(rows)
        want_out, want_cache = reference_forward(model, xs)
        want_grads = reference_backward(model, want_cache, dout)
        work = Workspace(model, rows)
        assert work._mask.size == ROW_BLOCK * 256
        for w in (work, None):
            out, cache = mlp_forward_batch(model, xs, w)
            assert_arrays_equal([out, *cache], [want_out, *want_cache])
            assert_arrays_equal(mlp_backward(model, cache, dout, w), want_grads)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        model = init_mlp([2, 4, 1], rng_for(10))
        state = AdamState.for_model(model, learning_rate=1e-3)
        params = model.parameters()
        before = [p.copy() for p in params]
        grads = [np.full_like(p, 0.5) * np.sign(rng_for(11).standard_normal(p.shape) + 2.0) for p in params]
        adam_step(state, params, grads)
        for b, p, g in zip(before, params, grads):
            move = b - p
            assert np.allclose(np.abs(move), 1e-3, rtol=1e-6)
            assert np.all(np.sign(move) == np.sign(g))

    def test_zero_gradient_is_a_fixed_point(self):
        model = init_mlp([2, 4, 1], rng_for(12))
        state = AdamState.for_model(model, learning_rate=1e-3)
        params = model.parameters()
        before = [p.copy() for p in params]
        for _ in range(5):
            adam_step(state, params, [np.zeros_like(p) for p in params])
        for b, p in zip(before, params):
            assert np.array_equal(b, p)

    def test_deterministic_trajectory(self):
        def run():
            model = init_mlp([2, 6, 1], rng_for(13))
            state = AdamState.for_model(model, learning_rate=3e-3)
            params = model.parameters()
            rng = rng_for(14)
            for _ in range(50):
                grads = [rng.standard_normal(p.shape) for p in params]
                adam_step(state, params, grads)
            return [p.copy() for p in params]

        a, b = run(), run()
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_shape_mismatch_rejected(self):
        model = init_mlp([2, 4, 1], rng_for(15))
        state = AdamState.for_model(model, learning_rate=1e-3)
        params = model.parameters()
        bad = [np.zeros_like(p) for p in params]
        bad[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            adam_step(state, params, bad)

    def test_dtype_mismatch_rejected_before_any_update(self):
        model = init_mlp([2, 4, 1], rng_for(18), dtype=np.float32)
        state = AdamState.for_model(model, learning_rate=1e-3)
        params = model.parameters()
        before = [p.copy() for p in params]
        grads = [np.ones(p.shape, dtype=np.float64) for p in params]
        with pytest.raises(ValueError, match="dtype"):
            adam_step(state, params, grads)
        assert state.step == 0
        assert_arrays_equal(params, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_expression(self, dtype):
        rng = rng_for(19)
        model, twin = (init_mlp([2, 16, 16, 1], rng_for(20), dtype=dtype) for _ in range(2))
        state = AdamState.for_model(model, learning_rate=3e-3)
        ref = AdamState.for_model(twin, learning_rate=3e-3)
        for _ in range(30):
            grads = [rng.standard_normal(p.shape).astype(dtype) for p in model.parameters()]
            adam_step(state, model.parameters(), grads)
            reference_adam(ref, twin.parameters(), grads)
        assert_arrays_equal(model.parameters(), twin.parameters())
        assert_arrays_equal(state.first + state.second, ref.first + ref.second)
