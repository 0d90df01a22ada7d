"""Gradient-checked tests for the LSTM cell."""

import numpy as np
import pytest

from repro.nn.lstm import LSTMCell


def numeric_grad(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = fn()
        flat[i] = old - eps
        down = fn()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


class TestForward:
    def test_shapes(self, rng):
        cell = LSTMCell(4, 6, rng=1)
        h, c = cell.initial_state(3)
        x = rng.normal(size=(3, 4))
        h2, c2, _ = cell.forward(x, h, c)
        assert h2.shape == (3, 6)
        assert c2.shape == (3, 6)

    def test_forget_bias_initialized(self):
        cell = LSTMCell(2, 3, rng=0)
        bias = cell.bias.value
        np.testing.assert_allclose(bias[3:6], 1.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 4)

    def test_deterministic_given_seed(self, rng):
        a = LSTMCell(3, 5, rng=42)
        b = LSTMCell(3, 5, rng=42)
        np.testing.assert_array_equal(a.w_x.value, b.w_x.value)


class TestBackward:
    def test_gradient_check_single_step(self, rng):
        cell = LSTMCell(3, 4, rng=2)
        x = rng.normal(size=(2, 3))
        h0 = rng.normal(size=(2, 4))
        c0 = rng.normal(size=(2, 4))
        dh = rng.normal(size=(2, 4))
        dc = rng.normal(size=(2, 4))

        def loss():
            h2, c2, _ = cell.forward(x, h0, c0)
            return float(np.sum(h2 * dh) + np.sum(c2 * dc))

        cell.zero_grad()
        h2, c2, cache = cell.forward(x, h0, c0)
        dx, dh0, dc0 = cell.backward(dh, dc, cache)

        np.testing.assert_allclose(numeric_grad(loss, x), dx, atol=1e-6)
        np.testing.assert_allclose(numeric_grad(loss, h0), dh0, atol=1e-6)
        np.testing.assert_allclose(numeric_grad(loss, c0), dc0, atol=1e-6)
        np.testing.assert_allclose(
            numeric_grad(loss, cell.w_x.value), cell.w_x.grad, atol=1e-6
        )
        np.testing.assert_allclose(
            numeric_grad(loss, cell.w_h.value), cell.w_h.grad, atol=1e-6
        )
        np.testing.assert_allclose(
            numeric_grad(loss, cell.bias.value), cell.bias.grad, atol=1e-6
        )

    def test_gradient_check_two_steps_bptt(self, rng):
        cell = LSTMCell(2, 3, rng=5)
        x1 = rng.normal(size=(2, 2))
        x2 = rng.normal(size=(2, 2))
        dh = rng.normal(size=(2, 3))

        def loss():
            h, c = cell.initial_state(2)
            h, c, _ = cell.forward(x1, h, c)
            h, c, _ = cell.forward(x2, h, c)
            return float(np.sum(h * dh))

        cell.zero_grad()
        h, c = cell.initial_state(2)
        h1, c1, cache1 = cell.forward(x1, h, c)
        h2, c2, cache2 = cell.forward(x2, h1, c1)
        dx2, dh1, dc1 = cell.backward(dh, np.zeros_like(c2), cache2)
        dx1, _, _ = cell.backward(dh1, dc1, cache1)

        np.testing.assert_allclose(numeric_grad(loss, x2), dx2, atol=1e-6)
        np.testing.assert_allclose(numeric_grad(loss, x1), dx1, atol=1e-6)
        np.testing.assert_allclose(
            numeric_grad(loss, cell.w_h.value), cell.w_h.grad, atol=1e-6
        )


def _sigmoid_per_gate(x):
    # The previous ``F.sigmoid``, applied per gate slice as before the
    # gates were fused.
    z = np.exp(-np.abs(x))
    one_plus = 1.0 + z
    return np.where(x >= 0, 1.0 / one_plus, z / one_plus).astype(float, copy=False)


def _per_gate_step(cell, x, h, c):
    """The previous three-sigmoid gate math of ``LSTMCell.forward``."""
    hidden = cell.hidden_size
    z = x @ cell.w_x.value + h @ cell.w_h.value + cell.bias.value
    i = _sigmoid_per_gate(z[:, :hidden])
    f = _sigmoid_per_gate(z[:, hidden : 2 * hidden])
    g = np.tanh(z[:, 2 * hidden : 3 * hidden])
    o = _sigmoid_per_gate(z[:, 3 * hidden :])
    c_next = f * c + i * g
    tanh_c = np.tanh(c_next)
    cache = {"x": x, "h": h, "c": c, "i": i, "f": f, "g": g, "o": o,
             "tanh_c": tanh_c}
    return o * tanh_c, c_next, cache


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFusedGates:
    """One sigmoid over all four gates gives the per-gate floats."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch,hidden", [(1, 6), (3, 6), (1, 64), (5, 64)])
    def test_forward_and_backward_match_per_gate_math(
        self, rng, dtype, batch, hidden
    ):
        cell = LSTMCell(4, hidden, rng=3)
        cell.cast(dtype)
        x = rng.normal(scale=3.0, size=(batch, 4)).astype(dtype)
        h0, c0 = cell.initial_state(batch)
        h0 = h0 + rng.normal(size=h0.shape)
        c0 = c0 + rng.normal(size=c0.shape)
        h, c, cache = cell.forward(x, h0, c0)
        want_h, want_c, want_cache = _per_gate_step(cell, x, h0, c0)
        assert _same_bytes(h, want_h) and _same_bytes(c, want_c)
        for key in ("i", "f", "g", "o", "tanh_c"):
            assert _same_bytes(np.ascontiguousarray(cache[key]), want_cache[key])

        dh = rng.normal(size=h.shape)
        dc = rng.normal(size=c.shape)
        cell.zero_grad()
        got = cell.backward(dh, dc, cache)
        got_grads = [p.grad.copy() for p in (cell.w_x, cell.w_h, cell.bias)]
        cell.zero_grad()
        want = cell.backward(dh, dc, want_cache)
        want_grads = [p.grad for p in (cell.w_x, cell.w_h, cell.bias)]
        for a, b in zip(list(got) + got_grads, list(want) + want_grads):
            assert _same_bytes(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_projection_step_matches_forward(self, rng, dtype):
        cell = LSTMCell(5, 8, rng=4)
        cell.cast(dtype)
        h, c = cell.initial_state(3)
        w_h, bias = cell.recurrent_weights(h.dtype)
        assert w_h.dtype == bias.dtype == h.dtype
        h_ref, c_ref = h, c
        for _ in range(4):
            x = rng.normal(size=(3, 5)).astype(dtype)
            h, c = cell.forward_from_projection(x @ cell.w_x.value, h, c, w_h, bias)
            h_ref, c_ref, _ = cell.forward(x, h_ref, c_ref)
            assert _same_bytes(h, h_ref) and _same_bytes(c, c_ref)

    def test_recurrent_weights_are_not_cached(self):
        # The cast follows the live parameters (no stale copy after an
        # update or a load_state_dict).
        cell = LSTMCell(2, 3, rng=0)
        cell.cast(np.float32)
        before, _ = cell.recurrent_weights(np.float64)
        cell.w_h.value += 1.0
        after, _ = cell.recurrent_weights(np.float64)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, cell.w_h.value.astype(np.float64))
