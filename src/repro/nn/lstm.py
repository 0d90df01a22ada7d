"""Batched LSTM cell with manual backpropagation.

Gate layout in the fused weight matrices is ``[input, forget, cell,
output]``.  The forget-gate bias is initialized to 1.0, the standard
trick for stable early training.  ``forward`` returns an opaque cache
that ``backward`` consumes; backpropagation-through-time is driven by the
caller (the pointer network walks its cached steps in reverse).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.init import glorot_uniform, zeros
from repro.nn.params import Module
from repro.utils.rng import SeedLike, resolve_rng

Cache = Dict[str, np.ndarray]


class LSTMCell(Module):
    """A single LSTM cell operating on ``[batch, features]`` arrays."""

    def __init__(self, input_size: int, hidden_size: int, rng: SeedLike = None) -> None:
        super().__init__()
        if input_size < 1 or hidden_size < 1:
            raise ValueError("input_size and hidden_size must be positive")
        rng = resolve_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = self.add_param("w_x", glorot_uniform((input_size, 4 * hidden_size), rng))
        self.w_h = self.add_param("w_h", glorot_uniform((hidden_size, 4 * hidden_size), rng))
        bias = zeros((4 * hidden_size,))
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = self.add_param("bias", bias)

    # ------------------------------------------------------------------
    def initial_state(self, batch: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero hidden and cell states for a batch."""
        h = np.zeros((batch, self.hidden_size))
        c = np.zeros((batch, self.hidden_size))
        return h, c

    def recurrent_weights(self, dtype) -> Tuple[np.ndarray, np.ndarray]:
        """``(w_h, bias)`` cast to ``dtype`` for :meth:`forward_from_projection`.

        A fresh cast per call, never cached: ``load_state_dict``,
        ``cast`` and optimizer steps replace or update the parameters, so
        an inference loop takes these once per decode.  Casting a float32
        ``w_h`` up front is exact and gives ``h @ w_h`` the same float64
        operand numpy would otherwise build on every step.
        """
        return (
            self.w_h.value.astype(dtype, copy=False),
            self.bias.value.astype(dtype, copy=False),
        )

    def _gates(
        self, z: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(i, f, g, o)`` from the pre-activation ``z`` (``[B, 4H]``).

        One sigmoid over all of ``z`` serves the three sigmoid gates:
        the function is elementwise, so each slice holds the floats a
        sigmoid of that slice alone would give, at a third of the numpy
        calls.  The cell-gate quarter of that output is unused; ``g`` is
        ``tanh`` of its own slice.
        """
        hidden = self.hidden_size
        s = F.sigmoid(z)
        return (
            s[:, :hidden],
            s[:, hidden : 2 * hidden],
            F.tanh(z[:, 2 * hidden : 3 * hidden]),
            s[:, 3 * hidden :],
        )

    def forward(
        self, x: np.ndarray, h: np.ndarray, c: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Cache]:
        """One step: returns ``(h_next, c_next, cache)``."""
        z = x @ self.w_x.value + h @ self.w_h.value + self.bias.value
        i, f, g, o = self._gates(z)
        c_next = f * c + i * g
        tanh_c = F.tanh(c_next)
        h_next = o * tanh_c
        cache: Cache = {
            "x": x, "h": h, "c": c,
            "i": i, "f": f, "g": g, "o": o,
            "tanh_c": tanh_c,
        }
        return h_next, c_next, cache

    def forward_from_projection(
        self,
        x_proj: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
        w_h: np.ndarray,
        bias: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cacheless step from a precomputed input projection ``x @ w_x``.

        Inference loops hoist the input projection of *every* step into
        one large GEMM (``[B*T, in] @ [in, 4H]`` instead of ``T`` skinny
        matmuls) and feed the per-step slices here, with the recurrent
        weights from :meth:`recurrent_weights` cast once to the state
        dtype.  The gate math keeps :meth:`forward`'s exact association
        order ``(x_proj + h @ w_h) + bias`` and shares its gate helper,
        so given a bitwise-equal ``x_proj`` the returned state is
        bitwise-equal to :meth:`forward`'s — the property the scheduling
        service's bit-identical-schedules guarantee rests on.  No cache
        is built; this path cannot be backpropagated.

        The state stays float64 even for a float32 inference clone:
        ``initial_state`` is float64 and the sigmoid widens, and that is
        the arithmetic every shipped schedule was decoded with.  A
        float32 state would round every step differently, so it could
        not reproduce those bits.
        """
        z = x_proj + h @ w_h + bias
        i, f, g, o = self._gates(z)
        c_next = f * c + i * g
        h_next = o * F.tanh(c_next)
        return h_next, c_next

    def backward(
        self, dh_next: np.ndarray, dc_next: np.ndarray, cache: Cache
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backprop one step; accumulates parameter grads.

        Parameters are the gradients flowing into ``h_next``/``c_next``;
        returns ``(dx, dh, dc)`` flowing into the step inputs.
        """
        i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
        tanh_c = cache["tanh_c"]
        do = dh_next * tanh_c
        dc = dc_next + dh_next * o * F.dtanh_from_output(tanh_c)
        di = dc * g
        dg = dc * i
        df = dc * cache["c"]
        dc_prev = dc * f
        dz = np.concatenate(
            [
                di * F.dsigmoid_from_output(i),
                df * F.dsigmoid_from_output(f),
                dg * F.dtanh_from_output(g),
                do * F.dsigmoid_from_output(o),
            ],
            axis=1,
        )
        self.w_x.grad += cache["x"].T @ dz
        self.w_h.grad += cache["h"].T @ dz
        self.bias.grad += dz.sum(axis=0)
        dx = dz @ self.w_x.value.T
        dh_prev = dz @ self.w_h.value.T
        return dx, dh_prev, dc_prev
