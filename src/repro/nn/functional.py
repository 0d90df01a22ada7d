"""Numerically stable activation functions and their derivatives."""

from __future__ import annotations

import numpy as np

#: Logit value used to mask invalid choices; exp(-1e9) == 0 in float64
#: while keeping the array finite (softmax stays NaN-free).
MASK_LOGIT = -1e9


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Element-wise logistic function, stable for large |x|.

    Computed branch-free as ``z = exp(-|x|)`` with ``1 / (1 + z)`` for
    ``x >= 0`` and ``z / (1 + z)`` otherwise — per element exactly the
    classic two-branch formulas (``-|x|`` *is* ``-x`` on the positive
    branch and ``x`` on the negative one), so results are bit-identical
    to a masked two-pass evaluation while avoiding its fancy-indexing
    gather/scatter, which dominates on the small arrays of a decode step.
    ``-|x|`` is one ``copysign`` and the branch selects the numerator
    before a single division; both are exact rewrites, so the floats are
    those of negating ``abs`` and dividing on each branch.  ``exp`` never
    overflows (its argument is ``<= 0``).  The arithmetic runs in the
    input dtype and the result widens to float64 afterwards, matching
    the former implementation's compute-then-assign semantics bit for
    bit.
    """
    z = np.exp(np.copysign(x, -1.0))
    out = np.where(x >= 0, 1.0, z) / (1.0 + z)
    return out.astype(float, copy=False)


def dsigmoid_from_output(y: np.ndarray) -> np.ndarray:
    """Derivative of sigmoid expressed through its output ``y``."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    """Element-wise hyperbolic tangent."""
    return np.tanh(x)


def dtanh_from_output(y: np.ndarray) -> np.ndarray:
    """Derivative of tanh expressed through its output ``y``."""
    return 1.0 - y * y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    # The ufunc reductions are what ``np.max``/``np.sum`` call, minus
    # the Python dispatch wrapper (this runs every decode step).
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.add.reduce(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def masked_softmax(logits: np.ndarray, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over positions where ``mask`` is True.

    Masked positions receive probability exactly 0.  Raises no error when
    a row is fully masked — the caller is responsible for never asking
    for a choice when nothing is selectable (the pointer decoder always
    has at least one unvisited node).
    """
    masked_logits = np.where(mask, logits, MASK_LOGIT)
    return softmax(masked_logits, axis=axis)
