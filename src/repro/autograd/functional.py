"""Composite differentiable functions: softmax, log-softmax, one-hot CE.

Numerically-stable formulations, each one graph node on the active
backend's fused kernels.  The fused kernels save only the minimal
backward residual: log-softmax and cross-entropy recompute ``exp`` in
backward instead of pinning the softmax matrix inside the closure for
the graph's lifetime, as the seed's per-primitive closures did.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import active_backend


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    backend = active_backend()
    out = backend.softmax_fwd(x.data, axis)

    def backward(grad):
        return (backend.softmax_bwd(grad, out, axis),)

    return Tensor.from_op(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    backend = active_backend()
    out = backend.log_softmax_fwd(x.data, axis)

    def backward(grad):
        return (backend.log_softmax_bwd(grad, out, axis),)

    return Tensor.from_op(out, (x,), backward, "log_softmax")


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer ``targets`` (N,).

    Fused log-softmax + NLL with the standard ``softmax - onehot`` gradient.
    """
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-D array of class indices")
    n = logits.data.shape[0]
    if targets.shape[0] != n:
        raise ValueError("batch size mismatch between logits and targets")

    backend = active_backend()
    loss, log_probs = backend.cross_entropy_fwd(logits.data, targets)

    def backward(grad):
        return (backend.cross_entropy_bwd(grad, log_probs, targets),)

    return Tensor.from_op(loss, (logits,), backward, "cross_entropy")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    # The keep-mask is drawn in float64 (identical random stream on every
    # backend) and cast to the tensor dtype before scaling so a float32
    # run is not silently promoted back to float64.
    mask = active_backend().dropout_mask(rng.random(x.data.shape), p)
    out = x.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor.from_op(out, (x,), backward, "dropout")
