"""The seed's per-primitive autograd graph, kept as a live test oracle.

The library builds one fused graph node per elementwise chain (relu,
batchnorm(+relu), softmax, log-softmax, cross-entropy, dropout, linear,
MSE, block max-pool).  The compositions below are the seed engine's
one-node-per-primitive versions of those ops, with their arithmetic and
op order unchanged.  On the reference backend the fused kernels must
reproduce them bit for bit; :func:`seed_graph` installs them over the
library ops so a test can run the same code both ways and diff the
results.

A frozen digest cannot replace this oracle: float64 results only repeat
on the CPU/BLAS/numpy they were recorded on, so a digest test would fail
on any other host, while a live diff holds everywhere.

    from seed_graph import seed_graph

    with seed_graph():
        ...  # every op builds the seed graph

Callers must reach the ops through their modules (``F.softmax``,
``conv.max_pool2d``), not through names bound at import time, or they
keep the fused version.  ``benchmarks/test_backend_speed.py`` loads this
file by path to rebuild the pre-fusion fast path.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.autograd import conv
from repro.autograd import functional
from repro.autograd.conv import col2im, im2col
from repro.autograd.tensor import Tensor
from repro.backend._im2col import conv_output_size
from repro.nn.layers import BatchNorm2d, Linear
from repro.nn.loss import MSELoss


@contextlib.contextmanager
def seed_graph():
    """Build the seed's per-primitive graphs until the block exits."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "relu", relu)
        patch.setattr(functional, "softmax", softmax)
        patch.setattr(functional, "log_softmax", log_softmax)
        patch.setattr(functional, "cross_entropy", cross_entropy)
        patch.setattr(functional, "dropout", dropout)
        patch.setattr(conv, "max_pool2d", max_pool2d)
        patch.setattr(Linear, "forward", linear_forward)
        patch.setattr(BatchNorm2d, "forward_fused", batchnorm_forward_fused)
        patch.setattr(MSELoss, "forward", mse_forward)
        yield


# ----------------------------------------------------------------------
# Tensor.relu
# ----------------------------------------------------------------------
def relu(self) -> Tensor:
    mask = self.data > 0
    out_data = self.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor.from_op(out_data, (self,), backward, "relu")


# ----------------------------------------------------------------------
# repro.autograd.functional
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return Tensor.from_op(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    The closure keeps ``soft = exp(out)`` alive for the graph's lifetime,
    which is the retention the fused kernel removed.
    """
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    soft = np.exp(out)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor.from_op(out, (x,), backward, "log_softmax")


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer ``targets`` (N,)."""
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-D array of class indices")
    n = logits.data.shape[0]
    if targets.shape[0] != n:
        raise ValueError("batch size mismatch between logits and targets")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_sum
    loss = -log_probs[np.arange(n), targets].mean()
    soft = np.exp(log_probs)

    def backward(grad):
        g = soft.copy()
        g[np.arange(n), targets] -= 1.0
        return (g * (grad / n),)

    return Tensor.from_op(np.asarray(loss), (logits,), backward, "cross_entropy")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    mask = keep / (1.0 - p)
    out = x.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor.from_op(out, (x,), backward, "dropout")


# ----------------------------------------------------------------------
# repro.autograd.conv.max_pool2d
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping or strided square windows."""
    stride = stride or kernel
    n, c, h, w = x.data.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)

    block = stride == kernel and h % kernel == 0 and w % kernel == 0
    if block:
        # Fast path: reshape into blocks.
        reshaped = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
        windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, out_h, out_w, kernel * kernel
        )
    else:
        cols, out_h, out_w = im2col(
            x.data.reshape(n * c, 1, h, w), kernel, stride, 0
        )
        windows = cols.reshape(kernel * kernel, n * c, out_h * out_w)
        windows = windows.transpose(1, 2, 0).reshape(n, c, out_h, out_w, -1)

    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(grad):
        grad_windows = np.zeros_like(windows)
        np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
        if stride == kernel and h % kernel == 0 and w % kernel == 0:
            g = grad_windows.reshape(n, c, out_h, out_w, kernel, kernel)
            g = g.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
            return (g,)
        cols_grad = grad_windows.reshape(n * c, out_h * out_w, kernel * kernel)
        cols_grad = cols_grad.transpose(2, 0, 1).reshape(kernel * kernel, -1)
        g = col2im(cols_grad, (n * c, 1, h, w), kernel, stride, 0)
        return (g.reshape(n, c, h, w),)

    return Tensor.from_op(out, (x,), backward, "max_pool2d")


# ----------------------------------------------------------------------
# repro.nn: Linear.forward, BatchNorm2d.forward_fused, MSELoss.forward
# ----------------------------------------------------------------------
def linear_forward(self, x: Tensor) -> Tensor:
    weight = self.effective_weight()
    out = x @ weight.transpose()
    if self.bias is not None:
        out = out + self.bias
    return out


def batchnorm_forward_fused(self, x: Tensor, fuse_relu: bool = False) -> Tensor:
    """Batchnorm as its own node, then a separate relu node if asked."""
    if x.data.ndim != 4:
        raise ValueError("BatchNorm2d expects (N, C, H, W) input")
    if x.data.shape[1] != self.num_features:
        raise ValueError(
            f"expected {self.num_features} channels, got {x.data.shape[1]}"
        )
    out = _batchnorm_forward(self, x)
    if fuse_relu:
        out = out.relu()
    return out


def _batchnorm_forward(self, x: Tensor) -> Tensor:
    gamma, beta = self.gamma, self.beta
    axes = (0, 2, 3)
    if self.training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        unbiased = var * m / max(m - 1, 1)
        self._set_buffer(
            "running_mean",
            (1 - self.momentum) * self.running_mean + self.momentum * mean,
        )
        self._set_buffer(
            "running_var",
            (1 - self.momentum) * self.running_var + self.momentum * unbiased,
        )
    else:
        mean = self.running_mean
        var = self.running_var

    inv_std = 1.0 / np.sqrt(var + self.eps)
    x_hat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]
    training = self.training

    def backward(grad):
        grad_gamma = (grad * x_hat).sum(axis=axes)
        grad_beta = grad.sum(axis=axes)
        scale = (gamma.data * inv_std)[None, :, None, None]
        if not training:
            return (grad * scale, grad_gamma, grad_beta)
        mean_dy = grad.mean(axis=axes)[None, :, None, None]
        mean_dy_xhat = (grad * x_hat).mean(axis=axes)[None, :, None, None]
        grad_x = scale * (grad - mean_dy - x_hat * mean_dy_xhat)
        return (grad_x, grad_gamma, grad_beta)

    return Tensor.from_op(out, (x, gamma, beta), backward, "batchnorm2d")


def mse_forward(self, prediction: Tensor, target) -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()
