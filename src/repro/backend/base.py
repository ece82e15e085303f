"""The ``ArrayBackend`` seam: dtype policy + hot-path array kernels.

A backend owns every decision the autograd/nn/quant stack used to make
by calling ``np.*`` directly:

* the floating dtype (``float64`` for the reference engine, ``float32``
  for the fast path) and all array creation/coercion;
* the conv lowering (im2col gather, col2im scatter, matmul dispatch);
* the fused hot loops — fake-quant round-clip and the SGD/Adam
  parameter updates — which the fast backend collapses into in-place
  chains (optionally jitted via numba when it is importable);
* the fused elementwise chains — relu, batchnorm (train/eval, with an
  optional trailing relu), softmax/log-softmax/cross-entropy, bias add,
  linear, mse — each exposed as a forward kernel returning an opaque
  *residual* plus a matching backward kernel, so the autograd layer can
  record one graph node per chain instead of one per primitive.

The base-class implementations of the fused chains compose the exact
float64-era op sequence of the seed engine, in the same order — the
reference backend inherits them unchanged, which is what keeps fused
reference runs bit-identical to the historical per-primitive graphs
(``tests/seed_graph.py`` keeps those graphs as the test oracle).
Residuals are backend-opaque: each backend saves exactly what its own
backward needs (a bool mask for relu, ``(x_hat, inv_std, ...)`` for
batchnorm), and nothing else — forward temporaries die with the
forward call instead of living in backward closures.

Backends are registered by name in :mod:`repro.backend` and selected
via ``ExperimentConfig.backend`` / ``repro ... --backend``.
"""

from __future__ import annotations

import numpy as np


class ArrayBackend:
    """Base class for array backends.

    Subclasses set :attr:`name` and :attr:`dtype` and may override any
    kernel.  The base implementations are dtype-generic and correct, so
    a backend only overrides what it wants to specialize.
    """

    name: str = "base"
    dtype: np.dtype = np.dtype(np.float64)

    # ------------------------------------------------------------------
    # dtype policy / array creation
    # ------------------------------------------------------------------
    def asarray(self, value) -> np.ndarray:
        """Coerce ``value`` to this backend's floating dtype (no copy if possible)."""
        if isinstance(value, np.ndarray):
            return value.astype(self.dtype, copy=False)
        return np.asarray(value, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=self.dtype)

    def full(self, shape, fill_value) -> np.ndarray:
        return np.full(shape, fill_value, dtype=self.dtype)

    def zeros_like(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def rng_array(self, value) -> np.ndarray:
        """Cast an rng-produced float64 array to the backend dtype.

        Kept separate from :meth:`asarray` so it is explicit that random
        streams are always *drawn* in float64 (identical sequences on
        every backend) and only then narrowed.
        """
        return value.astype(self.dtype, copy=False)

    # ------------------------------------------------------------------
    # Linear algebra / conv lowering
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def im2col(self, x: np.ndarray, kernel: int, stride: int, padding: int):
        raise NotImplementedError

    def col2im(self, cols: np.ndarray, x_shape, kernel: int, stride: int,
               padding: int) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fused hot loops
    # ------------------------------------------------------------------
    def fake_quant(self, x: np.ndarray, quantizer) -> np.ndarray:
        """Quantize-dequantize ``x`` through ``quantizer`` (eqn. 1)."""
        raise NotImplementedError

    def sgd_update(self, param: np.ndarray, grad: np.ndarray,
                   velocity: np.ndarray | None, lr: float, momentum: float,
                   weight_decay: float) -> np.ndarray:
        """One SGD(+momentum, +weight decay) step; returns the new param array.

        ``velocity`` is mutated in place when momentum is active (it is
        the optimizer's slot buffer).  Whether ``param`` itself is
        updated in place is backend-defined — callers must rebind
        ``param.data`` to the return value.
        """
        raise NotImplementedError

    def adam_update(self, param: np.ndarray, grad: np.ndarray,
                    m: np.ndarray, v: np.ndarray, lr: float, beta1: float,
                    beta2: float, eps: float, weight_decay: float,
                    bias1: float, bias2: float) -> np.ndarray:
        """One bias-corrected Adam step; returns the new param array.

        ``m``/``v`` are the optimizer's moment buffers, mutated in place.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fused elementwise chains
    #
    # Each `<op>_fwd` returns ``(out, residual)`` (plus batch statistics
    # for batchnorm_train); ``residual`` is opaque to callers and passed
    # verbatim to the matching `<op>_bwd`.  The compositions below are
    # the seed's op sequences — subclasses override with single-pass
    # versions but must keep the (out, residual) contract.
    # ------------------------------------------------------------------
    def relu_fwd(self, x: np.ndarray):
        """max(x, 0) with the backward mask saved as the residual."""
        mask = x > 0
        return x * mask, mask

    def relu_bwd(self, grad: np.ndarray, residual) -> np.ndarray:
        return grad * residual

    def bias_add(self, x: np.ndarray, bias: np.ndarray, axis: int = 1) -> np.ndarray:
        """Broadcast-add a 1-D ``bias`` along ``axis`` of ``x``."""
        shape = [1] * x.ndim
        shape[axis] = -1
        return x + bias.reshape(shape)

    def batchnorm_train(self, x: np.ndarray, gamma: np.ndarray,
                        beta: np.ndarray, eps: float, fuse_relu: bool = False):
        """Training-mode batchnorm over (N, H, W), optionally + relu.

        Returns ``(out, mean, var, residual)`` — ``mean``/``var`` are the
        *biased* batch statistics (the layer owns the running-stat EMA and
        the unbiased correction), ``residual`` feeds :meth:`batchnorm_bwd`.
        """
        axes = (0, 2, 3)
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        relu_mask = None
        if fuse_relu:
            relu_mask = out > 0
            out = out * relu_mask
        return out, mean, var, (x_hat, inv_std, relu_mask)

    def batchnorm_eval(self, x: np.ndarray, gamma: np.ndarray,
                       beta: np.ndarray, running_mean: np.ndarray,
                       running_var: np.ndarray, eps: float,
                       fuse_relu: bool = False):
        """Eval-mode batchnorm using running statistics, optionally + relu.

        Returns ``(out, residual)``.
        """
        inv_std = 1.0 / np.sqrt(running_var + eps)
        x_hat = (x - running_mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        relu_mask = None
        if fuse_relu:
            relu_mask = out > 0
            out = out * relu_mask
        return out, (x_hat, inv_std, relu_mask)

    def batchnorm_bwd(self, grad: np.ndarray, gamma: np.ndarray, residual,
                      training: bool):
        """Backward for either batchnorm mode; returns (gx, ggamma, gbeta)."""
        x_hat, inv_std, relu_mask = residual
        if relu_mask is not None:
            grad = grad * relu_mask
        axes = (0, 2, 3)
        grad_gamma = (grad * x_hat).sum(axis=axes)
        grad_beta = grad.sum(axis=axes)
        scale = (gamma * inv_std)[None, :, None, None]
        if not training:
            return grad * scale, grad_gamma, grad_beta
        mean_dy = grad.mean(axis=axes)[None, :, None, None]
        mean_dy_xhat = (grad * x_hat).mean(axis=axes)[None, :, None, None]
        grad_x = scale * (grad - mean_dy - x_hat * mean_dy_xhat)
        return grad_x, grad_gamma, grad_beta

    def softmax_fwd(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Numerically stable softmax; the output is its own residual."""
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=axis, keepdims=True)

    def softmax_bwd(self, grad: np.ndarray, out: np.ndarray,
                    axis: int) -> np.ndarray:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return out * (grad - dot)

    def log_softmax_fwd(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Stable log-softmax; backward recomputes exp(out), saving nothing."""
        shifted = x - x.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        return shifted - log_sum

    def log_softmax_bwd(self, grad: np.ndarray, out: np.ndarray,
                        axis: int) -> np.ndarray:
        # exp(out) here is bit-identical to the forward's softmax — one
        # transcendental recompute instead of an (N, K) array pinned in
        # the closure for the graph's lifetime.
        soft = np.exp(out)
        return grad - soft * grad.sum(axis=axis, keepdims=True)

    def cross_entropy_fwd(self, logits: np.ndarray, targets: np.ndarray):
        """Mean CE over integer targets; residual is the log-probs matrix."""
        n = logits.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_sum
        loss = -log_probs[np.arange(n), targets].mean()
        return np.asarray(loss), log_probs

    def cross_entropy_bwd(self, grad: np.ndarray, log_probs: np.ndarray,
                          targets: np.ndarray) -> np.ndarray:
        n = log_probs.shape[0]
        # exp(log_probs) rebuilds the softmax the seed kept alive as
        # ``soft``; the fresh array doubles as the ``soft.copy()``.
        g = np.exp(log_probs)
        g[np.arange(n), targets] -= 1.0
        return g * (grad / n)

    def dropout_mask(self, draw: np.ndarray, p: float) -> np.ndarray:
        """Inverted-dropout mask from a float64 uniform ``draw``."""
        keep = (draw >= p).astype(self.dtype)
        return keep / (1.0 - p)

    def linear_fwd(self, x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None) -> np.ndarray:
        """x (N, I) @ weight (O, I)^T + bias — one node instead of three."""
        out = self.matmul(x, weight.T)
        if bias is not None:
            out = out + bias
        return out

    def linear_bwd(self, grad: np.ndarray, x: np.ndarray, weight: np.ndarray,
                   has_bias: bool):
        """Returns (gx, gw, gb); ``gb`` is None without a bias."""
        # grad @ weight.T.T hits BLAS with the same strides as the seed's
        # transpose-node round trip; gw keeps the seed's transposed-view
        # layout so optimizer arithmetic sees identical operands.
        gx = self.matmul(grad, weight)
        gw = self.matmul(x.T, grad).T
        gb = grad.sum(axis=0) if has_bias else None
        return gx, gw, gb

    def maxpool_fwd(self, x: np.ndarray, kernel: int):
        """Non-overlapping max pool (stride == kernel, dims divisible).

        Returns ``(out, residual)``; the residual saves the argmax
        indices and the window-expansion layout — not the k*k window
        expansion itself, which the per-primitive graph pinned in its
        closure.
        """
        n, c, h, w = x.shape
        out_h, out_w = h // kernel, w // kernel
        reshaped = x.reshape(n, c, out_h, kernel, out_w, kernel)
        windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, out_h, out_w, kernel * kernel
        )
        argmax = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
        return out, (argmax, windows.dtype, windows.strides, kernel)

    def maxpool_bwd(self, grad: np.ndarray, residual) -> np.ndarray:
        argmax, dtype, win_strides, kernel = residual
        n, c, out_h, out_w = argmax.shape
        # ``zeros_like(windows)`` in K order, reconstructed from the
        # saved strides: when the window expansion was a no-copy view
        # (w == kernel) its layout is non-contiguous, the per-primitive
        # graph's scatter buffer inherited it, and the reshape below
        # returned a *view* with twisted strides — downstream reductions
        # block differently over such a view, so reproducing the layout
        # (not just the values) is what keeps reference runs
        # bit-for-bit.  The 1-element prototype buffer is never read.
        proto = np.lib.stride_tricks.as_strided(
            np.empty(1, dtype=dtype),
            shape=argmax.shape + (kernel * kernel,),
            strides=win_strides,
        )
        grad_windows = np.zeros_like(proto)
        np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
        g = grad_windows.reshape(n, c, out_h, out_w, kernel, kernel)
        return g.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, out_h * kernel, out_w * kernel
        )

    def mse_fwd(self, prediction: np.ndarray, target: np.ndarray):
        """Mean squared error; returns (loss, residual)."""
        diff = prediction + (-target)
        sq = diff * diff
        total = sq.sum(axis=None, keepdims=False)
        inv_count = self.asarray(1.0 / diff.size)
        return total * inv_count, (diff, inv_count)

    def mse_bwd(self, grad: np.ndarray, residual):
        """Returns the prediction gradient; the target gradient is its negation."""
        diff, inv_count = residual
        gsq = np.broadcast_to(grad * inv_count, diff.shape).copy()
        # The per-primitive graph multiplied (diff * diff) twice and
        # summed the two identical parent gradients; t + t matches it.
        t = gsq * diff
        return t + t

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} dtype={self.dtype}>"
