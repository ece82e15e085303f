"""The ``fast`` backend: float32 end-to-end with fused hot loops.

Four levers, in order of measured impact on an AD-search trial:

1. float32 everywhere — halves memory traffic and switches every
   ``@`` onto BLAS sgemm;
2. conv lowering without ``np.add.at`` — ``as_strided`` window views
   for im2col and k*k strided-slice accumulation for col2im, with
   jitted/compiled scatter-gather loops when a kernel tier is up;
3. fused elementwise chains — fake-quant as an in-place
   round-scale-shift (no int64 round-trip, no float64 upcast) and
   in-place SGD/Adam parameter updates;
4. single-pass batchnorm(+relu) forward and backward — the whole
   mean/var/normalize/scale/shift(/relu) chain in one kernel call,
   and a two-pass zero-temporary backward.

Kernels probe two acceleration tiers before falling back to numpy:
numba ``njit`` loops (:mod:`repro.backend._numba`, when numba is
importable) and cffi-compiled C (:mod:`repro.backend._ckernels`, when a
C toolchain is present).  Every tier computes the same values — the
numpy fallbacks below are the semantics, the tiers are speed.

Numerics agree with the reference backend to float32 tolerances; the
differential test suite pins that op by op.
"""

from __future__ import annotations

import numpy as np

from repro.backend import _ckernels, _numba
from repro.backend._ckernels import kernel_ready
from repro.backend._im2col import col2im_sliced, conv_output_size, im2col_strided
from repro.backend.base import ArrayBackend

_BN_AXES = (0, 2, 3)


def _fused_kernel(name: str):
    """Probe the tiers for a batchnorm/conv kernel: numba, then C."""
    kernel = _numba.get_kernel(name)
    if kernel is not None:  # pragma: no cover - requires numba
        return kernel
    return _ckernels.get_kernel(name)


class FastBackend(ArrayBackend):
    """float32 engine with BLAS-shaped convs and fused updates."""

    name = "fast"
    dtype = np.dtype(np.float32)

    def im2col(self, x, kernel, stride, padding):
        jitted = _fused_kernel("im2col")
        if jitted is not None and kernel_ready(x):
            n, c, h, w = x.shape
            out_h = conv_output_size(h, kernel, stride, padding)
            out_w = conv_output_size(w, kernel, stride, padding)
            cols = np.empty((c * kernel * kernel, n * out_h * out_w),
                            dtype=x.dtype)
            jitted(x, cols, kernel, stride, padding, out_h, out_w)
            return cols, out_h, out_w
        return im2col_strided(x, kernel, stride, padding)

    def col2im(self, cols, x_shape, kernel, stride, padding):
        scatter = _fused_kernel("col2im")
        if scatter is not None and kernel_ready(cols):
            n, c, h, w = x_shape
            out_h = conv_output_size(h, kernel, stride, padding)
            out_w = conv_output_size(w, kernel, stride, padding)
            gx = np.zeros(x_shape, dtype=cols.dtype)
            scatter(cols, gx, kernel, stride, padding, out_h, out_w)
            return gx
        return col2im_sliced(cols, x_shape, kernel, stride, padding)

    # ------------------------------------------------------------------
    # Fused elementwise chains
    # ------------------------------------------------------------------
    def batchnorm_train(self, x, gamma, beta, eps, fuse_relu=False):
        x = np.ascontiguousarray(x, dtype=self.dtype)
        n, c, h, w = x.shape
        kernel = _fused_kernel("batchnorm_train_fwd")
        if kernel is not None:
            gamma = np.ascontiguousarray(gamma, dtype=self.dtype)
            beta = np.ascontiguousarray(beta, dtype=self.dtype)
            out = np.empty_like(x)
            x_hat = np.empty_like(x)
            mean = np.empty(c, dtype=self.dtype)
            var = np.empty(c, dtype=self.dtype)
            inv_std = np.empty(c, dtype=self.dtype)
            kernel(x.reshape(n, c, -1), gamma, beta, self.dtype.type(eps),
                   fuse_relu, out.reshape(n, c, -1), x_hat.reshape(n, c, -1),
                   mean, var, inv_std)
            gate = out if fuse_relu else None
            return out, mean, var, (x_hat, inv_std, gate)
        # numpy fallback: centered single-temporary chain.  The variance
        # comes from the centered difference (one einsum) rather than
        # E[x^2]-E[x]^2, which cancels catastrophically in float32.
        m = n * h * w
        mean = x.mean(axis=_BN_AXES)
        x_hat = x - mean.reshape(1, -1, 1, 1)
        var = np.einsum("nchw,nchw->c", x_hat, x_hat) / self.dtype.type(m)
        inv_std = 1.0 / np.sqrt(var + self.dtype.type(eps))
        x_hat *= inv_std.reshape(1, -1, 1, 1)
        out = x_hat * gamma.reshape(1, -1, 1, 1)
        out += beta.reshape(1, -1, 1, 1)
        gate = None
        if fuse_relu:
            np.maximum(out, 0.0, out=out)
            gate = out
        return out, mean, var, (x_hat, inv_std, gate)

    def batchnorm_eval(self, x, gamma, beta, running_mean, running_var, eps,
                       fuse_relu=False):
        x = np.ascontiguousarray(x, dtype=self.dtype)
        n, c, h, w = x.shape
        kernel = _fused_kernel("batchnorm_eval_fwd")
        if kernel is not None:
            gamma = np.ascontiguousarray(gamma, dtype=self.dtype)
            beta = np.ascontiguousarray(beta, dtype=self.dtype)
            out = np.empty_like(x)
            x_hat = np.empty_like(x)
            inv_std = np.empty(c, dtype=self.dtype)
            kernel(x.reshape(n, c, -1), gamma, beta,
                   np.ascontiguousarray(running_mean, dtype=self.dtype),
                   np.ascontiguousarray(running_var, dtype=self.dtype),
                   self.dtype.type(eps), fuse_relu, out.reshape(n, c, -1),
                   x_hat.reshape(n, c, -1), inv_std)
            gate = out if fuse_relu else None
            return out, (x_hat, inv_std, gate)
        inv_std = (1.0 / np.sqrt(running_var + self.dtype.type(eps))).astype(
            self.dtype, copy=False)
        x_hat = x - running_mean.reshape(1, -1, 1, 1)
        x_hat *= inv_std.reshape(1, -1, 1, 1)
        out = x_hat * gamma.reshape(1, -1, 1, 1)
        out += beta.reshape(1, -1, 1, 1)
        gate = None
        if fuse_relu:
            np.maximum(out, 0.0, out=out)
            gate = out
        return out, (x_hat, inv_std, gate)

    def batchnorm_bwd(self, grad, gamma, residual, training):
        x_hat, inv_std, gate = residual
        grad = np.ascontiguousarray(grad, dtype=self.dtype)
        n, c, h, w = grad.shape
        kernel = _fused_kernel("batchnorm_bwd")
        relu = gate is not None
        out = gate if relu else x_hat  # unread when relu is off
        if kernel is not None and kernel_ready(x_hat, out):
            gx = np.empty_like(grad)
            ggamma = np.empty(c, dtype=self.dtype)
            gbeta = np.empty(c, dtype=self.dtype)
            kernel(grad.reshape(n, c, -1), x_hat.reshape(n, c, -1),
                   np.ascontiguousarray(inv_std, dtype=self.dtype),
                   np.ascontiguousarray(gamma, dtype=self.dtype),
                   out.reshape(n, c, -1), relu, training,
                   gx.reshape(n, c, -1), ggamma, gbeta)
            return gx, ggamma, gbeta
        if relu:
            # A select, not a multiply: a gated-off gradient is +0.0 even
            # when it is NaN or inf, as in the C kernel.
            grad = np.where(gate <= 0, self.dtype.type(0), grad)
        ggamma = np.einsum("nchw,nchw->c", grad, x_hat)
        gbeta = grad.sum(axis=_BN_AXES)
        scale = (gamma * inv_std).reshape(1, -1, 1, 1)
        if not training:
            return grad * scale, ggamma, gbeta
        m = self.dtype.type(n * h * w)
        gx = grad - (gbeta / m).reshape(1, -1, 1, 1)
        gx -= x_hat * (ggamma / m).reshape(1, -1, 1, 1)
        gx *= scale
        return gx, ggamma, gbeta

    def maxpool_fwd(self, x, kernel):
        ck = _fused_kernel("maxpool_fwd")
        if ck is not None and kernel * kernel <= 127 and kernel_ready(x):
            n, c, h, w = x.shape
            out_h, out_w = h // kernel, w // kernel
            out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
            # int8 window offsets: the whole residual is out_h*out_w
            # bytes per plane instead of the k*k-expanded window copy.
            idx = np.empty((n, c, out_h, out_w), dtype=np.int8)
            ck(x.reshape(n * c, h, w), out.reshape(n * c, out_h, out_w),
               idx.reshape(n * c, out_h, out_w), kernel)
            return out, (idx, kernel)
        return super().maxpool_fwd(x, kernel)

    def maxpool_bwd(self, grad, residual):
        if len(residual) != 2:  # forward fell back to the base composition
            return super().maxpool_bwd(grad, residual)
        idx, kernel = residual
        grad = np.ascontiguousarray(grad, dtype=self.dtype)
        n, c, out_h, out_w = idx.shape
        h, w = out_h * kernel, out_w * kernel
        gx = np.zeros((n, c, h, w), dtype=self.dtype)
        ck = _fused_kernel("maxpool_bwd")
        if ck is not None:
            ck(grad.reshape(n * c, out_h, out_w),
               idx.reshape(n * c, out_h, out_w),
               gx.reshape(n * c, h, w), kernel)
            return gx
        # idx uses the same ki*k+kj offsets as argmax over the window
        # axis, so the scatter is a put_along_axis away.
        grad_windows = np.zeros((n, c, out_h, out_w, kernel * kernel),
                                dtype=self.dtype)
        np.put_along_axis(grad_windows, idx.astype(np.intp)[..., None],
                          grad[..., None], axis=-1)
        g = grad_windows.reshape(n, c, out_h, out_w, kernel, kernel)
        return g.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)

    def fake_quant(self, x, quantizer):
        x = np.asarray(x, dtype=self.dtype)
        lo, hi = quantizer._range_for(x)
        levels = (1 << quantizer.bits) - 1
        if hi == lo:
            return np.full(x.shape, lo, dtype=self.dtype)
        if not quantizer.dynamic:
            # Frozen calibration range: inputs may fall outside it.
            x = np.clip(x, lo, hi)
        scale = levels / (hi - lo)
        inv_scale = (hi - lo) / levels
        kernel = _fused_kernel("fused_fake_quant")
        if kernel is not None and kernel_ready(x):
            out = np.empty_like(x)
            kernel(x, out, lo, scale, inv_scale)
            return out
        # In-place chain: one temporary, no integer codes materialized.
        # With a dynamic range the clip in eqn. 1 is a no-op (lo/hi ARE
        # the data range), so rint-scale-shift is exact.
        out = x - lo
        out *= scale
        np.rint(out, out=out)
        out *= inv_scale
        out += lo
        return out

    def sgd_update(self, param, grad, velocity, lr, momentum, weight_decay):
        if momentum:
            kernel = _numba.get_kernel("sgd_momentum")
            if (kernel is not None and param.flags.c_contiguous
                    and grad.flags.c_contiguous):  # pragma: no cover
                kernel(param, grad, velocity, lr, momentum, weight_decay)
                return param
        if weight_decay:
            grad = grad + weight_decay * param
        if momentum:
            velocity *= momentum
            velocity += grad
            grad = velocity
        param -= lr * grad
        return param

    def adam_update(self, param, grad, m, v, lr, beta1, beta2, eps,
                    weight_decay, bias1, bias2):
        kernel = _fused_kernel("adam_update")
        if kernel is not None and kernel_ready(param, grad, m, v):
            kernel(param, grad, m, v, lr, beta1, beta2, eps, weight_decay,
                   bias1, bias2)
            return param
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        denom = np.sqrt(v * (1.0 / bias2))
        denom += eps
        np.divide(m, denom, out=denom)
        denom *= lr / bias1
        param -= denom
        return param
