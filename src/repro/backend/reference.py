"""The ``reference`` backend: the seed's float64 semantics, bit-for-bit.

Every kernel here reproduces the exact operation order the engine used
before the backend seam existed.  Floating-point arithmetic is
deterministic given identical operand order, so "same ops, same order"
is a bit-identity guarantee — the regression suites pin it.
Do not "optimize" this file; that is what :mod:`repro.backend.fast`
is for.
"""

from __future__ import annotations

import numpy as np

from repro.backend._im2col import col2im_reference, im2col_reference
from repro.backend.base import ArrayBackend


class ReferenceBackend(ArrayBackend):
    """float64 engine with the seed's un-fused kernels."""

    name = "reference"
    dtype = np.dtype(np.float64)

    def rng_array(self, value) -> np.ndarray:
        # rng output is already float64; this must stay a no-op view.
        return value.astype(self.dtype, copy=False)

    def im2col(self, x, kernel, stride, padding):
        return im2col_reference(x, kernel, stride, padding)

    def col2im(self, cols, x_shape, kernel, stride, padding):
        return col2im_reference(cols, x_shape, kernel, stride, padding)

    def fake_quant(self, x, quantizer):
        # The quantizer's own float64 quantize -> int64 round -> dequantize
        # chain is the seed behavior; delegate untouched.
        return quantizer.fake_quant(x)

    def sgd_update(self, param, grad, velocity, lr, momentum, weight_decay):
        if weight_decay:
            grad = grad + weight_decay * param
        if momentum:
            velocity *= momentum
            velocity += grad
            grad = velocity
        return param - lr * grad

    def adam_update(self, param, grad, m, v, lr, beta1, beta2, eps,
                    weight_decay, bias1, bias2):
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        return param - lr * m_hat / (np.sqrt(v_hat) + eps)
