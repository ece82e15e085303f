"""The cffi-C kernel tier: exact conv lowering, gate semantics, dtypes, builds.

The C kernels are speed only; their outputs are pinned bit for bit:

1. im2col/col2im equal the numpy lowering (``im2col_strided`` /
   ``col2im_sliced``) exactly, on the workload's shapes and on the
   stride, padding, kernel and aspect-ratio corners;
2. the batchnorm-backward relu gate yields +0.0 for a gated-off
   gradient, whatever that gradient was (NaN and inf included), on
   the C tier and on the numpy fallback alike;
3. the wrappers refuse buffers that are not C-contiguous float32, and
   the backend converts or falls back instead of passing them on;
4. the build cache keys on the compile flags as well as the source.
"""

import numpy as np
import pytest

from repro.backend import _ckernels
from repro.backend._im2col import col2im_sliced, conv_output_size, im2col_strided
from repro.backend.fast import FastBackend


@pytest.fixture
def c_tier(monkeypatch):
    """The compiled module, with the tier switched on; skip without it."""
    monkeypatch.delenv("REPRO_NO_CKERNELS", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_KERNELS", raising=False)
    if _ckernels.get_kernel("im2col") is None:
        pytest.skip("C kernel tier unavailable on this host")
    return _ckernels._load()


# (n, c, h, w, kernel, stride, padding): VGG19 x0.125 at 16 px and batch
# 25 runs 3x3 / stride 1 / pad 1 convs on 16..1 px planes; the rest are
# the corners the generic (stride != 1) and partial-tap paths take.
CONV_SHAPES = [
    (25, 3, 16, 16, 3, 1, 1),
    (25, 8, 8, 8, 3, 1, 1),
    (25, 16, 4, 4, 3, 1, 1),
    (25, 32, 2, 2, 3, 1, 1),
    (25, 64, 1, 1, 3, 1, 1),
    (2, 3, 7, 7, 3, 2, 1),
    (2, 4, 8, 8, 3, 2, 0),
    (3, 2, 5, 6, 3, 1, 0),
    (3, 2, 5, 6, 3, 1, 2),
    (2, 3, 9, 7, 5, 1, 2),
    (2, 4, 5, 5, 1, 1, 0),
    (2, 4, 6, 4, 1, 2, 0),
    (2, 3, 6, 9, 3, 1, 1),
]


def _ids(shape):
    n, c, h, w, k, s, p = shape
    return f"n{n}c{c}-{h}x{w}-k{k}s{s}p{p}"


class TestConvLoweringIsExact:
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=_ids)
    def test_im2col_equals_strided_view(self, c_tier, shape):
        n, c, h, w, k, s, p = shape
        x = np.random.default_rng(0).normal(size=(n, c, h, w)).astype(np.float32)
        expected, out_h, out_w = im2col_strided(x, k, s, p)
        # Pre-filled with NaN: every element must be written, padding too.
        cols = np.full(expected.shape, np.nan, dtype=np.float32)
        _ckernels.get_kernel("im2col")(x, cols, k, s, p, out_h, out_w)
        assert np.array_equal(cols, expected)

    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=_ids)
    def test_col2im_equals_sliced_accumulation(self, c_tier, shape):
        n, c, h, w, k, s, p = shape
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        cols = np.random.default_rng(1).normal(
            size=(c * k * k, n * out_h * out_w)).astype(np.float32)
        gx = np.zeros((n, c, h, w), dtype=np.float32)
        _ckernels.get_kernel("col2im")(cols, gx, k, s, p, out_h, out_w)
        assert np.array_equal(gx, col2im_sliced(cols, (n, c, h, w), k, s, p))


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("tier", ["C", "numpy"])
def test_bn_bwd_gate_zeroes_nonfinite_gated_gradients(monkeypatch, tier,
                                                      training):
    monkeypatch.delenv("REPRO_DISABLE_KERNELS", raising=False)
    monkeypatch.delenv("REPRO_NO_CKERNELS", raising=False)
    if tier == "C" and _ckernels.get_kernel("batchnorm_bwd") is None:
        pytest.skip("C kernel tier unavailable on this host")
    backend = FastBackend()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, size=3).astype(np.float32)
    beta = rng.normal(size=3).astype(np.float32)
    _, _, _, residual = backend.batchnorm_train(x, gamma, beta, 1e-5,
                                                fuse_relu=True)
    gated = np.flatnonzero(residual[2] <= 0)
    assert gated.size >= 2
    grad = rng.normal(size=x.shape).astype(np.float32)
    grad.flat[gated] = 0.0
    poisoned = grad.copy()
    poisoned.flat[gated[0]] = np.nan
    poisoned.flat[gated[1]] = -np.inf
    if tier == "numpy":
        monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
    clean = backend.batchnorm_bwd(grad, gamma, residual, training)
    dirty = backend.batchnorm_bwd(poisoned, gamma, residual, training)
    for name, a, b in zip(("gx", "ggamma", "gbeta"), clean, dirty):
        assert np.isfinite(b).all(), name
        assert a.tobytes() == b.tobytes(), name


class TestWrappersRequireFloat32:
    def test_ptr_refuses_other_dtypes_and_strides(self, c_tier):
        ffi = c_tier.ffi
        with pytest.raises(TypeError):
            _ckernels._ptr(ffi, np.zeros(4))
        with pytest.raises(TypeError):
            _ckernels._ptr(ffi, np.zeros((4, 4), dtype=np.float32)[:, ::2])
        _ckernels._ptr(ffi, np.zeros(4, dtype=np.float32))

    def _bn_inputs(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, size=3).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)
        return x, gamma, beta

    def test_batchnorm_train_converts_float64_params(self, c_tier):
        backend = FastBackend()
        x, gamma, beta = self._bn_inputs()
        want = backend.batchnorm_train(x, gamma, beta, 1e-5, fuse_relu=True)
        got = backend.batchnorm_train(x, gamma.astype(np.float64),
                                      beta.astype(np.float64), 1e-5,
                                      fuse_relu=True)
        for a, b in zip(want[:3] + want[3][:2], got[:3] + got[3][:2]):
            assert b.dtype == np.float32
            assert np.array_equal(a, b)

    def test_batchnorm_eval_converts_float64_params(self, c_tier):
        backend = FastBackend()
        x, gamma, beta = self._bn_inputs()
        mean = np.float32([0.1, -0.2, 0.3])
        var = np.float32([1.5, 0.5, 2.0])
        want = backend.batchnorm_eval(x, gamma, beta, mean, var, 1e-5)
        got = backend.batchnorm_eval(x, gamma.astype(np.float64),
                                     beta.astype(np.float64), mean, var, 1e-5)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1][0], got[1][0])

    def test_batchnorm_bwd_converts_or_falls_back(self, c_tier):
        backend = FastBackend()
        x, gamma, beta = self._bn_inputs()
        _, _, _, residual = backend.batchnorm_train(x, gamma, beta, 1e-5,
                                                    fuse_relu=True)
        grad = np.random.default_rng(6).normal(size=x.shape).astype(np.float32)
        want = backend.batchnorm_bwd(grad, gamma, residual, True)
        got = backend.batchnorm_bwd(grad, gamma.astype(np.float64), residual,
                                    True)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        x_hat, inv_std, gate = residual
        wide = (x_hat.astype(np.float64), inv_std, gate)
        for a, b in zip(want, backend.batchnorm_bwd(grad, gamma, wide, True)):
            np.testing.assert_allclose(b, a, rtol=1e-4, atol=1e-5)

    def test_adam_update_falls_back_on_float64_grad(self, c_tier):
        backend = FastBackend()
        rng = np.random.default_rng(7)
        param, grad, m = (rng.normal(size=(6, 7)).astype(np.float32)
                          for _ in range(3))
        v = rng.uniform(size=(6, 7)).astype(np.float32)
        args = (1e-2, 0.9, 0.999, 1e-8, 1e-4, 1.0 - 0.9 ** 3, 1.0 - 0.999 ** 3)
        want = [a.copy() for a in (param, m, v)]
        backend.adam_update(want[0], grad, want[1], want[2], *args)
        got = [a.copy() for a in (param, m, v)]
        backend.adam_update(got[0], grad.astype(np.float64), got[1], got[2],
                            *args)
        for a, b in zip(want, got):
            assert b.dtype == np.float32
            np.testing.assert_allclose(b, a, rtol=1e-5, atol=1e-6)


def test_build_cache_keys_on_compile_flags():
    name, moddir = _ckernels._module_dir()
    assert (name, moddir) == _ckernels._module_dir(_ckernels._COMPILE_ARGS)
    other_name, other_dir = _ckernels._module_dir(("-O2", "-march=native"))
    assert other_dir != moddir and other_name != name
