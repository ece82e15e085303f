"""Fused elementwise-kernel contract tests.

Four guarantees, one file:

1. on the **reference** backend every fused chain is *bit-identical* to
   the per-primitive seed graph it replaced (``seed_graph.py`` keeps
   that graph alive to diff against), so pinned trajectories and cache
   keys cannot move;
2. on the **fast** backend every fused kernel agrees with the reference
   within float32 round-off, forward and backward, contiguous or not
   (hypothesis-driven differential tests);
3. fused chains save only their minimal backward residual — the
   log-softmax closure no longer pins the softmax matrix for the
   graph's lifetime — and the per-iteration graph gets smaller;
4. the fast backend's numpy fallbacks, which define its semantics,
   agree with the compiled C kernels op by op.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.autograd import conv
from repro.autograd import functional as F
from repro.autograd.gradcheck import grad_check
from repro.backend import _ckernels, active_backend, use_backend
from repro.backend.fast import FastBackend
from repro.nn.layers import BatchNorm2d, Linear
from repro.nn.loss import CrossEntropyLoss, MSELoss
from repro.nn.optim import SGD
from repro.quant.quantizer import UniformQuantizer
from seed_graph import seed_graph

RTOL = 1e-3
ATOL = 1e-3

ARRAYS = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: np.random.default_rng(seed)
)


def _graph(fused):
    """The library's fused graph, or the seed's per-primitive one."""
    return contextlib.nullcontext() if fused else seed_graph()


def _run(backend_name, fused, func, arrays):
    """``(output, grads)`` of ``func(*arrays)`` on one backend and graph."""
    with use_backend(backend_name), _graph(fused):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = func(*tensors)
        out.sum().backward()
        return out.data.copy(), [t.grad.copy() for t in tensors]


def assert_fused_matches_unfused_exactly(func, arrays):
    """On the reference backend, fused == unfused down to the last bit."""
    fused_out, fused_grads = _run("reference", True, func, arrays)
    plain_out, plain_grads = _run("reference", False, func, arrays)
    assert fused_out.tobytes() == plain_out.tobytes()
    for index, (fused, plain) in enumerate(zip(fused_grads, plain_grads)):
        assert fused.tobytes() == plain.tobytes(), (
            f"fused reference gradient moved for input {index}"
        )


def assert_fast_matches_reference(func, arrays, rtol=RTOL, atol=ATOL):
    ref_out, ref_grads = _run("reference", True, func, arrays)
    fast_out, fast_grads = _run("fast", True, func, arrays)
    assert fast_out.dtype == np.float32
    np.testing.assert_allclose(fast_out, ref_out, rtol=rtol, atol=atol)
    for index, (fast, ref) in enumerate(zip(fast_grads, ref_grads)):
        np.testing.assert_allclose(
            fast, ref, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch on input {index}",
        )


def _micro_vgg_iteration(backend_name, fused, steps=1):
    """Losses / grads / buffers / graph size of a tiny VGG train loop."""
    from repro.models import vgg11

    with use_backend(backend_name), _graph(fused):
        rng = np.random.default_rng(7)
        model = vgg11(num_classes=4, width_multiplier=0.0625, image_size=8,
                      rng=np.random.default_rng(42))
        model.train()
        criterion = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        losses, nodes = [], 0
        for _ in range(steps):
            x = Tensor(rng.normal(size=(4, 3, 8, 8)))
            y = rng.integers(0, 4, size=4)
            for p in model.parameters():
                p.grad = None
            loss = criterion(model(x), y)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
            nodes = _graph_size(loss)
        grads = {name: p.grad.copy() for name, p in model.named_parameters()
                 if p.grad is not None}
        buffers = {}
        for name, module in model.named_modules():
            for buf in ("running_mean", "running_var"):
                if hasattr(module, buf):
                    buffers[f"{name}.{buf}"] = getattr(module, buf).copy()
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        return losses, grads, buffers, params, nodes


def _graph_size(tensor):
    """Number of recorded (backward-carrying) nodes reachable from ``tensor``."""
    seen, stack, count = set(), [tensor], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if getattr(node, "_backward", None) is not None:
            count += 1
        stack.extend(getattr(node, "_parents", ()) or ())
    return count


class TestReferenceBitIdentity:
    """Fused reference kernels replay the seed op sequence exactly."""

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_relu_exact(self, rng):
        x = rng.normal(size=(5, 6))
        assert_fused_matches_unfused_exactly(lambda a: a.relu(), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_softmax_log_softmax_exact(self, rng):
        x = rng.normal(size=(6, 5)) * 3.0
        assert_fused_matches_unfused_exactly(lambda a: F.softmax(a), [x])
        assert_fused_matches_unfused_exactly(lambda a: F.log_softmax(a), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_cross_entropy_exact(self, rng):
        logits = rng.normal(size=(8, 5)) * 2.0
        targets = rng.integers(0, 5, size=8)
        assert_fused_matches_unfused_exactly(
            lambda a: F.cross_entropy(a, targets), [logits]
        )

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_dropout_exact(self, rng):
        x = rng.normal(size=(7, 7))
        seed = int(rng.integers(0, 2**32))
        assert_fused_matches_unfused_exactly(
            lambda a: F.dropout(a, 0.3, np.random.default_rng(seed)), [x]
        )

    @given(ARRAYS, st.sampled_from([(8, 2), (6, 3), (2, 2)]))
    @settings(max_examples=15, deadline=None)
    def test_max_pool_exact(self, rng, geometry):
        # (2, 2) hits the w == kernel edge where the seed's window
        # expansion is a no-copy view and the pool gradient comes back
        # as a non-contiguous view — the layout, not just the values,
        # must be reproduced for downstream reductions to agree.
        size, kernel = geometry
        x = rng.normal(size=(2, 3, size, size))
        assert_fused_matches_unfused_exactly(
            lambda a: conv.max_pool2d(a, kernel), [x]
        )

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_mse_exact(self, rng):
        pred = rng.normal(size=(4, 6))
        target = rng.normal(size=(4, 6))
        assert_fused_matches_unfused_exactly(
            lambda a: MSELoss()(a, target), [pred]
        )

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_linear_exact(self, rng):
        x = rng.normal(size=(5, 4))

        def apply(a):
            layer = Linear(4, 3, rng=np.random.default_rng(11))
            return layer(a)

        assert_fused_matches_unfused_exactly(apply, [x])

    @given(ARRAYS, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_batchnorm_exact(self, rng, training):
        x = rng.normal(size=(3, 4, 5, 5))
        mean = rng.normal(size=4)
        var = np.abs(rng.normal(size=4)) + 0.5

        def apply(a):
            layer = BatchNorm2d(4)
            layer.train(training)
            if not training:
                backend = active_backend()
                layer._set_buffer("running_mean", backend.asarray(mean))
                layer._set_buffer("running_var", backend.asarray(var))
            return layer(a)

        assert_fused_matches_unfused_exactly(apply, [x])

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_batchnorm_fused_relu_exact(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))

        def apply(a):
            layer = BatchNorm2d(3)
            layer.train(True)
            return layer.forward_fused(a, fuse_relu=True)

        assert_fused_matches_unfused_exactly(apply, [x])

    def test_vgg_iteration_exact_and_smaller_graph(self):
        fused = _micro_vgg_iteration("reference", True, steps=2)
        plain = _micro_vgg_iteration("reference", False, steps=2)
        assert fused[0] == plain[0], "loss trajectory moved"
        for name in plain[1]:
            assert fused[1][name].tobytes() == plain[1][name].tobytes(), name
        for name in plain[2]:
            assert fused[2][name].tobytes() == plain[2][name].tobytes(), name
        for name in plain[3]:
            assert fused[3][name].tobytes() == plain[3][name].tobytes(), name
        # The acceptance criterion: fused chains record strictly fewer
        # graph nodes than the per-primitive composition.
        assert fused[4] < plain[4], (fused[4], plain[4])


class TestFusedDifferential:
    """Fast fused kernels agree with the float64 reference, fwd + bwd."""

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_relu(self, rng):
        x = rng.normal(size=(6, 7))
        assert_fast_matches_reference(lambda a: a.relu(), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_log_softmax(self, rng):
        x = rng.normal(size=(8, 5)) * 3.0
        assert_fast_matches_reference(lambda a: F.log_softmax(a), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_cross_entropy(self, rng):
        logits = rng.normal(size=(8, 5)) * 3.0
        targets = rng.integers(0, 5, size=8)
        assert_fast_matches_reference(
            lambda a: F.cross_entropy(a, targets), [logits]
        )

    @given(ARRAYS, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_batchnorm_train(self, rng, fuse_relu):
        x = rng.normal(size=(3, 4, 6, 6))

        def apply(a):
            layer = BatchNorm2d(4)
            layer.train(True)
            return layer.forward_fused(a, fuse_relu=fuse_relu)

        assert_fast_matches_reference(apply, [x], rtol=5e-3, atol=5e-3)

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_batchnorm_eval(self, rng):
        x = rng.normal(size=(3, 4, 6, 6))
        mean = rng.normal(size=4)
        var = np.abs(rng.normal(size=4)) + 0.5

        def apply(a):
            layer = BatchNorm2d(4)
            layer.train(False)
            backend = active_backend()
            layer._set_buffer("running_mean", backend.asarray(mean))
            layer._set_buffer("running_var", backend.asarray(var))
            return layer(a)

        assert_fast_matches_reference(apply, [x], rtol=5e-3, atol=5e-3)

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_linear(self, rng):
        x = rng.normal(size=(5, 6))

        def apply(a):
            return Linear(6, 4, rng=np.random.default_rng(13))(a)

        assert_fast_matches_reference(apply, [x], rtol=5e-3, atol=5e-3)

    @given(ARRAYS, st.sampled_from([(8, 2), (6, 3), (2, 2)]))
    @settings(max_examples=15, deadline=None)
    def test_max_pool(self, rng, geometry):
        size, kernel = geometry
        x = rng.normal(size=(2, 3, size, size))
        assert_fast_matches_reference(lambda a: conv.max_pool2d(a, kernel), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_mse(self, rng):
        pred = rng.normal(size=(4, 6))
        target = rng.normal(size=(4, 6))
        assert_fast_matches_reference(lambda a: MSELoss()(a, target), [pred])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_bias_add(self, rng):
        x = rng.normal(size=(2, 5, 3, 3))
        bias = rng.normal(size=5)
        with use_backend("reference"):
            backend = active_backend()
            ref = backend.bias_add(backend.asarray(x), backend.asarray(bias))
        with use_backend("fast"):
            backend = active_backend()
            fast = backend.bias_add(backend.asarray(x), backend.asarray(bias))
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=RTOL, atol=ATOL)


class TestNonContiguousInputs:
    """Fused kernels accept strided views, not just fresh C-order arrays."""

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_relu_and_log_softmax_on_views(self, rng):
        base = rng.normal(size=(7, 6))
        view = base.T  # non-contiguous float64 view
        assert_fast_matches_reference(lambda a: a.relu(), [view])
        assert_fast_matches_reference(lambda a: F.log_softmax(a), [view])

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_batchnorm_on_view(self, rng):
        base = rng.normal(size=(6, 6, 4, 3))
        view = base.transpose(0, 3, 2, 1)  # (6, 3, 4, 6), non-contiguous

        def apply(a):
            layer = BatchNorm2d(3)
            layer.train(True)
            return layer(a)

        assert_fast_matches_reference(apply, [view], rtol=5e-3, atol=5e-3)

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_max_pool_on_view(self, rng):
        base = rng.normal(size=(2, 8, 8, 3))
        view = base.transpose(0, 3, 1, 2)  # NCHW view, non-contiguous
        assert_fast_matches_reference(lambda a: conv.max_pool2d(a, 2), [view])


class TestFusedBatchNormGradcheck:
    """The fused analytic batchnorm gradient matches finite differences."""

    @pytest.mark.parametrize("backend_name,eps,tol", [
        ("reference", 1e-6, 1e-4),
        ("fast", 1e-2, 2e-2),
    ])
    def test_batchnorm_train_gradcheck(self, backend_name, eps, tol):
        rng = np.random.default_rng(17)
        with use_backend(backend_name):
            layer = BatchNorm2d(3)
            layer.train(True)
            x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
            assert grad_check(lambda a: layer(a), [x],
                              eps=eps, atol=tol, rtol=tol)


class TestBatchNormTrainEvalParity:
    """With running stats pinned to one batch, eval tracks train mode."""

    @pytest.mark.parametrize("backend_name", ["reference", "fast"])
    def test_parity(self, backend_name):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 3, 8, 8))
        with use_backend(backend_name):
            layer = BatchNorm2d(3, momentum=1.0)
            layer.train(True)
            train_out = layer(Tensor(x)).data.copy()
            layer.train(False)
            eval_out = layer(Tensor(x)).data.copy()
        # Running variance is the unbiased estimate, batch normalization
        # uses the biased one: outputs differ by ~m/(m-1) in inv_std.
        np.testing.assert_allclose(eval_out, train_out, rtol=2e-2, atol=2e-2)


class TestResidualRelease:
    """The documented leak fix: log-softmax no longer pins its softmax.

    The legacy closure kept ``soft = np.exp(out)`` alive for the whole
    graph lifetime; the fused kernel recomputes ``exp`` in backward, so
    every forward ``exp`` temporary must be collectable while the graph
    is still alive.
    """

    def _exp_refs_after_forward(self, fused):
        real_exp = np.exp
        refs = []

        def spying_exp(*args, **kwargs):
            out = real_exp(*args, **kwargs)
            if isinstance(out, np.ndarray):
                refs.append(weakref.ref(out))
            return out

        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(64, 10)), requires_grad=True)
        np.exp = spying_exp
        try:
            with _graph(fused):
                out = F.log_softmax(x)
        finally:
            np.exp = real_exp
        gc.collect()
        alive = [r for r in refs if r() is not None]
        assert refs, "np.exp was never called in forward"
        return out, alive

    def test_fused_releases_forward_exp_temporaries(self):
        out, alive = self._exp_refs_after_forward(fused=True)
        assert not alive, "fused log_softmax retained a forward exp array"
        assert out is not None  # graph kept alive through the assertion

    def test_legacy_retains_softmax_matrix(self):
        # The bug being fixed, pinned as the contrast case: the
        # per-primitive closure holds exp(out) until the node dies.
        out, alive = self._exp_refs_after_forward(fused=False)
        assert alive, "expected the legacy closure to retain exp(out)"
        del out
        gc.collect()


class TestEndToEndTrajectory:
    """Short training runs: exact on reference, within float32 on fast."""

    def test_reference_trajectory_unchanged(self):
        fused = _micro_vgg_iteration("reference", True, steps=3)
        plain = _micro_vgg_iteration("reference", False, steps=3)
        assert fused[0] == plain[0]
        for name in plain[3]:
            assert fused[3][name].tobytes() == plain[3][name].tobytes(), name

    def test_fast_trajectory_tracks_reference(self):
        fast = _micro_vgg_iteration("fast", True, steps=3)
        ref = _micro_vgg_iteration("reference", True, steps=3)
        np.testing.assert_allclose(fast[0], ref[0], rtol=5e-2, atol=5e-2)


def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def _bn_params(rng, channels=3):
    gamma = rng.uniform(0.5, 1.5, size=channels).astype(np.float32)
    return gamma, _f32(rng, channels)


def _bn_train_case(relu):
    def prepare(backend, rng):
        return (_f32(rng, 4, 3, 5, 5), *_bn_params(rng))

    def op(backend, x, gamma, beta):
        out, mean, var, (x_hat, inv_std, _) = backend.batchnorm_train(
            x, gamma, beta, 1e-5, fuse_relu=relu)
        return [out, mean, var, x_hat, inv_std]

    return prepare, op


def _bn_eval_case(relu):
    def prepare(backend, rng):
        running_var = rng.uniform(0.5, 2.0, size=3).astype(np.float32)
        return (_f32(rng, 4, 3, 5, 5), *_bn_params(rng), _f32(rng, 3),
                running_var)

    def op(backend, x, gamma, beta, running_mean, running_var):
        out, (x_hat, inv_std, _) = backend.batchnorm_eval(
            x, gamma, beta, running_mean, running_var, 1e-5, fuse_relu=relu)
        return [out, x_hat, inv_std]

    return prepare, op


def _bn_bwd_case(relu, training):
    def prepare(backend, rng):
        # The residual comes from the C forward, so only the backward's
        # tier differs between the two legs.
        x, (gamma, beta) = _f32(rng, 4, 3, 5, 5), _bn_params(rng)
        _, _, _, residual = backend.batchnorm_train(x, gamma, beta, 1e-5,
                                                    fuse_relu=relu)
        return _f32(rng, 4, 3, 5, 5), gamma, residual

    def op(backend, grad, gamma, residual):
        return list(backend.batchnorm_bwd(grad, gamma, residual, training))

    return prepare, op


def _maxpool_bwd_prepare(backend, rng):
    # A C-forward residual: the leg without C runs the numpy scatter.
    _, residual = backend.maxpool_fwd(_f32(rng, 2, 3, 6, 6), 2)
    return _f32(rng, 2, 3, 3, 3), residual


def _adam_prepare(backend, rng):
    v = rng.uniform(0.0, 1.0, size=(6, 7)).astype(np.float32)
    return _f32(rng, 6, 7), _f32(rng, 6, 7), _f32(rng, 6, 7), v


def _adam_op(backend, param, grad, m, v):
    param = backend.adam_update(param, grad, m, v, 1e-2, 0.9, 0.999, 1e-8,
                                1e-4, 1.0 - 0.9 ** 3, 1.0 - 0.999 ** 3)
    return [param, m, v]


# name -> (prepare, op): ``prepare`` builds the inputs with the C tier
# on; ``op`` runs once per tier and returns the arrays to compare.
FALLBACK_CASES = {
    "im2col": (lambda b, rng: (_f32(rng, 2, 3, 7, 7),),
               lambda b, x: [b.im2col(x, 3, 2, 1)[0]]),
    "col2im": (lambda b, rng: (_f32(rng, 27, 2 * 4 * 4),),
               lambda b, cols: [b.col2im(cols, (2, 3, 7, 7), 3, 2, 1)]),
    "batchnorm_train": _bn_train_case(relu=False),
    "batchnorm_train_relu": _bn_train_case(relu=True),
    "batchnorm_eval": _bn_eval_case(relu=False),
    "batchnorm_eval_relu": _bn_eval_case(relu=True),
    "batchnorm_bwd": _bn_bwd_case(relu=False, training=True),
    "batchnorm_bwd_relu": _bn_bwd_case(relu=True, training=True),
    "batchnorm_bwd_eval": _bn_bwd_case(relu=False, training=False),
    "maxpool_fwd": (lambda b, rng: (_f32(rng, 2, 3, 6, 6),),
                    lambda b, x: [b.maxpool_fwd(x, 2)[0]]),
    "maxpool_bwd": (_maxpool_bwd_prepare,
                    lambda b, grad, residual: [b.maxpool_bwd(grad, residual)]),
    "fused_fake_quant": (lambda b, rng: (_f32(rng, 2, 3, 5, 5),),
                         lambda b, x: [b.fake_quant(x, UniformQuantizer(4))]),
    "adam_update": (_adam_prepare, _adam_op),
}


class TestNumpyFallbacksMatchCKernels:
    """Each C-backed fast op agrees with its numpy fallback.

    The C tier is on by default wherever cffi and a compiler exist, so
    without this the fallbacks that define the semantics go untested.
    """

    @pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
    def test_fallback_matches_c_tier(self, case, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CKERNELS", raising=False)
        monkeypatch.delenv("REPRO_DISABLE_KERNELS", raising=False)
        if _ckernels.get_kernel("im2col") is None:
            pytest.skip("C kernel tier unavailable on this host")
        prepare, op = FALLBACK_CASES[case]
        backend = FastBackend()
        compiled = op(backend, *prepare(backend, np.random.default_rng(0)))
        args = prepare(backend, np.random.default_rng(0))
        monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
        fallback = op(backend, *args)
        assert len(compiled) == len(fallback)
        for index, (c_out, np_out) in enumerate(zip(compiled, fallback)):
            assert c_out.dtype == np_out.dtype == np.float32
            np.testing.assert_allclose(
                np_out, c_out, rtol=RTOL, atol=ATOL,
                err_msg=f"{case}: output {index} differs from the C tier",
            )


class TestJobTableConfirmRates:
    """`repro status` surfaces per-bet speculation confirm rates."""

    def test_speculation_stats_in_points_cell(self):
        from repro.core.report import format_job_table

        jobs = [
            {"id": 1, "state": "done", "priority": 0, "kind": "search",
             "name": "s", "summary": {"stats": {
                 "total": 6, "executed": 5, "cached": 1, "failed": 0,
                 "speculated": 4, "confirmed": 3, "cancelled": 1,
                 "wasted_trials": 1}}},
            {"id": 2, "state": "done", "priority": 0, "kind": "sweep",
             "name": "w", "summary": {"stats": {
                 "total": 3, "executed": 3, "cached": 0, "failed": 0}}},
        ]
        table = format_job_table(jobs)
        assert "3/4 bets confirmed" in table
        # Non-speculative jobs keep the original cell format.
        assert "3 (3 run, 0 cached, 0 failed)" in table
