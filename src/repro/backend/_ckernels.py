"""Optional compiled C kernels, behind a feature probe (cffi + a C compiler).

Second tier of the fast backend's kernel ladder: when numba is absent
(it is not a dependency) but cffi and a working C toolchain are present,
the single-pass float32 chains — fused batchnorm(+relu) forward and
backward, im2col/col2im, Adam, fake-quant and max pooling — come from a
small C module compiled once per source revision.  The build is cached
on disk keyed by a hash of the C source and the compile flags, so worker
subprocesses and later runs import the shared object instantly instead
of re-invoking the compiler.

Rules of the tier:

* outputs are bit-identical across kernel rewrites: a faster kernel
  keeps each output's arithmetic, its order and its accumulator types,
  so trial reports and their digests do not move;
* hence no flag that lets the compiler reassociate
  (``-ffast-math``, ``-fassociative-math``, ``-funsafe-math-optimizations``);
* ``-fno-math-errno`` is safe: it only drops the ``errno`` store of
  ``sqrt``/``sqrtf``/``rintf``, which nothing reads, so gcc may inline
  the correctly rounded instruction and vectorize loops around it (the
  values are the same);
* the wrappers take C-contiguous float32 arrays only (``_ptr`` raises
  ``TypeError`` otherwise); callers convert or take the numpy path.

Probe rules mirror :mod:`repro.backend._numba`:

* every accessor returns ``None`` when the tier is unavailable (no
  cffi, no compiler, build failure) or disabled, and callers fall back
  to the vectorized numpy path;
* ``REPRO_NO_CKERNELS`` disables the whole tier;
* ``REPRO_DISABLE_KERNELS`` (comma-separated kernel names, or ``all``)
  disables individual kernels across *both* the numba and C tiers —
  the benchmark suite uses it to reconstruct the pre-fusion fast path.

Nothing outside this module may import cffi directly.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

_FLOAT32 = np.dtype(np.float32)

_CDEF = """
void bn_train_fwd(const float* x, const float* gamma, const float* beta,
                  float eps, int relu, long n, long c, long p,
                  float* out, float* x_hat, float* mean, float* var,
                  float* inv_std);
void bn_eval_fwd(const float* x, const float* gamma, const float* beta,
                 const float* mean, const float* var, float eps, int relu,
                 long n, long c, long p,
                 float* out, float* x_hat, float* inv_std);
void bn_bwd(const float* grad, const float* x_hat, const float* inv_std,
            const float* gamma, const float* out, int relu, int training,
            long n, long c, long p, float* gx, float* ggamma, float* gbeta);
void im2col(const float* x, float* cols, long n, long c, long h, long w,
            long kernel, long stride, long padding, long oh, long ow);
void col2im(const float* cols, float* gx, long n, long c, long h, long w,
            long kernel, long stride, long padding, long oh, long ow);
void adam_update(float* p, const float* g, float* m, float* v, long size,
                 float lr, float beta1, float beta2, float eps,
                 float weight_decay, float bias1, float bias2);
void fused_fake_quant(const float* x, float* out, long size, float lo,
                      float scale, float inv_scale);
void maxpool_fwd(const float* x, float* out, signed char* idx, long planes,
                 long h, long w, long k);
void maxpool_bwd(const float* grad, const signed char* idx, float* gx,
                 long planes, long h, long w, long k);
"""

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Fused training-mode batchnorm (+ optional relu) over NCHW input:
   one double-accumulated stats pass and one normalize/scale/shift pass
   per channel, emitting out, x_hat and the per-channel statistics. */
void bn_train_fwd(const float* x, const float* gamma, const float* beta,
                  float eps, int relu, long n, long c, long p,
                  float* out, float* x_hat, float* mean, float* var,
                  float* inv_std) {
    long m = n * p;
    for (long ci = 0; ci < c; ci++) {
        double s = 0.0, ss = 0.0;
        for (long ni = 0; ni < n; ni++) {
            const float* row = x + (ni * c + ci) * p;
            for (long pi = 0; pi < p; pi++) {
                double v = row[pi];
                s += v; ss += v * v;
            }
        }
        double mu = s / m;
        double va = ss / m - mu * mu;
        if (va < 0.0) va = 0.0;
        mean[ci] = (float) mu;
        var[ci] = (float) va;
        float inv = (float)(1.0 / sqrt(va + (double) eps));
        inv_std[ci] = inv;
        float g = gamma[ci], b = beta[ci], mu_f = (float) mu;
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* row = x + base;
            float* xh = x_hat + base;
            float* o = out + base;
            for (long pi = 0; pi < p; pi++) {
                float xv = (row[pi] - mu_f) * inv;
                xh[pi] = xv;
                float ov = g * xv + b;
                if (relu && ov < 0.0f) ov = 0.0f;
                o[pi] = ov;
            }
        }
    }
}

/* Eval-mode batchnorm from running statistics: single pass. */
void bn_eval_fwd(const float* x, const float* gamma, const float* beta,
                 const float* mean, const float* var, float eps, int relu,
                 long n, long c, long p,
                 float* out, float* x_hat, float* inv_std) {
    for (long ci = 0; ci < c; ci++) {
        float inv = (float)(1.0 / sqrt((double) var[ci] + (double) eps));
        inv_std[ci] = inv;
        float g = gamma[ci], b = beta[ci], mu = mean[ci];
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* row = x + base;
            float* xh = x_hat + base;
            float* o = out + base;
            for (long pi = 0; pi < p; pi++) {
                float xv = (row[pi] - mu) * inv;
                xh[pi] = xv;
                float ov = g * xv + b;
                if (relu && ov < 0.0f) ov = 0.0f;
                o[pi] = ov;
            }
        }
    }
}

/* The relu gate as a bit select: gv where the saved post-relu output
   is not <= 0, +0.0f where it is.  Same bits as assigning 0.0f on a
   branch, also for NaN or inf gradients, but without the branch, which
   mispredicts on activations that are about half zeros. */
static inline float relu_gate(float gv, float o) {
    uint32_t bits;
    memcpy(&bits, &gv, sizeof bits);
    bits &= -(uint32_t) !(o <= 0.0f);
    memcpy(&gv, &bits, sizeof gv);
    return gv;
}

/* Fused batchnorm backward (+ optional relu gate read from the saved
   post-relu output): one reduction pass, one gradient pass, zero
   full-size temporaries. */
void bn_bwd(const float* grad, const float* x_hat, const float* inv_std,
            const float* gamma, const float* out, int relu, int training,
            long n, long c, long p, float* gx, float* ggamma, float* gbeta) {
    long m = n * p;
    for (long ci = 0; ci < c; ci++) {
        double sg = 0.0, sgx = 0.0;
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* g = grad + base;
            const float* xh = x_hat + base;
            const float* o = out + base;
            for (long pi = 0; pi < p; pi++) {
                float gv = relu ? relu_gate(g[pi], o[pi]) : g[pi];
                sg += gv; sgx += gv * (double) xh[pi];
            }
        }
        ggamma[ci] = (float) sgx;
        gbeta[ci] = (float) sg;
        float scale = gamma[ci] * inv_std[ci];
        float mean_dy = (float)(sg / m), mean_dy_xhat = (float)(sgx / m);
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* g = grad + base;
            const float* xh = x_hat + base;
            const float* o = out + base;
            float* r = gx + base;
            for (long pi = 0; pi < p; pi++) {
                float gv = relu ? relu_gate(g[pi], o[pi]) : g[pi];
                if (training)
                    r[pi] = scale * (gv - mean_dy - xh[pi] * mean_dy_xhat);
                else
                    r[pi] = scale * gv;
            }
        }
    }
}

/* Tap (ki, kj)'s in-image output rectangle at stride 1: output rows
   [i0, i1) and columns [j0, j1) read input pixels, the rest of the
   oh x ow plane reads the implicit zero padding.  Empty when
   i0 >= i1 or j0 >= j1 (a 3x3 tap off the centre of a 1x1 image). */
typedef struct { long i0, i1, j0, j1; } tap_rect;

static tap_rect stride1_rect(long h, long w, long oh, long ow, long ki,
                             long kj, long padding) {
    tap_rect r;
    r.i0 = padding - ki > 0 ? padding - ki : 0;
    r.i1 = h + padding - ki < oh ? h + padding - ki : oh;
    r.j0 = padding - kj > 0 ? padding - kj : 0;
    r.j1 = w + padding - kj < ow ? w + padding - kj : ow;
    return r;
}

/* im2col gather with implicit zero padding: writes each (channel,
   ki, kj) row of the column matrix contiguously, no padded copy and
   no strided-view reshape on the way out.  At stride 1 each tap is a
   shifted copy of its in-image rectangle: the row is zeroed only when
   the rectangle does not cover it, and the rectangle's rows are
   copied by an inline loop: a libc memcpy per image row costs more
   than it moves on the 1x1 to 4x4 planes of the deep layers, so the
   attribute stops gcc from turning the loop back into memcpy calls. */
__attribute__((optimize("no-tree-loop-distribute-patterns")))
void im2col(const float* restrict x, float* restrict cols, long n, long c,
            long h, long w, long kernel, long stride, long padding,
            long oh, long ow) {
    long plane = oh * ow, ncols = n * plane;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < kernel; ki++) {
            for (long kj = 0; kj < kernel; kj++) {
                float* dst = cols + ((ci * kernel + ki) * kernel + kj) * ncols;
                if (stride != 1) {
                    for (long ni = 0; ni < n; ni++) {
                        const float* src = x + (ni * c + ci) * h * w;
                        for (long io = 0; io < oh; io++) {
                            long ih = io * stride + ki - padding;
                            float* d = dst + (ni * oh + io) * ow;
                            for (long jo = 0; jo < ow; jo++) {
                                long iw = jo * stride + kj - padding;
                                d[jo] = (ih >= 0 && ih < h && iw >= 0 && iw < w)
                                        ? src[ih * w + iw] : 0.0f;
                            }
                        }
                    }
                    continue;
                }
                tap_rect r = stride1_rect(h, w, oh, ow, ki, kj, padding);
                if (r.i0 > 0 || r.i1 < oh || r.j0 > 0 || r.j1 < ow)
                    memset(dst, 0, (size_t) ncols * sizeof(float));
                if (r.i0 >= r.i1 || r.j0 >= r.j1) continue;
                long len = r.j1 - r.j0;
                for (long ni = 0; ni < n; ni++) {
                    const float* s = x + ((ni * c + ci) * h + r.i0 + ki - padding) * w
                                     + r.j0 + kj - padding;
                    float* d = dst + ni * plane + r.i0 * ow + r.j0;
                    for (long io = r.i0; io < r.i1; io++, s += w, d += ow)
                        for (long t = 0; t < len; t++) d[t] = s[t];
                }
            }
        }
    }
}

/* col2im scatter with implicit zero padding: accumulates directly into
   the (already zeroed) gradient buffer, no padded intermediate.  Each
   pixel sums its taps in (ki, kj) order, as col2im_sliced does.  At
   stride 1 only a tap's in-image rectangle is visited, and taps with
   an empty one are skipped. */
void col2im(const float* restrict cols, float* restrict gx, long n, long c,
            long h, long w, long kernel, long stride, long padding,
            long oh, long ow) {
    long plane = oh * ow, ncols = n * plane;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < kernel; ki++) {
            for (long kj = 0; kj < kernel; kj++) {
                const float* src = cols + ((ci * kernel + ki) * kernel + kj) * ncols;
                if (stride != 1) {
                    for (long ni = 0; ni < n; ni++) {
                        float* dst = gx + (ni * c + ci) * h * w;
                        for (long io = 0; io < oh; io++) {
                            long ih = io * stride + ki - padding;
                            if (ih < 0 || ih >= h) continue;
                            const float* s = src + (ni * oh + io) * ow;
                            float* d = dst + ih * w;
                            for (long jo = 0; jo < ow; jo++) {
                                long iw = jo * stride + kj - padding;
                                if (iw >= 0 && iw < w) d[iw] += s[jo];
                            }
                        }
                    }
                    continue;
                }
                tap_rect r = stride1_rect(h, w, oh, ow, ki, kj, padding);
                if (r.i0 >= r.i1 || r.j0 >= r.j1) continue;
                long len = r.j1 - r.j0;
                for (long ni = 0; ni < n; ni++) {
                    const float* s = src + ni * plane + r.i0 * ow + r.j0;
                    float* d = gx + ((ni * c + ci) * h + r.i0 + ki - padding) * w
                               + r.j0 + kj - padding;
                    for (long io = r.i0; io < r.i1; io++, s += ow, d += w)
                        for (long t = 0; t < len; t++) d[t] += s[t];
                }
            }
        }
    }
}

/* One-pass bias-corrected Adam: param and both moment buffers are
   updated in a single sweep instead of numpy's seven. */
void adam_update(float* p, const float* g, float* m, float* v, long size,
                 float lr, float beta1, float beta2, float eps,
                 float weight_decay, float bias1, float bias2) {
    float inv_b1 = 1.0f / bias1, inv_b2 = 1.0f / bias2;
    for (long i = 0; i < size; i++) {
        float gi = g[i] + weight_decay * p[i];
        m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
        v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
        float mh = m[i] * inv_b1;
        float vh = v[i] * inv_b2;
        p[i] -= lr * mh / (sqrtf(vh) + eps);
    }
}

/* One-pass eqn.-1 round-scale-shift (the caller owns the range). */
void fused_fake_quant(const float* x, float* out, long size, float lo,
                      float scale, float inv_scale) {
    for (long i = 0; i < size; i++) {
        out[i] = rintf((x[i] - lo) * scale) * inv_scale + lo;
    }
}

/* Non-overlapping max pool over (planes, H, W): one pass emitting the
   max and its window offset (first-max ties, matching argmax). */
void maxpool_fwd(const float* x, float* out, signed char* idx, long planes,
                 long h, long w, long k) {
    long oh = h / k, ow = w / k;
    for (long pl = 0; pl < planes; pl++) {
        const float* xp = x + pl * h * w;
        float* op = out + pl * oh * ow;
        signed char* ip = idx + pl * oh * ow;
        for (long io = 0; io < oh; io++) {
            for (long jo = 0; jo < ow; jo++) {
                const float* base = xp + (io * k) * w + jo * k;
                float best = base[0];
                long bi = 0;
                for (long ki = 0; ki < k; ki++) {
                    const float* row = base + ki * w;
                    for (long kj = 0; kj < k; kj++) {
                        if (row[kj] > best) { best = row[kj]; bi = ki * k + kj; }
                    }
                }
                op[io * ow + jo] = best;
                ip[io * ow + jo] = (signed char) bi;
            }
        }
    }
}

/* Adjoint: route each output gradient to its argmax tap (gx pre-zeroed;
   windows are disjoint so plain stores suffice). */
void maxpool_bwd(const float* grad, const signed char* idx, float* gx,
                 long planes, long h, long w, long k) {
    long oh = h / k, ow = w / k;
    for (long pl = 0; pl < planes; pl++) {
        const float* gp = grad + pl * oh * ow;
        const signed char* ip = idx + pl * oh * ow;
        float* xp = gx + pl * h * w;
        for (long io = 0; io < oh; io++) {
            for (long jo = 0; jo < ow; jo++) {
                long b = ip[io * ow + jo];
                xp[(io * k + b / k) * w + jo * k + b % k] = gp[io * ow + jo];
            }
        }
    }
}
"""

# See the module docstring: no reassociating flag, ever.
_COMPILE_ARGS = ("-O3", "-march=native", "-funroll-loops", "-fno-math-errno")

_LIB = None
_FAILED = False


def kernel_disabled(name: str) -> bool:
    """Whether ``name`` is switched off via ``REPRO_DISABLE_KERNELS``.

    Consulted by both the numba and C probes; the env var is read per
    call so benchmark legs can flip it inside one process.
    """
    raw = os.environ.get("REPRO_DISABLE_KERNELS", "")
    if not raw:
        return False
    names = {part.strip() for part in raw.split(",") if part.strip()}
    return "all" in names or name in names


def kernel_ready(*arrays) -> bool:
    """Whether every array can go to a compiled kernel as it is.

    The kernels (C and numba alike) read raw C-contiguous float32
    buffers: anything else is converted by the caller or takes the
    numpy path.
    """
    for array in arrays:
        if array.dtype != _FLOAT32 or not array.flags.c_contiguous:
            return False
    return True


def _cache_dir() -> str:
    root = os.environ.get("REPRO_CKERNEL_CACHE")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro-ckernels")
    return root


def _module_dir(compile_args=_COMPILE_ARGS) -> tuple[str, str]:
    """``(module name, build dir)`` for one source revision and flag list.

    The flags are part of the digest: a flag change alone must rebuild,
    not load a cached module compiled under the old flags.
    """
    key = "\0".join([_CDEF, _SOURCE, *compile_args])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return f"_repro_ck_{digest}", os.path.join(_cache_dir(), digest)


def _load():
    """Compile (or load from the disk cache) the C module; None on failure."""
    global _LIB, _FAILED
    if _LIB is not None or _FAILED:
        return _LIB
    try:
        import importlib.util

        import cffi

        modname, moddir = _module_dir()
        sofile = None
        if os.path.isdir(moddir):
            for entry in os.listdir(moddir):
                if entry.startswith(modname) and entry.endswith(".so"):
                    sofile = os.path.join(moddir, entry)
                    break
        if sofile is None:
            os.makedirs(moddir, exist_ok=True)
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            ffi.set_source(
                modname,
                _SOURCE,
                extra_compile_args=list(_COMPILE_ARGS),
                libraries=["m"],
            )
            sofile = ffi.compile(tmpdir=moddir, verbose=False)
        spec = importlib.util.spec_from_file_location(modname, sofile)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _LIB = module
    except Exception:  # no cffi / no compiler / broken toolchain
        _FAILED = True
        return None
    return _LIB


def get_kernel(name: str):
    """Return a callable for C kernel ``name``, or None when unavailable.

    ``REPRO_NO_CKERNELS`` is consulted per call (not only at build time)
    so one process can run legs with and without the compiled tier.
    """
    if os.environ.get("REPRO_NO_CKERNELS") or kernel_disabled(name):
        return None
    module = _load()
    if module is None:
        return None
    key = (id(module), name)
    try:
        return _WRAPPER_CACHE[key]
    except KeyError:
        wrapper = _WRAPPERS.get(name, _missing)(module)
        _WRAPPER_CACHE[key] = wrapper
        return wrapper


_WRAPPER_CACHE: dict = {}


def _missing(module):
    return None


def _ptr(ffi, array):
    """A ``float*`` view of ``array``; TypeError unless float32 C-contiguous.

    ``from_buffer`` takes any buffer and would reinterpret its bytes, so
    a float64 or strided array must be refused here, never passed on.
    """
    if not kernel_ready(array):
        raise TypeError(
            f"C kernels take C-contiguous float32 arrays, got {array.dtype} "
            f"(c_contiguous={array.flags.c_contiguous})"
        )
    # from_buffer is a C-level view; array.ctypes would build a python
    # ctypes object per call, which shows up at this call frequency.
    return ffi.from_buffer("float[]", array)


def _wrap_bn_train_fwd(module):
    lib, ffi = module.lib, module.ffi

    def bn_train_fwd(x, gamma, beta, eps, relu, out, x_hat, mean, var, inv_std):
        n, c, p = x.shape
        lib.bn_train_fwd(
            _ptr(ffi, x), _ptr(ffi, gamma), _ptr(ffi, beta), eps, int(relu),
            n, c, p, _ptr(ffi, out), _ptr(ffi, x_hat), _ptr(ffi, mean),
            _ptr(ffi, var), _ptr(ffi, inv_std),
        )

    return bn_train_fwd


def _wrap_bn_eval_fwd(module):
    lib, ffi = module.lib, module.ffi

    def bn_eval_fwd(x, gamma, beta, mean, var, eps, relu, out, x_hat, inv_std):
        n, c, p = x.shape
        lib.bn_eval_fwd(
            _ptr(ffi, x), _ptr(ffi, gamma), _ptr(ffi, beta), _ptr(ffi, mean),
            _ptr(ffi, var), eps, int(relu), n, c, p,
            _ptr(ffi, out), _ptr(ffi, x_hat), _ptr(ffi, inv_std),
        )

    return bn_eval_fwd


def _wrap_bn_bwd(module):
    lib, ffi = module.lib, module.ffi

    def bn_bwd(grad, x_hat, inv_std, gamma, out, relu, training, gx, ggamma, gbeta):
        n, c, p = grad.shape
        lib.bn_bwd(
            _ptr(ffi, grad), _ptr(ffi, x_hat), _ptr(ffi, inv_std),
            _ptr(ffi, gamma), _ptr(ffi, out), int(relu), int(training),
            n, c, p, _ptr(ffi, gx), _ptr(ffi, ggamma), _ptr(ffi, gbeta),
        )

    return bn_bwd


def _wrap_im2col(module):
    lib, ffi = module.lib, module.ffi

    def im2col(x, cols, kernel, stride, padding, out_h, out_w):
        n, c, h, w = x.shape
        lib.im2col(
            _ptr(ffi, x), _ptr(ffi, cols), n, c, h, w,
            kernel, stride, padding, out_h, out_w,
        )

    return im2col


def _wrap_col2im(module):
    lib, ffi = module.lib, module.ffi

    def col2im(cols, gx, kernel, stride, padding, out_h, out_w):
        n, c, h, w = gx.shape
        lib.col2im(
            _ptr(ffi, cols), _ptr(ffi, gx), n, c, h, w,
            kernel, stride, padding, out_h, out_w,
        )

    return col2im


def _wrap_adam(module):
    lib, ffi = module.lib, module.ffi

    def adam_update(param, grad, m, v, lr, beta1, beta2, eps, weight_decay,
                    bias1, bias2):
        lib.adam_update(
            _ptr(ffi, param), _ptr(ffi, grad), _ptr(ffi, m), _ptr(ffi, v),
            param.size, lr, beta1, beta2, eps, weight_decay, bias1, bias2,
        )

    return adam_update


def _wrap_fake_quant(module):
    lib, ffi = module.lib, module.ffi

    def fused_fake_quant(x, out, lo, scale, inv_scale):
        lib.fused_fake_quant(_ptr(ffi, x), _ptr(ffi, out), x.size,
                             lo, scale, inv_scale)

    return fused_fake_quant


def _wrap_maxpool_fwd(module):
    lib, ffi = module.lib, module.ffi

    def maxpool_fwd(x, out, idx, k):
        planes, h, w = x.shape
        lib.maxpool_fwd(_ptr(ffi, x), _ptr(ffi, out),
                        ffi.from_buffer("signed char[]", idx),
                        planes, h, w, k)

    return maxpool_fwd


def _wrap_maxpool_bwd(module):
    lib, ffi = module.lib, module.ffi

    def maxpool_bwd(grad, idx, gx, k):
        planes, h, w = gx.shape
        lib.maxpool_bwd(_ptr(ffi, grad),
                        ffi.from_buffer("signed char[]", idx),
                        _ptr(ffi, gx), planes, h, w, k)

    return maxpool_bwd


_WRAPPERS = {
    "batchnorm_train_fwd": _wrap_bn_train_fwd,
    "batchnorm_eval_fwd": _wrap_bn_eval_fwd,
    "batchnorm_bwd": _wrap_bn_bwd,
    "im2col": _wrap_im2col,
    "col2im": _wrap_col2im,
    "adam_update": _wrap_adam,
    "fused_fake_quant": _wrap_fake_quant,
    "maxpool_fwd": _wrap_maxpool_fwd,
    "maxpool_bwd": _wrap_maxpool_bwd,
}
