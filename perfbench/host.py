"""The host record every benchmark result carries."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Thread-count variables that change BLAS behaviour.  The benchmark sets
# them for everything it times (``run.isolate``); the record keeps what
# the caller's environment held and what the timed processes got.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
KERNEL_VARS = ("REPRO_NO_CKERNELS", "REPRO_DISABLE_KERNELS")


def sgemm_peak_gflops(size: int = 1024, seconds: float = 0.5) -> float:
    """Best float32 GEMM rate of ``size``-square operands over ``seconds``."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size), dtype=np.float32)
    b = rng.standard_normal((size, size), dtype=np.float32)
    out = np.empty((size, size), dtype=np.float32)
    np.matmul(a, b, out=out)  # let BLAS start its threads
    best = float("inf")
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2 * size ** 3 / best / 1e9


def calibration_s(passes: int = 5) -> float:
    """Median seconds of one pass of a fixed numpy and Python workload.

    A pass (about 80 ms) does, at fixed sizes and without any of the
    program's code, what the trials spend their time on: float32 GEMM,
    elementwise passes over a 1 MB array, im2col-style window copies and
    an interpreter loop.  Timed between samples, it says how fast the
    shared host runs at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 576), dtype=np.float32)
    b = rng.standard_normal((576, 1024), dtype=np.float32)
    product = np.empty((256, 1024), dtype=np.float32)
    x = rng.standard_normal(1 << 18, dtype=np.float32)
    y = np.empty_like(x)
    images = rng.standard_normal((32, 16, 18, 18), dtype=np.float32)
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for _ in range(20):
            np.matmul(a, b, out=product)
        for _ in range(40):
            np.maximum(x, 0, out=y)
            np.multiply(x, y, out=y)
            y += x
        for _ in range(10):
            windows = np.lib.stride_tricks.sliding_window_view(images, (3, 3), (2, 3))
            windows.transpose(0, 2, 3, 1, 4, 5).copy()
        total = 0
        for i in range(100_000):
            total += i & 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_tier() -> str:
    """Which compiled tier backs the fast backend in this environment."""
    from repro.backend import _ckernels, _numba

    if _numba.get_kernel("im2col") is not None:
        return "numba"
    if _ckernels.get_kernel("im2col") is not None:
        return "cffi-C"
    return "numpy"


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown"}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")
            if blas.get(key) is not None}


def source_digest(root: Path) -> str:
    """sha256 over ``src/`` (path and bytes), the checkout's identity."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def fingerprint() -> dict:
    """What float64 results depend on: the CPU model, BLAS and numpy."""
    import numpy as np

    cpu, flags = platform.processor(), ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not flags:
                    cpu = value.strip()
                elif key.strip() == "flags":
                    flags = value.strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu,
            "cpu_flags": hashlib.sha256(flags.encode()).hexdigest()[:16],
            "blas": _blas().get("version"), "numpy": np.__version__}


def record(root: Path, caller_env: dict, peak_gflops: float) -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": fingerprint()["cpu"],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: caller_env.get(name) for name in THREAD_VARS},
        "timed_thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "kernel_env": {name: caller_env.get(name) for name in KERNEL_VARS},
        "kernel_tier": kernel_tier(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "sgemm_peak_gflops": peak_gflops,
    }
