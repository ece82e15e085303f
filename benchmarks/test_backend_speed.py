"""E14/E18 — Fast-backend wall-clock speedup on the bench search trial.

Times one quantization-schedule trial (the ``vgg19-cifar10-quant``
search base at bench width 0.5 / 32x32 inputs, one iteration) on three
configurations from the same seeds:

* ``fused fast`` — the float32 backend as shipped: fused elementwise
  chains (relu / batchnorm / softmax / losses / maxpool) with the
  numba-or-C kernel tiers probed per call;
* ``pr8 fast`` — the pre-fusion fast path, reconstructed by building
  the seed's per-primitive graph (``tests/seed_graph.py``, loaded by
  path so that code exists once) and disabling every kernel added with
  fusion (``REPRO_DISABLE_KERNELS`` + ``REPRO_NO_CKERNELS``; the numba
  sgd/fake-quant kernels PR8 shipped stay on where numba is present);
* ``reference`` — the float64 reference engine.

Each leg is timed ``REPRO_BENCH_REPEATS`` times (the host is shared, so
the *minimum* is the honest cost of the code) and the measured triple
is written to a temp file, or to ``REPRO_BENCH_OUT`` (resolved against
the repo root) when set — ``REPRO_BENCH_OUT=BENCH_PR10.json`` rewrites
the committed record of the PR's performance claim.  The test
fails if fusion drops under 1.2x over the pre-fusion fast path or 5x
over the reference.

The fast runs must also land in the reference run's accuracy
neighbourhood: a speedup bought with a broken training loop is a bug,
not a win.
"""

import importlib.util
import json
import os
import time
from pathlib import Path

from repro.api import experiments

from common import bench_record_path

WORKLOAD = {
    "preset": "vgg19-cifar10-quant",
    "width_multiplier": 0.5,
    "image_size": 32,
    "max_iterations": 1,
    "epochs_per_iteration": 1,
}
MIN_FUSED_OVER_PR8 = 1.2
MIN_FUSED_OVER_REFERENCE = 5.0
# Everything the fused-kernel PR added on top of the PR8 fast path.
PR8_DISABLED_KERNELS = (
    "im2col,col2im,batchnorm_train_fwd,batchnorm_eval_fwd,batchnorm_bwd,"
    "adam_update,maxpool_fwd,maxpool_bwd"
)


def _load_seed_graph():
    """The test suite's seed-graph oracle module, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "tests" / "seed_graph.py"
    spec = importlib.util.spec_from_file_location("seed_graph", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


seed_graph = _load_seed_graph().seed_graph


def _trial(backend: str):
    config = experiments.get_config(WORKLOAD["preset"]).evolve(
        backend=backend,
        model={"width_multiplier": WORKLOAD["width_multiplier"],
               "image_size": WORKLOAD["image_size"]},
        data={"image_size": WORKLOAD["image_size"]},
        quant={"max_iterations": WORKLOAD["max_iterations"],
               "max_epochs_per_iteration": WORKLOAD["epochs_per_iteration"],
               "min_epochs_per_iteration": WORKLOAD["epochs_per_iteration"]},
    )
    start = time.perf_counter()
    report = experiments.Experiment(config).run()
    seconds = time.perf_counter() - start
    return seconds, report.rows[-1].test_accuracy


def _pr8_trial():
    """The fast backend with every post-PR8 kernel switched off."""
    saved = {key: os.environ.get(key)
             for key in ("REPRO_NO_CKERNELS", "REPRO_DISABLE_KERNELS")}
    os.environ["REPRO_NO_CKERNELS"] = "1"
    os.environ["REPRO_DISABLE_KERNELS"] = PR8_DISABLED_KERNELS
    try:
        with seed_graph():
            return _trial("fast")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def test_fused_fast_backend_speedup_on_bench_trial(tmp_path):
    repeats = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "2")))
    _trial("fast")  # warmup: kernel builds, allocator growth, BLAS init
    fused_times, pr8_times, reference_times = [], [], []
    for _ in range(repeats):
        seconds, fused_accuracy = _trial("fast")
        fused_times.append(seconds)
        seconds, pr8_accuracy = _pr8_trial()
        pr8_times.append(seconds)
        seconds, reference_accuracy = _trial("reference")
        reference_times.append(seconds)
    fused_seconds = min(fused_times)
    pr8_seconds = min(pr8_times)
    reference_seconds = min(reference_times)
    fused_over_pr8 = pr8_seconds / fused_seconds
    fused_over_reference = reference_seconds / fused_seconds

    bench_path = bench_record_path(tmp_path, "BENCH_PR10.json")
    payload = {
        "workload": WORKLOAD,
        "repeats": repeats,
        "reference_seconds": round(reference_seconds, 3),
        "pr8_fast_seconds": round(pr8_seconds, 3),
        "fused_fast_seconds": round(fused_seconds, 3),
        "fused_over_pr8": round(fused_over_pr8, 2),
        "fused_over_reference": round(fused_over_reference, 2),
        "reference_accuracy": round(reference_accuracy, 4),
        "pr8_accuracy": round(pr8_accuracy, 4),
        "fused_accuracy": round(fused_accuracy, 4),
    }
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(f"reference:  {reference_seconds:6.2f}s  "
          f"(acc {reference_accuracy:.3f})")
    print(f"pr8 fast:   {pr8_seconds:6.2f}s  (acc {pr8_accuracy:.3f})")
    print(f"fused fast: {fused_seconds:6.2f}s  (acc {fused_accuracy:.3f})")
    print(f"fused/pr8:  {fused_over_pr8:.2f}x   "
          f"fused/reference: {fused_over_reference:.2f}x  "
          f"-> {bench_path}")

    assert abs(fused_accuracy - reference_accuracy) <= 0.15
    assert abs(pr8_accuracy - reference_accuracy) <= 0.15
    assert fused_over_pr8 >= MIN_FUSED_OVER_PR8, (
        f"fused kernels are only {fused_over_pr8:.2f}x over the PR8 fast "
        f"path (floor {MIN_FUSED_OVER_PR8}x)"
    )
    assert fused_over_reference >= MIN_FUSED_OVER_REFERENCE, (
        f"fused fast is only {fused_over_reference:.2f}x over reference "
        f"(floor {MIN_FUSED_OVER_REFERENCE}x)"
    )
