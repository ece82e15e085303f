"""One quantization trial in a fresh process; prints one JSON line.

    python3 perfbench/trial.py --backend fast --seed 0 --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide), so ``setup_s`` runs from
process start to the first ``Trainer.train_epoch`` entry, whose first
statement fetches the first training batch.  ``--setup-only`` stops
there.  ``--trace-dir`` records per-module spans (see ``spans.py``) and
writes the trial's span list to that directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

PRESET = "vgg19-cifar10-quant"


class _SetupDone(Exception):
    pass


def rows_digest(rows: list[dict]) -> str:
    """sha256 of the report rows; floats keep every digit via repr."""
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


def break_kernel(name: str) -> None:
    """Make backend kernel ``name`` return zeros (output-check self-test)."""
    import numpy as np

    from repro import backend

    for backend_name in backend.available_backends():
        instance = backend.get_backend(backend_name)
        kernel = getattr(instance, name)

        def broken(*args, _kernel=kernel, **kwargs):
            result = _kernel(*args, **kwargs)
            if isinstance(result, tuple):
                return (np.zeros_like(result[0]),) + result[1:]
            return np.zeros_like(result)

        setattr(instance, name, broken)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--backend", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace-dir")
    parser.add_argument("--trace-name", default="trial")
    parser.add_argument("--break-kernel")
    args = parser.parse_args(argv)

    from repro.api import experiments
    from repro.core.trainer import Trainer
    from repro.orchestration.cache import ResultCache
    from repro.orchestration.runner import run_payload

    recorder = None
    if args.trace_dir:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    if args.break_kernel:
        break_kernel(args.break_kernel)

    epochs: list[tuple[float, float, int]] = []  # (start, end, samples)
    train_epoch = Trainer.train_epoch

    def timed_epoch(self, loader):
        start = time.monotonic()
        if not epochs and args.setup_only:
            raise _SetupDone
        try:
            return train_epoch(self, loader)
        finally:
            epochs.append((start, time.monotonic(), len(loader.dataset)))

    Trainer.train_epoch = timed_epoch

    seed = {"seed": args.seed}
    experiment = experiments.build(
        PRESET, backend=args.backend, model=seed, data=seed)
    started = time.perf_counter()
    try:
        report = experiment.run()
    except _SetupDone:
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0
    trial_s = time.perf_counter() - started

    payload = run_payload(report, experiment.artifacts)
    result = {
        "pid": os.getpid(),
        "setup_s": epochs[0][0] - args.t0,
        "trial_s": trial_s,
        "train_s": sum(end - start for start, end, _ in epochs),
        "train_samples": sum(samples for _, _, samples in epochs),
        "layer_names": payload["report"]["layer_names"],
        "rows": payload["report"]["rows"],
        "digest": rows_digest(payload["report"]["rows"]),
        "min_bits": experiment.config.quant.min_bits,
        "initial_bits": experiment.config.quant.initial_bits,
        "frozen_bits": experiment.config.quant.frozen_bits,
    }
    if args.cache_dir:
        # Stored the way `repro run --cache` stores a run, so the parent
        # can time `repro run --cache` serving it back.
        ResultCache(args.cache_dir).store(experiment.config, payload)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        trace = recorder.spans
        result["layers"] = spans.trial_metrics(trace)
        with open(f"{args.trace_dir}/{args.trace_name}.spans.json", "w",
                  encoding="utf-8") as handle:
            json.dump(trace, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
