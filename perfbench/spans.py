"""Per-module spans recorded from outside the program.

The benchmark never edits ``src/``: it times calls into each module's
public functions by wrapping them in the process that runs a trial (a
trial process, or a traced master whose forked workers inherit the
wrappers).  A span is ``[name, parent, start_ns, end_ns, attrs]``; the
parent is the index of the enclosing span, so self time and nesting
come straight from the list.  Spans stay in memory and are written out
once, after the trial they belong to.

Module names follow ``src/repro``: ``backend``, ``autograd``, ``nn``,
``core``, ``density``, ``energy``, ``data`` and ``api``.
"""

from __future__ import annotations

import json
import time

# Backend kernels reported one by one; every other wrapped backend
# method lands in the ``other`` bucket.
KERNELS = (
    "matmul", "im2col", "col2im", "batchnorm_train", "batchnorm_bwd",
    "batchnorm_eval", "fake_quant", "adam_update", "sgd_update",
    "maxpool_fwd", "maxpool_bwd", "relu_fwd", "relu_bwd",
)
OTHER_KERNELS = (
    "bias_add", "softmax_fwd", "softmax_bwd", "log_softmax_fwd",
    "log_softmax_bwd", "cross_entropy_fwd", "cross_entropy_bwd",
    "dropout_mask", "linear_fwd", "linear_bwd", "mse_fwd", "mse_bwd",
)
STAGES = ("quantize", "energy-report")

_now = time.perf_counter_ns


class Recorder:
    """An in-memory span list with an open-span stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def begin(self, name: str) -> list:
        entry = [name, self.stack[-1] if self.stack else -1, _now(), 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(entry)
        return entry

    def end(self, entry: list) -> None:
        self.stack.pop()
        entry[3] = _now()

    def mark(self, name: str) -> None:
        """A zero-length span: an event that is counted, not timed."""
        now = _now()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, now, now, None])

    def clear(self) -> None:
        # In place: the wrappers hold references to both lists.
        self.spans.clear()
        self.stack.clear()


def _wrap(recorder: Recorder, fn, name: str, attrs=None):
    # Recorder.begin/end inlined: kernels are called tens of thousands of
    # times per trial, and every call here is tracing overhead.
    trace, stack = recorder.spans, recorder.stack

    def wrapper(*args, **kwargs):
        entry = [name, stack[-1] if stack else -1, _now(), 0, None]
        stack.append(len(trace))
        trace.append(entry)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            entry[3] = _now()
        if attrs is not None:
            entry[4] = attrs(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_iter(recorder: Recorder, iter_fn, name: str):
    """Wrap a generator method so that each ``next()`` is one span."""

    def wrapper(self):
        inner = iter_fn(self)
        while True:
            entry = recorder.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                recorder.end(entry)
                if recorder.spans and recorder.spans[-1] is entry:
                    recorder.spans.pop()  # the exhausting call yields no batch
                return
            except BaseException:
                recorder.end(entry)
                raise
            recorder.end(entry)
            yield item

    wrapper.__wrapped__ = iter_fn
    return wrapper


def _matmul_flops(args, result):
    a = args[0]
    return {"flops": 2 * result.size * a.shape[-1]}


def _im2col_bytes(args, result):
    return {"bytes": args[0].nbytes + result[0].nbytes}


def _col2im_bytes(args, result):
    return {"bytes": args[0].nbytes + result.nbytes}


_ATTRS = {"matmul": _matmul_flops, "im2col": _im2col_bytes,
          "col2im": _col2im_bytes}


class StageSpans:
    """A ``PipelineCallback`` that records stages and iteration ends."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._open = None

    def on_pipeline_start(self, ctx):
        pass

    def on_pipeline_end(self, ctx, report):
        pass

    def on_stage_start(self, ctx, stage):
        self._open = self.recorder.begin(f"api.stage.{stage.name}")

    def on_stage_end(self, ctx, stage):
        self.recorder.end(self._open)
        self._open = None

    def on_iteration_end(self, ctx, row):
        self.recorder.mark("core.iteration")


def install(recorder: Recorder, flush=None) -> None:
    """Wrap the public entry points of every trial-level module.

    ``Experiment.run`` becomes a ``trial`` span that attaches
    :class:`StageSpans`; when ``flush`` is given it is called with the
    recorder after every run (the traced master's workers use it to
    write their spans before the next point starts).
    """
    from repro import backend as backend_pkg
    from repro.api import context, experiments, stages
    from repro.autograd.tensor import Tensor
    from repro.core.ad_quant import ADQuantizer
    from repro.core.trainer import Trainer
    from repro.data.datasets import DataLoader
    from repro.density.meter import ActivationDensityMeter
    from repro.energy import profile
    from repro.models.resnet import ResNet
    from repro.models.vgg import VGG
    from repro.nn.optim import SGD, Adam

    for name in backend_pkg.available_backends():
        instance = backend_pkg.get_backend(name)
        for kernel in KERNELS + OTHER_KERNELS:
            setattr(instance, kernel, _wrap(
                recorder, getattr(instance, kernel), f"backend.{kernel}",
                _ATTRS.get(kernel)))

    for owner, attr, name in (
        (Tensor, "backward", "autograd.backward"),
        (VGG, "forward", "nn.forward"),
        (ResNet, "forward", "nn.forward"),
        (Adam, "step", "nn.optim_step"),
        (SGD, "step", "nn.optim_step"),
        (Trainer, "train_epoch", "core.train_epoch"),
        (Trainer, "evaluate", "core.evaluate"),
        (ADQuantizer, "update_plan", "core.update_plan"),
        (ActivationDensityMeter, "update", "density.meter_update"),
        (experiments, "build_context", "api.build_context"),
    ):
        setattr(owner, attr, _wrap(recorder, getattr(owner, attr), name))
    profile_fn = _wrap(recorder, profile.profile_model, "energy.profile_model")
    for module in (profile, context, stages):
        module.profile_model = profile_fn
    DataLoader.__iter__ = _wrap_iter(recorder, DataLoader.__iter__, "data.loader")

    run = experiments.Experiment.run

    def traced_run(self, callbacks=()):
        entry = recorder.begin("trial")
        try:
            return run(self, callbacks=list(callbacks) + [StageSpans(recorder)])
        finally:
            recorder.end(entry)
            if flush is not None:
                flush(recorder)

    experiments.Experiment.run = traced_run


# ---------------------------------------------------------------------------
# Aggregation: one trial's span list -> per-layer metrics.
# ---------------------------------------------------------------------------

def trial_metrics(spans: list) -> dict:
    """Per-layer metrics of one trial (times in s, counts as numbers)."""
    incl: dict[str, float] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    child_ns = [0] * len(spans)
    in_graph = [False] * len(spans)  # inside a model forward or backward
    backend_in_graph = 0
    for index, (name, parent, start, end, attrs) in enumerate(spans):
        duration = end - start
        if parent >= 0:
            child_ns[parent] += duration
            in_graph[index] = in_graph[parent]
        if name in ("nn.forward", "autograd.backward"):
            in_graph[index] = True
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + duration
        if attrs:
            for key, value in attrs.items():
                attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value
    for index, (name, parent, start, end, _) in enumerate(spans):
        own = (end - start) - child_ns[index]
        self_ns[name] = self_ns.get(name, 0) + own
        if name.startswith("backend.") and in_graph[index]:
            backend_in_graph += own

    def seconds(table, name):
        return table.get(name, 0) / 1e9

    out = {}
    for kernel in KERNELS:
        out[f"backend.{kernel}.s"] = seconds(self_ns, f"backend.{kernel}")
        out[f"backend.{kernel}.calls"] = calls.get(f"backend.{kernel}", 0)
    out["backend.other.s"] = sum(
        seconds(self_ns, f"backend.{kernel}") for kernel in OTHER_KERNELS)
    out["backend.other.calls"] = sum(
        calls.get(f"backend.{kernel}", 0) for kernel in OTHER_KERNELS)
    matmul_s = out["backend.matmul.s"]
    out["backend.matmul.gflops"] = (
        attr_sum.get("backend.matmul.flops", 0) / matmul_s / 1e9
        if matmul_s else 0.0)
    out["backend.im2col.mb"] = attr_sum.get("backend.im2col.bytes", 0) / 1e6
    out["backend.col2im.mb"] = attr_sum.get("backend.col2im.bytes", 0) / 1e6
    out["autograd.backward.s"] = seconds(incl, "autograd.backward")
    out["autograd.self.s"] = (
        seconds(incl, "nn.forward") + seconds(incl, "autograd.backward")
        - backend_in_graph / 1e9)
    out["nn.forward.s"] = seconds(incl, "nn.forward")
    out["nn.optim_step.s"] = seconds(incl, "nn.optim_step")
    out["core.train_epoch.s"] = seconds(incl, "core.train_epoch")
    out["core.evaluate.s"] = seconds(incl, "core.evaluate")
    out["core.update_plan.s"] = seconds(incl, "core.update_plan")
    out["core.epochs"] = calls.get("core.train_epoch", 0)
    out["core.iterations"] = calls.get("core.iteration", 0)
    out["density.meter_update.s"] = seconds(incl, "density.meter_update")
    out["density.meter_update.calls"] = calls.get("density.meter_update", 0)
    out["energy.profile_model.s"] = seconds(incl, "energy.profile_model")
    out["energy.profile_model.calls"] = calls.get("energy.profile_model", 0)
    out["data.loader.s"] = seconds(incl, "data.loader")
    out["data.batches"] = calls.get("data.loader", 0)
    out["api.build_context.s"] = seconds(incl, "api.build_context")
    for stage in STAGES:
        out[f"api.stage.{stage}.s"] = seconds(incl, f"api.stage.{stage}")
    return out


# ---------------------------------------------------------------------------
# Export: JSONL and Chrome trace-event JSON (opens in Perfetto).
# ---------------------------------------------------------------------------

def span_dicts(spans: list, workload: str, run_id: str, pid: int):
    """Spans as plain dicts; ``start``/``end`` are CLOCK_MONOTONIC seconds."""
    for index, (name, parent, start, end, attrs) in enumerate(spans):
        record = {
            "workload": workload, "run": run_id, "pid": pid,
            "id": index, "parent": parent if parent >= 0 else None,
            "name": name, "start": start / 1e9, "end": end / 1e9,
        }
        if attrs:
            record["attrs"] = attrs
        yield record


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def write_chrome(path, records) -> None:
    """Complete ("X") trace events, one track per process."""
    events = []
    for record in records:
        args = {"id": record["id"], "parent": record["parent"],
                "workload": record["workload"], "run": record["run"]}
        args.update(record.get("attrs") or {})
        events.append({
            "name": record["name"], "cat": record["name"].split(".")[0],
            "ph": "X", "pid": record["pid"], "tid": record["pid"],
            "ts": record["start"] * 1e6,
            "dur": (record["end"] - record["start"]) * 1e6,
            "args": args,
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

