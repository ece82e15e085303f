"""The pipeline: an ordered list of stages plus a hook protocol.

A :class:`Pipeline` prepares the shared context once (geometry trace,
initial plan, baseline energy snapshot) and then runs its stages in
order.  Observers attach as :class:`PipelineCallback` objects; hooks
fire through the context so stages stay decoupled from the callback
list:

* ``on_pipeline_start(ctx)`` / ``on_pipeline_end(ctx, report)``
* ``on_stage_start(ctx, stage)`` / ``on_stage_end(ctx, stage)``
* ``on_iteration_end(ctx, row)`` — after every Table-row append inside
  an iterating stage; calling ``ctx.request_stop()`` here implements an
  early-stop policy without subclassing any stage.
"""

from __future__ import annotations

from repro.api.context import ExperimentContext
from repro.api.stages import Stage
from repro.core.report import ExperimentReport

HOOK_NAMES = (
    "on_pipeline_start",
    "on_pipeline_end",
    "on_stage_start",
    "on_stage_end",
    "on_iteration_end",
)


class PipelineCallback:
    """No-op base class; override any subset of the hook methods."""

    def on_pipeline_start(self, ctx) -> None:
        pass

    def on_pipeline_end(self, ctx, report) -> None:
        pass

    def on_stage_start(self, ctx, stage) -> None:
        pass

    def on_stage_end(self, ctx, stage) -> None:
        pass

    def on_iteration_end(self, ctx, row) -> None:
        pass


class Pipeline:
    """Ordered, observable composition of :class:`Stage` objects."""

    def __init__(self, stages, callbacks=()):
        stages = list(stages)
        for stage in stages:
            if not isinstance(stage, Stage):
                raise TypeError(f"not a Stage: {stage!r}")
        self.stages = stages
        self.callbacks = list(callbacks)

    def add_callback(self, callback) -> "Pipeline":
        self.callbacks.append(callback)
        return self

    def emit(self, event: str, *args) -> None:
        """Dispatch one hook event to every callback that implements it."""
        if event not in HOOK_NAMES:
            raise ValueError(f"unknown hook {event!r}")
        for callback in self.callbacks:
            handler = getattr(callback, event, None)
            if handler is not None:
                handler(*args)

    # ------------------------------------------------------------------
    def run(self, ctx: ExperimentContext, start_at: int = 0) -> ExperimentReport:
        """Prepare the context (once) and run every stage in order.

        ``start_at`` skips the first N stages — the re-entry point used
        by :meth:`resume` after a checkpoint restore.  While running,
        ``ctx._stage_cursor`` tracks the index of the stage currently
        executing so checkpoint writers can record where a restored run
        must pick up.
        """
        if not 0 <= start_at <= len(self.stages):
            raise ValueError(
                f"start_at {start_at} out of range for {len(self.stages)} stages"
            )
        ctx._pipeline = self
        if ctx._resume_cursor is None:
            # A stop only applies to the run that requested it — but a
            # resumed run must keep the restored flag, or it would train
            # iterations the interrupted run had already declined.
            ctx.stop_requested = False
        try:
            ctx.prepare()
            self.emit("on_pipeline_start", ctx)
            for index, stage in enumerate(self.stages):
                if index < start_at:
                    continue
                ctx._stage_cursor = index
                self.emit("on_stage_start", ctx, stage)
                stage.run(ctx)
                self.emit("on_stage_end", ctx, stage)
            self.emit("on_pipeline_end", ctx, ctx.report)
            return ctx.report
        finally:
            ctx._pipeline = None
            ctx._stage_cursor = None

    def resume(self, ctx: ExperimentContext, checkpoint_path) -> ExperimentReport:
        """Restore ``checkpoint_path`` onto ``ctx`` and continue the run.

        The checkpoint's recorded stage cursor decides where execution
        picks up: stages it marks complete are skipped, the stage it was
        written inside re-enters (stages with appended rows detect their
        own restored progress and continue mid-loop).
        """
        from repro.utils.serialization import load_checkpoint

        state, metadata = load_checkpoint(checkpoint_path)
        if metadata is None:
            raise ValueError(f"checkpoint {checkpoint_path} carries no metadata")
        ctx.prepare()
        ctx.restore_state(state, metadata)
        start_at = min(int(metadata.get("stage_cursor", 0)), len(self.stages))
        # Mark where re-entry happens so stages that were interrupted
        # mid-loop can tell restored progress from a fresh invocation;
        # mid_stage distinguishes a capture written inside the stage (its
        # last row is already reported) from a boundary capture that
        # merely points at the stage as the next one to run.
        ctx._resume_cursor = start_at
        ctx._resume_mid_stage = bool(metadata.get("mid_stage", True))
        try:
            return self.run(ctx, start_at=start_at)
        finally:
            ctx._resume_cursor = None
            ctx._resume_mid_stage = False
