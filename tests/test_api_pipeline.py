"""Pipeline semantics: stage ordering, hook firing, stage behaviours."""

import json

import pytest

from repro.api import (
    DataConfig,
    EnergyReportStage,
    ExperimentConfig,
    ExportStage,
    FinalTuneStage,
    ModelConfig,
    PIMEvalStage,
    Pipeline,
    PipelineCallback,
    PruneStage,
    QuantConfig,
    QuantizeStage,
    Stage,
    build_context,
)


def micro_config(**updates) -> ExperimentConfig:
    config = ExperimentConfig(
        name="micro",
        architecture="VGG11",
        dataset="SyntheticCIFAR10",
        model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.0625,
                          image_size=8, seed=0),
        data=DataConfig(dataset="synthetic-cifar10", train_per_class=3,
                        test_per_class=1, image_size=8, seed=0,
                        train_batch_size=15, test_batch_size=10),
        quant=QuantConfig(max_iterations=2, max_epochs_per_iteration=1,
                          min_epochs_per_iteration=1, saturation_window=2,
                          saturation_tolerance=0.9),
    )
    return config.evolve(**updates) if updates else config


class Recorder(PipelineCallback):
    def __init__(self):
        self.events = []

    def on_pipeline_start(self, ctx):
        self.events.append("pipeline_start")

    def on_pipeline_end(self, ctx, report):
        self.events.append("pipeline_end")

    def on_stage_start(self, ctx, stage):
        self.events.append(f"stage_start:{stage.name}")

    def on_stage_end(self, ctx, stage):
        self.events.append(f"stage_end:{stage.name}")

    def on_iteration_end(self, ctx, row):
        self.events.append(f"iteration:{row.iteration}")


class TestPipelineProtocol:
    def test_stage_ordering_and_hook_firing(self):
        recorder = Recorder()
        ctx = build_context(micro_config())
        pipeline = Pipeline(
            [QuantizeStage(), EnergyReportStage()], callbacks=[recorder]
        )
        report = pipeline.run(ctx)
        iterations = [e for e in recorder.events if e.startswith("iteration")]
        assert len(iterations) == len(report.rows)
        # Stage hooks bracket each stage, in declaration order.
        stage_events = [e for e in recorder.events if e.startswith("stage")]
        assert stage_events == [
            "stage_start:quantize",
            "stage_end:quantize",
            "stage_start:energy-report",
            "stage_end:energy-report",
        ]
        assert recorder.events[0] == "pipeline_start"
        assert recorder.events[-1] == "pipeline_end"

    def test_rejects_non_stage(self):
        with pytest.raises(TypeError, match="not a Stage"):
            Pipeline([object()])

    def test_emit_rejects_unknown_hook(self):
        with pytest.raises(ValueError, match="unknown hook"):
            Pipeline([]).emit("on_made_up_event")

    def test_early_stop_via_callback(self):
        class StopAfterFirst(PipelineCallback):
            def on_iteration_end(self, ctx, row):
                ctx.request_stop()

        ctx = build_context(micro_config(quant={"max_iterations": 3}))
        report = Pipeline([QuantizeStage()], callbacks=[StopAfterFirst()]).run(ctx)
        assert len(report.rows) == 1

    def test_stop_request_does_not_poison_later_pipelines(self):
        class StopAfterFirst(PipelineCallback):
            def on_iteration_end(self, ctx, row):
                ctx.request_stop()

        ctx = build_context(micro_config(quant={"max_iterations": 3}))
        Pipeline([QuantizeStage()], callbacks=[StopAfterFirst()]).run(ctx)
        rows_after_first = len(ctx.report.rows)
        # A later pipeline (no stop callback) over the same context must
        # run its full iteration budget, not inherit the stale flag.
        Pipeline([QuantizeStage()]).run(ctx)
        assert len(ctx.report.rows) > rows_after_first + 1

    def test_prepare_is_idempotent_across_pipelines(self):
        ctx = build_context(micro_config())
        first = Pipeline([QuantizeStage()]).run(ctx)
        rows_before = list(first.rows)
        second = Pipeline([EnergyReportStage()]).run(ctx)
        # Same context, same report object; nothing was reset.
        assert second is first
        assert second.rows == rows_before
        assert "analytical_energy" in ctx.artifacts

    def test_custom_stage_composes(self):
        class MarkerStage(Stage):
            name = "marker"

            def run(self, ctx):
                ctx.artifacts["marker"] = True

        ctx = build_context(micro_config())
        Pipeline([QuantizeStage(), MarkerStage()]).run(ctx)
        assert ctx.artifacts["marker"] is True


class TestStages:
    def test_final_tune_extends_last_row(self):
        ctx = build_context(micro_config(quant={"final_epochs": 2}))
        report = Pipeline([QuantizeStage(), FinalTuneStage()]).run(ctx)
        assert report.rows[-1].epochs == 1 + 2

    def test_final_tune_explicit_epochs_override(self):
        ctx = build_context(micro_config())
        report = Pipeline([QuantizeStage(), FinalTuneStage(epochs=3)]).run(ctx)
        assert report.rows[-1].epochs == 1 + 3

    def test_fused_prune_reports_channel_counts(self):
        config = micro_config(prune={"enabled": True, "fused": True})
        ctx = build_context(config)
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert all(r.channel_counts is not None for r in report.rows)
        if len(report.rows) > 1:
            first, last = report.rows[0], report.rows[-1]
            assert sum(last.channel_counts) <= sum(first.channel_counts)

    def test_standalone_prune_stage_appends_labeled_row(self):
        config = micro_config(prune={"enabled": True, "fused": False})
        ctx = build_context(config)
        report = Pipeline(
            [QuantizeStage(), PruneStage(retrain_epochs=1, label="post-prune")]
        ).run(ctx)
        assert report.rows[-1].label == "post-prune"
        assert report.rows[-1].channel_counts is not None
        assert sum(report.rows[-1].channel_counts) <= sum(
            report.rows[0].channel_counts
        )

    def test_pim_eval_stage_artifacts(self):
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage(), PIMEvalStage()]).run(ctx)
        pim = ctx.artifacts["pim_energy"]
        assert pim["full_precision_uj"] > 0
        assert pim["reduction"] == pytest.approx(
            pim["full_precision_uj"] / pim["mixed_precision_uj"]
        )

    def test_export_stage_json(self, tmp_path):
        path = tmp_path / "report.json"
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage(), EnergyReportStage(), ExportStage(path)]).run(ctx)
        payload = json.loads(path.read_text())
        assert payload["config"]["name"] == "micro"
        assert len(payload["report"]["rows"]) == len(ctx.report.rows)
        assert "analytical_energy" in payload["artifacts"]
        assert str(path) in ctx.artifacts["exports"]

    def test_export_stage_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage(), ExportStage(path, format="csv")]).run(ctx)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(ctx.report.rows)  # header + rows

    def test_export_stage_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            ExportStage(tmp_path / "x", format="yaml")


class TestBuildContext:
    def test_prune_config_controls_pruner(self):
        assert build_context(micro_config()).pruner is None
        ctx = build_context(micro_config(prune={"enabled": True}))
        assert ctx.pruner is not None
        assert ctx.fuse_prune is True

    def test_resnet_and_sgd_paths(self):
        config = micro_config(
            architecture="ResNet18",
            model={"arch": "resnet18"},
            optimizer="sgd",
        )
        ctx = build_context(config)
        assert len(ctx.model.layer_handles()) == 18
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert report.rows
