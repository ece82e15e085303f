"""Experiment-level contracts on a config-built context.

Covers restarting an experiment, the Table II row-2a pre-run
RuntimeError guard and row numbering, and the public
``train_until_saturation`` spelling (the deprecation shim for the old
private training method is gone).
"""

import pytest

from repro.api import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    QuantConfig,
    QuantizeStage,
    build_context,
    experiments,
    remove_layer_and_retrain,
)


def micro_config() -> ExperimentConfig:
    return ExperimentConfig(
        name="micro",
        architecture="VGG11",
        dataset="SyntheticCIFAR10",
        model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.0625,
                          image_size=8, seed=7),
        data=DataConfig(dataset="synthetic-cifar10", train_per_class=4,
                        test_per_class=2, image_size=8, noise=0.6, seed=3,
                        train_batch_size=20, test_batch_size=20),
        quant=QuantConfig(max_iterations=3, max_epochs_per_iteration=2,
                          min_epochs_per_iteration=1, saturation_window=2,
                          saturation_tolerance=0.5),
    )


class TestRestart:
    def test_run_twice_restarts_the_experiment(self):
        experiment = experiments.Experiment(micro_config())
        first = experiment.run()
        second = experiment.run()
        # Each run() returns a fresh report (the initial plan is
        # re-applied; trained weights persist).
        assert second is not first
        assert len(second.rows) <= experiment.context.schedule.max_iterations
        assert second.rows[0].bit_widths == first.rows[0].bit_widths
        assert second.rows[0].energy_efficiency == 1.0


class TestPreRunGuard:
    def test_remove_layer_before_run_raises_runtime_error(self):
        ctx = build_context(micro_config())
        with pytest.raises(RuntimeError, match="run\\(\\) must be called first"):
            remove_layer_and_retrain(ctx, "conv2", epochs=1)

    def test_remove_layer_after_run_works(self):
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage()]).run(ctx)
        # conv2 of VGG11 maps 128->128 at this scale: shape-preserving.
        handles = ctx.model.layer_handles()
        name = next(
            h.name for h in handles
            if h.is_conv and h.unit.conv.in_channels == h.unit.conv.out_channels
        )
        row = remove_layer_and_retrain(ctx, name, epochs=1)
        assert row.label == "2a"
        assert len(row.bit_widths) == len(handles) - 1

    def test_removed_layer_row_follows_the_last_reported_iteration(self):
        # Row 2a numbers itself after the pipeline's rows, the rule
        # PruneStage follows; the quantizer's own record list stays
        # empty under the pipeline, so it cannot be the counter.
        ctx = build_context(micro_config())
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert [r.iteration for r in report.rows] == list(
            range(1, len(report.rows) + 1)
        )
        name = next(
            h.name for h in ctx.model.layer_handles()
            if h.is_conv and h.unit.conv.in_channels == h.unit.conv.out_channels
        )
        row = remove_layer_and_retrain(ctx, name, epochs=1)
        assert row.iteration == report.rows[-1].iteration + 1


class TestPublicTrainUntilSaturation:
    def test_public_name_is_the_api(self):
        # The deprecation shim for the old `_`-prefixed name is gone;
        # the public method is the only spelling.
        ctx = build_context(micro_config())
        ctx.prepare()
        assert not hasattr(ctx.quantizer, "_train_until_saturation")
        epochs, accuracy = ctx.quantizer.train_until_saturation(ctx.train_loader)
        assert epochs >= 1
        assert 0.0 <= accuracy <= 1.0
