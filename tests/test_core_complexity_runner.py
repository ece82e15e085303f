"""Training complexity (eqn. 4) and the Table II rows of the quantization pipeline."""

import pytest

from repro.api import (
    ExperimentContext,
    Pipeline,
    QuantizeStage,
    remove_layer_and_retrain,
)
from repro.core import (
    ADPruner,
    ADQuantizer,
    QuantizationSchedule,
    Trainer,
    TrainingComplexity,
)
from repro.data import DataLoader
from repro.density import SaturationDetector
from repro.nn import Adam, CrossEntropyLoss


class TestTrainingComplexity:
    def test_eqn4_math(self):
        tc = TrainingComplexity(baseline_epochs=200)
        tc.add_iteration(1.0, 100)
        tc.add_iteration(4.0, 60)
        assert tc.raw() == pytest.approx(100 + 15)
        assert tc.relative() == pytest.approx(115 / 200)
        assert tc.total_epochs() == 160

    def test_reduced_training_beats_baseline(self):
        """Paper: TC drops below 1x (e.g. 0.524x for VGG19/CIFAR-10)."""
        tc = TrainingComplexity(baseline_epochs=210)
        tc.add_iteration(1.0, 100)
        tc.add_iteration(7.0, 70)
        assert tc.relative() < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingComplexity(0)
        tc = TrainingComplexity(10)
        with pytest.raises(ValueError):
            tc.add_iteration(0.0, 5)
        with pytest.raises(ValueError):
            tc.add_iteration(1.0, -1)
        with pytest.raises(RuntimeError):
            tc.raw()


def make_context(model, dataset, rng, schedule, saturation, prune=False,
                 architecture="model", dataset_name="dataset"):
    trainer = Trainer(model, Adam(model.parameters(), lr=3e-3), CrossEntropyLoss())
    return ExperimentContext(
        model=model,
        train_loader=DataLoader(dataset, batch_size=8, shuffle=True, rng=rng),
        test_loader=DataLoader(dataset, batch_size=16),
        trainer=trainer,
        quantizer=ADQuantizer(trainer, schedule, saturation),
        pruner=ADPruner(model.layer_handles()) if prune else None,
        input_shape=(3, 8, 8),
        architecture=architecture,
        dataset=dataset_name,
    )


@pytest.fixture
def quant_ctx(micro_vgg, tiny_dataset, rng):
    schedule = QuantizationSchedule(
        max_iterations=2, max_epochs_per_iteration=3, min_epochs_per_iteration=2
    )
    return make_context(
        micro_vgg, tiny_dataset, rng, schedule,
        SaturationDetector(window=2, tolerance=0.5),
        architecture="VGG11", dataset_name="tiny",
    )


class TestQuantizePipeline:
    def test_report_structure(self, quant_ctx):
        report = Pipeline([QuantizeStage()]).run(quant_ctx)
        assert report.architecture == "VGG11"
        assert 1 <= len(report.rows) <= 2
        row = report.rows[0]
        assert row.energy_efficiency == pytest.approx(1.0)
        assert row.train_complexity == pytest.approx(1.0)
        assert len(row.bit_widths) == 9

    def test_second_row_quantized(self, quant_ctx):
        report = Pipeline([QuantizeStage()]).run(quant_ctx)
        if len(report.rows) > 1:
            second = report.rows[1]
            assert second.energy_efficiency >= 1.0
            hidden_bits = second.bit_widths[1:-1]
            assert any(b < 16 for b in hidden_bits)
            # Frozen ends stay 16-bit.
            assert second.bit_widths[0] == 16
            assert second.bit_widths[-1] == 16

    def test_format_renders(self, quant_ctx):
        report = Pipeline([QuantizeStage()]).run(quant_ctx)
        text = report.format()
        assert "VGG11 on tiny" in text
        assert "Energy Eff" in text

    def test_remove_layer_and_retrain(self, quant_ctx, micro_vgg):
        report = Pipeline([QuantizeStage()]).run(quant_ctx)
        removable = next(
            h.name
            for h in micro_vgg.layer_handles()
            if h.is_conv and h.unit.conv.in_channels == h.unit.conv.out_channels
        )
        row = remove_layer_and_retrain(quant_ctx, removable, epochs=1)
        assert row.label == "2a"
        assert len(row.bit_widths) == len(report.rows[0].bit_widths) - 1
        assert row.energy_efficiency > report.rows[-1].energy_efficiency * 0.99

    def test_remove_layer_rejects_shape_changers(self, quant_ctx, micro_vgg):
        Pipeline([QuantizeStage()]).run(quant_ctx)
        with pytest.raises(ValueError):
            remove_layer_and_retrain(quant_ctx, "fc", epochs=1)
        shape_changer = next(
            h.name
            for h in micro_vgg.layer_handles()
            if h.is_conv and h.unit.conv.in_channels != h.unit.conv.out_channels
        )
        with pytest.raises(ValueError):
            remove_layer_and_retrain(quant_ctx, shape_changer, epochs=1)

    def test_pruning_mode_reports_channels(self, micro_resnet, tiny_dataset, rng):
        schedule = QuantizationSchedule(
            max_iterations=2, max_epochs_per_iteration=2,
            min_epochs_per_iteration=1,
        )
        ctx = make_context(
            micro_resnet, tiny_dataset, rng, schedule,
            SaturationDetector(window=2, tolerance=0.9), prune=True,
        )
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert report.rows[0].channel_counts is not None
        if len(report.rows) > 1:
            first = report.rows[0].channel_counts
            second = report.rows[1].channel_counts
            assert all(b <= a for a, b in zip(first, second))
            assert "nChannels" in report.format()
