"""Quantization-pipeline iteration semantics (regression tests for subtle bugs).

The most important one: the pipeline must never install an eqn.-3 plan
that will not subsequently be trained — otherwise follow-up steps
(row 2a retraining, final evaluation) run on an untrained plan.
"""

import pytest

from repro.api import ExperimentContext, FinalTuneStage, Pipeline, QuantizeStage
from repro.core import ADPruner, ADQuantizer, QuantizationSchedule, Trainer
from repro.data import DataLoader
from repro.density import SaturationDetector
from repro.nn import Adam, CrossEntropyLoss


def make_context(model, dataset, rng, schedule, prune=False):
    trainer = Trainer(model, Adam(model.parameters(), lr=3e-3), CrossEntropyLoss())
    return ExperimentContext(
        model=model,
        train_loader=DataLoader(dataset, batch_size=8, shuffle=True, rng=rng),
        test_loader=DataLoader(dataset, batch_size=16),
        trainer=trainer,
        quantizer=ADQuantizer(
            trainer, schedule, SaturationDetector(window=2, tolerance=0.9)
        ),
        pruner=ADPruner(model.layer_handles()) if prune else None,
        input_shape=(3, 8, 8),
    )


def run_quantize(model, dataset, rng, max_iterations=2, prune=False):
    """Run Algorithm 1 on the micro workload; returns ``(ctx, report)``."""
    schedule = QuantizationSchedule(
        max_iterations=max_iterations,
        max_epochs_per_iteration=2,
        min_epochs_per_iteration=1,
    )
    ctx = make_context(model, dataset, rng, schedule, prune=prune)
    return ctx, Pipeline([QuantizeStage()]).run(ctx)


class TestPlanInstallationSemantics:
    def test_installed_plan_matches_last_row(self, micro_vgg, tiny_dataset, rng):
        """After run(), the model carries the last *reported* plan, not
        the would-be next iteration's plan."""
        ctx, report = run_quantize(micro_vgg, tiny_dataset, rng)
        assert ctx.quantizer.plan.bit_widths() == report.rows[-1].bit_widths

    def test_model_quantizers_match_report(self, micro_vgg, tiny_dataset, rng):
        _, report = run_quantize(micro_vgg, tiny_dataset, rng)
        for handle, bits in zip(micro_vgg.layer_handles(), report.rows[-1].bit_widths):
            assert handle.current_bits() == bits

    def test_pruner_not_applied_beyond_last_row(self, micro_vgg, tiny_dataset, rng):
        ctx, report = run_quantize(micro_vgg, tiny_dataset, rng, prune=True)
        final_channels = report.rows[-1].channel_counts
        live_channels = [
            h.active_channels() for h in ctx.pruner.prunable_handles()
        ]
        assert live_channels == final_channels

    def test_complexity_accumulates_across_rows(self, micro_vgg, tiny_dataset, rng):
        ctx, report = run_quantize(micro_vgg, tiny_dataset, rng)
        if len(report.rows) > 1:
            # Cumulative eqn-4 complexity strictly grows with iterations.
            assert report.rows[1].train_complexity > 0
            raw_epochs = sum(r.epochs for r in report.rows)
            assert ctx.complexity.total_epochs() == raw_epochs

    def test_rows_have_monotone_iteration_numbers(self, micro_vgg, tiny_dataset, rng):
        _, report = run_quantize(micro_vgg, tiny_dataset, rng, max_iterations=3)
        numbers = [row.iteration for row in report.rows]
        assert numbers == sorted(numbers)
        assert numbers[0] == 1


class TestFinalEpochs:
    def test_final_epochs_extends_last_row(self, micro_vgg, tiny_dataset, rng):
        schedule = QuantizationSchedule(
            max_iterations=1,
            max_epochs_per_iteration=2,
            min_epochs_per_iteration=1,
            final_epochs=3,
        )
        ctx = make_context(micro_vgg, tiny_dataset, rng, schedule)
        report = Pipeline([QuantizeStage(), FinalTuneStage()]).run(ctx)
        assert report.rows[-1].epochs == 2 + 3


class TestBaselineSemantics:
    def test_baseline_profiles_are_initial_plan(self, micro_vgg, tiny_dataset, rng):
        """Row 1 efficiency is exactly 1.0 because the baseline is the
        iteration-1 plan itself (paper: 'Energy Efficiency 1x')."""
        _, report = run_quantize(micro_vgg, tiny_dataset, rng, max_iterations=1)
        assert report.rows[0].energy_efficiency == pytest.approx(1.0)

    def test_32bit_baseline_reference(self, micro_vgg, tiny_dataset, rng):
        schedule = QuantizationSchedule(
            initial_bits=32,
            max_iterations=1,
            max_epochs_per_iteration=2,
            min_epochs_per_iteration=1,
        )
        ctx = make_context(micro_vgg, tiny_dataset, rng, schedule)
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert report.rows[0].bit_widths[1] == 32
        assert report.rows[0].bit_widths[0] == 16  # frozen ends
        assert report.rows[0].energy_efficiency == pytest.approx(1.0)
