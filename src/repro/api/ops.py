"""Post-run operations on a prepared experiment context.

These are the paper's one-off report variants that do not fit the
stage-per-phase shape — currently the Table II row-2a manoeuvre of
removing a dead layer and retraining.  Each runs on a context a
pipeline has already driven.
"""

from __future__ import annotations

from repro.core.report import TableRow
from repro.energy.analytical import energy_efficiency


def remove_layer_and_retrain(
    ctx, layer_name: str, epochs: int, label: str = "2a"
) -> TableRow:
    """Paper Table II row 2a: drop a dead conv layer, retrain, re-report.

    Only layers whose removal preserves tensor shapes (equal in/out
    channels) can be removed; the unit is disabled in place.  Requires a
    prepared context, i.e. one a :class:`~repro.api.pipeline.Pipeline`
    has already run.
    """
    if not ctx.prepared or ctx.complexity is None or ctx.baseline_profiles is None:
        raise RuntimeError(
            "run() must be called first: the experiment has no baseline "
            "profiles or complexity state to report against"
        )
    handle = ctx.model.layer_handles().by_name(layer_name)
    if not handle.is_conv:
        raise ValueError("only conv layers can be removed")
    unit = handle.unit
    if unit.conv.in_channels != unit.conv.out_channels:
        raise ValueError(
            f"{layer_name} changes channel count; removal would break shapes"
        )
    unit.enabled = False
    ctx.trainer.fit(ctx.train_loader, epochs)
    profiles = ctx.profiles()
    ctx.complexity.add_iteration(
        ctx.energy_model.mac_reduction(ctx.baseline_profiles, profiles),
        epochs,
    )
    bit_widths = [
        spec.bits for spec in ctx.quantizer.plan if spec.name != layer_name
    ]
    last_iter = ctx.report.rows[-1].iteration if ctx.report.rows else 0
    return TableRow(
        iteration=last_iter + 1,
        bit_widths=bit_widths,
        test_accuracy=ctx.trainer.evaluate(ctx.test_loader),
        total_ad=ctx.trainer.monitor.total_density(),
        energy_efficiency=energy_efficiency(ctx.baseline_profiles, profiles),
        epochs=epochs,
        train_complexity=ctx.complexity.relative(),
        label=label,
    )
