"""The paper's primary contribution: AD-driven in-training quantization.

* :class:`~repro.core.trainer.Trainer` — quantization-aware training
  loop with per-epoch AD collection.
* :class:`~repro.core.ad_quant.ADQuantizer` — Algorithm 1: train until
  AD saturates, re-quantize every layer to ``round(k_l * AD_l)`` bits
  (eqn. 3), repeat until the bit-widths stop changing.
* :class:`~repro.core.ad_prune.ADPruner` — AD-based channel pruning
  (eqn. 5), composable with quantization (Table III).
* :class:`~repro.core.complexity.TrainingComplexity` — eqn. 4 metric.
* :class:`~repro.core.report.ExperimentReport` /
  :class:`~repro.core.report.TableRow` — rows shaped like the paper's
  Tables II and III.

Experiments are assembled and run by :mod:`repro.api`: an
:class:`~repro.api.context.ExperimentContext` driven by a
:class:`~repro.api.pipeline.Pipeline` of stages.
"""

from repro.core.ad_prune import ADPruner, PruningPlan
from repro.core.ad_quant import (ADQuantizer, IterationRecord,
                                 QuantizationSchedule, scale_bits)
from repro.core.complexity import TrainingComplexity
from repro.core.export import (
    load_report_json,
    report_to_dict,
    save_report_csv,
    save_report_json,
)
from repro.core.report import ExperimentReport, TableRow
from repro.core.trainer import EpochStats, Trainer

__all__ = [
    "Trainer",
    "EpochStats",
    "ADQuantizer",
    "QuantizationSchedule",
    "IterationRecord",
    "ADPruner",
    "PruningPlan",
    "TrainingComplexity",
    "ExperimentReport",
    "TableRow",
    "report_to_dict",
    "save_report_json",
    "load_report_json",
    "save_report_csv",
    "scale_bits",
]
