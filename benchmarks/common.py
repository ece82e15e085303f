"""Shared paper reference vectors for the benchmark harnesses.

Scaling note (see DESIGN.md §2): the trained benchmarks run the *paper
topologies* (VGG19 = 16 conv + FC; ResNet18 = stem + 16 block convs +
FC) at reduced channel width and input resolution so that CPU-only
numpy training completes in minutes.  Those scale knobs live in the
experiment registry presets (``src/repro/api/experiments.py``), which
every trained bench — tables, figures and ablations alike — now
resolves through (the figure/ablation benches evolve the Table II(a)
preset; the saturation ablation runs the registered
``ablation-saturation`` sweep).  The hardware-energy benches (Tables
IV-VI) run at the paper's full width since they need no training; the
constants below are the paper's own bit/channel vectors they evaluate.

It also holds :func:`bench_record_path`, where the wall-clock benches
write their ``BENCH_*.json`` record.
"""

from __future__ import annotations

import os
from pathlib import Path

# Table II(a) iteration 2 bit-widths for VGG19/CIFAR-10 (17 layers).
PAPER_VGG19_BITS_ITER2 = [16, 4, 5, 4, 3, 2, 2, 2, 3, 3, 3, 4, 3, 3, 3, 3, 16]

# Table III(a) iteration 2 channel counts for VGG19 (16 conv layers).
PAPER_VGG19_PRUNED_CHANNELS = [
    19, 22, 38, 24, 45, 37, 44, 54, 103, 126, 150, 125, 122, 112, 111, 8,
]

# ResNet18 18-layer bit vector assembled from Table II(b) iteration 3:
# stem + 8 blocks x (conv1, conv2) + fc.
PAPER_RESNET18_BITS_ITER3 = [
    16, 5, 3, 3, 5, 1, 1, 8, 4, 4, 6, 4, 4, 8, 3, 3, 9, 16,
]

# Table III(b) iteration 2 channel counts (stem + 16 block convs).
PAPER_RESNET18_PRUNED_CHANNELS = [
    21, 12, 44, 6, 47, 34, 87, 34, 89, 58, 156, 50, 146, 110, 192, 59, 59,
]

PAPER_TABLE_V = {
    "VGG19/CIFAR-10": {"mixed_uj": 21.506, "full_uj": 110.154, "reduction": 5.12},
    "ResNet18/CIFAR-100": {"mixed_uj": 33.186, "full_uj": 159.501, "reduction": 4.81},
}

PAPER_TABLE_VI = {
    "VGG19/CIFAR-10": {"pruned_uj": 0.558, "full_uj": 110.154, "reduction": 197.55},
    "ResNet18/CIFAR-100": {"pruned_uj": 3.630, "full_uj": 159.501, "reduction": 43.941},
}


def bench_record_path(tmp_path: Path, default_name: str) -> Path:
    """Where a wall-clock bench writes its record.

    ``tmp_path / default_name`` unless ``REPRO_BENCH_OUT`` names a file
    (resolved against the repo root), so a tier-1 run never rewrites the
    committed ``BENCH_*.json`` records.
    """
    name = os.environ.get("REPRO_BENCH_OUT")
    if not name:
        return tmp_path / default_name
    return Path(__file__).resolve().parents[1] / name
