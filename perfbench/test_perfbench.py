"""Self-tests of the benchmark: its checks can fail, its files agree.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_broken_kernel_fails_the_fast_trial_checks():
    # A matmul that returns zeros still runs Algorithm 1 to the end, but
    # the model cannot learn: the accuracy check must catch it.
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "trial-vgg19-fast",
         "--seed", "0", "--seconds", "1", "--trace", "0",
         "--break-kernel", "matmul"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0
    assert "accuracy" in proc.stdout.split("FAILED", 1)[1]


def test_check_report_rejects_illegal_bit_vectors():
    names = ["conv1", "conv2", "conv3", "fc"]
    bits = {"min": 1, "initial": 16, "frozen": 16}

    def row(iteration, vector, accuracy=0.8):
        return {"iteration": iteration, "bit_widths": vector,
                "test_accuracy": accuracy}

    legal = [row(1, [16, 16, 16, 16]), row(2, [16, 4, 3, 16])]
    cases = {
        "legal": legal,
        "increased": legal + [row(3, [16, 5, 3, 16])],
        "unfrozen": [row(1, [8, 16, 16, 16])],
        "range": [row(1, [16, 0, 16, 16])],
        "length": [row(1, [16, 16, 16])],
        "chance": [row(1, [16, 16, 16, 16], accuracy=0.1)],
    }
    failed = {}
    for label, rows in cases.items():
        checks = run.Checks()
        run.check_report(checks, label, rows, names, bits)
        failed[label] = checks.failed
    assert failed == {"legal": 0, "increased": 1, "unfrozen": 1, "range": 1,
                      "length": 1, "chance": 1}


def test_trial_metrics_self_time_and_nesting():
    ms = 1_000_000
    trace = [
        ["nn.forward", -1, 0, 10 * ms, None],
        ["backend.matmul", 0, 1 * ms, 4 * ms, {"flops": 3e6}],
        ["backend.linear_fwd", 0, 5 * ms, 8 * ms, None],
        ["backend.matmul", 2, 5 * ms, 7 * ms, {"flops": 2e6}],
        ["backend.im2col", -1, 20 * ms, 21 * ms, {"bytes": 4e6}],
        ["core.iteration", -1, 30 * ms, 30 * ms, None],
    ]
    metrics = spans.trial_metrics(trace)
    assert metrics["backend.matmul.calls"] == 2
    assert abs(metrics["backend.matmul.s"] - 0.005) < 1e-12
    assert abs(metrics["backend.other.s"] - 0.001) < 1e-12  # 3 ms minus nested 2
    assert abs(metrics["backend.matmul.gflops"] - 5e6 / 0.005 / 1e9) < 1e-9
    assert metrics["backend.im2col.mb"] == 4.0
    # forward 10 ms minus the 6 ms of backend self time nested inside it
    assert abs(metrics["autograd.self.s"] - 0.004) < 1e-12
    assert metrics["core.iterations"] == 1


def test_trace_exports_carry_the_span_fields(tmp_path):
    recorder = spans.Recorder()
    outer = recorder.begin("trial")
    inner = recorder.begin("core.train_epoch")
    recorder.end(inner)
    recorder.end(outer)
    records = list(spans.span_dicts(recorder.spans, "w", "run-1", pid=7))
    assert [r["parent"] for r in records] == [None, 0]
    for record in records:
        assert {"workload", "run", "name", "start", "end", "parent"} <= set(record)
    spans.write_jsonl(tmp_path / "t.jsonl", records)
    spans.write_chrome(tmp_path / "t.json", records)
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == ["trial", "core.train_epoch"]
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [name for name in run.WORKLOADS if name not in run.UNSTEADY]
    assert [w["name"] for w in spec["workloads"]] == gated
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-vgg19-fast",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_clock_scales_by_the_ticks_around_a_sample(monkeypatch):
    calibrations = iter([0.2, 0.3, 0.1])
    monkeypatch.setattr(run.host, "calibration_s", lambda: next(calibrations))
    clock = run.HostClock()
    clock.tick()
    clock.tick()
    assert [c for _, c in clock.record()["ticks"]] == [0.2, 0.3, 0.1]
    clock.ticks = [(10.0, 0.2), (20.0, 0.3), (30.0, 0.1)]
    assert abs(clock.scale(12.0, 18.0) - run.CAL_REF_S / 0.25) < 1e-12
    assert abs(clock.scale(21.0, 29.0) - run.CAL_REF_S / 0.2) < 1e-12
    # a sample that spans a tick takes the ticks just outside it
    assert abs(clock.scale(12.0, 29.0) - run.CAL_REF_S / 0.15) < 1e-12
