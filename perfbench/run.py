"""The repository benchmark: what users wait for, and where the time goes.

    python3 perfbench/run.py --workload trial-vgg19-fast --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each
    python3 -m pytest perfbench                     # the benchmark's self-tests

Run it from the repository root; it builds nothing but the C-kernel
module, into a private cache under ``.bench_build/``.  Workloads are
closed loops driven by this one client process, with one trial or job
in flight at a time and one BLAS thread per process
(``sweep-master-jobs2`` keeps the default threading; see ``isolate``):

``trial-vgg19-fast`` / ``trial-vgg19-reference``
    One ``Experiment.run()`` of the Table II(a) preset
    ``vgg19-cifar10-quant`` per fresh process, on the ``fast`` /
    ``reference`` backend, repeated while another round fits in
    ``--seconds``.
    The reference workload is runnable but not in ``BENCHMARK.json``
    (see ``UNSTEADY``).
``sweep-master-jobs1``
    The ``table2-vgg19-seeds`` sweep (fast trials), one wave at a time
    (one point per worker, here one), submitted to a private
    ``repro master --jobs 1`` on a cold result cache and watched to
    done, then resubmitted and replayed from the warm cache, on that
    master and on 3 more started over the same cache; the waves cycle
    through the run's seeds.
``sweep-master-jobs2``
    The same at ``--jobs 2`` (two points a wave).  Runnable, but not in
    ``BENCHMARK.json``: two trials at once oversubscribe the cores with
    default BLAS threading and its timings are not steady (see
    ``UNSTEADY``).

``--seed S`` selects the model/data seeds ``4S .. 4S+3``: trials cycle
through them (a traced run keeps to ``4S``), as do the sweep's waves, so
the quality metrics average over several seeds.  The
default ``--seed 0`` starts at the preset's own seed.

The last stdout line is the result object; the lines before it are the
host record and a readable table.  A full record (host, every sample,
every check) is written under ``.bench_build/perfbench/runs/``.

End-to-end metrics (``--trace 0``), per workload.  Their times are
calibrated seconds: each measured time is scaled to a host that runs one
``host.calibration_s`` pass in ``CAL_REF_S`` (0.1 s), by calibrations
timed just before and after it, so the figures do not follow the shared
host's speed as it drifts (see ``HostClock``).  The record keeps the
measured seconds and each sample's ``scale``:

* ``setup_s`` - trials: process start to the first training epoch, on
  every trial process and on 2 setup-only probes before each trial;
  sweep: master start until it answers ``hello``, on every master
  started (median).
* ``trial_s`` - trials: ``Experiment.run()`` wall clock; sweep: a
  point's duration as the master reports it (median).
* ``train_samples_per_s`` - trials: training images over the time
  inside ``Trainer.train_epoch``; sweep: training images over point
  seconds, summed over points.
* ``job_s`` - trials: start to exit of one trial process; sweep:
  submit to done of a cold wave (median).
* ``replay_s`` - trials: a ``repro run --cache`` process served from
  the private result cache the trial was stored in (3 after each
  trial); sweep: submit to done of an all-hit resubmission to a master
  started over the warm cache (5 on each of 3 per cold wave); median.
* ``final_accuracy`` / ``energy_reduction_x`` / ``train_complexity`` -
  the last report row, averaged over the run's seeds (the sweep's points).
* ``peak_rss_mb`` - trials: peak RSS of a trial process; sweep: summed
  peak RSS of the master and its workers during a point, lowest over
  the points (a point's peak also holds whatever earlier points left
  for the cyclic garbage collector, which varies from run to run; every
  point's peak is in the record).
* ``ok_share`` - output checks passed over checks attempted.

``--trace 1`` runs traced trials (alternating with untraced ones) and
prints the per-layer metrics instead: ``<module>.<what>.<unit>`` from
``spans.py``, the orchestration and service view of the master job,
``host.sgemm_peak_gflops`` and ``trace.overhead.s`` (traced minus
untraced ``trial_s``).  The latest traced run of each workload is
written as JSONL and as Chrome trace-event JSON (open it in Perfetto):
``.bench_build/perfbench/traces/<workload>.trace.jsonl`` / ``.chrome.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import spans  # noqa: E402

BUILD = Path(".bench_build") / "perfbench"
PRESET = "vgg19-cifar10-quant"
SWEEP = "table2-vgg19-seeds"
SEEDS_PER_RUN = 4
PROBES_PER_ROUND = 2      # setup-only starts per trial
EXTRA_MASTERS = 3         # masters started over each warm cache to replay it
REPLAYS_PER_ROUND = 3     # `repro run --cache` after each trial
MASTER_REPLAYS = 5        # all-hit resubmissions on each master
MIN_TRIALS = 2            # every run times at least two trials
CHANCE = 0.1               # ten balanced classes
ACCURACY_MARGIN = 0.25     # a trained model must beat chance by this
TRIAL_TIMEOUT = 150
STATUS_CALLS = 5
# Seconds a host.calibration_s() pass takes at the reference host speed;
# every time metric is scaled to it (see ``HostClock``).
CAL_REF_S = 0.1
# Workloads timed with the default BLAS threading (see ``isolate``).
DEFAULT_THREADING = {"sweep-master-jobs2"}

END_TO_END = {
    "setup_s": "s", "trial_s": "s", "train_samples_per_s": "samples/s",
    "job_s": "s", "replay_s": "s", "final_accuracy": "fraction",
    "energy_reduction_x": "x", "train_complexity": "fraction",
    "peak_rss_mb": "MB", "ok_share": "fraction",
}


def per_layer_units() -> dict:
    units = {}
    for kernel in spans.KERNELS + ("other",):
        units[f"backend.{kernel}.s"] = "s"
        units[f"backend.{kernel}.calls"] = "count"
    units.update({
        "backend.matmul.gflops": "GFLOP/s", "backend.im2col.mb": "MB",
        "backend.col2im.mb": "MB", "host.sgemm_peak_gflops": "GFLOP/s",
        "autograd.backward.s": "s", "autograd.self.s": "s",
        "nn.forward.s": "s", "nn.optim_step.s": "s",
        "core.train_epoch.s": "s", "core.evaluate.s": "s",
        "core.update_plan.s": "s", "core.epochs": "count",
        "core.iterations": "count",
        "density.meter_update.s": "s", "density.meter_update.calls": "count",
        "energy.profile_model.s": "s", "energy.profile_model.calls": "count",
        "data.loader.s": "s", "data.batches": "count",
        "api.build_context.s": "s",
    })
    for stage in spans.STAGES:
        units[f"api.stage.{stage}.s"] = "s"
    units.update({
        "orchestration.point.p50_s": "s", "orchestration.point.max_s": "s",
        "orchestration.worker_busy_share": "fraction",
        "orchestration.cache.hits": "count",
        "orchestration.cache.misses": "count",
        "orchestration.points.failed": "count",
        "service.submit.s": "s", "service.queue_wait.s": "s",
        "service.status.s": "s", "trace.overhead.s": "s",
    })
    return units


class Checks:
    """Output checks; every one counts toward ``attempted``."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail="") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not result["ok"] for result in self.results)


def check_report(checks: Checks, label: str, rows: list, layer_names: list,
                 bits: dict) -> None:
    """Above-chance accuracy and a legal eqn.-3 bit vector."""
    if not checks.add(f"{label}: has rows", bool(rows)):
        return
    accuracy = rows[-1]["test_accuracy"]
    checks.add(f"{label}: accuracy > {CHANCE} + {ACCURACY_MARGIN}",
               accuracy > CHANCE + ACCURACY_MARGIN, accuracy)
    problems = []
    previous = None
    for row in rows:
        vector = row["bit_widths"]
        if len(vector) != len(layer_names):
            problems.append(f"iteration {row['iteration']}: {len(vector)} bits")
            continue
        if vector[0] != bits["frozen"] or vector[-1] != bits["frozen"]:
            problems.append(f"iteration {row['iteration']}: first/last not frozen")
        top = max(bits["initial"], bits["frozen"])
        if any(not bits["min"] <= b <= top for b in vector):
            problems.append(f"iteration {row['iteration']}: bits out of range")
        if previous is not None and any(b > a for a, b in zip(previous, vector)):
            problems.append(f"iteration {row['iteration']}: bits increased")
        previous = vector
    checks.add(f"{label}: bit vector legal", not problems, problems)


class HostClock:
    """Converts measured seconds into seconds at the reference host speed.

    The shared host's speed drifts as other load on the machine comes
    and goes: one fast trial took anywhere from 3.0 to 5.1 s within three
    minutes, and no number of samples in a run averages that out.  A
    fixed calibration (``host.calibration_s``) moves with it: timed just
    before and after each of 35 such trials, trial over calibration
    varied by 0.05 of its median against 0.21 for the trial alone.  The
    workloads ``tick`` the clock (time the calibration) between their
    samples, never during one: anything run beside a sample slows it (a
    busy Python loop on the other core made calibration passes 2-3x
    slower).
    A sample is scaled by ``CAL_REF_S`` over the mean of the last tick
    before it and the first after it, so a metric reads as the seconds
    it would take on a host that runs a calibration pass in
    ``CAL_REF_S``.  The ticks, and the measured seconds, are kept in the
    run's record.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self.tick()

    def tick(self) -> None:
        calibration = host.calibration_s()
        self.ticks.append((time.monotonic(), calibration))

    def scale(self, start: float, end: float) -> float:
        """The factor for a time measured from ``start`` to ``end``."""
        before = [c for t, c in self.ticks if t <= start] or [self.ticks[0][1]]
        after = [c for t, c in self.ticks if t >= end] or [self.ticks[-1][1]]
        return CAL_REF_S / ((before[-1] + after[0]) / 2)

    def record(self) -> dict:
        return {"ticks": self.ticks}


TRIAL_TIMES = ("setup_s", "trial_s", "train_s", "job_s")


def sample(wall: float, value: float) -> tuple[float, float, float]:
    """``(start, end, value)`` of a sample whose ``wall`` seconds just ended."""
    end = time.monotonic()
    return end - wall, end, value


def another_round(started: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the average so far, fits in ``seconds``."""
    elapsed = time.monotonic() - started
    return rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds


def median(values):
    return statistics.median(values) if values else 0.0


def isolate(workload: str | None = None) -> dict:
    """Run as users do, but write nothing outside the checkout.

    Kernel-selection variables are removed and the C-kernel build cache
    moves under ``.bench_build/``.  BLAS runs one thread per process
    (every thread-count variable set to 1), except on the workloads in
    ``DEFAULT_THREADING``, which keep the default threading to show the
    ``--jobs 2`` oversubscription.  With default threading, any other
    load on the two cores stalls the spinning BLAS threads: one busy
    process beside a fast trial took it from 3.3-4.4 s to 7.5-10.3 s,
    against 3.3-4.3 s with one BLAS thread, which runs the fast trial no
    slower.  Returns the caller's environment for the host record.
    """
    caller_env = dict(os.environ)
    for name in host.THREAD_VARS + host.KERNEL_VARS:
        os.environ.pop(name, None)
    if workload not in DEFAULT_THREADING:
        os.environ.update(dict.fromkeys(host.THREAD_VARS, "1"))
    os.environ["REPRO_CKERNEL_CACHE"] = str(ROOT / BUILD / "ckernels")
    sys.path.insert(0, str(ROOT / "src"))
    return caller_env


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ---------------------------------------------------------------------------
# Trial workloads.
# ---------------------------------------------------------------------------

def spawn_trial(backend: str, seed: int, extra=()) -> tuple[dict | None, float, str]:
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "trial.py"), "--backend", backend,
             "--seed", str(seed), "--t0", repr(started), *extra],
            env=child_env(), capture_output=True, text=True,
            timeout=TRIAL_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - started, "timed out"
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, proc.stderr[-2000:]
    return json.loads(lines[-1]), wall, ""


def replay_trial(backend: str, seed: int, cache_dir: Path, run_dir: Path):
    """``repro run --cache`` on the stored trial: ``(seconds, report)``."""
    out = run_dir / "replay.json"
    out.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--preset", PRESET,
         "--seed", str(seed), "--backend", backend, "--cache",
         "--cache-dir", str(cache_dir), "--out", str(out), "--quiet"],
        env=child_env(), capture_output=True, timeout=TRIAL_TIMEOUT)
    wall = time.monotonic() - started
    if proc.returncode != 0 or not out.exists():
        return wall, None
    with open(out, encoding="utf-8") as handle:
        return wall, json.load(handle).get("report")


def run_trials(args, backend: str, run_dir: Path) -> dict:
    checks = Checks()
    extra = ["--break-kernel", args.break_kernel] if args.break_kernel else []
    # Trials cycle through the run's seeds, so the quality metrics average
    # over several seeds; a traced run keeps to one, so its counts repeat.
    seeds = run_seeds(args.seed)[:1] if args.trace else run_seeds(args.seed)
    setups, replays, trials, traced, crashed = [], [], [], [], 0
    cache_dir = run_dir / "cache"
    clock = HostClock()
    started, rounds = time.monotonic(), 0
    while ((len(trials) < MIN_TRIALS and crashed < 2)
           or another_round(started, rounds, args.seconds)):
        rounds += 1
        seed = seeds[len(trials) % len(seeds)]
        # Short samples are spread over the run: this host's load shifts
        # every few seconds, and back-to-back samples all share one shift.
        for _ in range(PROBES_PER_ROUND):
            result, wall, error = spawn_trial(backend, seed, ["--setup-only", *extra])
            if checks.add("setup probe ran", result is not None, error):
                setups.append(sample(wall, result["setup_s"]))
        clock.tick()
        trial, wall, error = spawn_trial(
            backend, seed, ["--cache-dir", str(cache_dir), *extra])
        clock.tick()
        if not checks.add("trial ran", trial is not None, error):
            crashed += 1
            continue
        trial.update(seed=seed, job_s=wall, window=sample(wall, wall)[:2])
        trials.append(trial)
        for _ in range(REPLAYS_PER_ROUND):
            replay_s, report = replay_trial(backend, seed, cache_dir, run_dir)
            checks.add(f"replay {len(replays)}: `repro run --cache` serves the trial",
                       (report or {}).get("rows") == trial["rows"], replay_s)
            replays.append(sample(replay_s, replay_s))
        if args.trace:
            name = f"trial-{len(traced)}"
            result, _, error = spawn_trial(
                backend, seed, ["--trace-dir", str(run_dir),
                                "--trace-name", name, *extra])
            if checks.add("traced trial ran", result is not None, error):
                result["trace_name"] = name
                traced.append(result)
        clock.tick()
    measured = {"setup_s": setups, "replay_s": replays}
    setups = [value * clock.scale(begin, end) for begin, end, value in setups]
    replays = [value * clock.scale(begin, end) for begin, end, value in replays]
    for trial in trials:
        trial["scale"] = clock.scale(*trial["window"])
        trial["measured"] = {key: trial[key] for key in TRIAL_TIMES}
        trial.update({key: trial[key] * trial["scale"] for key in TRIAL_TIMES})
    if not trials:
        return {"checks": checks, "samples": {"setup_s": setups}}

    for index, trial in enumerate(trials):
        setups.append(trial["setup_s"])
        bits = {"min": trial["min_bits"], "initial": trial["initial_bits"],
                "frozen": trial["frozen_bits"]}
        check_report(checks, f"trial {index}", trial["rows"],
                     trial["layer_names"], bits)
    first = {}  # seed -> its first trial
    for trial in trials:
        first.setdefault(trial["seed"], trial)
    if backend == "reference":
        # The reference backend is bit-identical run to run and to the
        # digests recorded on the same CPU and BLAS (digests.py); other
        # hosts may round float64 BLAS differently, so there only repeats
        # of a seed within the run are compared.
        with open(HERE / "digests.json", encoding="utf-8") as handle:
            table = json.load(handle)
        same_host = table["host"] == host.fingerprint()
        for seed in first:
            runs_of_seed = [t["digest"] for t in trials if t["seed"] == seed]
            digests = set(runs_of_seed)
            if len(runs_of_seed) > 1:
                checks.add(f"reference seed {seed}: repeats agree",
                           len(digests) == 1, sorted(digests))
            recorded = table["reference"].get(str(seed))
            if recorded is not None and same_host:
                checks.add(f"reference seed {seed}: rows match recorded digest",
                           digests == {recorded}, recorded)

    last = [trial["rows"][-1] for trial in first.values()]
    metrics = {
        "setup_s": median(setups),
        "trial_s": median([t["trial_s"] for t in trials]),
        "train_samples_per_s": median(
            [t["train_samples"] / t["train_s"] for t in trials]),
        "job_s": median([t["job_s"] for t in trials]),
        "replay_s": median(replays),
        "final_accuracy": statistics.fmean(row["test_accuracy"] for row in last),
        "energy_reduction_x": statistics.fmean(
            row["energy_efficiency"] for row in last),
        "train_complexity": statistics.fmean(
            row["train_complexity"] for row in last),
        "peak_rss_mb": max(t["peak_rss_mb"] for t in trials),
    }
    out = {"checks": checks, "metrics": metrics,
           "samples": {"host_clock": clock.record(),
                       "measured": measured,
                       "setup_s": setups,
                       "replay_s": replays,
                       "trials": [
               {k: v for k, v in t.items() if k not in ("layer_names",)}
               for t in trials]}}
    if args.trace and traced:
        layers = {name: median([t["layers"][name] for t in traced])
                  for name in traced[0]["layers"]}
        layers["trace.overhead.s"] = (
            median([t["trial_s"] for t in traced])
            - median([t["measured"]["trial_s"] for t in trials]))
        out["layers"] = layers
        out["trace_files"] = export_trace(
            run_dir, args, [(t["trace_name"], t["pid"]) for t in traced[:1]])
    return out


def export_trace(run_dir: Path, args, sources) -> list[str]:
    """Write the workload's latest trace as JSONL and Chrome trace JSON.

    ``sources`` are ``(span file stem, pid)`` pairs in ``run_dir``; the
    exports replace the previous traced run's, so traces do not pile up.
    """
    records = []
    for name, pid in sources:
        with open(run_dir / f"{name}.spans.json", encoding="utf-8") as handle:
            trace = json.load(handle)
        records.extend(spans.span_dicts(trace, args.workload, run_dir.name, pid))
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    jsonl = traces / f"{args.workload}.trace.jsonl"
    chrome = traces / f"{args.workload}.chrome.json"
    spans.write_jsonl(jsonl, records)
    spans.write_chrome(chrome, records)
    return [str(jsonl), str(chrome)]


# ---------------------------------------------------------------------------
# The master sweep.
# ---------------------------------------------------------------------------

class MasterProcess:
    """A private ``repro master``; ``setup_s`` runs from start to hello."""

    def __init__(self, workdir: Path, jobs: int, cache_dir: Path,
                 trace_dir: Path | None = None):
        from repro.service.client import MasterClient, MasterError

        workdir.mkdir(parents=True, exist_ok=True)
        self.socket = workdir / "master.sock"
        master_args = ["--jobs", str(jobs), "--socket", str(self.socket),
                       "--cache-dir", str(cache_dir),
                       "--state", str(workdir / "state.json"), "--quiet"]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "master", *master_args]
        else:
            command = [sys.executable, str(HERE / "master.py"),
                       "--trace-dir", str(trace_dir), "--", *master_args]
        self.log = open(workdir / "master.log", "wb")
        self.started = started = time.monotonic()
        self.proc = subprocess.Popen(command, env=child_env(),
                                     stdout=self.log, stderr=self.log)
        self.client = None
        try:
            while self.client is None:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"master exited with {self.proc.returncode}")
                if time.monotonic() - started > 60:
                    raise RuntimeError("master did not answer hello in 60 s")
                try:
                    self.client = MasterClient(self.socket, timeout=TRIAL_TIMEOUT)
                except MasterError:
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def take_peak_rss_mb(self) -> float:
        """Summed VmHWM of the master and its workers, then reset it.

        Read at each point event, this is the peak of the point that just
        ended: a whole-job peak would instead depend on when the cyclic
        garbage collector frees the previous point's model, which varies
        with the seed.
        """
        pids = [self.proc.pid] + _children(self.proc.pid)
        peak = sum(_vm_hwm_kb(pid) for pid in pids) / 1024
        for pid in pids:
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as handle:
                    handle.write("5")  # VmHWM := current RSS
            except OSError:
                pass
        return peak

    def stop(self) -> None:
        from repro.service.client import MasterError

        children = _children(self.proc.pid)
        if self.client is not None:
            try:
                self.client.shutdown()
            except (MasterError, OSError):
                pass  # already gone; the wait below still reaps it
            self.client.close()
            self.client = None
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 30
        for pid in children:  # pool workers exit with the master
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, 9)
        self.log.close()


def _children(pid: int) -> list[int]:
    found = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as handle:
                found.extend(int(p) for p in handle.read().split())
        except OSError:
            pass
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(") ")[-1][:1] not in ("Z", "X")
    except OSError:
        return False


def run_seeds(seed: int) -> list[int]:
    """The model/data seeds a run with ``--seed seed`` uses."""
    return [SEEDS_PER_RUN * seed + k for k in range(SEEDS_PER_RUN)]


def sweep_spec(seeds: list[int]) -> dict:
    import dataclasses

    from repro.api import experiments

    sweep = experiments.get_sweep(SWEEP)
    return dataclasses.replace(sweep, seeds=tuple(seeds)).to_dict()


def run_job(master: MasterProcess, spec: dict, sample_rss: bool = False) -> dict:
    client = master.client
    points = {}

    def on_event(message):
        if message.get("event") == "point":
            data = message["data"]
            data["received"] = time.monotonic()
            if sample_rss:
                data["peak_rss_mb"] = master.take_peak_rss_mb()
            points[data["index"]] = data

    started = time.monotonic()
    job = client.submit(config=spec, kind="sweep", backend="fast")["job"]
    submit_s = time.monotonic() - started
    final = client.watch(job, on_event=on_event)
    job_s = time.monotonic() - started
    return {"job": job, "job_s": job_s, "submit_s": submit_s,
            "window": (started, started + job_s),
            "final": final, "points": [points[i] for i in sorted(points)]}


def replay_jobs(master: MasterProcess, spec: dict, timed: bool) -> list[dict]:
    replays = []
    for _ in range(MASTER_REPLAYS):
        replays.append(run_job(master, spec) | {"timed": timed})
        # Every replay then meets the same queue: none or one finished job.
        master.client.delete(replays[-1]["job"])
    return replays


def stats(run: dict) -> dict:
    """A finished job's sweep counters (executed, cached, cache hits...)."""
    return (run["final"].get("summary") or {}).get("stats") or {}


def point_report_rows(point: dict) -> list:
    return (point.get("report") or {}).get("rows") or []


def check_job(checks: Checks, label: str, run: dict, cache_key: str,
              points: int) -> None:
    checks.add(f"{label}: done", run["final"]["state"] == "done",
               run["final"].get("error"))
    checks.add(f"{label}: {points} points",
               len(run["points"]) == points, len(run["points"]))
    checks.add(f"{label}: {points} cache {cache_key.split('_')[1]}",
               stats(run).get(cache_key) == points, stats(run))


def run_sweep(args, run_dir: Path, jobs: int) -> dict:
    from repro.orchestration.runner import execute_point

    checks = Checks()
    seeds = run_seeds(args.seed)
    setups, runs = [], []
    trace_dir = run_dir if args.trace else None
    clock = HostClock()
    started = time.monotonic()
    while another_round(started, len(runs), args.seconds):
        # Each cold job is one wave, a point per worker, on a fresh cache,
        # so it misses on every point and the clock ticks just around it;
        # the waves cycle through the run's seeds.
        offset = len(runs) * jobs
        spec = sweep_spec([seeds[(offset + k) % len(seeds)] for k in range(jobs)])
        cache_dir = run_dir / f"cache-{len(runs)}"
        master = MasterProcess(run_dir / f"master-{len(runs)}", jobs,
                               cache_dir, trace_dir)
        try:
            setups.append((master.started, master.started + master.setup_s,
                           master.setup_s))
            clock.tick()
            cold = run_job(master, spec, sample_rss=True)
            clock.tick()
            status_s = []
            for _ in range(STATUS_CALLS):
                begun = time.monotonic()
                master.client.status(cold["job"])
                status_s.append(time.monotonic() - begun)
            cold["status_s"] = median(status_s)
            # Checked, not timed: a master that has just run a point answers
            # slower than a fresh one (medians 5.0-5.9 ms against 4.5-5.0).
            replays = replay_jobs(master, spec, timed=False)
        finally:
            master.stop()
        # Replay latency differs from one master process to the next
        # (medians from about 3 to 7 ms), so the replays are spread over
        # several masters that share the warm cache; each start is also a
        # setup sample.
        for probe in range(EXTRA_MASTERS):
            master = MasterProcess(run_dir / f"probe-{len(runs)}-{probe}", jobs,
                                   cache_dir)
            try:
                setups.append((master.started, master.started + master.setup_s,
                               master.setup_s))
                replays += replay_jobs(master, spec, timed=True)
            finally:
                master.stop()
        clock.tick()
        runs.append({"cold": cold, "replays": replays})
    measured_setups = setups
    setups = [value * clock.scale(begin, end) for begin, end, value in setups]
    for run in runs:
        for job in [run["cold"], *run["replays"]]:
            job["scale"] = clock.scale(*job["window"])
        for point in run["cold"]["points"]:
            point["scale"] = clock.scale(
                point["received"] - point["duration"], point["received"])

    for index, run in enumerate(runs):
        cold = run["cold"]
        check_job(checks, f"job {index} cold", cold, "cache_misses", jobs)
        for point in cold["points"]:
            label = f"job {index} point {point['index']}"
            checks.add(f"{label}: ran", point["status"] == "ok", point.get("error"))
            quant = point["config"]["quant"]
            check_report(checks, label, point_report_rows(point),
                         (point.get("report") or {}).get("layer_names", []),
                         {"min": quant.get("min_bits", 1),
                          "initial": quant.get("initial_bits", 16),
                          "frozen": quant.get("frozen_bits", 16)})
        expected = [(p["key"], p["report"]) for p in cold["points"]]
        for number, replay in enumerate(run["replays"]):
            check_job(checks, f"job {index} replay {number}", replay,
                      "cache_hits", jobs)
            checks.add(f"job {index} replay {number}: payload equals the cold one",
                       [(p["key"], p["report"]) for p in replay["points"]] == expected)

    # Serial oracle: one point per run, rotating with the seed, run in
    # this process exactly as a `--jobs 1` sweep outside the master runs it.
    cold = runs[0]["cold"]
    if cold["points"]:
        point = cold["points"][args.seed % len(cold["points"])]
        serial = execute_point({"index": point["index"], "config": point["config"]})
        checks.add(f"point {point['index']} equals its serial --jobs 1 result",
                   serial["status"] == "ok"
                   and serial["payload"]["report"] == point["report"],
                   serial.get("error"))

    colds = [run["cold"] for run in runs]
    points = [p for run in colds for p in run["points"] if p["status"] == "ok"]
    first = {}  # cache key -> its first point; a run may repeat a seed
    for point in points:
        first.setdefault(point["key"], point)
    last = [point_report_rows(p)[-1] for p in first.values() if point_report_rows(p)]
    durations = [p["duration"] for p in points]
    scaled = [p["duration"] * p["scale"] for p in points]
    samples = sum(
        sum(row["epochs"] for row in point_report_rows(p))
        * p["config"]["data"]["train_per_class"] * p["config"]["model"]["num_classes"]
        for p in points)

    def mean(key):
        return statistics.fmean(row[key] for row in last) if last else 0.0

    metrics = {
        "setup_s": median(setups),
        "trial_s": median(scaled),
        "train_samples_per_s": samples / sum(scaled) if scaled else 0.0,
        "job_s": median([run["job_s"] * run["scale"] for run in colds]),
        "replay_s": median([r["job_s"] * r["scale"] for run in runs
                            for r in run["replays"] if r["timed"]]),
        "final_accuracy": mean("test_accuracy"),
        "energy_reduction_x": mean("energy_efficiency"),
        "train_complexity": mean("train_complexity"),
        "peak_rss_mb": min(p["peak_rss_mb"] for p in points) if points else 0.0,
    }

    def summary(job):
        return ({k: v for k, v in job.items() if k != "points"}
                | {"point_durations": [p["duration"] for p in job["points"]],
                   "point_scales": [p.get("scale") for p in job["points"]],
                   "point_peak_rss_mb": [p.get("peak_rss_mb") for p in job["points"]]})

    out = {"checks": checks, "metrics": metrics, "samples": {
        "host_clock": clock.record(),
        "measured_setup_s": measured_setups,
        "setup_s": setups,
        "jobs": [{"cold": summary(run["cold"]),
                  "replays": [summary(r) for r in run["replays"]]} for run in runs]}}
    if args.trace:
        out.update(sweep_layers(args, run_dir, runs, jobs, durations))
    return out


def sweep_layers(args, run_dir: Path, runs: list, jobs: int, durations: list) -> dict:
    """Trial-level layers from the workers' span files, plus the job view."""
    files = sorted(glob.glob(str(run_dir / "point-*.spans.json")))
    per_point = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            per_point.append(spans.trial_metrics(json.load(handle)))
    layers = {name: median([m[name] for m in per_point])
              for name in (per_point[0] if per_point else {})}
    colds = [run["cold"] for run in runs]
    replays = [r for run in runs for r in run["replays"]]
    final = colds[0]["final"]
    layers.update({
        "orchestration.point.p50_s": median(durations),
        "orchestration.point.max_s": max(durations, default=0.0),
        "orchestration.worker_busy_share": (
            sum(durations) / (jobs * sum(run["job_s"] for run in colds))),
        "orchestration.cache.hits": sum(
            stats(run).get("cache_hits", 0) for run in colds + replays),
        "orchestration.cache.misses": sum(
            stats(run).get("cache_misses", 0) for run in colds + replays),
        "orchestration.points.failed": sum(
            p["status"] == "failed" for run in colds for p in run["points"]),
        "service.submit.s": median([run["submit_s"] for run in colds + replays]),
        "service.queue_wait.s": (final["started_at"] - final["submitted_at"]
                                 if final.get("started_at") else 0.0),
        "service.status.s": median([run["status_s"] for run in colds]),
    })
    out = {"layers": layers}
    if files:
        out["trace_files"] = export_trace(run_dir, args, [
            (Path(path).name[: -len(".spans.json")],
             int(Path(path).name.split("-")[1])) for path in files])
    return out


# ---------------------------------------------------------------------------

WORKLOADS = {
    "trial-vgg19-fast": lambda args, run_dir: run_trials(args, "fast", run_dir),
    "trial-vgg19-reference": lambda args, run_dir: run_trials(args, "reference", run_dir),
    "sweep-master-jobs1": lambda args, run_dir: run_sweep(args, run_dir, 1),
    "sweep-master-jobs2": lambda args, run_dir: run_sweep(args, run_dir, 2),
}
# Runnable, but left out of BENCHMARK.json: their end-to-end figures
# spread too widely across runs to gate on.  Their records say why.
UNSTEADY = {
    "trial-vgg19-reference": (
        "not steady enough to gate: with only two 10-15 s trials per run, "
        "trial_s and job_s spread by 0.14-0.25 of their median across seeds "
        "as the shared host's speed drifts (measured in uncalibrated 25 s runs)"),
    "sweep-master-jobs2": (
        "not steady: two fast trials at once oversubscribe the 2 cores with "
        "default BLAS threading, and job_s spread by about 0.75 of its "
        "median across seeds (4-point jobs); kept runnable for the BLAS "
        "thread budget work"),
}


def result_line(out: dict, trace: bool) -> dict:
    checks = out["checks"]
    attempted = max(len(checks.results), 1)
    units = per_layer_units() if trace else END_TO_END
    values = dict(out.get("layers") or {}) if trace else dict(out["metrics"])
    values["ok_share"] = 1 - checks.failed / attempted
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    if trace:
        metrics["host.sgemm_peak_gflops"]["value"] = out["host"]["sgemm_peak_gflops"]
    return {"correct": checks.failed == 0, "attempted": attempted,
            "failed": checks.failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; one table each, one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: zero one backend kernel's output in every trial.
    parser.add_argument("--break-kernel", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    caller_env = isolate(args.workload)

    run_dir = BUILD / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # The record's kernel-tier probe builds the private C-kernel module,
    # so the build cache is warm before anything is timed.
    host_record = host.record(ROOT, caller_env, host.sgemm_peak_gflops())
    out = WORKLOADS[args.workload](args, run_dir)
    out["host"] = host_record
    if "metrics" not in out:
        print(json.dumps({"host": host_record, "checks": out["checks"].results}),
              file=sys.stderr)
        print("perfbench: no trial completed", file=sys.stderr)
        return 1
    line = result_line(out, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "unsteady": UNSTEADY.get(args.workload),
              "seconds": args.seconds, "trace": args.trace, "host": host_record,
              "checks": out["checks"].results, "samples": out["samples"],
              "trace_files": out.get("trace_files", []), "result": line}
    with open(run_dir / "record.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for path in run_dir.iterdir():  # caches, master state, raw span lists
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name != "record.json":
            path.unlink()

    print(json.dumps({"host": host_record}))
    for name, metric in line["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    for failure in (r for r in out["checks"].results if not r["ok"]):
        print(f"FAILED {failure['check']}: {failure['detail']}")
    print(f"record: {run_dir / 'record.json'}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
