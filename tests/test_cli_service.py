"""CLI surface of the experiment service plus the version/interrupt
plumbing: ``repro --version``, the graceful SIGINT/SIGTERM path of
``repro sweep``, and the master's client verbs driven through
:func:`repro.cli.main` against a live in-process master."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.api import experiments
from repro.cli import EXIT_INTERRUPTED, _InterruptFlag, main
from repro.orchestration import SweepConfig
from repro.service import protocol
from repro.service.client import MasterClient, MasterError
from repro.service.master import Master

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestVersion:
    def test_version_flag_prints_package_and_protocol(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert f"protocol {protocol.PROTOCOL_VERSION}" in out
        assert out.startswith("repro ")


class TestInterruptFlag:
    def test_first_signal_sets_flag_second_aborts(self, capsys):
        flag = _InterruptFlag()
        assert not flag()
        flag.handle(signal.SIGINT, None)
        assert flag()
        assert "finishing in-flight work" in capsys.readouterr().err
        with pytest.raises(KeyboardInterrupt):
            flag.handle(signal.SIGINT, None)


class TestSweepSigint:
    def test_sigint_finalizes_out_file_and_exits_130(self, tmp_path):
        out_path = tmp_path / "partial.json"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep",
                "--preset", "vgg11-micro-smoke",
                "--seeds", ",".join(str(s) for s in range(12)),
                "--no-cache", "--out", str(out_path),
            ],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # Wait until at least one point landed in the streamed --out
            # file — by then the signal handlers are long installed and
            # the sweep still has many points to go.
            deadline = time.time() + 60
            while time.time() < deadline:
                try:
                    payload = json.loads(out_path.read_text())
                except (OSError, ValueError):
                    payload = None
                if payload and any(p["status"] == "ok"
                                   for p in payload["points"]):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("no point ever completed")
            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == EXIT_INTERRUPTED, (stdout, stderr)
        assert "sweep interrupted" in stderr
        payload = json.loads(out_path.read_text())
        statuses = [p["status"] for p in payload["points"]]
        assert len(statuses) == 12
        assert statuses.count("ok") >= 1
        assert statuses.count("pending") >= 1, statuses


SLOW_SEED = 100


def fake_execute(task):
    if task["config"]["model"]["seed"] >= SLOW_SEED:
        time.sleep(0.25)
    return {
        "index": task["index"],
        "status": "ok",
        "payload": {"report": {"fake": True}, "artifacts": {}},
        "duration": 0.0,
    }


@pytest.fixture
def live_master(tmp_path):
    socket_path = tmp_path / "master.sock"
    master = Master(
        socket_path=socket_path, jobs=1,
        cache_dir=tmp_path / "cache", state_path=tmp_path / "state.json",
        execute=fake_execute,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(master.serve()), daemon=True
    )
    thread.start()
    deadline = time.time() + 10
    while not socket_path.exists():
        assert time.time() < deadline, "master never bound its socket"
        time.sleep(0.01)
    yield socket_path
    try:
        with MasterClient(socket_path) as client:
            client.shutdown()
    except (MasterError, OSError):
        pass
    thread.join(timeout=15)
    assert not thread.is_alive()


def sweep_config_file(tmp_path, name="cli", seeds=(0, 1)):
    sweep = SweepConfig(
        name=name,
        base=experiments.get_config("vgg11-micro-smoke"),
        seeds=tuple(seeds),
    )
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(sweep.to_dict()))
    return path


class TestServiceVerbs:
    def test_submit_status_watch_round_trip(self, live_master, tmp_path,
                                            capsys):
        config = sweep_config_file(tmp_path)
        socket = str(live_master)
        assert main(["submit", "--socket", socket,
                     "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "job 1 submitted (sweep cli, priority 0)" in out
        assert main(["watch", "1", "--socket", socket, "--quiet"]) == 0
        assert "job 1: done — 2 point(s)" in capsys.readouterr().out
        assert main(["status", "--socket", socket]) == 0
        out = capsys.readouterr().out
        assert f"master: repro {repro.__version__}" in out
        assert "done" in out and "cli" in out

    def test_quiet_submit_prints_bare_id_for_scripting(
            self, live_master, tmp_path, capsys):
        config = sweep_config_file(tmp_path)
        assert main(["submit", "--socket", str(live_master),
                     "--config", str(config), "--quiet"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_cancel_queued_job(self, live_master, tmp_path, capsys):
        socket = str(live_master)
        slow = sweep_config_file(tmp_path, "slow",
                                 seeds=(SLOW_SEED, SLOW_SEED + 1))
        queued = sweep_config_file(tmp_path, "queued", seeds=(7,))
        assert main(["submit", "--socket", socket, "--config",
                     str(slow), "--quiet"]) == 0
        assert main(["submit", "--socket", socket, "--config",
                     str(queued), "--quiet"]) == 0
        assert main(["cancel", "2", "--socket", socket]) == 0
        assert "job 2: cancelled" in capsys.readouterr().out
        assert main(["watch", "2", "--socket", socket, "--quiet"]) == 1
        assert "cancelled" in capsys.readouterr().out

    def test_status_json_is_machine_readable(self, live_master, capsys):
        assert main(["status", "--socket", str(live_master),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["master"]["protocol"] == protocol.PROTOCOL_VERSION
        assert payload["jobs"] == []

    def test_no_master_is_clean_error(self, tmp_path, capsys):
        code = main(["status", "--socket", str(tmp_path / "nope.sock")])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error" in err
        assert "repro master" in err  # points at how to start one

    @pytest.mark.parametrize("content", [
        '{"version": 1, "jobs": [',  # truncated mid-write
        "[]",                         # valid JSON, not a state object
    ], ids=["truncated", "not-an-object"])
    def test_damaged_state_file_is_clean_error(self, tmp_path, capsys,
                                               content):
        state = tmp_path / ".repro-master.json"
        state.write_text(content)
        code = main(["master", "--quiet", "--state", str(state),
                     "--socket", str(tmp_path / "m.sock"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert str(state) in err

    def test_shutdown_stops_master(self, live_master, capsys):
        assert main(["shutdown", "--socket", str(live_master)]) == 0
        assert "master stopping" in capsys.readouterr().out
        deadline = time.time() + 10
        while live_master.exists() and time.time() < deadline:
            time.sleep(0.02)
        assert not live_master.exists()
