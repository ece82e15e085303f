"""``repro master`` with per-module spans in its workers.

    python3 perfbench/master.py --trace-dir DIR -- <repro master args>

The span wrappers are installed before the master starts; its worker
pool forks from it, so every point a worker runs is traced, and the
worker writes that point's span list to ``DIR`` as soon as the point
finishes.  The untraced benchmark starts ``python3 -m repro master``
directly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("master_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    counter = itertools.count()

    def flush(recorder: spans.Recorder) -> None:
        path = os.path.join(
            args.trace_dir, f"point-{os.getpid()}-{next(counter)}.spans.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)
        recorder.clear()

    spans.install(spans.Recorder(), flush=flush)
    from repro.cli import main as repro_main

    master_args = [arg for arg in args.master_args if arg != "--"]
    return repro_main(["master", *master_args])


if __name__ == "__main__":
    sys.exit(main())
