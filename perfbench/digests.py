"""Record the reference trial's report-row digests for a range of seeds.

    python3 perfbench/digests.py 0 20     # seeds 0..19

The reference backend is bit-identical from run to run, so a digest of
its report rows pins its numerics; ``run.py`` checks every reference
trial against the digest recorded for its seed when it runs on the
host the table was recorded on (``host.fingerprint()``).
"""

from __future__ import annotations

import json
import os
import sys

import host
import run


def main(argv=None) -> int:
    first, stop = (int(arg) for arg in (argv or sys.argv[1:]))
    os.chdir(run.ROOT)
    run.isolate()
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text())
    if table.get("host") != host.fingerprint():
        table = {"host": host.fingerprint(), "reference": {}}
    for seed in range(first, stop):
        result, _, error = run.spawn_trial("reference", seed)
        if result is None:
            print(error, file=sys.stderr)
            return 1
        table["reference"][str(seed)] = result["digest"]
        print(seed, result["digest"], flush=True)
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
