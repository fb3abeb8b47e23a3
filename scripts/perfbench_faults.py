#!/usr/bin/env python3
"""Minor page faults per request of one perfbench run, counted in its own process.

Usage (from the repository root; the arguments after the checkout are
perfbench's own):

    python3 scripts/perfbench_faults.py . --workload listener-eval --seed 1 --seconds 35 --trace 0

Loads `perfbench/run.py` from the given checkout unchanged, runs it in this
process, and reads `getrusage(RUSAGE_SELF).ru_minflt` just before and just
after its timed request loop (`drive`), so set-up, warm-up and the
subprocesses it starts are not counted. Prints perfbench's report, then
one line `FAULTS {"minflt", "requests", "minflt_per_request"}`.
"""

from __future__ import annotations

import importlib.util
import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    checkout, args = Path(argv[0]).resolve(), argv[1:]
    sys.path.insert(0, str(checkout / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run
    spec.loader.exec_module(run)
    drive = run.drive

    def counted(*a, **k):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        d = drive(*a, **k)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        line = {"minflt": faults, "requests": d.attempted, "minflt_per_request": faults / d.attempted}
        print("FAULTS " + json.dumps(line), flush=True)
        return d

    run.drive = counted
    return run.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
