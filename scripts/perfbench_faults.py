#!/usr/bin/env python3
"""Minor page faults per request of one perfbench run, counted in its own process.

Usage (from the repository root; the arguments after the checkout are
perfbench's own):

    python3 scripts/perfbench_faults.py . --workload listener-eval --seed 1 --seconds 35 --trace 0

Loads `perfbench/run.py` from the given checkout unchanged, runs it in this
process, and reads `getrusage(RUSAGE_SELF).ru_minflt` just before and just
after its timed request loop (`drive`), so set-up, warm-up and the
subprocesses it starts are not counted. Prints one line
`FAULTS {"minflt", "requests", "minflt_per_request", "by_kind"}` as soon
as that loop returns, then perfbench's report, whose last line stays its
JSON result. `by_kind` maps each request kind (`placement`, `eval`,
`table1`, `cli_solve`, ...) to the same three figures counted around the
request's own call (`timed`) alone, so its faults sum to at most the total:
the checks and digests between calls count only there. With `--trace 1`
each request is called twice, traced and untraced, and both calls count.
"""

from __future__ import annotations

import importlib.util
import json
import resource
import sys
from pathlib import Path


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _figures(faults: int, requests: int) -> dict:
    return {"minflt": faults, "requests": requests, "minflt_per_request": faults / requests}


def main(argv: list[str]) -> int:
    checkout, args = Path(argv[0]).resolve(), argv[1:]
    sys.path.insert(0, str(checkout / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run
    spec.loader.exec_module(run)
    drive, timed = run.drive, run.timed
    by_kind: dict[str, list[int]] = {}  # kind -> [faults, calls]

    def timed_counted(req, lib):
        before = _minflt()
        result = timed(req, lib)
        counts = by_kind.setdefault(req.kind, [0, 0])
        counts[0] += _minflt() - before
        counts[1] += 1
        return result

    def counted(*a, **k):
        before = _minflt()
        d = drive(*a, **k)
        line = _figures(_minflt() - before, d.attempted)
        line["by_kind"] = {kind: _figures(*counts) for kind, counts in sorted(by_kind.items())}
        print("FAULTS " + json.dumps(line), flush=True)
        return d

    run.drive, run.timed = counted, timed_counted
    return run.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
