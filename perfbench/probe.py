"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/probe.py synth <bin sizes, comma-separated>
       python3 perfbench/probe.py load <model CSV>

Measures from before `import cueplace.cli` (which imports the whole package,
NumPy and SciPy) until the workload's models are synthesized or loaded, and
prints {"import_s": ..., "setup_s": ...} as one JSON line. Run with `src` on
PYTHONPATH.
"""

import json
import sys
import time

t0 = time.perf_counter()
import cueplace.cli  # noqa: E402,F401
from cueplace import calibrated_params, load_model, synthesize_model  # noqa: E402

t1 = time.perf_counter()
kind, spec = sys.argv[1], sys.argv[2]
if kind == "synth":
    for size in spec.split(","):
        synthesize_model(calibrated_params(int(size)))
elif kind == "load":
    load_model(spec)
else:
    raise SystemExit(f"unknown set-up kind {kind!r}")
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
