#!/usr/bin/env python3
"""cueplace benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's requests in a closed loop for at least S seconds (whole
rounds), checks every output, and prints a report followed, as the last
line, by one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; see perfbench/README.md. Exits 1 if any check failed and 2
if the benchmark could not run at all (for example, no `src/cueplace`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
CALL_TIMEOUT_S = 120
# p90 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "layout.calls": "count",
    "layout.busy_ms": "ms",
    "confusion.calls": "count",
    "confusion.busy_ms": "ms",
    "scoring.build_score_matrix.calls": "count",
    "scoring.build_score_matrix.busy_ms": "ms",
    "scoring.build_score_matrix.p50_ms": "ms",
    "scoring.build_score_matrix.cells": "count",
    "placement.solve.calls": "count",
    "placement.solve.busy_ms": "ms",
    "placement.solve.p50_ms": "ms",
    "placement.solve.dp_cells": "count",
    "placement.colocated_solution.busy_ms": "ms",
    "simulate.calls": "count",
    "simulate.busy_ms": "ms",
    "simulate.run_simulation.trials": "count",
    "simulate.table1_statistics.trials": "count",
    "cli.main.calls": "count",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
}

# Library entry points the workloads call; in a traced run each records a span.
TRACED = (
    "Layout",
    "build_score_matrix",
    "solve",
    "colocated_solution",
    "expected_accuracy",
    "run_simulation",
    "table1_statistics",
    "expected_localization_errors",
    "synthesize_model",
    "save_model",
)

THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def limit_thread_pools(nproc: int) -> int:
    """Cap BLAS/OpenMP pools at nproc threads; must run before NumPy loads."""

    for var in THREAD_POOL_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return int(os.environ["OMP_NUM_THREADS"])


@dataclass
class Drive:
    """What one pass of the closed loop did."""

    rounds: int = 0
    slots: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    untraced_latencies: list[float] = field(default_factory=list)
    trials: dict[str, int] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_round: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    first_round_requests: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def timed(req, lib):
    t0 = time.perf_counter()
    try:
        out, error = req.call(lib), None
    except Exception as e:  # a failed request is counted, not fatal
        out, error = None, e
    return out, error, time.perf_counter() - t0


def checked(req, out) -> list[str]:
    try:
        return req.check(out)
    except Exception as e:  # malformed output, such as JSON that does not parse
        return [f"check raised {type(e).__name__}: {e}"]


def drive(workload, lib, seconds: float, after_round=None, tracer=None, untraced_lib=None) -> Drive:
    """Run whole rounds of requests until `seconds` have passed, timing each
    request and checking its output. `after_round` runs, untimed, between
    rounds.

    With a tracer, each request also runs on `untraced_lib`, alternately
    before and after the traced call, so that the two timings see the same
    machine; the outputs must agree.
    """

    d = Drive()
    deadline = time.perf_counter() + seconds
    for r, requests in enumerate(workload.rounds()):
        for slot, req in enumerate(requests):
            k = d.attempted
            if tracer is None:
                out, error, dt = timed(req, lib)
            else:
                plain_first = k % 2 == 1
                if plain_first:
                    plain = timed(req, untraced_lib)
                tracer.request_id = k
                out, error, dt = timed(req, lib)
                tracer.request_id = None
                if not plain_first:
                    plain = timed(req, untraced_lib)
                d.untraced_latencies.append(plain[2])
            d.latencies.append(dt)
            d.slots.append(slot)
            d.kinds.append(req.kind)
            d.trials[req.kind] = d.trials.get(req.kind, 0) + req.trials
            problems = [f"raised {type(error).__name__}: {error}"] if error else checked(req, out)
            digest = req.digest(out) if error is None else b"error;"
            if tracer is not None and (plain[1] is not None or req.digest(plain[0]) != digest):
                problems.append("untraced call gave a different result")
            if problems:
                d.failed += 1
                d.problems += [f"request {k} ({req.kind}): {p}" for p in problems]
            if r == 0:
                d.first_round.update(digest)
                d.first_round_requests += 1
        d.rounds = r + 1
        if time.perf_counter() >= deadline:
            break
        if after_round is not None:
            after_round()
    return d


def fastest_by_slot(d: Drive) -> list[float]:
    """Each slot's fastest latency over the run's rounds.

    Other tenants of the host can slow the CPU by up to 2x for tens of
    seconds; a slot's fastest round is the one least disturbed, so these
    times vary less from run to run than the raw ones.
    """

    best: dict[int, float] = {}
    for slot, t in zip(d.slots, d.latencies):
        best[slot] = min(t, best.get(slot, t))
    return [best[k] for k in sorted(best)]


def end_to_end_metrics(setup_s: float, d: Drive, peak_rss_mb: float) -> dict:
    best = fastest_by_slot(d)
    return {
        "setup_s": setup_s,
        "request_p50_ms": statistics.median(best) * 1e3,
        "requests_per_s": len(best) / sum(best),
        "peak_rss_mb": peak_rss_mb,
    }


def workload_figures(d: Drive) -> dict:
    """Figures over all requests as they came: per request kind, and for CLI calls together."""

    groups: dict[str, list[float]] = {}
    for kind, t in zip(d.kinds, d.latencies):
        groups.setdefault(kind, []).append(t)
        if kind.startswith("cli_"):
            groups.setdefault("cli_call", []).append(t)
    figures = {}
    for kind, times in groups.items():
        figures[f"{kind}_count"] = (len(times), "count")
        figures[f"{kind}_p50_ms"] = (statistics.median(times) * 1e3, "ms")
        if len(times) * 0.1 >= TAIL_SAMPLES:
            figures[f"{kind}_p90_ms"] = (statistics.quantiles(times, n=10, method="inclusive")[-1] * 1e3, "ms")
        figures[f"{kind}_per_s"] = (len(times) / sum(times), "1/s")
        if d.trials.get(kind):
            figures[f"{kind}_trials_per_s"] = (d.trials[kind] / sum(times), "1/s")
    return figures


def per_layer_metrics(summary: dict, import_ms: float, overhead_pct: float) -> dict:
    fns, layers = summary["functions"], summary["layers"]
    out = {}
    for name in PER_LAYER:
        head, _, key = name.rpartition(".")
        if name == "cli.import_ms":
            out[name] = import_ms
        elif name == "trace.overhead_pct":
            out[name] = overhead_pct
        elif head in layers:
            out[name] = layers[head][key]
        else:
            out[name] = fns.get(head, {}).get(key, 0)
    return out


def machine_facts(threads: int) -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pools": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    return facts


def library():
    import cueplace as cp
    import cueplace.cli
    from cueplace.simulate import expected_accuracy

    lib = SimpleNamespace(
        Layout=cp.Layout,
        Element=cp.Element,
        build_score_matrix=cp.build_score_matrix,
        solve=cp.solve,
        colocated_solution=cp.colocated_solution,
        expected_accuracy=expected_accuracy,
        run_simulation=cp.run_simulation,
        table1_statistics=cp.table1_statistics,
        expected_localization_errors=cp.expected_localization_errors,
        synthesize_model=cp.synthesize_model,
        calibrated_params=cp.calibrated_params,
        save_model=cp.save_model,
        load_model=cp.load_model,
        load_layout=cp.load_layout,
    )
    return lib, cueplace.cli


def subprocess_cli(env: dict):
    def call(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cueplace.cli", *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=CALL_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    return call


def in_process_cli(main):
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue().encode()

    return call


class SetupProbes:
    """Set-up timed in fresh interpreters, spread evenly over the loop's
    `seconds` between rounds, so that the median spans the whole run."""

    def __init__(self, env: dict, probe_args: list[str], seconds: float):
        self.env, self.args = env, probe_args
        self.interval = seconds / SETUP_PROBES
        self.start: float | None = None
        self.setups: list[float] = []
        self.imports_ms: list[float] = []

    def between_rounds(self) -> None:
        now = time.perf_counter()
        if self.start is None:
            self.start = now
        if len(self.setups) < SETUP_PROBES and now >= self.start + len(self.setups) * self.interval:
            self.one()

    def one(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *self.args],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
            check=True,
        )
        t = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(t["setup_s"])
        self.imports_ms.append(t["import_s"] * 1e3)

    def medians(self) -> tuple[float, float]:
        while len(self.setups) < SETUP_PROBES:
            self.one()
        return statistics.median(self.setups), statistics.median(self.imports_ms)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args, workdir: Path, threads: int) -> tuple[dict, list[str]]:
    from tracing import Tracer, instrument, patched_cli, summarize
    from workloads import WORKLOADS

    raw, cli = library()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None

    lib = instrument(raw, tracer, TRACED)
    if tracer is not None:
        tracer.request_id = "setup"
    workload.setup(lib)
    workload.bind_reference(raw)
    probes = SetupProbes(env, workload.probe_args, args.seconds)
    workload.warmup(raw)

    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    lines.append("machine " + json.dumps(machine_facts(threads), sort_keys=True))
    lines.append(
        "seeds " + json.dumps({"workload": args.seed, "simulation": f"{args.seed} * 1000003 + request index"})
    )

    if tracer is None:
        lib.cli_call = subprocess_cli(env)
        d = drive(workload, lib, args.seconds, probes.between_rounds)
        setup_s, import_ms = probes.medians()
        who = resource.RUSAGE_CHILDREN if workload.measures_children else resource.RUSAGE_SELF
        metrics = end_to_end_metrics(setup_s, d, resource.getrusage(who).ru_maxrss / 1024)
        units = END_TO_END
    else:
        traced_main = tracer.wrap("cli.main", cli.main)

        def main_with_spans(argv):
            with patched_cli(cli, tracer):
                return traced_main(argv)

        lib.cli_call = in_process_cli(main_with_spans)
        raw.cli_call = in_process_cli(cli.main)
        d = drive(workload, lib, args.seconds, probes.between_rounds, tracer=tracer, untraced_lib=raw)
        setup_s, import_ms = probes.medians()
        traced_s, untraced_s = sum(d.latencies), sum(d.untraced_latencies)
        overhead_pct = (traced_s / untraced_s - 1.0) * 100.0
        summary = summarize(tracer.spans)
        metrics = per_layer_metrics(summary, import_ms, overhead_pct)
        units = PER_LAYER
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        lines.append(
            f"tracing overhead {overhead_pct:+.3f}% "
            f"(traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s over the same {d.attempted} requests)"
        )
        lines.append("functions " + json.dumps(summary["functions"], sort_keys=True))
        lines.append("layers " + json.dumps(summary["layers"], sort_keys=True))

    lines.append(f"setup: {SETUP_PROBES} fresh interpreters, median setup {setup_s:.6g} s, import {import_ms:.6g} ms")
    lines.append(f"metrics ({'per layer' if tracer else 'end to end'}):")
    lines += [f"  {name} {fmt(value)} {units[name]}" for name, value in metrics.items()]
    lines.append(f"workload figures ({d.rounds} rounds, {d.attempted} requests):")
    lines += [f"  {name} {fmt(v)} {unit}" for name, (v, unit) in workload_figures(d).items()]
    lines.append(f"result_digest {d.first_round.hexdigest()} (first round, {d.first_round_requests} requests)")
    lines.append(f"failure_ratio {d.failed / d.attempted:.6g} ({d.failed}/{d.attempted})")
    lines += [f"FAILED {p}" for p in d.problems[:50]]
    result = {
        "correct": d.failed == 0,
        "attempted": d.attempted,
        "failed": d.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    threads = limit_thread_pools(len(os.sched_getaffinity(0)))
    args = parse_args(argv)
    if not (SRC / "cueplace" / "__init__.py").is_file():
        print(f"perfbench: no cueplace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        result, lines = run(args, workdir, threads)
    finally:
        shutil.rmtree(workdir)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
