"""Spans around the benchmark's calls into the cueplace layers.

A span records its name, start, end, parent span and request id. Spans are
kept in memory and written out once, at the end of a traced run. Untraced
runs call the library functions directly, so they pay nothing.

Span names are `<layer>.<function>`, where the layer is the cueplace module
(`layout`, `confusion`, `scoring`, `placement`, `simulate`, `cli`).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Work counts recorded on a span, computed from the call's arguments.
def _score_cells(a):
    return {"cells": len(a["layout"]) * a["model"].bin_count}


def _dp_cells(a):
    n, bins = a["scores"].values.shape
    return {"dp_cells": n * bins * bins}


def _sim_trials(a):
    return {"trials": int(a["trials"])}


def _table1_trials(a):
    return {"trials": a["model"].bin_count * int(a["trials_per_bin"])}


COUNTERS = {
    "scoring.build_score_matrix": _score_cells,
    "placement.solve": _dp_cells,
    "simulate.run_simulation": _sim_trials,
    "simulate.table1_statistics": _table1_trials,
}

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request_id: str | int | None = None
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0, 0, parent, self.request_id, counts, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns() - self._origin
        try:
            yield rec
        except BaseException as e:
            rec[6] = type(e).__name__
            raise
        finally:
            rec[2] = time.perf_counter_ns() - self._origin
            self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            counts = counter(_bound(fn, args, kwargs)) if counter else None
            with self.span(name, counts):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "request", "counts", "error")
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def instrument(lib: SimpleNamespace, tracer: Tracer | None, names) -> SimpleNamespace:
    """Copy of `lib` whose attributes listed in `names` record spans."""

    if tracer is None:
        return lib
    out = SimpleNamespace(**vars(lib))
    for attr in names:
        obj = getattr(lib, attr)
        setattr(out, attr, tracer.wrap(f"{layer_of(obj.__module__)}.{obj.__name__}", obj))
    return out


@contextmanager
def patched_cli(cli_module, tracer: Tracer | None):
    """Trace the calls `cueplace.cli` makes into the other layers.

    Replaces, for the duration, each function the CLI module imported from
    another cueplace module by a traced wrapper, and restores them after.
    """

    if tracer is None:
        yield
        return
    saved = {}
    for attr, obj in list(vars(cli_module).items()):
        module = getattr(obj, "__module__", "") or ""
        if inspect.isfunction(obj) and module.startswith("cueplace.") and module != cli_module.__name__:
            saved[attr] = obj
            setattr(cli_module, attr, tracer.wrap(f"{layer_of(module)}.{obj.__name__}", obj))
    try:
        yield
    finally:
        for attr, obj in saved.items():
            setattr(cli_module, attr, obj)


def _p50_ms(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def summarize(spans: list[list]) -> dict:
    """Per span name and per layer: calls, busy and self time, counts.

    A layer's busy time sums its outermost spans only, so a layer calling
    itself is not counted twice. Self time is a span's duration minus the
    part its child spans cover.
    """

    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child_ns[rec[3]] += rec[2] - rec[1]

    by_name: dict[str, dict] = {}
    by_layer: dict[str, dict] = {}
    for i, (name, start, end, parent, _req, counts, _error) in enumerate(spans):
        dur = end - start
        s = by_name.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []})
        s["calls"] += 1
        s["busy_ns"] += dur
        s["self_ns"] += dur - child_ns[i]
        s["durations"].append(dur)
        for k, v in (counts or {}).items():
            s[k] = s.get(k, 0) + v

        layer = name.split(".", 1)[0]
        outer = True
        p = parent
        while p is not None:
            if spans[p][0].split(".", 1)[0] == layer:
                outer = False
                break
            p = spans[p][3]
        if outer:
            agg = by_layer.setdefault(layer, {"calls": 0, "busy_ns": 0})
            agg["calls"] += 1
            agg["busy_ns"] += dur

    names = {}
    for name, s in sorted(by_name.items()):
        d = {k: v for k, v in s.items() if k not in ("durations", "busy_ns", "self_ns")}
        d["busy_ms"] = s["busy_ns"] / 1e6
        d["self_ms"] = s["self_ns"] / 1e6
        d["p50_ms"] = _p50_ms(s["durations"])
        names[name] = d
    layers = {k: {"calls": v["calls"], "busy_ms": v["busy_ns"] / 1e6} for k, v in sorted(by_layer.items())}
    return {"functions": names, "layers": layers}
