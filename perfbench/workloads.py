"""The benchmark's workloads: seeded inputs, the requests made from them,
and the checks on each request's output.

Every workload is a closed loop with one caller: the next request is made
only after the previous one returned. Requests come in rounds. Every round
makes the same sequence of request kinds and sizes (its slots), so a run's
figures do not depend on where its time runs out, and the loop stops only
between rounds. The seed decides the azimuths, the drags and the simulation
seeds. The library receives only the generated layouts and models.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import numpy as np

import checks

# Element azimuths of the layouts in scripts/compare_strategies.py.
PAPER_LAYOUTS = {
    "side-by-side": (354.0, 6.0),
    "cone-pair-30": (30.0, 150.0),
    "cone-pair-back-left": (330.0, 210.0),
    "cone-pair-near-axis": (66.0, 114.0),
    "mixed-five": (0.0, 12.0, 150.0, 210.0, 300.0),
}

DEFAULT_BIN_DEG = 12  # B = 30, the paper's default
FINE_BIN_DEG = 3  # B = 120
CAP_DEG = 60.0


@dataclass
class Request:
    kind: str
    inputs: tuple  # what the seed generated, for the self-tests
    call: Callable[[SimpleNamespace], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], bytes]
    trials: int = 0  # simulated listener trials the request makes


@dataclass
class Placement:
    layout: Any
    scores: Any
    optimized: Any
    colocated: Any
    expected_accuracy: dict


def place(lib, model, ids, azimuths) -> Placement:
    """One placement request: the layout, its placement and the colocated
    baseline, each with its exact expected accuracy, as an editor shows them."""

    layout = lib.Layout(tuple(lib.Element(i, float(a)) for i, a in zip(ids, azimuths)))
    scores = lib.build_score_matrix(model, layout)
    colocated = lib.colocated_solution(scores)
    optimized = lib.solve(scores)
    acc = {name: lib.expected_accuracy(sol, layout, model) for name, sol in (("colocated", colocated), ("optimized", optimized))}
    return Placement(layout, scores, optimized, colocated, acc)


def bins_of(solution) -> list[int]:
    return [a.sound_bin for a in solution.assignments]


def check_solution(
    bins, cut, objective, per_element, visual, values, bin_size, cap, colocated_bins, colocated_objective
) -> list[str]:
    """Every check on one optimized solution, from plain values."""

    n, bin_count = values.shape
    problems = checks.placement(bins, cut, visual, bin_count, bin_size, cap)
    if problems:
        return problems
    problems += checks.objective(objective, per_element, [float(values[i, b]) for i, b in enumerate(bins)])
    colocated_feasible = len(set(colocated_bins)) == n and not checks.placement(
        colocated_bins, 0, visual, bin_count, bin_size, cap
    )
    if colocated_feasible:
        problems += checks.not_worse(objective, colocated_objective, n, float(np.abs(values).max()))
    return problems


def check_placement(p: Placement) -> list[str]:
    problems = [
        f"expected accuracy {k}={v!r} outside [0, 1]"
        for k, v in p.expected_accuracy.items()
        if not 0.0 <= v <= 1.0
    ]
    return problems + check_solution(
        bins_of(p.optimized),
        p.optimized.cut_rotation,
        p.optimized.objective,
        list(p.optimized.per_element_score),
        [float(a) for a in p.layout.visual_azimuths],
        p.scores.values,
        p.scores.model.bin_size_deg,
        None,
        bins_of(p.colocated),
        p.colocated.objective,
    )


def digest_placement(p: Placement) -> bytes:
    return f"{bins_of(p.optimized)}|{p.optimized.cut_rotation}|{p.optimized.objective!r};".encode()


class Workload:
    name = ""
    # arguments of probe.py: how a fresh interpreter sets this workload up
    probe_args: list[str] = []
    # whether the requests run in child processes, whose memory is then the one to report
    measures_children = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self, lib) -> None:
        raise NotImplementedError

    def bind_reference(self, cp) -> None:
        """Give the checks the library, untraced, where they need it."""

    def warmup(self, lib) -> None:
        """Run each code path once, untimed, so lazy set-up is not measured."""

        for model in self.models:
            place(lib, model, ["a", "b", "c"], [10.0, 130.0, 250.0])

    def rounds(self) -> Iterator[list[Request]]:
        raise NotImplementedError

    def sim_seed(self, k: int) -> int:
        return self.seed * 1_000_003 + k


class InteractiveDefault(Workload):
    """Drag sessions at the paper's default configuration (12 deg bins,
    weights 0.9/0.1, point-plus-mirror, no cap)."""

    name = "interactive-default"
    probe_args = ["synth", str(DEFAULT_BIN_DEG)]
    N_RANGE = (2, 12)
    STEPS = 6  # requests per session
    RESIZE_AT = (2, 4)  # steps that add or remove one element
    DRAG_SD_DEG = 5.0

    def setup(self, lib):
        self.model = lib.synthesize_model(lib.calibrated_params(DEFAULT_BIN_DEG))
        self.models = [self.model]

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        lo, hi = self.N_RANGE
        next_id = 0
        while True:
            requests = []
            # one session per starting size, so every round has the same sizes
            for n0 in range(lo, hi + 1):
                ids = [f"e{next_id + i}" for i in range(n0)]
                next_id += n0
                az = [float(a) for a in rng.uniform(0.0, 360.0, n0)]
                grow = n0 < hi
                for step in range(self.STEPS):
                    if step:
                        j = int(rng.integers(len(az)))
                        az[j] = float((az[j] + rng.normal(0.0, self.DRAG_SD_DEG)) % 360.0)
                    if step in self.RESIZE_AT:
                        if grow:
                            ids.append(f"e{next_id}")
                            next_id += 1
                            az.append(float(rng.uniform(0.0, 360.0)))
                        else:
                            j = int(rng.integers(len(az)))
                            del ids[j], az[j]
                        grow = not grow
                    requests.append(self._request(list(ids), list(az)))
            yield requests

    def _request(self, ids, az):
        return Request(
            kind="placement",
            inputs=(ids, az),
            call=lambda lib: place(lib, self.model, ids, az),
            check=check_placement,
            digest=digest_placement,
        )


class ListenerEval(Workload):
    """The simulated listener on the paper's layouts and seeded layouts."""

    name = "listener-eval"
    probe_args = ["synth", f"{DEFAULT_BIN_DEG},{FINE_BIN_DEG}"]
    SIZES = (6, 9, 12)
    TRIALS = 50_000
    TABLE1_TRIALS_PER_BIN = 200

    def setup(self, lib):
        self.models = [lib.synthesize_model(lib.calibrated_params(s)) for s in (DEFAULT_BIN_DEG, FINE_BIN_DEG)]
        self.expected_errors = [lib.expected_localization_errors(m) for m in self.models]

    def warmup(self, lib):
        super().warmup(lib)
        for model in self.models:
            p = place(lib, model, ["a", "b", "c"], [10.0, 130.0, 250.0])
            lib.run_simulation(p.optimized, p.layout, model, trials=100, seed=0)
            lib.table1_statistics(model, trials_per_bin=1, seed=0)

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        model30, model120 = self.models
        k = 0
        while True:
            requests = []
            layouts = [(model30, az) for az in PAPER_LAYOUTS.values()]
            for model in (model30, model120):
                layouts += [(model, [float(a) for a in rng.uniform(0.0, 360.0, n)]) for n in self.SIZES]
            for model, az in layouts:
                requests.append(self._eval([f"e{i}" for i in range(len(az))], az, model, self.sim_seed(k)))
                k += 1
            for model, expected in zip(self.models, self.expected_errors):
                requests.append(self._table1(model, expected, self.sim_seed(k)))
                k += 1
            yield requests

    def _eval(self, ids, az, model, seed):
        def call(lib):
            p = place(lib, model, ids, az)
            reports = {
                name: lib.run_simulation(sol, p.layout, model, trials=self.TRIALS, seed=seed, strategy=name)
                for name, sol in (("colocated", p.colocated), ("optimized", p.optimized))
            }
            return p, reports

        def check(out):
            p, reports = out
            problems = check_placement(p)
            for name, r in reports.items():
                problems += checks.monte_carlo(r.accuracy, p.expected_accuracy[name], r.trials, name)
            return problems

        def digest(out):
            p, reports = out
            accs = "|".join(repr(r.accuracy) for r in reports.values())
            return digest_placement(p) + accs.encode() + b";"

        return Request("eval", (ids, az, model.bin_size_deg, seed), call, check, digest, 2 * self.TRIALS)

    def _table1(self, model, expected, seed):
        def call(lib):
            return lib.table1_statistics(model, trials_per_bin=self.TABLE1_TRIALS_PER_BIN, seed=seed)

        def check(stats):
            return checks.table1({k: vars(v) for k, v in stats.items()}, expected)

        def digest(stats):
            return repr(sorted((k, sorted(vars(v).items())) for k, v in stats.items())).encode()

        trials = model.bin_count * self.TABLE1_TRIALS_PER_BIN
        return Request("table1", (model.bin_size_deg, seed), call, check, digest, trials)


class CliFiles(Workload):
    """`cueplace solve`, `eval` and `inspect-model` on layout JSON files and a
    saved model CSV. Each call is a fresh interpreter unless traced."""

    name = "cli-files"
    measures_children = True
    VARIANTS = ((4, []), (8, ["--cone-rule", "mirror-only"]), (12, ["--max-displacement", str(CAP_DEG)]))
    EVAL_TRIALS = 20_000

    @property
    def probe_args(self):
        return ["load", str(self.model_path)]

    def setup(self, lib):
        model = lib.synthesize_model(lib.calibrated_params(DEFAULT_BIN_DEG))
        self.model_path = self.workdir / "model.csv"
        lib.save_model(model, self.model_path)

    def warmup(self, lib):
        pass  # every call starts a fresh interpreter; that cost is the point

    def bind_reference(self, cp) -> None:
        """The checks compare the CLI's output with the library's."""

        self.cp = cp
        self.model = cp.load_model(self.model_path)
        self.expected_errors = cp.expected_localization_errors(self.model)

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        r = 0
        while True:
            # each round solves and evaluates one new layout; its size and
            # flags cycle, which barely changes a call dominated by start-up
            n, flags = self.VARIANTS[r % len(self.VARIANTS)]
            az = [float(a) for a in rng.uniform(0.0, 360.0, n)]
            path = self.workdir / f"layout-{r}.json"
            elements = [{"id": f"e{j}", "azimuth_deg": a} for j, a in enumerate(az)]
            path.write_text(json.dumps({"elements": elements}), encoding="utf-8")
            yield [self._solve(path, flags), self._eval(path, flags, self.sim_seed(r)), self._inspect()]
            r += 1

    def _argv(self, command, path, flags):
        return [command, "--layout", str(path), "--model", str(self.model_path), *flags]

    def _inputs(self, argv, path=None):
        """The call's arguments and layout file, independent of the work directory."""

        args = tuple(a.replace(str(self.workdir), "<workdir>") for a in argv)
        return args, None if path is None else path.read_text(encoding="utf-8")

    def _reference(self, path, flags):
        cp = self.cp
        layout = cp.load_layout(path)
        cone_rule = flags[1] if "--cone-rule" in flags else "point-plus-mirror"
        cap = float(flags[1]) if "--max-displacement" in flags else None
        scores = cp.build_score_matrix(self.model, layout, cone_rule=cone_rule)
        return layout, scores, cp.colocated_solution(scores), cp.solve(scores, max_displacement_deg=cap), cap

    def _solve(self, path, flags):
        def check(out):
            code, stdout = out
            if code != 0:
                return [f"solve exited {code}"]
            sol = json.loads(stdout)
            layout, scores, colocated, reference, cap = self._reference(path, flags)
            bins = [a["bin"] for a in sol["assignments"]]
            problems = check_solution(
                bins,
                sol["cut_rotation"],
                sol["objective"],
                sol["per_element_score"],
                [a["visual_azimuth_deg"] for a in sol["assignments"]],
                scores.values,
                self.model.bin_size_deg,
                cap,
                bins_of(colocated),
                colocated.objective,
            )
            if bins != bins_of(reference) or sol["objective"] != reference.objective:
                problems.append("CLI solution differs from the library's")
            return problems

        argv = self._argv("solve", path, flags)
        return Request("cli_solve", self._inputs(argv, path), lambda lib: lib.cli_call(argv), check, _stdout)

    def _eval(self, path, flags, seed):
        argv = self._argv("eval", path, flags) + ["--trials", str(self.EVAL_TRIALS), "--seed", str(seed)]

        def check(out):
            code, stdout = out
            if code != 0:
                return [f"eval exited {code}"]
            report = json.loads(stdout)
            layout, _, colocated, optimized, _ = self._reference(path, flags)
            problems = []
            for name, sol in (("colocated", colocated), ("optimized", optimized)):
                exact = self.cp.expected_accuracy(sol, layout, self.model)
                got = report["strategies"][name]["accuracy"]
                problems += checks.monte_carlo(got, exact, report["trials"], name)
            return problems

        return Request("cli_eval", self._inputs(argv, path), lambda lib: lib.cli_call(argv), check, _stdout)

    def _inspect(self):
        argv = ["inspect-model", "--model", str(self.model_path), "--json"]

        def check(out):
            code, stdout = out
            if code != 0:
                return [f"inspect-model exited {code}"]
            stats = json.loads(stdout)
            problems = []
            if stats["bin_count"] != self.model.bin_count:
                problems.append(f"bin_count {stats['bin_count']} != {self.model.bin_count}")
            if not (abs(stats["row_sum_min"] - 1) <= 1e-6 and abs(stats["row_sum_max"] - 1) <= 1e-6):
                problems.append("row sums not 1")
            if stats["expected_errors_deg"] != self.expected_errors:
                problems.append("expected errors differ from the library's")
            return problems

        return Request("cli_inspect_model", self._inputs(argv), lambda lib: lib.cli_call(argv), check, _stdout)


def _stdout(out) -> bytes:
    code, stdout = out
    return hashlib.sha256(stdout).digest() + str(code).encode()


WORKLOADS = {w.name: w for w in (InteractiveDefault, ListenerEval, CliFiles)}
