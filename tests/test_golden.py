"""Golden outputs: sha256 digests of `cueplace` output files on fixed inputs.

Each output is made in-process through `cli.main` into a temporary
directory. `tests/golden.json` holds one digest per named output and the
NumPy and Python versions that made them; the digests depend on NumPy's
summation order, its random streams and the platform's `exp`, so another
version fails the test with a message naming both rather than skipping
it. The outputs are:

- `solve` JSON for the five layouts of `scripts/compare_strategies.py` at
  12 and 3 degree bins, uncapped and at a 60 degree cap, and for seeded
  layouts of 2 to 12 elements at 12 degree bins, some whose elements' own
  best bins are the optimum and some whose are not;
- `eval` JSON and CSV, which rest on the simulated listener's random
  stream, for `cone-pair-near-axis` and a seeded 9-element layout at 12
  and 3 degree bins and two seeds;
- `table1` JSON at 12, 3 and 1 degree bins, and `synth-model`'s raw
  trials CSV at 12 and 3 degree bins, which rest on its per-bin stream.

A change that alters an output on purpose rewrites the manifest with

    PYTHONPATH=src python -m tests.test_golden

and lists every changed key.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import cueplace as cp
from cueplace.cli import main
from cueplace.placement import _ordered_quantized
from tests.oracles import own_best

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
REWRITE = "PYTHONPATH=src python -m tests.test_golden"
SEEDED = [(n, seed) for n in range(2, 13) for seed in range(2)]


def _paper_layouts() -> dict[str, tuple[float, ...]]:
    spec = importlib.util.spec_from_file_location("compare_strategies", ROOT / "scripts" / "compare_strategies.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYOUTS


def _seeded_azimuths(n: int, seed: int) -> list[float]:
    return np.random.default_rng([n, seed]).uniform(0.0, 360.0, size=n).tolist()


def _write_layout(path: Path, azimuths) -> str:
    elements = [{"id": f"e{i}", "azimuth_deg": a} for i, a in enumerate(azimuths)]
    path.write_text(json.dumps({"elements": elements}), encoding="utf-8")
    return str(path)


def environment() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synth_model(tmp: Path, size: int, *args: str) -> str:
    path = str(tmp / f"model-{size}.csv")
    assert main(["synth-model", "--bin-size", str(size), "--out", path, *args]) == 0, size
    return path


def solver_digests(tmp: Path) -> dict[str, str]:
    """sha256 of each named `cueplace solve` output, made in `tmp`."""

    model_3 = _synth_model(tmp, 3)
    runs = {}
    for name, azimuths in _paper_layouts().items():
        layout = _write_layout(tmp / f"{name}.json", azimuths)
        for bins, model_args in (("12deg", []), ("3deg", ["--model", model_3])):
            for cap, cap_args in (("uncapped", []), ("cap60", ["--max-displacement", "60"])):
                runs[f"solve/{name}/{bins}/{cap}"] = ["--layout", layout, *model_args, *cap_args]
    for n, seed in SEEDED:
        layout = _write_layout(tmp / f"seeded-n{n}-s{seed}.json", _seeded_azimuths(n, seed))
        runs[f"solve/seeded-n{n}-s{seed}/12deg/uncapped"] = ["--layout", layout]
    digests = {}
    for key, args in runs.items():
        out = tmp / "solution.json"
        assert main(["solve", *args, "--out", str(out)]) == 0, key
        digests[key] = _sha256(out)
    return digests


def stream_digests(tmp: Path) -> dict[str, str]:
    """sha256 of each named output of the simulated listener's random
    streams (`eval`, `table1`, `synth-model --trials-csv`), made in `tmp`."""

    digests, models = {}, {}
    for size in (12, 3):
        trials = tmp / f"trials-{size}.csv"
        models[size] = _synth_model(tmp, size, "--trials-csv", str(trials))
        digests[f"synth-model/{size}deg/trials-csv"] = _sha256(trials)
    models[1] = _synth_model(tmp, 1)
    for size, model in models.items():
        out = tmp / "table1.json"
        assert main(["table1", "--model", model, "--out", str(out)]) == 0, size
        digests[f"table1/{size}deg"] = _sha256(out)
    evaluated = {
        "cone-pair-near-axis": _paper_layouts()["cone-pair-near-axis"],
        "seeded-n9-s0": _seeded_azimuths(9, 0),
    }
    for name, azimuths in evaluated.items():
        layout = _write_layout(tmp / f"eval-{name}.json", azimuths)
        for size in (12, 3):
            for seed in (0, 1):
                out, csv = tmp / "eval.json", tmp / "eval.csv"
                args = ["eval", "--layout", layout, "--model", models[size], "--trials", "20000"]
                args += ["--seed", str(seed), "--out", str(out), "--csv", str(csv)]
                assert main(args) == 0, (name, size, seed)
                key = f"eval/{name}/{size}deg/seed{seed}"
                digests[f"{key}/json"], digests[f"{key}/csv"] = _sha256(out), _sha256(csv)
    return digests


def assert_matches_manifest(digests: dict[str, str], prefixes: tuple[str, ...]) -> None:
    """The digests equal the manifest's, and the manifest holds no other
    key starting with one of `prefixes`."""

    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    recorded = {k: manifest[k] for k in ("numpy", "python")}
    assert environment() == recorded, (
        f"tests/golden.json was made with NumPy {recorded['numpy']} and Python "
        f"{recorded['python']}, but this run has NumPy {np.__version__} and Python "
        f"{platform.python_version()}; check the outputs another way, then rewrite "
        f"the manifest with `{REWRITE}`"
    )
    expected = {k: v for k, v in manifest["outputs"].items() if k.startswith(prefixes)}
    changed = sorted(k for k in digests.keys() | expected.keys() if digests.get(k) != expected.get(k))
    assert not changed, f"outputs differ from tests/golden.json: {changed}"


def test_solver_outputs_match_the_manifest(tmp_path):
    assert_matches_manifest(solver_digests(tmp_path), ("solve/",))


def test_stream_outputs_match_the_manifest(tmp_path):
    assert_matches_manifest(stream_digests(tmp_path), ("eval/", "table1/", "synth-model/"))


def test_seeded_layouts_cover_both_solver_paths(calibrated_model):
    # the seeded keys pin outputs both where each element's own best bin is
    # the optimum and where the all-cuts pass has to find it
    passes = set()
    for n, seed in SEEDED:
        azimuths = _seeded_azimuths(n, seed)
        layout = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        _, q = _ordered_quantized(cp.build_score_matrix(calibrated_model, layout), None)
        passes.add(own_best(q) is not None)
    assert passes == {True, False}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {**solver_digests(Path(tmp)), **stream_digests(Path(tmp))}
    text = json.dumps({**environment(), "outputs": outputs}, sort_keys=True, indent=2) + "\n"
    MANIFEST.write_text(text, encoding="utf-8")
    print(f"wrote {len(outputs)} digests to {MANIFEST}", file=sys.stderr)
