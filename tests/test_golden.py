"""Golden outputs: sha256 digests of `cueplace solve` JSON on fixed inputs.

Each output is made in-process through `cli.main` into a temporary
directory. `tests/golden.json` holds one digest per named output and the
NumPy and Python versions that made them; the digests depend on NumPy's
summation order and the platform's `exp`, so another version fails the
test with a message naming both rather than skipping it. The inputs are
the five layouts of `scripts/compare_strategies.py` at 12 and 3 degree
bins, uncapped and at a 60 degree cap, and seeded layouts of 2 to 12
elements at 12 degree bins, some whose elements' own best bins are the
optimum and some whose are not.

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


def golden_digests(tmp: Path) -> dict[str, str]:
    """sha256 of each named `cueplace solve` output, made in `tmp`."""

    model_3 = str(tmp / "model-3.csv")
    assert main(["synth-model", "--bin-size", "3", "--out", model_3]) == 0
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
        digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_solver_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    recorded = {k: manifest[k] for k in ("numpy", "python")}
    assert environment() == recorded, (
        f"tests/golden.json was made with NumPy {recorded['numpy']} and Python "
        f"{recorded['python']}, but this run has NumPy {np.__version__} and Python "
        f"{platform.python_version()}; check the outputs another way, then rewrite "
        f"the manifest with `{REWRITE}`"
    )
    digests = golden_digests(tmp_path)
    expected = manifest["outputs"]
    changed = sorted(k for k in digests.keys() | expected.keys() if digests.get(k) != expected.get(k))
    assert not changed, f"outputs differ from tests/golden.json: {changed}"


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
        outputs = golden_digests(Path(tmp))
    text = json.dumps({**environment(), "outputs": outputs}, sort_keys=True, indent=2) + "\n"
    MANIFEST.write_text(text, encoding="utf-8")
    print(f"wrote {len(outputs)} digests to {MANIFEST}", file=sys.stderr)
