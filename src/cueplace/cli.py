"""Command-line interface.

Subcommands: solve (optimize a layout's sound placement), eval (virtual
listener comparison of strategies), synth-model (write the calibrated
synthetic confusion model), inspect-model (summary statistics of a model
file), table1 (simulated per-region localization-error statistics).

Exit codes: 0 success, 2 malformed input, 3 infeasible instance, 4 internal
error. Diagnostics go to stderr as single `error: <kind>: <message>` lines.
Emitted JSON is strict (no NaN or Infinity tokens) and byte-stable for
identical inputs: keys are sorted and nothing time- or environment-dependent
is written (solve timing goes to stderr instead).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .confusion import (
    ConfusionModel,
    ModelFormatError,
    SyntheticModelParams,
    calibrated_params,
    diagonal_argmax_fraction,
    load_model,
    row_entropies,
    save_model,
    synthesize_model,
)
from .layout import Layout, load_layout
from .placement import InfeasibleLayoutError, PlacementSolution, colocated_solution, solve
from .scoring import Weights, build_score_matrix
from .simulate import dump_trials, expected_localization_errors, run_simulation, table1_statistics

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _emit_json(obj, out: str) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _solution_dict(
    solution: PlacementSolution, bin_size_deg: int, weights: Weights, cone_rule: str, max_disp
) -> dict:
    return {
        "solver": solution.solver,
        "objective": solution.objective,
        "cut_rotation": solution.cut_rotation,
        "bin_size_deg": bin_size_deg,
        "weights": {"blur": weights.blur, "cone": weights.cone},
        "cone_rule": cone_rule,
        "max_displacement_deg": max_disp,
        "per_element_score": list(solution.per_element_score),
        "assignments": [
            {
                "id": a.id,
                "visual_azimuth_deg": a.visual_azimuth_deg,
                "sound_azimuth_deg": a.sound_azimuth_deg,
                "bin": a.sound_bin,
                "elevation_deg": a.elevation_deg,
            }
            for a in solution.assignments
        ],
    }


def _parse_weights(text: str) -> Weights:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"weights must be 'blur,cone', got {text!r}")
    return Weights(blur=float(parts[0]), cone=float(parts[1]))


def _load_model(args) -> ConfusionModel:
    return load_model(args.model) if args.model else synthesize_model(calibrated_params())


def _load_inputs(args) -> tuple[Layout, ConfusionModel]:
    return load_layout(args.layout), _load_model(args)


def _cmd_solve(args) -> int:
    layout, model = _load_inputs(args)
    weights = _parse_weights(args.weights)
    scores = build_score_matrix(model, layout, weights, args.cone_rule)
    # An infinite cap is no cap, and JSON has no infinity: write it as null.
    cap = None if args.max_displacement == math.inf else args.max_displacement
    t0 = time.perf_counter()
    solution = solve(scores, max_displacement_deg=cap)
    solve_ms = (time.perf_counter() - t0) * 1e3
    _emit_json(_solution_dict(solution, model.bin_size_deg, weights, args.cone_rule, cap), args.out)
    print(f"solved n={len(layout)} in {solve_ms:.2f} ms", file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    layout, model = _load_inputs(args)
    weights = _parse_weights(args.weights)
    scores = build_score_matrix(model, layout, weights, args.cone_rule)
    runs = [
        ("colocated", colocated_solution(scores)),
        ("optimized", solve(scores, max_displacement_deg=args.max_displacement)),
    ]
    reports = {
        name: run_simulation(sol, layout, model, args.trials, args.seed, strategy=name)
        for name, sol in runs
    }
    gap, se = reports["optimized"].accuracy_gap(reports["colocated"])
    out = {
        "trials": args.trials,
        "seed": args.seed,
        "bin_size_deg": model.bin_size_deg,
        "strategies": {
            name: {
                "accuracy": r.accuracy,
                "accuracy_stderr": r.accuracy_stderr,
                "mean_circular_error_deg": r.mean_circular_error_deg,
                "mean_adjusted_error_deg": r.mean_adjusted_error_deg,
                "mean_cone_effect_deg": r.mean_cone_effect_deg,
                # null for an element that drew no trial
                "per_element_accuracy": {
                    i: acc if trials else None
                    for i, acc, trials in zip(
                        layout.ids, r.per_element_accuracy, r.per_element_trials
                    )
                },
            }
            for name, r in reports.items()
        },
        "optimized_minus_colocated": {"accuracy_gap": gap, "combined_stderr": se},
    }
    _emit_json(out, args.out)
    if args.csv:
        lines = ["strategy,accuracy,stderr"]
        lines += [f"{n},{r.accuracy!r},{r.accuracy_stderr!r}" for n, r in sorted(reports.items())]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return EXIT_OK


def _cmd_synth_model(args) -> int:
    # The bin size is the params file's if it has one, else --bin-size's, else 12.
    params = calibrated_params()
    if args.params:
        d = json.loads(Path(args.params).read_text(encoding="utf-8"))
        params = SyntheticModelParams.from_dict(d)
        if "bin_size_deg" in d and args.bin_size not in (None, params.bin_size_deg):
            raise ModelFormatError(
                f"--bin-size {args.bin_size} conflicts with params file "
                f"bin_size_deg={params.bin_size_deg}"
            )
    if args.bin_size is not None:
        params = dataclasses.replace(params, bin_size_deg=args.bin_size)
    model = synthesize_model(params)
    # trials first: a rejected trial budget must leave no model file behind
    if args.trials_csv:
        n = dump_trials(model, args.trials_csv, trials_per_bin=args.trials_per_bin, seed=args.seed)
        print(f"wrote {n} trials to {args.trials_csv}", file=sys.stderr)
    save_model(model, args.out)
    print(f"wrote {model.bin_count}x{model.bin_count} model to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_inspect_model(args) -> int:
    model = load_model(args.model)
    sums = model.matrix.sum(axis=1)
    entropies = row_entropies(model)
    frac = diagonal_argmax_fraction(model)
    expected = expected_localization_errors(model)
    stats = {
        "bin_size_deg": model.bin_size_deg,
        "bin_count": model.bin_count,
        "provenance": model.provenance,
        "row_sum_min": float(sums.min()),
        "row_sum_max": float(sums.max()),
        "diagonal_argmax_fraction": frac,
        "row_entropy_bits": {
            "min": float(entropies.min()),
            "mean": float(entropies.mean()),
            "max": float(entropies.max()),
        },
        "expected_errors_deg": expected,
    }
    if args.json:
        _emit_json(stats, "-")
        return EXIT_OK
    print(f"bin_size_deg: {model.bin_size_deg}")
    print(f"bin_count: {model.bin_count}")
    print(f"provenance: {model.provenance}")
    print(f"row sums: [{sums.min():.12g}, {sums.max():.12g}]")
    print(
        f"diagonal argmax fraction: {frac:.4f} "
        f"({round(frac * model.bin_count)}/{model.bin_count})"
    )
    print(
        f"row entropy (bits): min={entropies.min():.3f} "
        f"mean={entropies.mean():.3f} max={entropies.max():.3f}"
    )
    print("expected localization errors (deg):")
    for region, e in expected.items():
        print(
            f"  {region}: circular={e['circular']:.2f} adjusted={e['adjusted']:.2f} "
            f"cone_effect={e['cone_effect']:.2f}"
        )
    return EXIT_OK


def _cmd_table1(args) -> int:
    model = _load_model(args)
    stats = table1_statistics(model, trials_per_bin=args.trials_per_bin, seed=args.seed)
    out = {
        "trials_per_bin": args.trials_per_bin,
        "seed": args.seed,
        "regions": {name: dataclasses.asdict(s) for name, s in stats.items()},
    }
    _emit_json(out, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cueplace",
        description="Optimize spatial-audio cue placement against a listener confusion model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", help="confusion model CSV")
        p.add_argument("--weights", default="0.9,0.1", help="blur,cone weights")
        p.add_argument(
            "--cone-rule",
            choices=("point-plus-mirror", "mirror-only"),
            default="point-plus-mirror",
        )
        p.add_argument(
            "--max-displacement",
            type=float,
            default=None,
            help="forbid moving a sound farther than this many degrees from its element",
        )

    p = sub.add_parser("solve", help="compute the optimal sound placement for a layout")
    p.add_argument("--layout", required=True, help="layout JSON")
    add_model_args(p)
    p.add_argument("--out", default="-", help="solution JSON path, '-' for stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="simulate optimized vs colocated placement")
    p.add_argument("--layout", required=True)
    add_model_args(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--csv", default=None, help="plot-ready strategy,accuracy,stderr CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth-model", help="write the calibrated synthetic confusion model")
    p.add_argument("--out", required=True, help="model CSV path")
    p.add_argument("--bin-size", type=int, default=None, help="default: the params file's, else 12")
    p.add_argument("--params", default=None, help="JSON file of synthetic parameters")
    p.add_argument("--trials-csv", default=None, help="also dump raw simulated trials here")
    p.add_argument("--trials-per-bin", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth_model)

    p = sub.add_parser("inspect-model", help="summary statistics of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_inspect_model)

    p = sub.add_parser("table1", help="simulated per-region localization-error statistics")
    p.add_argument("--model", default=None, help="model CSV; default: calibrated synthetic")
    p.add_argument("--trials-per-bin", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_table1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleLayoutError as e:
        print(f"error: infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # LayoutError, ModelFormatError and JSONDecodeError are ValueErrors
    except (OSError, ValueError) as e:
        print(f"error: input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
