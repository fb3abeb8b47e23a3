#!/usr/bin/env python3
"""Optimized vs colocated placement across benchmark layouts.

Runs the virtual listener on the two-element side-by-side layout, a set of
front-back mirror pairs, and a five-element mixed layout, printing exact
(closed-form) accuracies, Monte-Carlo estimates with standard errors, and
the optimized bins. Writes a plot-ready CSV when --csv is given.

Usage: python3 scripts/compare_strategies.py [--trials 100000] [--seed 0] [--csv out.csv]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import cueplace as cp
from cueplace.simulate import expected_accuracy

LAYOUTS = {
    "side-by-side": (354.0, 6.0),
    "cone-pair-30": (30.0, 150.0),
    "cone-pair-back-left": (330.0, 210.0),
    "cone-pair-near-axis": (66.0, 114.0),
    "mixed-five": (0.0, 12.0, 150.0, 210.0, 300.0),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    model = cp.synthesize_model(cp.calibrated_params())
    rows = ["layout,strategy,accuracy,stderr,exact_accuracy"]
    print(f"{args.trials} trials per run, seed {args.seed}")
    print(f"{'layout':>22} {'colocated':>20} {'optimized':>20} {'gap':>8} {'gap/se':>7}")
    for name, azimuths in LAYOUTS.items():
        layout = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        scores = cp.build_score_matrix(model, layout)
        solutions = {
            "colocated": cp.colocated_solution(scores),
            "optimized": cp.solve(scores),
        }
        reports, exact = {}, {}
        for strategy, sol in solutions.items():
            reports[strategy] = cp.run_simulation(
                sol, layout, model, trials=args.trials, seed=args.seed, strategy=strategy
            )
            exact[strategy] = expected_accuracy(sol, layout, model)
            rows.append(
                f"{name},{strategy},{reports[strategy].accuracy!r},"
                f"{reports[strategy].accuracy_stderr!r},{exact[strategy]!r}"
            )
        gap, se = reports["optimized"].accuracy_gap(reports["colocated"])
        # A standard error is 0 when the accuracy is 0 or 1, as at one trial.
        z = f"{gap / se:>7.1f}" if se > 0 else f"{'n/a':>7}"
        print(
            f"{name:>22} "
            f"{reports['colocated'].accuracy:>9.4f} (exact {exact['colocated']:.4f}) "
            f"{reports['optimized'].accuracy:>9.4f} (exact {exact['optimized']:.4f}) "
            f"{gap:+.4f} {z}"
        )
    if args.csv:
        Path(args.csv).write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
