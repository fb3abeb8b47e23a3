#!/usr/bin/env python3
"""Fit synthetic-listener parameters to the measured localization targets.

Each region's confusion rows depend only on that region's (blur_sd_deg,
flip_prob), so the four regions are fitted independently: match the
closed-form expected circular and adjusted error means of the synthetic
matrix to LOCALIZATION_ERROR_TARGETS. The fitted values are what
`cueplace.confusion.calibrated_params` freezes.

Usage: python3 scripts/calibrate_confusion.py [--bin-size 12]
"""

from __future__ import annotations

import argparse

from scipy.optimize import least_squares

from cueplace.confusion import LOCALIZATION_ERROR_TARGETS, REGIONS, SyntheticModelParams, synthesize_model
from cueplace.simulate import expected_localization_errors

X0 = (30.0, 0.2)
BOUNDS = ([1.0, 0.0], [150.0, 0.95])


def _params_with(region: str, sd: float, flip: float, bin_size: int) -> SyntheticModelParams:
    # other regions' values are irrelevant to `region`'s own expectations
    blur = {r: 30.0 for r in REGIONS}
    flip_p = {r: 0.2 for r in REGIONS}
    blur[region], flip_p[region] = sd, flip
    return SyntheticModelParams(blur_sd_deg=blur, flip_prob=flip_p, bin_size_deg=bin_size)


def fit_region(region: str, bin_size: int) -> tuple[float, float]:
    target = LOCALIZATION_ERROR_TARGETS[region]

    def residuals(x):
        model = synthesize_model(_params_with(region, x[0], x[1], bin_size))
        got = expected_localization_errors(model)[region]
        return [
            (got["circular"] - target["circular"]) / target["circular"],
            (got["adjusted"] - target["adjusted"]) / target["adjusted"],
        ]

    fit = least_squares(residuals, X0, bounds=BOUNDS, xtol=1e-12, ftol=1e-12)
    return float(fit.x[0]), float(fit.x[1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-size", type=int, default=12)
    args = ap.parse_args()

    fitted_sd: dict[str, float] = {}
    fitted_flip: dict[str, float] = {}
    for region in REGIONS:
        sd, flip = fit_region(region, args.bin_size)
        fitted_sd[region] = round(sd, 4)
        fitted_flip[region] = round(flip, 4)

    print("fitted parameters (paste into calibrated_params):")
    print(f"  blur_sd_deg={fitted_sd}")
    print(f"  flip_prob={fitted_flip}")

    params = SyntheticModelParams(
        blur_sd_deg=fitted_sd, flip_prob=fitted_flip, bin_size_deg=args.bin_size
    )
    model = synthesize_model(params)
    expected = expected_localization_errors(model)
    print("\nclosed-form means vs targets (deg):")
    for region in (*REGIONS, "all"):
        got = expected[region]
        line = f"  {region:>5}: circ={got['circular']:6.2f} adj={got['adjusted']:6.2f} cone={got['cone_effect']:6.2f}"
        if region in LOCALIZATION_ERROR_TARGETS:
            t = LOCALIZATION_ERROR_TARGETS[region]
            dev = 100.0 * (got["circular"] - t["circular"]) / t["circular"]
            line += f"   target circ={t['circular']:6.2f} (dev {dev:+.2f}%)"
        print(line)


if __name__ == "__main__":
    main()
