#!/usr/bin/env python3
"""Sup-moment finiteness study across grid refinements for the model zoo.

Solves a zoo model on a ladder of dyadic grids with common random numbers
and prints the stability table: finite moments show ratios hovering near 1
with zero blowups; the quadratic-drift control shows the failure signature.

Example:
    python scripts/moment_study.py --model linear_mixed --p 1 2 4 \
        --levels 256 1024 4096 --paths 10000 --seed 101
"""

import argparse

import mixedsde as mx
from mixedsde.moments import MomentTarget, grid_stability_tables


def quadratic_drift_control():
    def quad(t, x):
        return x * x

    return mx.ModelSpec(
        name="quadratic-drift-control", state_dim=1, initial_value=[1.0], horizon=1.0,
        drift=mx.CoefficientField("quad", "state", 1, 0, quad),
        wiener=mx.model_zoo("linear_mixed", wiener_matrix=0.0, wiener_offset=0.5).wiener,
        rough=mx.model_zoo("linear_mixed", rough_matrix=0.0, rough_offset=0.0).rough,
        driver=mx.DriverSpec(1, 1, (0.75,)),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="linear_mixed",
                        choices=[*mx.models.ZOO_MODELS, "quadratic_control"])
    parser.add_argument("--p", type=float, nargs="+", default=[1.0, 2.0, 4.0])
    parser.add_argument("--levels", type=int, nargs="+", default=[256, 512, 1024, 2048, 4096])
    parser.add_argument("--paths", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    if args.model == "quadratic_control":
        model = quadratic_drift_control()
    else:
        model = mx.model_zoo(args.model)
    targets = [MomentTarget("sup", p=p) for p in args.p]
    tables = grid_stability_tables(
        model, targets, args.levels, args.paths, args.seed, workers=args.workers
    )
    for table in tables:
        print(f"\n{table.target}")
        print(f"{'n':>6} {'estimate':>14} {'std err':>12} {'blowups':>8} {'ratio':>8}")
        for (level, est), ratio in zip(table.rows, ("", *(f"{r:8.4f}" for r in table.ratios))):
            print(f"{level:>6} {est.estimate:>14.6g} {est.standard_error:>12.4g} "
                  f"{est.blowup_count:>8} {ratio:>8}")
        in_band = all(0.8 <= r <= 1.25 for r in table.ratios)
        print(f"ratios within [0.8, 1.25]: {in_band}; total blowups: {table.total_blowups}")


if __name__ == "__main__":
    main()
