#!/usr/bin/env python3
"""Tight-cycle sweep around the e^2/n density, budgeted search.

Tight cycles at desk scale sit in a dense regime, so absence proofs get
expensive; a node budget turns fence-sitters into the unknown column, which
the success estimate censors out.  Prints the empirical crossing next to the
((c-1)/c)^(c-1) e^2/n prediction, which only kicks in asymptotically; the gap
at small n is the point of the exercise.
"""

import argparse
import sys
from fractions import Fraction

from rainbowhc import SweepConfig, estimate_crossing, make_grid, run_sweep
from rainbowhc.lab import sweep_csv_text
from rainbowhc.moments import threshold_tight


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--c", type=Fraction, default=Fraction(1))
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--points", type=int, default=8)
    # about 5.6x the node count of the hardest instance at these defaults
    # (25,030 in exhaustive mode; the median is 2,174), so only pathological
    # trials are censored
    ap.add_argument("--budget", type=int, default=140_000)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    predicted = threshold_tight(args.k, args.c, args.n)
    lo, hi = 0.5 * predicted, min(1.0, 1.6 * predicted)
    config = SweepConfig(
        n=args.n, k=args.k, ell=args.k - 1, c=args.c,
        p_grid=make_grid(lo, hi, args.points),
        trials=args.trials, seed=args.seed,
        solver_mode="budgeted", budget=args.budget,
        workers=args.workers,
    )
    rows = run_sweep(config)
    csv_text = sweep_csv_text(config, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    crossing = estimate_crossing(rows)
    unknowns = sum(row.unknown for row in rows)
    print(f"# predicted prefactor * e^2/n: {predicted:.4f}", file=sys.stderr)
    if crossing is not None:
        print(f"# empirical 50% crossing:     {crossing:.4f}", file=sys.stderr)
    else:
        print("# no 50% crossing bracketed on this grid", file=sys.stderr)
    print(f"# unknown (budget-censored) outcomes: {unknowns}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
