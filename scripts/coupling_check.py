#!/usr/bin/env python3
"""Directed-vs-undirected coupling check.

At matched densities q - 2q^2 = p the orientation-dropped directed model
should dominate the plain model for rainbow loose cycles.  Runs both samplers
trial-for-trial and prints the two success estimates with a pooled standard
error.
"""

import argparse
import json
import sys

from rainbowhc import couple_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--p", type=float, default=0.05)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    outcome = couple_experiment(
        args.n, args.k, args.p, args.trials, args.seed, workers=args.workers
    )
    json.dump(outcome.to_record(), sys.stdout, indent=2)
    print()
    verdict = "holds" if outcome.holds else "VIOLATED"
    print(
        f"# directed {outcome.phat_directed:.4f} vs undirected "
        f"{outcome.phat_undirected:.4f} (2 SE = {2 * outcome.pooled_se:.4f}): {verdict}",
        file=sys.stderr,
    )
    return 0 if outcome.holds else 1


if __name__ == "__main__":
    sys.exit(main())
