#!/usr/bin/env python3
"""Write RESULTS.md, the lab's tables, at the root of the repository.

    python scripts/results.py

Each section runs one experiment at fixed parameters and holds what it
printed.  The file carries no wall time or commit id, so it is a pure
function of the code and tests/test_scripts.py compares render() with the
committed file byte for byte: a change that moves a number reruns this
script and says why.  Custom runs use `rainbowhc sweep`, `csweep` and
`couple`.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from rainbowhc import (
    CycleSpec,
    MomentParams,
    SweepConfig,
    asymptotic_expected_Y,
    claim_max,
    couple_experiment,
    estimate_crossing,
    log_expected_Y,
    make_grid,
    run_sweep,
    threshold_general,
    threshold_tight,
    tight_prefactor,
)
from rainbowhc.lab import sweep_csv_text
from rainbowhc.moments import loose_threshold

RESULTS = Path(__file__).resolve().parent.parent / "RESULTS.md"

HEADER = """# Results

Written by `python scripts/results.py`; do not edit by hand. Each section says
what it measures, with the `rainbowhc` command that prints the same table for
a Monte Carlo run. The `#` lines under a table summarise it.
"""


def _section(title: str, about: str, block: str) -> str:
    return f"\n## {title}\n\n{about}\n\n```\n{block}```\n"


def _sweep(n, k, ell, r, start, stop, points, trials, seed, budget=None):
    """The rows and CSV of one sweep, and the command that prints the CSV."""
    config = SweepConfig(
        n=n, k=k, ell=ell, r=r, p_grid=make_grid(start, stop, points),
        trials=trials, seed=seed, budget=budget,
    )
    rows = run_sweep(config)
    command = (
        f"rainbowhc sweep --n {n} --k {k} --ell {ell} --r {r}"
        f" --p-grid {start!r}:{stop!r}:{points} --trials {trials} --seed {seed}"
    )
    if budget is not None:
        command += f" --mode budgeted --budget {budget}"
    return rows, sweep_csv_text(config, rows), command


def _crossing(rows, label: str) -> str:
    crossing = estimate_crossing(rows)
    if crossing is None:
        return "# no 50% crossing bracketed on this grid\n"
    return f"# empirical 50% crossing:{label}{crossing:.4f}\n"


def loose_sweep() -> str:
    n, k, trials = 12, 3, 60
    r = CycleSpec(n, k, 1).m  # the fewest colors a rainbow loose cycle can use
    rows, table, command = _sweep(n, k, 1, r, 0.02, 0.35, 9, trials, seed=1)
    notes = [f"# r = {r} colors, {trials} trials/point\n", _crossing(rows, " p ~ ")]
    for omega in (1.0, 2.0, 4.0):
        ref = loose_threshold(k, n, omega)
        notes.append(f"# reference omega*log(n)/n^(k-1) at omega={omega}: {ref:.4f}\n")
    about = (
        f"Rainbow loose Hamilton cycles (k = {k}, ell = 1) on n = {n} vertices with"
        f" the minimum r = n/(k-1) = {r} colors: the share of {trials} instances per"
        " grid point that hold one, by exhaustive search, its 50% crossing, and the"
        f" omega*log(n)/n^(k-1) reference density. `{command}` prints the table."
    )
    return _section("Loose-cycle sweep", about, table + "".join(notes))


def tight_sweep() -> str:
    n, k, trials = 10, 4, 40
    predicted = threshold_tight(k, 1, n)
    # the budget censors only pathological trials: the unknown column is 0
    rows, table, command = _sweep(
        n, k, k - 1, n, 0.5 * predicted, min(1.0, 1.6 * predicted), 8, trials,
        seed=2, budget=140_000,
    )
    notes = (
        f"# predicted prefactor * e^2/n: {predicted:.4f}\n"
        + _crossing(rows, "     ")
        + f"# unknown (budget-censored) outcomes: {sum(row.unknown for row in rows)}\n"
    )
    about = (
        f"Rainbow tight Hamilton cycles (k = {k}, ell = {k - 1}) on n = {n} vertices"
        f" with r = n colors, {trials} instances per grid point, each search capped"
        " at a node budget: the 50% crossing beside the e^2/n threshold, which"
        f" holds only as n grows. `{command}` prints the table."
    )
    return _section("Tight-cycle sweep", about, table + notes)


def coupling() -> str:
    n, k, p, trials, seed = 8, 3, 0.05, 2000, 3
    outcome = couple_experiment(n, k, p, trials, seed)
    verdict = "holds" if outcome.holds else "VIOLATED"
    block = (
        json.dumps(outcome.to_record(), indent=2) + "\n"
        f"# directed {outcome.phat_directed:.4f} vs undirected "
        f"{outcome.phat_undirected:.4f} (2 SE = {2 * outcome.pooled_se:.4f}): {verdict}\n"
    )
    about = (
        f"Rainbow loose cycles (k = {k}) on n = {n} vertices in the plain model at"
        f" p = {p} and in the orientation-dropped directed model at the matched q,"
        f" q - 2q^2 = p, over {trials} paired trials: the directed share should"
        " dominate. `rainbowhc couple"
        f" --n {n} --k {k} --p {p} --trials {trials} --seed {seed}` prints the record."
    )
    return _section("Directed-vs-undirected coupling", about, block)


def _dichotomy_table() -> str:
    ns = (50, 100, 200, 400, 800)
    lines = [
        "log E(Y) at 0.9x / 1.1x the first-moment threshold",
        f"{'k':>2} {'ell':>3} {'c':>5} {'side':>5} " + " ".join(f"{('n=' + str(n)):>10}" for n in ns),
    ]
    for k, ell, c in ((4, 3, Fraction(1)), (4, 3, Fraction(2)), (3, 2, Fraction(1)), (5, 3, Fraction(1, 2))):
        for factor in (0.9, 1.1):
            vals = []
            for n in ns:
                p = factor * threshold_general(k, ell, c, n)
                vals.append(log_expected_Y(MomentParams.from_color_density(n, k, ell, p, c)))
            cells = " ".join(f"{v:>10.2f}" for v in vals)
            lines.append(f"{k:>2} {ell:>3} {str(c):>5} {factor:>5} {cells}")
    return "\n".join(lines) + "\n"


def _stirling_table() -> str:
    lines = ["relative error of the Stirling form of log E(Y), tight k=4"]
    for c in (Fraction(1), Fraction(2)):
        errs = []
        for n in (30, 60, 120, 240, 480):
            p = tight_prefactor(c) * math.e**2 / n
            params = MomentParams.from_color_density(n, 4, 3, p, c)
            le = log_expected_Y(params)
            la = asymptotic_expected_Y(params)
            errs.append(abs(le - la) / abs(le))
        lines.append(f"  c={c}: " + "  ".join(f"{e:.2e}" for e in errs))
    return "\n".join(lines) + "\n"


def _prefactor_table() -> str:
    lines = ["tight-cycle threshold prefactor ((c-1)/c)^(c-1)"]
    for c in (Fraction(101, 100), Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(10), Fraction(100)):
        b, val = claim_max(c, 500)
        lines.append(f"  c={str(c):>8}: prefactor={tight_prefactor(c):.6f}  scan argmax b={b} value={val:.6f}")
    lines.append(f"  limit as c grows: 1/e = {1 / math.e:.6f}")
    return "\n".join(lines) + "\n"


def moment_tables() -> str:
    about = (
        "The exact log-space first-moment formulas, no sampling: the sign of"
        " log E(Y) on either side of the first-moment threshold as n grows, the"
        " shrinking relative gap between exact and Stirling log E(Y), and the"
        " color-ratio prefactor ((c-1)/c)^(c-1) beside an exhaustive scan over"
        " b = 1..500."
    )
    block = "\n".join((_dichotomy_table(), _stirling_table(), _prefactor_table()))
    return _section("First-moment tables", about, block)


SECTIONS = (loose_sweep, tight_sweep, coupling, moment_tables)


def render() -> str:
    """The text of RESULTS.md."""
    return HEADER + "".join(section() for section in SECTIONS)


def main() -> None:
    RESULTS.write_text(render(), encoding="utf-8")


if __name__ == "__main__":
    main()
