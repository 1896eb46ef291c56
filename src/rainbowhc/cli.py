"""Command-line front end.

Subcommands: gen, check, solve, count, overlap, moments, sweep, csweep,
reduce, couple.  Exit codes: 0 success, 1 invalid input, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext, suppress
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import __version__
from .chgio import leading_comments, read_chg, write_chg
from .core import CycleSpec, CycleFailure, Hamperm, validate_cycle
from .errors import RainbowError, InvalidInput
from .lab import (
    SweepConfig,
    couple_experiment,
    make_grid,
    run_coupled_sweep,
    run_sweep,
    sweep_csv_text,
    sweep_records,
)
from .models import CoupledInstance, build_gamma, sample_colored, sample_directed
from .moments import (
    K_constant,
    MomentParams,
    asymptotic_expected_Y,
    claim_max,
    colors_at_density,
    exact_expected_Y,
    log_expected_Y,
    threshold_general,
    threshold_tight,
)
from .solver import count_hamperms, find_rainbow_cycle, overlap_profile


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; bad input is exit code 1 here
    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise InvalidInput("--p-grid wants start:stop:points[:spacing]")
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError as exc:
        raise InvalidInput(f"cannot parse --p-grid {text!r}") from exc
    spacing = parts[3] if len(parts) == 4 else "linear"
    return make_grid(start, stop, points, spacing)


def _budget(args) -> Optional[int]:
    """The node budget that --mode and --budget ask for; None is exhaustive.
    Only the flags' pairing is checked here; solver.check_budget refuses a
    non-positive budget."""
    if args.mode == "exhaustive" and args.budget is not None:
        # an exhaustive search would ignore it
        raise InvalidInput("a budget needs budgeted mode")
    if args.mode == "budgeted" and args.budget is None:
        raise InvalidInput("budgeted mode needs --budget")
    return args.budget


def _colors(args) -> int:
    """The color count that --r or --c asks for."""
    return args.r if args.r is not None else colors_at_density(args.n, args.c)


# Each _cmd_<command> returns its output, which main writes: a str as it
# is, a (hypergraph, header comments) pair as .chg, anything else as JSON.

def _cmd_gen(args):
    r = _colors(args)
    density = "q" if args.model == "directed" else "p"
    value = getattr(args, density)
    if value is None:
        raise InvalidInput(f"{args.model} model needs --{density}")
    if args.model == "plain":
        generator = "sample_colored"
        H = sample_colored(args.n, args.k, value, r, args.seed)
    elif args.model == "coupled":
        generator = "coupled_realize"
        H = CoupledInstance(args.n, args.k, r, args.seed).realize(value)
    else:
        generator = "sample_directed"
        H = sample_directed(args.n, args.k, value, r, args.seed)
    meta = [
        f"generator={generator}",
        f"n={args.n} k={args.k} {density}={value} r={r}",
        f"seed={args.seed}",
    ]
    return H, meta


def _cmd_check(args):
    H = read_chg(args.infile)
    spec = CycleSpec(H.n, H.k, args.ell)
    try:
        perm = tuple(int(tok) for tok in args.perm.replace(",", " ").split())
    except ValueError as exc:
        raise InvalidInput(f"cannot parse permutation {args.perm!r}") from exc
    result = validate_cycle(H, Hamperm(perm, spec))
    if isinstance(result, CycleFailure):
        return {"valid": False, "reason": result.kind, "edge_index": result.edge_index}
    return {
        "valid": True,
        "edges": [list(e) for e in result.edges],
        "colors": list(result.colors),
    }


def _cmd_solve(args):
    H = read_chg(args.infile)
    spec = CycleSpec(H.n, H.k, args.ell)
    budget = _budget(args)
    return find_rainbow_cycle(H, spec, budget).to_record(
        budget=budget,
        provenance={"source": args.infile, "header": leading_comments(args.infile)},
    )


def _cmd_count(args):
    H = read_chg(args.infile)
    x_count, y_count = count_hamperms(H, CycleSpec(H.n, H.k, args.ell))
    return {"n": H.n, "k": H.k, "ell": args.ell, "X_count": x_count, "Y_count": y_count}


def _cmd_overlap(args):
    profile = overlap_profile(CycleSpec(args.n, args.k, args.ell))
    entries = sorted(profile.table.items())
    if args.format == "json":
        return {
            "n": args.n, "k": args.k, "ell": args.ell,
            "table": [{"b": b, "a": a, "count": c} for (b, a), c in entries],
            "total": profile.total(),
        }
    return "b,a,count\n" + "".join(f"{b},{a},{c}\n" for (b, a), c in entries)


def _cmd_moments(args):
    params = MomentParams(args.n, args.k, args.ell, args.p, _colors(args))
    record: dict = {
        "n": args.n, "k": args.k, "ell": args.ell, "m": params.m,
        "p": args.p, "r": params.r, "c": str(params.c),
        "log_expected_Y": log_expected_Y(params),
    }
    if args.n <= 40:
        record["exact_expected_Y"] = str(exact_expected_Y(params))
    # each formula owns its domain: a field is left out where it refuses
    formulas = {
        "log_asymptotic_expected_Y": lambda: asymptotic_expected_Y(params),
        "threshold_general": lambda: threshold_general(args.k, args.ell, params.c, args.n),
        "threshold_tight": lambda: threshold_tight(args.k, params.c, args.n),
        "K_constant": lambda: K_constant(args.k),
    }
    if args.n <= 100_000:  # the scan takes about 6 us per b
        formulas["claim_max"] = lambda: dict(zip(("b", "value"), claim_max(params.c, args.n)))
    for key, formula in formulas.items():
        with suppress(InvalidInput):
            record[key] = formula()
    if args.format == "json":
        # strict JSON has no inf or nan
        return {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in record.items()
        }
    width = max(len(key) for key in record)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in record.items()) + "\n"


def _cmd_sweep(args):
    """sweep (independent instances per point) and csweep (coupled ones)."""
    config = SweepConfig(
        n=args.n, k=args.k, ell=args.ell, p_grid=_parse_grid(args.p_grid),
        trials=args.trials, seed=args.seed, r=_colors(args),
        budget=_budget(args), workers=args.workers,
    )
    rows = (run_sweep if args.command == "sweep" else run_coupled_sweep)(config)
    if args.format == "json":
        return sweep_records(config, rows)
    return sweep_csv_text(config, rows)


_cmd_csweep = _cmd_sweep


def _cmd_reduce(args):
    H = read_chg(args.infile)
    G = build_gamma(H)
    meta = [
        "generator=build_gamma",
        f"base_n={H.n} base_k={H.k} m={G.n - H.n}",
        f"source={args.infile}",
    ]
    return G, meta


def _cmd_couple(args):
    outcome = couple_experiment(args.n, args.k, args.p, args.trials, args.seed, args.workers)
    return outcome.to_record()


def _fraction(text: str) -> Fraction:
    """--c as an exact fraction; a zero denominator is bad input like any
    other unparsable value, not an internal error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _flags(*names: str, parents=(), **options) -> argparse.ArgumentParser:
    """A parent parser: shared flags, each of `names` with `options`."""
    group = argparse.ArgumentParser(add_help=False, parents=list(parents))
    for name in names:
        group.add_argument(name, **options)
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rainbowhc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    out = _flags("--out")
    nk = _flags("--n", "--k", type=int, required=True)
    ell = _flags("--ell", type=int, required=True)
    colors = _flags()
    group = colors.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, help="explicit color count")
    group.add_argument("--c", type=_fraction, help="color density; r = floor(c*n)")
    infile = _flags("--infile", required=True)
    mode = _flags("--mode", choices=("exhaustive", "budgeted"), default="exhaustive")
    effort = _flags("--budget", type=int, parents=[mode])
    seed = _flags("--seed", type=int, default=0)
    trials = _flags("--trials", type=int, required=True)
    runs = _flags("--workers", type=int, default=1, parents=[trials, seed])
    table = _flags("--format", choices=("csv", "json"), default="csv")
    grid = _flags("--p-grid", required=True, help="start:stop:points[:spacing]")
    p = _flags("--p", type=float, required=True)

    gen = subs.add_parser("gen", parents=[nk, colors, seed, out], help="sample a model into .chg")
    gen.add_argument("--model", choices=("plain", "coupled", "directed"), default="plain")
    gen.add_argument("--p", type=float)
    gen.add_argument("--q", type=float)

    check = subs.add_parser(
        "check", parents=[infile, ell, out], help="validate a permutation against a .chg"
    )
    check.add_argument("--perm", required=True, help="comma or space separated vertices")

    subs.add_parser(
        "solve", parents=[infile, ell, effort, out], help="search one instance for a rainbow cycle"
    )
    subs.add_parser("count", parents=[infile, ell, out], help="brute-force hamperm counts X and Y")
    subs.add_parser("overlap", parents=[nk, ell, table, out], help="overlap table N(b, a)")

    moments = subs.add_parser(
        "moments", parents=[nk, ell, colors, p, out], help="moment and threshold table"
    )
    moments.add_argument("--format", choices=("text", "json"), default="text")

    for name in ("sweep", "csweep"):
        subs.add_parser(
            name, parents=[nk, ell, colors, grid, runs, effort, table, out],
            help=f"{name}: Monte Carlo threshold sweep",
        )

    subs.add_parser("reduce", parents=[infile, out], help="base .chg to color-vertex reduced .chg")
    subs.add_parser(
        "couple", parents=[nk, p, runs, out], help="directed-vs-undirected coupling experiment"
    )
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a build takes about 2 ms, a fifth
    of a small in-process sweep, and parsing one command line 0.1 ms."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so the cached parser holds no handler
        result = globals()[f"_cmd_{args.command}"](args)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            if isinstance(result, str):
                fh.write(result)
            elif isinstance(result, tuple):
                write_chg(result[0], fh, result[1])
            else:
                fh.write(json.dumps(result, indent=2, allow_nan=False) + "\n")
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RainbowError, OSError) as exc:
        print(f"rainbowhc: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"rainbowhc: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
