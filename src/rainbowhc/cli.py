"""Command-line front end.

Subcommands: gen, check, solve, count, overlap, moments, sweep, csweep,
reduce, couple.  Exit codes: 0 success, 1 invalid input, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import __version__
from .chgio import read_chg, write_chg
from .core import CycleSpec, CycleFailure, Hamperm, validate_cycle
from .errors import RainbowError, InvalidInput
from .lab import (
    SweepConfig,
    couple_experiment,
    make_grid,
    resolve_r,
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
    exact_expected_Y,
    log_expected_Y,
    threshold_general,
    threshold_tight,
)
from .solver import ENUMERATION_LIMIT, count_hamperms, find_rainbow_cycle, overlap_profile


_LIMIT_HELP = f"largest n to enumerate; it can only lower the cap n <= {ENUMERATION_LIMIT}"


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


def _parse_perm(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise InvalidInput(f"cannot parse permutation {text!r}") from exc


def _add_geometry(sub, ell_required: bool = True) -> None:
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--ell", type=int, required=ell_required, default=None)


def _add_colors(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, default=None, help="explicit color count")
    group.add_argument("--c", type=Fraction, default=None, help="color density; r = floor(c*n)")


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    r = resolve_r(args.n, args.r, args.c)
    if args.model == "plain":
        if args.p is None:
            raise InvalidInput("plain model needs --p")
        H = sample_colored(args.n, args.k, args.p, r, args.seed)
        meta = [
            "generator=sample_colored",
            f"n={args.n} k={args.k} p={args.p} r={r}",
            f"seed={args.seed}",
        ]
    elif args.model == "coupled":
        if args.p is None:
            raise InvalidInput("coupled model needs --p")
        H = CoupledInstance(args.n, args.k, r, args.seed).realize(args.p)
        meta = [
            "generator=coupled_realize",
            f"n={args.n} k={args.k} p={args.p} r={r}",
            f"seed={args.seed}",
        ]
    else:
        if args.q is None:
            raise InvalidInput("directed model needs --q")
        H = sample_directed(args.n, args.k, args.q, r, args.seed)
        meta = [
            "generator=sample_directed",
            f"n={args.n} k={args.k} q={args.q} r={r}",
            f"seed={args.seed}",
        ]
    if args.out:
        write_chg(H, args.out, meta)
    else:
        from .chgio import dumps_chg

        sys.stdout.write(dumps_chg(H, meta))
    return 0


def _cmd_check(args) -> int:
    H = read_chg(args.infile)
    spec = CycleSpec(H.n, H.k, args.ell)
    pi = Hamperm(_parse_perm(args.perm), spec)
    result = validate_cycle(H, pi)
    if isinstance(result, CycleFailure):
        record = {"valid": False, "reason": result.kind, "edge_index": result.edge_index}
    else:
        record = {
            "valid": True,
            "edges": [list(e) for e in result.edges],
            "colors": list(result.colors),
        }
    _write_out(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _header_comments(path: str) -> list[str]:
    comments = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                comments.append(line.lstrip("# "))
            elif line:
                break
    return comments


def _cmd_solve(args) -> int:
    H = read_chg(args.infile)
    spec = CycleSpec(H.n, H.k, args.ell)
    outcome = find_rainbow_cycle(H, spec, mode=args.mode, budget=args.budget)
    record = outcome.to_record(
        budget=args.budget,
        provenance={"source": args.infile, "header": _header_comments(args.infile)},
    )
    _write_out(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _cmd_count(args) -> int:
    H = read_chg(args.infile)
    spec = CycleSpec(H.n, H.k, args.ell)
    x_count, y_count = count_hamperms(H, spec, limit=args.limit)
    record = {"n": H.n, "k": H.k, "ell": args.ell, "X_count": x_count, "Y_count": y_count}
    _write_out(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _cmd_overlap(args) -> int:
    spec = CycleSpec(args.n, args.k, args.ell)
    profile = overlap_profile(spec, limit=args.limit)
    entries = sorted(profile.table.items())
    if args.format == "json":
        record = {
            "n": args.n, "k": args.k, "ell": args.ell,
            "table": [{"b": b, "a": a, "count": c} for (b, a), c in entries],
            "total": profile.total(),
        }
        _write_out(json.dumps(record, indent=2) + "\n", args.out)
    else:
        lines = ["b,a,count"]
        lines += [f"{b},{a},{c}" for (b, a), c in entries]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_moments(args) -> int:
    params = MomentParams(args.n, args.k, args.ell, args.p, resolve_r(args.n, args.r, args.c))
    c = params.c
    inv = Fraction(1, args.k - args.ell)
    record: dict = {
        "n": args.n, "k": args.k, "ell": args.ell, "m": params.m,
        "p": args.p, "r": params.r, "c": str(c),
        "log_expected_Y": log_expected_Y(params),
    }
    if args.n <= 40:
        record["exact_expected_Y"] = str(exact_expected_Y(params))
    if c >= inv and args.p > 0:
        record["log_asymptotic_expected_Y"] = asymptotic_expected_Y(params)
    if args.ell >= 2:
        record["threshold_general"] = threshold_general(args.k, args.ell, c, args.n)
    if args.k >= 4 and c >= 1:
        record["threshold_tight"] = threshold_tight(args.k, c, args.n)
    if args.k >= 4:
        record["K_constant"] = K_constant(args.k)
    if c > 1:
        b_star, value = claim_max(c, args.n)
        record["claim_max"] = {"b": b_star, "value": value}
    if args.format == "json":
        _write_out(json.dumps(record, indent=2) + "\n", args.out)
    else:
        width = max(len(key) for key in record)
        lines = [f"{key.ljust(width)}  {value}" for key, value in record.items()]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        n=args.n,
        k=args.k,
        ell=args.ell,
        p_grid=_parse_grid(args.p_grid),
        trials=args.trials,
        seed=args.seed,
        r=args.r,
        c=Fraction(args.c) if args.c is not None else None,
        solver_mode=args.mode,
        budget=args.budget,
        workers=args.workers,
    )


def _emit_sweep(config: SweepConfig, rows, args) -> None:
    if args.format == "json":
        _write_out(json.dumps(sweep_records(config, rows), indent=2) + "\n", args.out)
    else:
        _write_out(sweep_csv_text(config, rows), args.out)


def _cmd_sweep(args) -> int:
    config = _sweep_config(args)
    _emit_sweep(config, run_sweep(config), args)
    return 0


def _cmd_csweep(args) -> int:
    config = _sweep_config(args)
    _emit_sweep(config, run_coupled_sweep(config), args)
    return 0


def _cmd_reduce(args) -> int:
    H = read_chg(args.infile)
    G = build_gamma(H)
    meta = [
        "generator=build_gamma",
        f"base_n={G.base_n} base_k={G.base_k} m={G.m}",
        f"source={args.infile}",
    ]
    if args.out:
        write_chg(G.to_hypergraph(), args.out, meta)
    else:
        from .chgio import dumps_chg

        sys.stdout.write(dumps_chg(G.to_hypergraph(), meta))
    return 0


def _cmd_couple(args) -> int:
    outcome = couple_experiment(
        args.n, args.k, args.p, args.trials, args.seed, workers=args.workers
    )
    _write_out(json.dumps(outcome.to_record(), indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rainbowhc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", parents=[], help="sample a model into .chg")
    _add_geometry(gen, ell_required=False)
    _add_colors(gen)
    gen.add_argument("--model", choices=("plain", "coupled", "directed"), default="plain")
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--q", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)

    check = subs.add_parser("check", help="validate a permutation against a .chg")
    check.add_argument("--infile", required=True)
    check.add_argument("--ell", type=int, required=True)
    check.add_argument("--perm", required=True, help="comma or space separated vertices")
    check.add_argument("--out", default=None)

    solve = subs.add_parser("solve", help="search one instance for a rainbow cycle")
    solve.add_argument("--infile", required=True)
    solve.add_argument("--ell", type=int, required=True)
    solve.add_argument("--mode", choices=("exhaustive", "budgeted"), default="exhaustive")
    solve.add_argument("--budget", type=int, default=None)
    solve.add_argument("--out", default=None)

    count = subs.add_parser("count", help="brute-force hamperm counts X and Y")
    count.add_argument("--infile", required=True)
    count.add_argument("--ell", type=int, required=True)
    count.add_argument("--limit", type=int, default=ENUMERATION_LIMIT, help=_LIMIT_HELP)
    count.add_argument("--out", default=None)

    overlap = subs.add_parser("overlap", help="overlap table N(b, a)")
    _add_geometry(overlap)
    overlap.add_argument("--limit", type=int, default=ENUMERATION_LIMIT, help=_LIMIT_HELP)
    overlap.add_argument("--format", choices=("csv", "json"), default="csv")
    overlap.add_argument("--out", default=None)

    moments = subs.add_parser("moments", help="moment and threshold table")
    _add_geometry(moments)
    _add_colors(moments)
    moments.add_argument("--p", type=float, required=True)
    moments.add_argument("--format", choices=("text", "json"), default="text")
    moments.add_argument("--out", default=None)

    for name in ("sweep", "csweep"):
        sweep = subs.add_parser(name, help=f"{name}: Monte Carlo threshold sweep")
        _add_geometry(sweep)
        _add_colors(sweep)
        sweep.add_argument("--p-grid", required=True, help="start:stop:points[:spacing]")
        sweep.add_argument("--trials", type=int, required=True)
        sweep.add_argument("--seed", type=int, default=0)
        sweep.add_argument("--mode", choices=("exhaustive", "budgeted"), default="exhaustive")
        sweep.add_argument("--budget", type=int, default=None)
        sweep.add_argument("--workers", type=int, default=1)
        sweep.add_argument("--format", choices=("csv", "json"), default="csv")
        sweep.add_argument("--out", default=None)

    reduce_ = subs.add_parser("reduce", help="base .chg to color-vertex reduced .chg")
    reduce_.add_argument("--infile", required=True)
    reduce_.add_argument("--out", default=None)

    couple = subs.add_parser("couple", help="directed-vs-undirected coupling experiment")
    couple.add_argument("--n", type=int, required=True)
    couple.add_argument("--k", type=int, required=True)
    couple.add_argument("--p", type=float, required=True)
    couple.add_argument("--trials", type=int, required=True)
    couple.add_argument("--seed", type=int, default=0)
    couple.add_argument("--workers", type=int, default=1)
    couple.add_argument("--out", default=None)

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
        return globals()[f"_cmd_{args.command}"](args)
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
