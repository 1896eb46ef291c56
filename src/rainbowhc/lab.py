"""Monte Carlo threshold-sweep harness.

A sweep runs `trials` independent instances at every point of a p-grid and
tabulates solver outcomes.  Per-trial seeds come from the fixed avalanche mix
of (master seed, point index, trial index), and per-point aggregation is a
commutative sum of counts, so output is byte-identical for any worker count
and any scheduling order.

Budget hits are censoring, not failure: unknown outcomes leave the success
estimate's denominator and are reported in their own column.  Confidence
intervals are Wilson score intervals, which stay honest at proportions near
0 and 1 — exactly where threshold sweeps live.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

from .core import CycleSpec, check_colors, check_probability
from .errors import InvalidInput, TooLarge
from .models import CoupledInstance, q_from_p, sample_colored, sample_directed
from .seeds import derive_seed
from .solver import SearchStatus, check_budget, find_rainbow_cycle

SWEEP_CSV_COLUMNS = (
    "n", "k", "ell", "r", "p", "trials", "found", "not_found",
    "unknown", "phat", "ci_lo", "ci_hi", "mean_nodes",
)

WILSON_Z = 1.96
# grid points x trials an experiment may hold: a sweep's task and result
# lists took ~190 bytes per (point, trial), so the cap keeps them near 100 MB
TASK_CAP = 500_000


def make_grid(start: float, stop: float, points: int, spacing: str = "linear") -> tuple[float, ...]:
    """Strictly increasing probability grid, linear or geometric; TooLarge
    beyond TASK_CAP points, before any is made."""
    _check_runs(points, 1, 1)
    if spacing not in ("linear", "geometric"):
        raise InvalidInput(f"unknown spacing {spacing!r}")
    if points == 1:
        return (float(start),)
    if not start < stop:
        raise InvalidInput(f"need start < stop, got {start} >= {stop}")
    if spacing == "linear":
        step = (stop - start) / (points - 1)
        return tuple(start + i * step for i in range(points))
    if start <= 0:
        raise InvalidInput("geometric spacing needs start > 0")
    ratio = (stop / start) ** (1.0 / (points - 1))
    return tuple(start * ratio**i for i in range(points))


def _check_runs(points: int, trials: int, workers: int) -> None:
    """InvalidInput unless there is at least one grid point, trial and
    worker; TooLarge when points x trials exceeds TASK_CAP."""
    for name, value in (("grid points", points), ("trials", trials), ("workers", workers)):
        if value < 1:
            raise InvalidInput(f"need {name} >= 1, got {value}")
    if points * trials > TASK_CAP:
        raise TooLarge(
            f"need grid points x trials <= {TASK_CAP:,}, got {points} x {trials}"
        )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (z = WILSON_Z) for a proportion; (0, 1) when empty."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z = WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # clamp against roundoff so the interval always contains phat
    lo = min(max(0.0, center - half), phat)
    hi = max(min(1.0, center + half), phat)
    return lo, hi


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: cycle geometry, color count, p-grid, search budget, workers.

    r is the color count itself, one a slot holds (core.check_colors); a
    color density c resolves to it through moments.colors_at_density.
    budget=None searches exhaustively; a positive budget caps each search
    at that many nodes (see find_rainbow_cycle).  Grid points times trials
    is at most TASK_CAP.  Every rule is checked here, when the config is
    built, by the function that owns it.
    """

    n: int
    k: int
    ell: int
    p_grid: tuple[float, ...]
    trials: int
    seed: int
    r: int
    budget: Optional[int] = None
    workers: int = 1

    def __post_init__(self) -> None:
        self.spec  # validates (n, k, ell)
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        _check_runs(len(self.p_grid), self.trials, self.workers)
        for p in self.p_grid:
            check_probability(p)
        if any(b <= a for a, b in zip(self.p_grid, self.p_grid[1:])):
            raise InvalidInput("p grid must be strictly increasing")
        check_colors(self.r)
        check_budget(self.budget)

    @cached_property  # writes the instance __dict__, which frozen allows
    def spec(self) -> CycleSpec:
        return CycleSpec(self.n, self.k, self.ell)


@dataclass(frozen=True)
class SweepResult:
    """One grid point: outcome counts, success estimate, Wilson CI."""

    p: float
    trials: int
    found: int
    not_found: int
    unknown: int
    phat: float
    ci_lo: float
    ci_hi: float
    mean_nodes: float


def _aggregate(
    config: SweepConfig, per_point: Sequence[Sequence[tuple[str, int]]]
) -> list[SweepResult]:
    rows = []
    for p, outcomes in zip(config.p_grid, per_point):
        found = sum(1 for s, _ in outcomes if s == SearchStatus.FOUND.value)
        unknown = sum(1 for s, _ in outcomes if s == SearchStatus.UNKNOWN.value)
        not_found = len(outcomes) - found - unknown
        nodes_total = sum(nodes for _, nodes in outcomes)
        effective = config.trials - unknown
        phat = found / effective if effective else 0.0
        lo, hi = wilson_interval(found, effective)
        rows.append(
            SweepResult(
                p=p,
                trials=config.trials,
                found=found,
                not_found=not_found,
                unknown=unknown,
                phat=phat,
                ci_lo=lo,
                ci_hi=hi,
                mean_nodes=nodes_total / config.trials,
            )
        )
    return rows


def _run_tasks(fn: Callable, tasks: Sequence, workers: int) -> list:
    """fn over tasks, results in task order; a process pool when more than
    one worker has a task and a CPU (under fork the pool starts every worker
    up front, busy or not)."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(task) for task in tasks]
    # imported here: the pool brings in multiprocessing, which a one-worker
    # run, and every import of the package, can do without
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _sweep_task(config: SweepConfig, task: tuple[int, int]) -> tuple[str, int]:
    point, trial = task
    seed = derive_seed(config.seed, point, trial)
    H = sample_colored(config.n, config.k, config.p_grid[point], config.r, seed)
    outcome = find_rainbow_cycle(H, config.spec, config.budget)
    return outcome.status.value, outcome.nodes_expanded


def run_sweep(config: SweepConfig) -> list[SweepResult]:
    """Independent instances at every grid point; deterministic in config."""
    points, trials = len(config.p_grid), config.trials
    tasks = [(i, t) for i in range(points) for t in range(trials)]
    results = _run_tasks(partial(_sweep_task, config), tasks, config.workers)
    # point-major task order: point i's outcomes are one slice
    return _aggregate(config, [results[i * trials:(i + 1) * trials] for i in range(points)])


def _coupled_task(config: SweepConfig, trial: int) -> list[tuple[str, int]]:
    """One trial's outcomes at every grid point, searching as few as needed.

    The instances realize(p) at increasing p are nested with identical
    colors, so a rainbow cycle found at one point exists at every higher
    point, and a proof of absence at one point holds at every lower point.
    The grid is resolved by bisection: search the middle point still open;
    FOUND there settles every open point above it, and every open point
    below it whose p exceeds the largest u_e of the certificate's edges,
    where the same cycle is present; NOT_FOUND settles every open point
    below it, UNKNOWN (budget hit) only itself.  A settled point is neither
    realized nor searched and records 0 nodes.
    """
    ci = CoupledInstance(config.n, config.k, config.r, derive_seed(config.seed, trial))
    out: list[Optional[tuple[str, int]]] = [None] * len(config.p_grid)
    open_points = list(range(len(config.p_grid)))
    while open_points:
        j = len(open_points) // 2
        point = open_points[j]
        outcome = find_rainbow_cycle(ci.realize(config.p_grid[point]), config.spec, config.budget)
        out[point] = (outcome.status.value, outcome.nodes_expanded)
        if outcome.status is SearchStatus.FOUND:
            # the certificate's edges are present wherever p exceeds level,
            # the searched point included
            level = ci.level_of(outcome.certificate.edges)
            for other in open_points:
                if other != point and config.p_grid[other] > level:
                    out[other] = (SearchStatus.FOUND.value, 0)
            open_points = [i for i in open_points if config.p_grid[i] <= level]
        elif outcome.status is SearchStatus.NOT_FOUND:
            for below in open_points[:j]:
                out[below] = (SearchStatus.NOT_FOUND.value, 0)
            open_points = open_points[j + 1:]
        else:
            del open_points[j]
    return out


def coupled_outcome_matrix(config: SweepConfig) -> list[list[tuple[str, int]]]:
    """(trial, point) matrix of (status, nodes expanded) on coupled instances.

    Within a trial the instances at increasing p are nested with identical
    colors, so the found column is monotone in p exactly, trial by trial.
    Each trial bisects its grid (see `_coupled_task`): a point settled by a
    search at another point has the status that search implies and 0 nodes.
    Exhaustive statuses equal per-point searches; budgeted ones equal them
    at every searched point, and a settled point can only hold a true
    verdict where a per-point search might have stopped at the budget.
    """
    return _run_tasks(partial(_coupled_task, config), range(config.trials), config.workers)


def run_coupled_sweep(config: SweepConfig) -> list[SweepResult]:
    """Sweep on per-trial coupled instances shared across all grid points.

    Verdict counts are those of independent per-point searches on the
    coupled instances (exhaustive mode); mean_nodes is the mean effort the
    bisection actually spent, settled points counting 0.
    """
    return _aggregate(config, list(zip(*coupled_outcome_matrix(config))))


@dataclass(frozen=True)
class CoupleOutcome:
    """Directed-vs-undirected comparison at matched densities q - 2q^2 = p."""

    n: int
    k: int
    r: int
    p: float
    q: float
    trials: int
    found_undirected: int
    found_directed: int
    phat_undirected: float
    phat_directed: float
    pooled_se: float
    holds: bool

    def to_record(self) -> dict:
        return asdict(self)


def _couple_task(
    spec: CycleSpec, r: int, p: float, q: float, seed: int, trial: int
) -> tuple[bool, bool]:
    """One trial: (found in the undirected model, found in the directed model)."""
    n, k = spec.n, spec.k
    H_u = sample_colored(n, k, p, r, derive_seed(seed, 0, trial))
    found_u = find_rainbow_cycle(H_u, spec).found
    H_d = sample_directed(n, k, q, r, derive_seed(seed, 1, trial))
    return found_u, find_rainbow_cycle(H_d, spec).found


def couple_experiment(
    n: int, k: int, p: float, trials: int, seed: int, workers: int = 1
) -> CoupleOutcome:
    """Estimate rainbow loose-cycle probabilities in both models.

    The undirected model runs at p, the directed model at the matched
    q = q_from_p(p) with multi-color solving; the directed probability should
    dominate, and `holds` reports whether phat_directed >= phat_undirected
    minus two pooled standard errors.  Needs a loose CycleSpec(n, k, 1),
    whose m = n/(k-1) is r, p <= 1/8, exhaustive-feasible n and at most
    TASK_CAP trials.  Trials run as one task each (see _run_tasks for
    the pool) and are summed in trial order, so the
    outcome does not depend on the worker count.
    """
    spec = CycleSpec(n, k, 1)
    r = spec.m
    _check_runs(1, trials, workers)
    q = q_from_p(p)
    found = _run_tasks(partial(_couple_task, spec, r, p, q, seed), range(trials), workers)
    found_u = sum(u for u, _ in found)
    found_d = sum(d for _, d in found)
    phat_u = found_u / trials
    phat_d = found_d / trials
    se = math.sqrt(
        phat_u * (1 - phat_u) / trials + phat_d * (1 - phat_d) / trials
    )
    return CoupleOutcome(
        n=n, k=k, r=r, p=p, q=q, trials=trials,
        found_undirected=found_u, found_directed=found_d,
        phat_undirected=phat_u, phat_directed=phat_d,
        pooled_se=se, holds=phat_d >= phat_u - 2 * se,
    )


def estimate_crossing(rows: Sequence[SweepResult]) -> Optional[float]:
    """Linear interpolation of the p where phat crosses 1/2.

    Rows must be sorted by p.  Returns None when phat never crosses (the
    no-bracket case).
    """
    points = [(row.p, row.phat) for row in rows]
    if any(b <= a for (a, _), (b, _) in zip(points, points[1:])):
        raise InvalidInput("rows must be sorted by strictly increasing p")
    for (p0, y0), (p1, y1) in zip(points, points[1:]):
        if y0 == 0.5:
            return p0
        if (y0 - 0.5) * (y1 - 0.5) < 0:
            return p0 + (0.5 - y0) * (p1 - p0) / (y1 - y0)
    if points and points[-1][1] == 0.5:
        return points[-1][0]
    return None


def _sweep_table(config: SweepConfig, rows: Sequence[SweepResult]) -> list[list]:
    """Each row's values in SWEEP_CSV_COLUMNS order: the config's geometry
    and color count, then the SweepResult field of the same name."""
    head = {"n": config.n, "k": config.k, "ell": config.ell, "r": config.r}
    return [
        [head[col] if col in head else getattr(row, col) for col in SWEEP_CSV_COLUMNS]
        for row in rows
    ]


def sweep_csv_text(config: SweepConfig, rows: Sequence[SweepResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(_sweep_table(config, rows))
    return buf.getvalue()


def sweep_records(config: SweepConfig, rows: Sequence[SweepResult]) -> list[dict]:
    """JSON-ready sweep rows, keyed by the CSV columns."""
    return [dict(zip(SWEEP_CSV_COLUMNS, values)) for values in _sweep_table(config, rows)]
