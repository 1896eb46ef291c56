"""The benchmark's four workloads and the stored verdicts they are checked by.

Every workload is a closed loop in one process over a fixed pool of rounds.
A round is one unit a user of the lab would run: one `rainbowhc` CLI call
(three workloads) or one batch of criterion 2's oracle loop.  The pool is
derived from a fixed base seed (the acceptance gate's seed where one exists),
so every round has a verdict recorded in `reference.json`; the run's own
`--seed` only fixes the order in which the rounds of a pass are visited.
Why each workload is here is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# criterion 2: E[Y] for (n, k, ell, p, r) = (6, 3, 1, 1/2, 3) is exactly 20
ORACLE_EXPECTED_Y = 20


def load_program(root: Path) -> SimpleNamespace:
    """Import rainbowhc from `root/src` and nowhere else.

    Raises RuntimeError when the checkout has no source tree, so the
    benchmark cannot silently measure an installed copy.
    """
    src = (root / "src").resolve()
    if not (src / "rainbowhc" / "__init__.py").is_file():
        raise RuntimeError(f"no rainbowhc source tree under {src}")
    sys.path.insert(0, str(src))
    modules = {
        name: importlib.import_module(f"rainbowhc.{name}")
        for name in ("cli", "core", "lab", "models", "seeds", "solver")
    }
    package = sys.modules["rainbowhc"]
    if Path(package.__file__).resolve().parent != src / "rainbowhc":
        raise RuntimeError(f"rainbowhc was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**modules)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Round:
    """What one round produced: a verdict summary and its instance counts."""

    summary: object
    instances: int
    unknown: int = 0
    failed: int = 0


def call_cli(program: SimpleNamespace, argv: Sequence[str]) -> tuple[int, str]:
    """Run `rainbowhc.cli.main` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = program.cli.main(list(argv))
    return code, out.getvalue()


def sweep_counts(text: str) -> list[list[int]]:
    """[found, not_found, unknown] per grid point of a sweep CSV."""
    rows = csv.DictReader(io.StringIO(text))
    return [[int(row["found"]), int(row["not_found"]), int(row["unknown"])] for row in rows]


class Workload:
    name: str
    rounds: int               # rounds per pass
    instances_per_round: int
    root_span: Optional[str] = None  # span opened around each round, if any

    def warm_up(self, program: SimpleNamespace) -> None:
        raise NotImplementedError

    def run_round(self, program: SimpleNamespace, index: int) -> Round:
        raise NotImplementedError

    def record_round(self, program: SimpleNamespace, index: int) -> tuple[object, Round]:
        """Run round `index` once; return its reference entry and result."""
        raise NotImplementedError

    def check(self, summary, expected) -> Optional[str]:
        """Why a round's summary contradicts its reference, or None."""
        raise NotImplementedError

    def check_pass(self, summaries: list) -> Optional[str]:
        """Why a whole pass is wrong, beyond its rounds, or None."""
        return None


class CliWorkload(Workload):
    """Rounds are CLI calls `command --trials T --seed base_seed + i`."""

    def __init__(self, name, command, trials, base_seed, rounds, points, warmup):
        self.name = name
        self.command = tuple(command)
        self.trials = trials
        self.base_seed = base_seed
        self.rounds = rounds
        self.warmup_argv = tuple(warmup)
        self.instances_per_round = points * trials

    def argv(self, index: int, command: Optional[Sequence[str]] = None) -> list[str]:
        return [*(command or self.command), "--trials", str(self.trials),
                "--seed", str(self.base_seed + index)]

    def warm_up(self, program: SimpleNamespace) -> None:
        code, _ = call_cli(program, self.warmup_argv)
        if code != 0:
            raise RuntimeError(f"{self.name}: warm-up call exited {code}")

    def run_round(self, program: SimpleNamespace, index: int) -> Round:
        code, out = call_cli(program, self.argv(index))
        if code != 0:
            return Round(None, self.instances_per_round, failed=self.instances_per_round)
        return self.parse(out)

    def parse(self, out: str) -> Round:
        raise NotImplementedError


class SweepWorkload(CliWorkload):
    """Found and not_found per grid point must equal the reference."""

    def parse(self, out: str) -> Round:
        counts = sweep_counts(out)
        return Round(counts, self.instances_per_round, unknown=sum(c[2] for c in counts))

    def record_round(self, program, index):
        result = self.run_round(program, index)
        return [c[:2] for c in result.summary], result

    def check(self, summary, expected) -> Optional[str]:
        if [c[:2] for c in summary] != expected or any(c[2] for c in summary):
            return f"found/not_found/unknown {summary} != reference {expected}"
        return None


class BudgetedSweep(SweepWorkload):
    """Budgeted rounds may censor but never contradict the verdicts of the
    same round in exhaustive mode, which is what the reference holds."""

    def __init__(self, *args, exhaustive_command, **kwargs):
        super().__init__(*args, **kwargs)
        self.exhaustive_command = tuple(exhaustive_command)

    def record_round(self, program, index):
        result = self.run_round(program, index)
        code, out = call_cli(program, self.argv(index, self.exhaustive_command))
        if code != 0:
            raise RuntimeError(f"{self.name} round {index}: exhaustive run exited {code}")
        return [c[:2] for c in sweep_counts(out)], result

    def check(self, summary, expected) -> Optional[str]:
        if len(summary) != len(expected):
            return f"{len(summary)} grid points, reference has {len(expected)}"
        for (found, not_found, unknown), (ref_found, ref_not_found) in zip(summary, expected):
            if (found > ref_found or not_found > ref_not_found
                    or found + not_found + unknown != self.trials):
                return f"counts {summary} contradict exhaustive reference {expected}"
        return None


class CoupleWorkload(CliWorkload):
    """Both found counts of a `couple` call must equal the reference."""

    def parse(self, out: str) -> Round:
        record = json.loads(out)
        return Round([record["found_undirected"], record["found_directed"]],
                     self.instances_per_round)

    def record_round(self, program, index):
        result = self.run_round(program, index)
        return result.summary, result

    def check(self, summary, expected) -> Optional[str]:
        if summary != expected:
            return f"found_undirected/found_directed {summary} != reference {expected}"
        return None


class OracleWorkload(Workload):
    """Criterion 2's loop: sample_colored(6,3,1/2,3,derive_seed(2001,t)) and
    count_hamperms, batch i covering t in [i*batch, (i+1)*batch)."""

    name = "oracle_moment6"
    root_span = "lab.oracle_loop"  # the loop stands in for the lab layer here
    base_seed = 2001

    def __init__(self, batch, rounds):
        self.batch = batch
        self.rounds = rounds
        self.instances_per_round = batch

    def _count(self, program: SimpleNamespace, ts: range) -> tuple[int, int]:
        sample = program.models.sample_colored
        count = program.solver.count_hamperms
        derive = program.seeds.derive_seed
        spec = program.core.CycleSpec(6, 3, 1)
        total = squares = 0
        for t in ts:
            y = count(sample(6, 3, 0.5, 3, derive(self.base_seed, t)), spec)[1]
            total += y
            squares += y * y
        return total, squares

    def warm_up(self, program: SimpleNamespace) -> None:
        self._count(program, range(1))

    def run_round(self, program: SimpleNamespace, index: int) -> Round:
        ts = range(index * self.batch, (index + 1) * self.batch)
        return Round(list(self._count(program, ts)), self.batch)

    def record_round(self, program, index):
        result = self.run_round(program, index)
        return result.summary[0], result

    def check(self, summary, expected) -> Optional[str]:
        if summary[0] != expected:
            return f"Y total {summary[0]} != reference {expected}"
        return None

    def check_pass(self, summaries: list) -> Optional[str]:
        """Mean Y over the pass lies within 3 SE of the exact E[Y] = 20."""
        count = self.batch * len(summaries)
        total = sum(s[0] for s in summaries)
        squares = sum(s[1] for s in summaries)
        mean = total / count
        se = math.sqrt((squares - count * mean * mean) / (count - 1) / count)
        if abs(mean - ORACLE_EXPECTED_Y) > 3 * se:
            return f"mean Y {mean:.4f} is more than 3 SE ({se:.4f}) from {ORACLE_EXPECTED_Y}"
        return None


_SWEEP = ("sweep", "--n", "12", "--k", "3", "--ell", "1", "--r", "6")
_CSWEEP = ("csweep", "--n", "10", "--k", "4", "--ell", "3", "--c", "1")
_COUPLE = ("couple", "--n", "8", "--k", "3", "--p", "0.05")

WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep_loose12",
            command=(*_SWEEP, "--p-grid", "0.02:0.35:9"),
            trials=1, base_seed=1, rounds=6, points=9,
            warmup=(*_SWEEP, "--p-grid", "0.185:0.185:1", "--trials", "1", "--seed", "0"),
        ),
        BudgetedSweep(
            "csweep_tight10",
            command=(*_CSWEEP, "--p-grid", "0.37:1.0:8", "--mode", "budgeted",
                     "--budget", "50000"),
            exhaustive_command=(*_CSWEEP, "--p-grid", "0.37:1.0:8"),
            trials=1, base_seed=2, rounds=5, points=8,
            warmup=(*_CSWEEP, "--p-grid", "0.64:0.64:1", "--mode", "budgeted",
                    "--budget", "50000", "--trials", "1", "--seed", "0"),
        ),
        CoupleWorkload(
            "couple_directed8",
            command=_COUPLE,
            trials=100, base_seed=1010, rounds=8, points=2,
            warmup=(*_COUPLE, "--trials", "1", "--seed", "0"),
        ),
        OracleWorkload(batch=2000, rounds=8),
    )
}

# the traced run of this workload also times this sweep at workers=1 and 2
POOL_WORKLOAD = "sweep_loose12"
POOL_ARGV = (*_SWEEP, "--p-grid", "0.02:0.35:9", "--trials", "4", "--seed", "1")
SMOKE_POOL_ARGV = (*_SWEEP, "--p-grid", "0.02:0.35:9", "--trials", "1", "--seed", "1")
