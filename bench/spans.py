"""In-memory spans around the public calls into each layer of rainbowhc.

Nothing under src/ knows about this module.  `Spans.install` replaces, for
the duration of a traced section, every name under which a rainbowhc module
holds a traced function (so `rainbowhc.lab.find_rainbow_cycle` is wrapped as
well as `rainbowhc.solver.find_rainbow_cycle`), plus two methods on their
classes: `CoupledInstance.realize` and `ColoredHypergraph.__init__`.
`Spans.uninstall` puts every original back.

A span is [name, start, end, parent index, instance id, payload]; start and
end are `time.perf_counter()` seconds.  The layer is the part of the name
before the first dot.  Each call into the models layer opens a new instance
id; the search or oracle call that follows it and the hypergraph
construction inside it share that id.  cli and lab spans cover many
instances and carry id -1.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("cli", "lab", "models", "core", "solver")

# counts that depend only on the work done, so they repeat exactly at any seed
EXACT_COUNTERS = (
    "solver.nodes_expanded",
    "solver.budget_hits",
    "models.edges_sampled",
    "solver.oracle_perms",
)


def _edges(hypergraph, args) -> int:
    return hypergraph.edge_count


def _search(outcome, args) -> tuple[int, bool]:
    return outcome.nodes_expanded, outcome.budget_hit


def _perms(counts, args) -> int:
    return math.factorial(args[0].n)  # count_hamperms(H, spec) tries all n! orders


class Spans:
    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []
        self._instance = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        payload: Optional[Callable] = None,
        opens_instance: bool = False,
        per_instance: bool = True,
    ) -> Callable:
        """`fn` with a span around each call.  A span that is not
        `per_instance` (it covers many instances) gets instance id -1."""
        records, stack, clock = self.records, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_instance:
                self._instance += 1
            instance = self._instance if per_instance else -1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, instance, None]
            stack.append(len(records))
            records.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if payload is not None:
                record[5] = payload(result, args)
            return result

        return traced

    def _patch_function(self, program, module_name: str, attr: str, name: str, **kw) -> None:
        original = getattr(getattr(program, module_name), attr)
        wrapped = self.wrap(name, original, **kw)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rainbowhc" and not mod_name.startswith("rainbowhc."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def _patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **kw))

    def install(self, program) -> None:
        if self._patches:
            raise RuntimeError("spans already installed")
        for attr in ("run_sweep", "run_coupled_sweep", "couple_experiment"):
            self._patch_function(program, "lab", attr, f"lab.{attr}", per_instance=False)
        self._patch_function(program, "cli", "main", "cli.main", per_instance=False)
        for attr in ("sample_colored", "sample_directed"):
            self._patch_function(program, "models", attr, f"models.{attr}",
                                 payload=_edges, opens_instance=True)
        self._patch_function(program, "solver", "find_rainbow_cycle", "solver.search",
                             payload=_search)
        self._patch_function(program, "solver", "count_hamperms", "solver.oracle",
                             payload=_perms)
        self._patch_method(program.models.CoupledInstance, "realize", "models.realize",
                           payload=_edges, opens_instance=True)
        self._patch_method(program.core.ColoredHypergraph, "__init__", "core.build")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def reset(self) -> None:
        self.records.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, instance, _ in self.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarize(records: list[list], passes: int) -> dict[str, float]:
    """Per-layer busy and self seconds, call counts and exact counters,
    each divided by the number of passes the spans cover.

    Busy time counts a span only when its parent lies in another layer, so
    a layer's busy time is never counted twice; self time is a span's
    duration minus its child spans, summed over the layer.
    """
    child = [0.0] * len(records)
    for name, start, end, parent, _, _ in records:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    payload: dict[str, int] = defaultdict(int)
    budget_hits = 0
    search_ms = []
    for i, (name, start, end, parent, _, extra) in enumerate(records):
        layer = name.split(".", 1)[0]
        duration = end - start
        self_time[layer] += duration - child[i]
        if parent < 0 or records[parent][0].split(".", 1)[0] != layer:
            busy[layer] += duration
        by_name[name] += duration
        calls[name] += 1
        if name == "solver.search":
            payload[name] += extra[0]
            budget_hits += extra[1]
            search_ms.append(duration * 1e3)
        elif extra is not None:
            payload[name] += extra
    search_ms.sort()
    sample_names = ("models.sample_colored", "models.sample_directed")
    nodes = payload["solver.search"]
    perms = payload["solver.oracle"]
    search_s = by_name["solver.search"]
    oracle_s = by_name["solver.oracle"]
    per_pass = {}
    for layer in LAYERS:
        per_pass[f"{layer}.busy_s"] = busy[layer]
        per_pass[f"{layer}.self_s"] = self_time[layer]
    per_pass.update({
        "models.sample_s": sum(by_name[n] for n in sample_names),
        "models.realize_s": by_name["models.realize"],
        "core.build_s": by_name["core.build"],
        "solver.search_s": search_s,
        "solver.oracle_s": oracle_s,
        "models.sample_calls": sum(calls[n] for n in sample_names),
        "models.realize_calls": calls["models.realize"],
        "models.edges_sampled": sum(payload[n] for n in (*sample_names, "models.realize")),
        "core.build_calls": calls["core.build"],
        "solver.search_calls": calls["solver.search"],
        "solver.nodes_expanded": nodes,
        "solver.budget_hits": budget_hits,
        "solver.oracle_calls": calls["solver.oracle"],
        "solver.oracle_perms": perms,
    })
    out = {
        key: value // passes if isinstance(value, int) and value % passes == 0 else value / passes
        for key, value in per_pass.items()
    }
    out["solver.us_per_node"] = search_s * 1e6 / nodes if nodes else 0.0
    out["solver.search_ms_p50"] = percentile(search_ms, 50)
    out["solver.search_ms_p99"] = percentile(search_ms, 99)
    out["solver.search_samples"] = len(search_ms)
    out["solver.oracle_ns_per_perm"] = oracle_s * 1e9 / perms if perms else 0.0
    return out

