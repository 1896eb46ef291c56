"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools

from rainbowhc import ColoredHypergraph, CoupledInstance, CycleSpec, find_rainbow_cycle
from rainbowhc.seeds import derive_seed


def enumerate_specs(max_n: int, min_n: int = 3) -> list[CycleSpec]:
    """Every valid (n, k, ell) with n <= max_n."""
    out = []
    for n in range(min_n, max_n + 1):
        for k in range(2, n):
            for ell in range(1, k):
                if n % (k - ell) == 0 and n >= 2 * k - ell:
                    out.append(CycleSpec(n, k, ell))
    return out


def planted_cycle_hypergraph(spec: CycleSpec, perm, r=None) -> ColoredHypergraph:
    """Hypergraph holding exactly the cycle induced by perm, rainbow-colored."""
    from rainbowhc import Hamperm, edges_of_hamperm

    pi = Hamperm(tuple(perm), spec)
    edges = edges_of_hamperm(pi)
    r = r if r is not None else spec.m
    pairs = [(e, i + 1) for i, e in enumerate(edges)]
    return ColoredHypergraph.from_pairs(spec.n, spec.k, r, pairs)


def complete_single_color(n: int, k: int, r: int, seed: int = 0) -> ColoredHypergraph:
    """All C(n, k) edges, colors assigned by the deterministic seed mix."""
    pairs = []
    for combo in itertools.combinations(range(1, n + 1), k):
        pairs.append((combo, 1 + derive_seed(seed, *combo) % r))
    return ColoredHypergraph.from_pairs(n, k, r, pairs)


def direct_coupled_matrix(config) -> list[list[tuple[str, int]]]:
    """(status, nodes) of one search per (trial, point) of a coupled sweep.

    Independent of the inference `coupled_outcome_matrix` draws from
    monotonicity, so it can check that inference and the monotonicity
    claim itself.
    """
    rows = []
    for t in range(config.trials):
        ci = CoupledInstance(config.n, config.k, config.r, derive_seed(config.seed, t))
        row = []
        for p in config.p_grid:
            outcome = find_rainbow_cycle(ci.realize(p), config.spec, config.budget)
            row.append((outcome.status.value, outcome.nodes_expanded))
        rows.append(row)
    return rows
