import gc
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowhc import (
    ColoredHypergraph,
    CycleSpec,
    Hamperm,
    InvalidInput,
    SearchStatus,
    TooLarge,
    count_hamperms,
    edges_of_hamperm,
    expected_Y_bruteforce,
    find_rainbow_cycle,
    overlap_profile,
    q_from_p,
    sample_colored,
    sample_directed,
    second_moment_bruteforce,
    second_moment_from_profile,
    verify_certificate,
)
from rainbowhc.seeds import derive_seed
from rainbowhc.core import distinct_color_system, lex_rank
from rainbowhc.solver import (
    _pair_counts,
    _perm_edge_table,
    _search_plan,
    falling_factorial,
    solver_agrees_with_oracle,
)

from conftest import enumerate_specs, planted_cycle_hypergraph, complete_single_color


# -- find_rainbow_cycle --------------------------------------------------------

def test_complete_rainbow_found():
    spec = CycleSpec(8, 3, 1)
    H = ColoredHypergraph.complete_rainbow(8, 3)
    out = find_rainbow_cycle(H, spec)
    assert out.status is SearchStatus.FOUND
    assert verify_certificate(H, out.certificate)
    assert not out.budget_hit


def test_empty_not_found():
    spec = CycleSpec(8, 3, 1)
    out = find_rainbow_cycle(ColoredHypergraph(8, 3, 4), spec)
    assert out.status is SearchStatus.NOT_FOUND
    assert out.certificate is None


def test_insufficient_colors_immediate():
    spec = CycleSpec(8, 3, 1)  # m = 4
    H = complete_single_color(8, 3, 3)
    out = find_rainbow_cycle(H, spec)
    assert out.status is SearchStatus.NOT_FOUND
    assert out.reason == "insufficient_colors"
    assert out.nodes_expanded == 0


def test_planted_cycle_found_and_verified():
    spec = CycleSpec(9, 4, 1)
    H = planted_cycle_hypergraph(spec, (3, 1, 2, 9, 4, 5, 8, 7, 6))
    out = find_rainbow_cycle(H, spec)
    assert out.found
    assert verify_certificate(H, out.certificate)


def test_budget_semantics():
    spec = CycleSpec(8, 3, 2)
    H = complete_single_color(8, 3, 8, seed=4)
    with pytest.raises(InvalidInput):
        find_rainbow_cycle(H, spec, mode="budgeted")
    out = find_rainbow_cycle(H, spec, mode="budgeted", budget=3)
    if out.status is SearchStatus.UNKNOWN:
        assert out.budget_hit and out.nodes_expanded > 3
    big = find_rainbow_cycle(H, spec, mode="budgeted", budget=10_000_000)
    exhaustive = find_rainbow_cycle(H, spec, mode="exhaustive")
    assert big.status == exhaustive.status
    assert not big.budget_hit


def test_unknown_iff_budget_hit():
    spec = CycleSpec(8, 3, 1)
    for trial in range(40):
        H = sample_colored(8, 3, 0.35, 4, seed=derive_seed(55, trial))
        out = find_rainbow_cycle(H, spec, mode="budgeted", budget=25)
        assert (out.status is SearchStatus.UNKNOWN) == out.budget_hit


def test_budget_unit_is_one_placed_vertex():
    # a node is one vertex placed after passing the edge-index filter.  On a
    # complete rainbow hypergraph the first candidate always fits, so the
    # search places exactly n vertices and never backtracks
    spec = CycleSpec(6, 3, 1)
    out = find_rainbow_cycle(ColoredHypergraph.complete_rainbow(6, 3), spec)
    assert out.found and out.nodes_expanded == 6
    # X > 0 but Y = 0: Hamilton cycles exist, none rainbow, so the exhaustive
    # count below is pinned; a solver change that moves it changes --budget
    spec = CycleSpec(8, 3, 1)
    H = sample_colored(8, 3, 0.3, 4, seed=2)
    assert count_hamperms(H, spec) == (56, 0)
    full = find_rainbow_cycle(H, spec)
    assert full.status is SearchStatus.NOT_FOUND and full.nodes_expanded == 104
    for b in (1, 100, 103):
        out = find_rainbow_cycle(H, spec, mode="budgeted", budget=b)
        assert out.status is SearchStatus.UNKNOWN and out.budget_hit
        assert out.nodes_expanded == b + 1
    at_limit = find_rainbow_cycle(H, spec, mode="budgeted", budget=104)
    assert at_limit.status is SearchStatus.NOT_FOUND and not at_limit.budget_hit
    assert at_limit.nodes_expanded == 104


def test_tight_budget_unit_is_pinned():
    # the tight budget unit at r = m, where the search anchors on the rarest
    # color in window 0; as with the loose pin above, X > 0 but Y = 0, and a
    # solver change that moves this count changes what --budget buys on
    # tight sweeps
    spec = CycleSpec(8, 4, 3)
    H = sample_colored(8, 4, 0.6, 8, seed=0)
    assert count_hamperms(H, spec) == (80, 0)
    full = find_rainbow_cycle(H, spec)
    assert full.status is SearchStatus.NOT_FOUND and full.nodes_expanded == 251
    for b in (1, 250):
        out = find_rainbow_cycle(H, spec, mode="budgeted", budget=b)
        assert out.status is SearchStatus.UNKNOWN and out.nodes_expanded == b + 1
    at_limit = find_rainbow_cycle(H, spec, mode="budgeted", budget=251)
    assert at_limit.status is SearchStatus.NOT_FOUND and not at_limit.budget_hit


def test_vertex_anchored_budget_unit_is_pinned():
    # with r = m + 1 the search anchors on vertex 1 and, tight, places
    # 0, n-1, 1, ..., n-2 under the position-1 reflection rule; this pin is
    # the budget unit of sweeps with spare colors
    spec = CycleSpec(8, 4, 3)
    H = sample_colored(8, 4, 0.6, 9, seed=0)
    assert count_hamperms(H, spec) == (80, 0)
    full = find_rainbow_cycle(H, spec)
    assert full.status is SearchStatus.NOT_FOUND and full.nodes_expanded == 383
    for b in (1, 382):
        out = find_rainbow_cycle(H, spec, mode="budgeted", budget=b)
        assert out.status is SearchStatus.UNKNOWN and out.nodes_expanded == b + 1
    at_limit = find_rainbow_cycle(H, spec, mode="budgeted", budget=383)
    assert at_limit.status is SearchStatus.NOT_FOUND and not at_limit.budget_hit


@pytest.mark.parametrize("spec", enumerate_specs(9), ids=lambda s: f"{s.n}-{s.k}-{s.ell}")
def test_search_plan_invariants(spec):
    for anchored in (False, True):
        _check_search_plan(spec, anchored)


@pytest.mark.parametrize("spec", [CycleSpec(10, 4, 3), CycleSpec(12, 3, 1)])
def test_bench_spec_plans(spec):
    # the specs of the tight and loose benchmark workloads, beyond n = 9
    for anchored in (False, True):
        _check_search_plan(spec, anchored)


def test_filters_halve_tight_anchored_lookups():
    member, filters = _search_plan(CycleSpec(10, 4, 3), True)[1:3]
    assert sum(map(len, member)) == 40 and sum(map(len, filters)) == 20


def _check_search_plan(spec, anchored):
    order, member, filters, closing, ordered, watch, force_one = _search_plan(
        spec, anchored
    )
    n, k, windows = spec.n, spec.k, spec.windows()
    assert sorted(order) == list(range(n))
    step_of = {p: s for s, p in enumerate(order)}
    assert member == tuple(
        tuple(j for j, w in enumerate(windows) if p in w) for p in order
    )

    def placed(j, s):
        """Positions of window j placed at steps before s."""
        return {p for p in windows[j] if step_of[p] < s}

    def same_class(i, j):
        return not (anchored and 0 in (i, j))

    # a filter window is dropped only when a kept window of its edge class
    # has placed a superset of its positions, so the candidates are the same
    for s in range(n):
        kept = filters[s]
        assert kept and set(kept) <= set(member[s])
        assert list(kept) == sorted(kept)
        for j in member[s]:
            implied_by = [
                i for i in kept
                if i != j and same_class(i, j) and placed(j, s) <= placed(i, s)
            ]
            assert bool(implied_by) == (j not in kept), (s, j)

    # the watched window waits: it has placed positions, not all of them,
    # and its next one is not placed at the following step; it has the
    # fewest unplaced positions of the waiting windows, ties to the higher
    # index, and its placed set does not change while it is watched
    for s in range(n):
        waiting = [
            j for j, w in enumerate(windows)
            if placed(j, s + 1) and len(placed(j, s + 1)) < len(w)
            and min(step_of[p] for p in w if step_of[p] > s) > s + 1
        ]
        if not waiting:
            assert watch[s] is None
            continue
        j, begins = watch[s]
        assert j in waiting
        unplaced = {i: len(windows[i]) - len(placed(i, s + 1)) for i in waiting}
        assert all(
            unplaced[i] > unplaced[j] or (unplaced[i] == unplaced[j] and i <= j)
            for i in waiting
        )
        continued = s > 0 and watch[s - 1] is not None and watch[s - 1][0] == j
        assert begins == (not continued)
        if continued:
            assert placed(j, s) == placed(j, s + 1)
        else:
            # the search rebuilds the completions with the vertex just placed
            assert order[s] in windows[j]
    if anchored:
        # window 0 reads the anchor's edges and is never watched, so the
        # completions need only the untagged keys
        assert all(w is None or w[0] != 0 for w in watch)
    # every window closes exactly once, at the step placing its last position
    closes = [j for s in range(n) for j in closing[s]]
    assert sorted(closes) == list(range(spec.m))
    for s in range(n):
        for j in closing[s]:
            assert max(step_of[p] for p in windows[j]) == s
    # a rule compares with an earlier step; the interchangeable-position
    # rules are exactly the steps whose position shares its window set with
    # the position placed just before it, one lower
    assert ordered[0] is None
    assert all(ref < s and sign in (-1, 1) for s, (ref, sign) in
               ((s, rule) for s, rule in enumerate(ordered) if rule is not None))
    runs = {
        s for s in range(1, n)
        if order[s - 1] == order[s] - 1 and member[s] == member[s - 1]
    }
    assert all(ordered[s] == (s - 1, 1) for s in runs)
    reflection = {s: rule for s, rule in enumerate(ordered) if rule and s not in runs}
    if anchored:
        assert order == tuple(range(n)) and force_one == -1
        # p -> k-1-p maps window i to window -i, and the run holding
        # position 0 onto the one holding k-1, whose first position is
        # compared with position 0
        mirror = {p: (k - 1 - p) % n for p in range(n)}
        for p in range(n):
            assert member[mirror[p]] == tuple(
                sorted((-j) % spec.m for j in member[p])
            )
        run0 = [p for p in range(n) if member[p] == member[0]]
        run_last = [p for p in range(n) if member[p] == member[k - 1]]
        assert sorted(mirror[p] for p in run0) == run_last
        assert reflection == {run_last[0]: (0, 1)}
    else:
        assert order[force_one] < spec.block_size
        if spec.block_size == 1:
            assert order == (0, n - 1, *range(1, n - 1)) and force_one == 0
            assert reflection == {step_of[1]: (step_of[n - 1], -1)} == {2: (1, -1)}
        else:
            assert order == tuple(range(n)) and not reflection


def test_missing_color_needs_no_search():
    # with r = m a rainbow cycle needs every color, so an instance missing
    # one is settled before the search: X > 0 here, but Y = 0
    spec = CycleSpec(8, 3, 1)  # m = 4
    dense = sample_colored(8, 3, 0.8, 4, seed=5)
    H = ColoredHypergraph(8, 3, 4, {e: cs for e, cs in dense.items() if 4 not in cs})
    assert count_hamperms(H, spec)[0] > 0 and count_hamperms(H, spec)[1] == 0
    out = find_rainbow_cycle(H, spec)
    assert out.status is SearchStatus.NOT_FOUND and out.reason == "missing_color"
    assert out.nodes_expanded == 0
    directed = sample_directed(8, 3, 0.2, 4, seed=5)
    H = ColoredHypergraph(
        8, 3, 4,
        {e: cs - {2} for e, cs in directed.items() if cs - {2}},
        multi_color=True,
    )
    assert count_hamperms(H, spec)[0] > 0 and count_hamperms(H, spec)[1] == 0
    out = find_rainbow_cycle(H, spec)
    assert out.reason == "missing_color" and out.nodes_expanded == 0


@pytest.mark.parametrize("multi", [False, True])
def test_tight_planted_cycle_found_under_relabeling(multi):
    # both orientations of the planted cycle occur across relabelings, so a
    # reflection rule that drops one loses about half of these instances
    rng = random.Random(6)
    for spec in enumerate_specs(10, min_n=5):
        if spec.block_size > 1:
            continue
        r = spec.m + 1
        for t in range(6):
            seed = derive_seed(606, spec.n, spec.k, t)
            if multi:
                noise = sample_directed(spec.n, spec.k, 0.01, r, seed)
            else:
                noise = sample_colored(spec.n, spec.k, 0.08, r, seed)
            edges = {e: set(cs) for e, cs in noise.items()}
            perm = list(range(1, spec.n + 1))
            rng.shuffle(perm)
            colors = rng.sample(range(1, r + 1), spec.m)
            for e, c in zip(edges_of_hamperm(Hamperm(tuple(perm), spec)), colors):
                edges[e] = (edges.get(e, set()) | {c}) if multi else {c}
            H = ColoredHypergraph(spec.n, spec.k, r, edges, multi_color=multi)
            out = find_rainbow_cycle(H, spec)
            assert out.found, (spec, perm)
            assert verify_certificate(H, out.certificate)


@pytest.mark.parametrize("multi", [False, True])
def test_planted_cycle_found_under_relabeling(multi):
    # with r = m the search anchors on the rarest color, ties going to the
    # smaller one, so relabeling an instance's colors moves the anchor to
    # another color and another window of the planted cycle; with r = m + 1
    # it anchors on vertex 1, which relabeling the vertices moves along the
    # cycle.  Either way both orientations of the cycle come up, so a
    # reflection rule that drops one, or holds under the wrong anchor,
    # loses some of these instances
    rng = random.Random(7)
    for spec in enumerate_specs(9):
        for r in (spec.m, spec.m + 1):
            for t in range(3):
                seed = derive_seed(707, spec.n, spec.k, spec.ell, r, t)
                if multi:
                    noise = sample_directed(spec.n, spec.k, 0.01, r, seed)
                else:
                    noise = sample_colored(spec.n, spec.k, 0.08, r, seed)
                edges = {e: set(cs) for e, cs in noise.items()}
                perm = list(range(1, spec.n + 1))
                rng.shuffle(perm)
                colors = rng.sample(range(1, r + 1), spec.m)
                for e, c in zip(edges_of_hamperm(Hamperm(tuple(perm), spec)), colors):
                    edges[e] = (edges.get(e, set()) | {c}) if multi else {c}
                for _ in range(3):
                    vertex = [0, *rng.sample(range(1, spec.n + 1), spec.n)]
                    color = [0, *rng.sample(range(1, r + 1), r)]
                    relabeled = {
                        tuple(sorted(vertex[v] for v in e)): {color[c] for c in cs}
                        for e, cs in edges.items()
                    }
                    H = ColoredHypergraph(
                        spec.n, spec.k, r, relabeled, multi_color=multi
                    )
                    out = find_rainbow_cycle(H, spec)
                    assert out.found, (spec, r, perm, vertex, color)
                    assert verify_certificate(H, out.certificate)


def test_search_leaves_no_garbage():
    # the recursive closures of a search reach themselves through their
    # cells; the search breaks those cycles, so nothing waits for the
    # collector, whatever the plan or the way the search ends
    spec = CycleSpec(8, 3, 1)
    instances = [
        sample_colored(8, 3, 0.3, 4, seed=2),
        sample_colored(8, 3, 0.3, 5, seed=0),
        sample_directed(8, 3, 0.05, 4, seed=3),
        sample_directed(8, 3, 0.05, 5, seed=3),
    ]
    gc.collect()
    gc.disable()
    try:
        for H in instances:
            for mode, budget in (("exhaustive", None), ("budgeted", 5)):
                find_rainbow_cycle(H, spec, mode, budget)
                assert gc.collect() == 0, (H, mode)
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [4, 5])
def test_tight_solver_matches_oracle_at_n9(k):
    spec = CycleSpec(9, k, k - 1)
    found = 0
    for t in range(8):
        p = (0.5, 0.6, 0.7, 0.8)[t % 4]
        H = sample_colored(9, k, p, 9, seed=derive_seed(909, k, t))
        agree, outcome, _ = solver_agrees_with_oracle(H, spec)
        assert agree, t
        found += outcome.found
    assert 0 < found < 8


def test_spec_mismatch():
    with pytest.raises(InvalidInput):
        find_rainbow_cycle(ColoredHypergraph(8, 3, 4), CycleSpec(6, 3, 1))


def test_to_record_round_trips_json():
    spec = CycleSpec(6, 3, 1)
    out = find_rainbow_cycle(ColoredHypergraph.complete_rainbow(6, 3), spec)
    record = out.to_record(budget=None, provenance={"seed": 1})
    text = json.dumps(record)
    back = json.loads(text)
    assert back["status"] == "found"
    assert back["certificate"]["colors"] == list(out.certificate.colors)


def test_multi_color_search_uses_matching():
    spec = CycleSpec(6, 3, 1)
    pi = Hamperm((1, 2, 3, 4, 5, 6), spec)
    e1, e2, e3 = edges_of_hamperm(pi)
    H = ColoredHypergraph(
        6, 3, 3, {e1: {1, 2}, e2: {1}, e3: {2, 3}}, multi_color=True
    )
    out = find_rainbow_cycle(H, spec)
    assert out.found
    assert verify_certificate(H, out.certificate)
    H_bad = ColoredHypergraph(
        6, 3, 3, {e1: {1, 2}, e2: {1, 2}, e3: {1, 2}}, multi_color=True
    )
    assert not find_rainbow_cycle(H_bad, spec).found


# SHA-256 of the JSON of to_record() over 200 directed-model instances at
# criterion 10's density (r = m, so the search anchors on the rarest color):
# pins statuses, node counts and the colors of every certificate.  Re-recorded
# when the color anchor came in and when the watched-window prune came in;
# neither moved the exhaustive statuses, and the prune moved no certificate
MULTI_COLOR_SEARCH_PINS = {
    ("exhaustive", None): "8e8553701088594f6c0a46c96a29f12dfc7b70bfa2f0e533e491d4bbd86be888",
    ("budgeted", 200): "0683fecad4228b9e3f54383c0a4e6e66feba0ad4a59342be9f50ce9fb44949c7",
}


@pytest.mark.parametrize("mode, budget", MULTI_COLOR_SEARCH_PINS)
def test_multi_color_search_is_pinned(mode, budget):
    spec = CycleSpec(8, 3, 1)
    q = q_from_p(0.05)
    records = [
        find_rainbow_cycle(
            sample_directed(8, 3, q, 4, derive_seed(1010, 1, t)), spec, mode, budget
        ).to_record()
        for t in range(200)
    ]
    statuses = {record["status"] for record in records}
    assert {"found", "not_found"} <= statuses
    assert ("unknown" in statuses) == (budget is not None)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == MULTI_COLOR_SEARCH_PINS[mode, budget]


# -- count_hamperms ------------------------------------------------------------

def test_count_on_complete_rainbow():
    spec = CycleSpec(6, 3, 2)
    H = ColoredHypergraph.complete_rainbow(6, 3)
    assert count_hamperms(H, spec) == (720, 720)


def test_count_on_empty():
    spec = CycleSpec(6, 3, 1)
    assert count_hamperms(ColoredHypergraph(6, 3, 3), spec) == (0, 0)


def test_count_limit():
    spec = CycleSpec(10, 3, 1)
    with pytest.raises(TooLarge):
        count_hamperms(ColoredHypergraph(10, 3, 5), spec)


def test_count_planted_single_cycle_multiplicity():
    # hypergraph holding exactly one loose cycle, rainbow-colored: the
    # hamperm count is read off the run and must match X = Y
    spec = CycleSpec(6, 3, 1)
    H = planted_cycle_hypergraph(spec, (1, 2, 3, 4, 5, 6))
    x_count, y_count = count_hamperms(H, spec)
    assert x_count == y_count > 0
    # every counted hamperm induces the same edge set, so the planted cycle
    # multiplicity equals the number of symmetries: verified by enumeration
    target = set(edges_of_hamperm(Hamperm((1, 2, 3, 4, 5, 6), spec)))
    direct = sum(
        1
        for perm in itertools.permutations(range(1, 7))
        if set(edges_of_hamperm(Hamperm(perm, spec))) == target
    )
    assert x_count == direct


def test_count_multi_color_path():
    spec = CycleSpec(6, 3, 1)
    pi = Hamperm((1, 2, 3, 4, 5, 6), spec)
    e1, e2, e3 = edges_of_hamperm(pi)
    H = ColoredHypergraph(
        6, 3, 3, {e1: {1}, e2: {1}, e3: {2, 3}}, multi_color=True
    )
    x_count, y_count = count_hamperms(H, spec)
    assert x_count > 0
    assert y_count == 0  # e1, e2 both forced to color 1


def test_count_agrees_with_slow_enumeration():
    spec = CycleSpec(6, 3, 1)
    for trial in range(10):
        H = sample_colored(6, 3, 0.45, 3, seed=derive_seed(77, trial))
        fast = count_hamperms(H, spec)
        slow_x = slow_y = 0
        for perm in itertools.permutations(range(1, 7)):
            edges = edges_of_hamperm(Hamperm(perm, spec))
            colors = [H.colors_of(e) for e in edges]
            if all(colors):
                slow_x += 1
                if len({next(iter(c)) for c in colors}) == spec.m:
                    slow_y += 1
        assert fast == (slow_x, slow_y)


def test_perm_edge_table_holds_lex_ranks_of_induced_edges():
    for spec in (CycleSpec(6, 3, 1), CycleSpec(6, 4, 2), CycleSpec(7, 4, 3)):
        table = _perm_edge_table(spec.n, spec.k, spec.ell)
        for index, perm in enumerate(itertools.permutations(range(1, spec.n + 1))):
            if index % 37:
                continue
            edges = edges_of_hamperm(Hamperm(perm, spec))
            assert table[:, index].tolist() == [lex_rank(spec.n, e) for e in edges]


def test_count_multi_color_agrees_with_slow_enumeration():
    spec = CycleSpec(6, 3, 1)
    for trial in range(6):
        H = sample_directed(6, 3, 0.08, 3, seed=derive_seed(78, trial))
        slow_x = slow_y = 0
        for perm in itertools.permutations(range(1, 7)):
            colors = [H.colors_of(e) for e in edges_of_hamperm(Hamperm(perm, spec))]
            if all(colors):
                slow_x += 1
                slow_y += distinct_color_system(colors) is not None
        assert count_hamperms(H, spec) == (slow_x, slow_y)


# -- solver vs oracle ----------------------------------------------------------

@pytest.mark.parametrize("n,k,ell", [(6, 3, 1), (6, 3, 2), (6, 4, 2), (7, 4, 3), (8, 5, 3)])
def test_solver_oracle_equivalence_sampled(n, k, ell):
    spec = CycleSpec(n, k, ell)
    for trial in range(25):
        r = spec.m + 2 * (trial % 2)
        p = 0.15 + 0.12 * (trial % 5)
        H = sample_colored(n, k, p, r, seed=derive_seed(101, n, k, ell, trial))
        agree, _, _ = solver_agrees_with_oracle(H, spec)
        assert agree


def test_solver_oracle_equivalence_dense_tight():
    # dense instances stress the wrap-around edge checks of the block search
    for n, k, ell in [(7, 3, 2), (8, 4, 3), (6, 5, 4)]:
        spec = CycleSpec(n, k, ell)
        for t in range(15):
            p = 0.55 + 0.1 * (t % 4)
            r = spec.m + (t % 3)
            H = sample_colored(n, k, p, r, seed=derive_seed(4242, n, k, t))
            agree, _, _ = solver_agrees_with_oracle(H, spec)
            assert agree


def test_solver_matches_slow_sdr_on_directed_instances():
    from rainbowhc.core import distinct_color_system

    spec = CycleSpec(6, 3, 1)
    for t in range(60):
        q = 0.02 + 0.015 * (t % 8)
        H = sample_directed(6, 3, q, 3, seed=derive_seed(777, t))
        out = find_rainbow_cycle(H, spec)
        exists = False
        for perm in itertools.permutations(range(1, 7)):
            cs = [H.colors_of(e) for e in edges_of_hamperm(Hamperm(perm, spec))]
            if all(cs) and distinct_color_system(cs) is not None:
                exists = True
                break
        assert out.found == exists
        if out.found:
            assert verify_certificate(H, out.certificate)


_ORACLE_SPECS = enumerate_specs(8)


@st.composite
def _oracle_instances(draw):
    """A spec from enumerate_specs(8) and a random instance on it: single-color
    from sample_colored, or multi-color from sample_directed.  Multi-color
    specs stop at n = 7 because the oracle's multi-color path is a pure-Python
    loop over n! permutations (about a second per instance at n = 8)."""
    multi = draw(st.booleans())
    specs = [s for s in _ORACLE_SPECS if s.n <= 7] if multi else _ORACLE_SPECS
    spec = draw(st.sampled_from(specs))
    r = spec.m + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    if multi:
        q = draw(st.floats(0.01, 0.3))
        return spec, sample_directed(spec.n, spec.k, q, r, seed)
    p = draw(st.floats(0.2, 1.0))
    return spec, sample_colored(spec.n, spec.k, p, r, seed)


@given(_oracle_instances())
@settings(max_examples=150, deadline=None)
def test_solver_matches_oracle_property(instance):
    # small m is where the closing windows (those wrapping past position
    # n-1) sit closest to the first block: the likely place for off-by-ones
    spec, H = instance
    outcome = find_rainbow_cycle(H, spec)
    _, y_count = count_hamperms(H, spec)
    assert outcome.found == (y_count > 0)
    if outcome.found:
        assert verify_certificate(H, outcome.certificate)


@st.composite
def _planted_instances(draw):
    """Sparse random noise on a spec from enumerate_specs(8), plus a rainbow
    cycle planted on a random permutation, so a cycle is known to exist
    wherever vertex 1 and the closing windows happen to fall."""
    spec = draw(st.sampled_from(_ORACLE_SPECS))
    multi = draw(st.booleans())
    r = spec.m + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    if multi:
        noise = sample_directed(spec.n, spec.k, draw(st.floats(0.0, 0.05)), r, seed)
    else:
        noise = sample_colored(spec.n, spec.k, draw(st.floats(0.0, 0.3)), r, seed)
    edges = {e: set(cs) for e, cs in noise.items()}
    perm = draw(st.permutations(range(1, spec.n + 1)))
    colors = draw(st.permutations(range(1, r + 1)))
    for e, c in zip(edges_of_hamperm(Hamperm(tuple(perm), spec)), colors):
        edges[e] = (edges.get(e, set()) | {c}) if multi else {c}
    return spec, ColoredHypergraph(spec.n, spec.k, r, edges, multi_color=multi)


@given(_planted_instances())
@settings(max_examples=300, deadline=None)
def test_solver_finds_planted_cycle_property(instance):
    # rare cycles are where a wrong symmetry rule or closing window loses
    # the only solution; a planted one makes them common and needs no oracle
    spec, H = instance
    outcome = find_rainbow_cycle(H, spec)
    assert outcome.found
    assert verify_certificate(H, outcome.certificate)


# -- overlap profile -----------------------------------------------------------

def test_overlap_tight_n4_degenerate():
    profile = overlap_profile(CycleSpec(4, 3, 2))
    assert profile.table == {(4, 1): 24}
    assert profile.total() == 24


def test_overlap_totals_and_a_le_b():
    for spec in enumerate_specs(6):
        profile = overlap_profile(spec)
        assert profile.total() == math.factorial(spec.n)
        for (b, a), count in profile.table.items():
            assert count >= 0
            if (b, a) != (0, 0):
                assert 1 <= a <= b
        # the identity itself contributes to the full-overlap cell
        assert profile.table.get((spec.m, 1), 0) >= 1


def _circular_runs(indices, m):
    s = set(indices)
    if len(s) == m:
        return 1
    return sum(1 for i in s if (i - 1) % m not in s)


@pytest.mark.parametrize("n,k,ell", [(6, 2, 1), (6, 3, 1), (8, 3, 1)])
def test_overlap_paths_match_run_counter_when_only_adjacent_edges_meet(n, k, ell):
    # with k >= 2*ell, induced edges intersect iff cyclically adjacent, so
    # the chain count reduces to counting circular runs of shared indices:
    # an independent reformulation of the path rule
    spec = CycleSpec(n, k, ell)
    assert 2 * spec.block_size >= spec.k
    identity = Hamperm(tuple(range(1, n + 1)), spec)
    ref = {e: i for i, e in enumerate(edges_of_hamperm(identity))}
    table: dict[tuple[int, int], int] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        shared = sorted(
            ref[e] for e in edges_of_hamperm(Hamperm(perm, spec)) if e in ref
        )
        b = len(shared)
        key = (0, 0) if b == 0 else (b, _circular_runs(shared, spec.m))
        table[key] = table.get(key, 0) + 1
    assert overlap_profile(spec).table == table


def test_overlap_identity_in_full_cell():
    # the (m, 1) cell counts exactly the permutations inducing the reference
    # edge set; read the multiplicity off a direct enumeration, not a guess
    spec = CycleSpec(6, 3, 1)
    profile = overlap_profile(spec)
    target = set(edges_of_hamperm(Hamperm(tuple(range(1, 7)), spec)))
    direct = sum(
        1
        for perm in itertools.permutations(range(1, 7))
        if set(edges_of_hamperm(Hamperm(perm, spec))) == target
    )
    assert profile.table[(spec.m, 1)] == direct


# -- second moment -------------------------------------------------------------

@pytest.mark.parametrize("spec", enumerate_specs(6), ids=lambda s: f"{s.n}-{s.k}-{s.ell}")
def test_second_moment_identity(spec):
    profile = overlap_profile(spec)
    for p in (Fraction(1, 2), Fraction(1)):
        for r in (spec.m, spec.m + 2):
            lhs = second_moment_from_profile(profile, p, r)
            rhs = second_moment_bruteforce(spec, p, r)
            assert lhs == rhs
    # the pair table is built once per spec and evaluated at each (p, r)
    assert _pair_counts.cache_info().maxsize <= 8


def test_second_moment_p_zero():
    spec = CycleSpec(6, 3, 1)
    profile = overlap_profile(spec)
    assert second_moment_from_profile(profile, 0, spec.m) == 0
    assert second_moment_bruteforce(spec, 0, spec.m) == 0


def test_second_moment_rejects_r_below_m():
    spec = CycleSpec(6, 3, 1)
    profile = overlap_profile(spec)
    with pytest.raises(InvalidInput):
        second_moment_from_profile(profile, Fraction(1, 2), spec.m - 1)


def test_second_moment_diagonal_term():
    # b = m algebra at r = m: each diagonal pair contributes
    # p^m * (m)_m / m^m = p^m * m!/m^m, so the n! diagonal pairs sum to E(Y)
    from rainbowhc.solver import _both_rainbow_probability

    for m in (3, 4, 6):
        assert _both_rainbow_probability(m, m, m) == Fraction(
            math.factorial(m), m**m
        )
    spec = CycleSpec(5, 4, 3)
    m = spec.m
    p = Fraction(1, 3)
    diagonal_sum = math.factorial(5) * p**m * _both_rainbow_probability(m, m, m)
    assert diagonal_sum == math.factorial(5) * p**m * Fraction(
        falling_factorial(m, m), m**m
    )


# -- expected_Y_bruteforce ------------------------------------------------------

def test_expected_y_bruteforce_formula_agreement():
    from rainbowhc import MomentParams, exact_expected_Y

    for spec in enumerate_specs(6):
        for p in (Fraction(1, 2), Fraction(1)):
            for r in (spec.m, spec.m + 2):
                brute = expected_Y_bruteforce(spec, p, r)
                closed = exact_expected_Y(MomentParams(spec.n, spec.k, spec.ell, p, r))
                assert brute == closed


def test_expected_y_known_value():
    # n=6, k=3, ell=1, p=1/2, r=3: 720 * (1/8) * (6/27) = 20
    spec = CycleSpec(6, 3, 1)
    assert expected_Y_bruteforce(spec, Fraction(1, 2), 3) == 20


# -- falling factorial ----------------------------------------------------------

@given(st.integers(0, 30), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_falling_factorial(x, t):
    expected = 1
    for i in range(t):
        expected *= x - i
    assert falling_factorial(x, t) == expected
    if t > x:
        assert falling_factorial(x, t) == 0
