import gc
import hashlib
import inspect
import itertools
import json
import linecache
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowhc import (
    ColoredHypergraph,
    CoupledInstance,
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
from rainbowhc import solver
from rainbowhc.cli import main
from rainbowhc.lab import make_grid
from rainbowhc.seeds import derive_seed
from rainbowhc.core import color_bits, distinct_color_system, lex_rank
from rainbowhc.solver import (
    CHUNK_STEPS,
    DENSE_INDEX_MIN_PAIRS,
    DENSE_LIST_LOAD,
    LOOP_LIST_LOAD,
    TABLE_MAX_N,
    SearchOutcome,
    _candidate_bits,
    _compiled_search,
    _completions,
    _dense_edge_index,
    _edge_index,
    _edge_set_table,
    _looped_edge_index,
    _pair_counts,
    _perm_edge_table,
    _present_edges,
    _search_plan,
    _search_source,
    _vertex_masks,
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
    out = find_rainbow_cycle(H, spec, budget=3)
    if out.status is SearchStatus.UNKNOWN:
        assert out.budget_hit and out.nodes_expanded > 3
    big = find_rainbow_cycle(H, spec, budget=10_000_000)
    exhaustive = find_rainbow_cycle(H, spec)
    assert big.status == exhaustive.status
    assert not big.budget_hit


def test_unknown_iff_budget_hit():
    spec = CycleSpec(8, 3, 1)
    for trial in range(40):
        H = sample_colored(8, 3, 0.35, 4, seed=derive_seed(55, trial))
        out = find_rainbow_cycle(H, spec, budget=25)
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
        out = find_rainbow_cycle(H, spec, budget=b)
        assert out.status is SearchStatus.UNKNOWN and out.budget_hit
        assert out.nodes_expanded == b + 1
    at_limit = find_rainbow_cycle(H, spec, budget=104)
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
        out = find_rainbow_cycle(H, spec, budget=b)
        assert out.status is SearchStatus.UNKNOWN and out.nodes_expanded == b + 1
    at_limit = find_rainbow_cycle(H, spec, budget=251)
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
        out = find_rainbow_cycle(H, spec, budget=b)
        assert out.status is SearchStatus.UNKNOWN and out.nodes_expanded == b + 1
    at_limit = find_rainbow_cycle(H, spec, budget=383)
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


@pytest.mark.parametrize(
    "spec",
    [s for s in enumerate_specs(9) if s.ell == s.k - 1 and s.k >= 4] + [CycleSpec(10, 4, 3)],
    ids=lambda s: f"{s.n}-{s.k}-{s.ell}",
)
def test_tight_plans_drop_the_first_two_watches(spec):
    # at k >= 4 the windows watched after steps 0 and 1 hold every placed
    # position, neither watch carries on, and neither can cut, so both go.
    # At k <= 3 the watch after step 1 stays: it carries on (k = 3) or can
    # cut (k = 2)
    for anchored in (False, True):
        watch = _search_plan(spec, anchored)[5]
        assert watch[0] is None and watch[1] is None, anchored


def test_filters_halve_tight_anchored_lookups():
    member, filters = _search_plan(CycleSpec(10, 4, 3), True)[1:3]
    assert sum(map(len, member)) == 40 and sum(map(len, filters)) == 20


def _check_search_plan(spec, anchored):
    order, member, filters, closing, ordered, watch, force_one = _search_plan(
        spec, anchored
    )
    n, k, windows = spec.n, spec.k, spec.windows()
    # position 0 at step 0: the leaf's b[0] marks a find
    assert sorted(order) == list(range(n)) and order[0] == 0
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

    # a window waits after step s when it has placed positions, not all of
    # them, and its next one is not placed at the following step; the
    # candidate watch is the waiting window with the fewest unplaced
    # positions, ties to the higher index
    def candidate(s):
        waiting = [
            j for j, w in enumerate(windows)
            if placed(j, s + 1) and len(placed(j, s + 1)) < len(w)
            and min(step_of[p] for p in w if step_of[p] > s) > s + 1
        ]
        if not waiting:
            return None
        return min(waiting, key=lambda j: (len(windows[j]) - len(placed(j, s + 1)), -j))

    # the candidate cannot cut when no window has closed (no color is used),
    # every placed position lies in it, and a filter window of its class
    # holds them all once step s is placed: that filter put them in a present
    # untagged edge that no vertex or color blocks.  Such a watch is dropped
    # unless it carries on to step s+1, which reads its list again
    for s in range(n):
        j = candidate(s)
        carries = j is not None and s + 1 < n and candidate(s + 1) == j
        everything = {order[t] for t in range(s + 1)}
        cannot_cut = (
            j is not None
            and not any(max(step_of[p] for p in w) <= s for w in windows)
            and everything <= set(windows[j])
            and any(
                everything <= placed(i, s + 1)
                for i in filters[s] if same_class(i, j)
            )
        )
        if j is None or cannot_cut and not carries:
            assert watch[s] is None, s
            continue
        assert watch[s] is not None and watch[s][0] == j, s
        begins = watch[s][1]
        continued = s > 0 and watch[s - 1] is not None and watch[s - 1][0] == j
        assert begins == (not continued)
        if continued:
            # its placed set does not change while it is watched
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


def test_multi_color_rarest_color_counts_every_color_of_every_edge():
    # on couple-shaped directed instances the rarest color is the one with
    # the fewest edges carrying it, counted over color_bits of each slot,
    # ties going to the smaller color, None when a color has no edge
    q = q_from_p(0.05)
    anchors = []
    for t in range(800):
        H = sample_directed(8, 3, q, 4, derive_seed(1313, t))
        slots = _present_edges(H)[1]
        counts = [0] * (H.r + 1)
        for mask in slots.tolist():
            for color in color_bits(mask):
                counts[color] += 1
        fewest = min(counts[1:])
        expected = counts.index(fewest, 1) if fewest else None
        anchors.append(solver._rarest_color(H, slots))
        assert anchors[-1] == expected, t
    assert None in anchors and set(anchors) > {None}


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
    # a search leaves no reference cycle, so nothing it made waits for the
    # collector, whatever the plan, the index routine or the way the search
    # ends (each search runs once first: compiling a plan leaves garbage of
    # its own, once per process)
    loose, tight = CycleSpec(8, 3, 1), CycleSpec(10, 4, 3)
    dense = CoupledInstance(10, 4, 10, derive_seed(2, 0)).realize(0.64)
    assert _index_routine(dense)[0]  # the numpy pass
    instances = [
        (sample_colored(8, 3, 0.3, 4, seed=2), loose),
        (sample_colored(8, 3, 0.3, 5, seed=0), loose),
        (sample_directed(8, 3, 0.05, 4, seed=3), loose),
        (sample_directed(8, 3, 0.05, 5, seed=3), loose),
        (dense, tight),
    ]
    for H, spec in instances:
        find_rainbow_cycle(H, spec).certificate
    gc.collect()
    gc.disable()
    found = 0
    try:
        for H, spec in instances:
            for budget in (None, 5):
                outcome = find_rainbow_cycle(H, spec, budget)
                if outcome.found:
                    # the deferred certificate build leaves nothing either
                    assert outcome.certificate is not None
                    found += 1
                del outcome
                assert gc.collect() == 0, (H, budget)
    finally:
        gc.enable()
    assert found >= 3


def _found_outcome_instances():
    """FOUND instances of both color modes under both anchors: the rarest
    color (r = m) and vertex 1 (r = m + 1)."""
    loose, tight = CycleSpec(8, 3, 1), CycleSpec(10, 4, 3)
    dense = CoupledInstance(10, 4, 10, derive_seed(2, 0)).realize(0.9)
    return [
        pytest.param(planted_cycle_hypergraph(loose, [3, 1, 4, 8, 5, 2, 6, 7]), loose,
                     id="single-color-anchored"),
        pytest.param(planted_cycle_hypergraph(loose, [3, 1, 4, 8, 5, 2, 6, 7], r=5), loose,
                     id="single-vertex-anchored"),
        pytest.param(dense, tight, id="single-color-anchored-dense"),
        pytest.param(sample_directed(8, 3, 0.2, 4, 0), loose, id="multi-color-anchored"),
        pytest.param(sample_directed(8, 3, 0.2, 5, 0), loose, id="multi-vertex-anchored"),
    ]


@pytest.mark.parametrize("H, spec", _found_outcome_instances())
def test_found_certificate_is_built_once_and_holds_no_index(H, spec, monkeypatch):
    # a FOUND outcome builds its certificate on the first read and keeps it;
    # neither before nor after that read does it hold the search index's
    # table or edge list
    built = []
    edge_index = solver._edge_index

    def recording(*args):
        built.append(edge_index(*args))
        return built[-1]

    monkeypatch.setattr(solver, "_edge_index", recording)
    outcome = find_rainbow_cycle(H, spec)
    assert outcome.found and len(built) == 1
    assert gc.get_referrers(built[0][0]) == [built[0]]  # table
    assert gc.get_referrers(built[0][1]) == [built[0]]  # edges
    cert = outcome.certificate
    assert outcome.certificate is cert
    assert verify_certificate(H, cert)
    assert gc.get_referrers(built[0][0]) == [built[0]]
    assert gc.get_referrers(built[0][1]) == [built[0]]
    assert outcome.to_record()["certificate"]["permutation"] == list(cert.hamperm.pi)
    again = pickle.loads(pickle.dumps(outcome))
    assert (again.status, again.certificate, again.nodes_expanded, again.reason) == (
        outcome.status, cert, outcome.nodes_expanded, outcome.reason
    )
    with pytest.raises(AttributeError):
        outcome.status = SearchStatus.NOT_FOUND


def test_only_found_outcomes_hold_a_certificate():
    loose = CycleSpec(8, 3, 1)
    outcomes = [
        find_rainbow_cycle(sample_colored(8, 3, 0.05, 4, 1), loose),  # exhausted
        find_rainbow_cycle(sample_colored(8, 3, 0.9, 3, 1), loose),  # too few colors
        find_rainbow_cycle(sample_directed(8, 3, 0.2, 4, 0), loose, 3),
        find_rainbow_cycle(sample_colored(8, 3, 0.9, 5, 1), loose, 3),
    ]
    assert [o.status for o in outcomes] == [
        SearchStatus.NOT_FOUND, SearchStatus.NOT_FOUND, SearchStatus.UNKNOWN,
        SearchStatus.UNKNOWN,
    ]
    assert all(o.certificate is None for o in outcomes)
    assert all(o.to_record()["certificate"] is None for o in outcomes)


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


def test_search_rejects_a_non_positive_budget():
    H = ColoredHypergraph.complete_rainbow(6, 3)
    for budget in (0, -1):
        with pytest.raises(InvalidInput):
            find_rainbow_cycle(H, CycleSpec(6, 3, 1), budget)


@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("multi", [False, True])
def test_compiled_search_shows_its_source(anchored, multi):
    # tracebacks and profilers read the generated lines through linecache
    spec = CycleSpec(10, 4, 3)
    code = _compiled_search(spec, anchored, multi).__code__
    source = _search_source(spec, anchored, multi)
    lines = [linecache.getline(code.co_filename, i + 1) for i in range(source.count("\n"))]
    assert "".join(lines) == source
    assert lines[0].startswith("def search(")
    assert ("_augment(" in source) == multi
    assert _compiled_search(spec, anchored, multi) is _compiled_search(spec, anchored, multi)


def test_a_found_cycle_is_decoded_without_the_plan(monkeypatch):
    # the leaf writes the vertex bits by position, so once the search is
    # compiled neither the color read nor the certificate needs the plan
    cases = [
        (ColoredHypergraph.complete_rainbow(8, 3), CycleSpec(8, 3, 1)),  # vertex anchor
        (sample_colored(8, 4, 1.0, 8, 1), CycleSpec(8, 4, 3)),  # color anchor
    ]
    for H, spec in cases:
        find_rainbow_cycle(H, spec)

    def unread(spec, anchored):
        raise AssertionError(f"the plan of {spec} was read")

    monkeypatch.setattr(solver, "_search_plan", unread)
    for H, spec in cases:
        outcome = find_rainbow_cycle(H, spec)
        assert outcome.found and verify_certificate(H, outcome.certificate)


def _entries(table) -> dict:
    """The nonzero entries of an index table of either form, by key."""
    pairs = table.items() if isinstance(table, dict) else enumerate(table)
    return {key: value for key, value in pairs if value}


def _check_table(H, table, edges):
    """The table's edge keys hold exactly the edge list's (mask, colors)
    pairs, and a dict table holds no zero entry."""
    entries = _entries(table)
    assert isinstance(table, list) or len(entries) == len(table)
    assert len(dict(edges)) == len(edges)
    assert dict(edges) == {
        key: bits for key, bits in entries.items() if (key >> 1).bit_count() == H.k
    }


@pytest.mark.parametrize(
    "H, anchor, form",
    [
        (sample_colored(16, 4, 0.02, 16, 1), 0, dict),
        (sample_colored(16, 4, 0.02, 16, 1), 3, dict),  # the anchor's edges are tagged
        (sample_directed(16, 3, 0.02, 16, 3), 0, dict),
        (sample_directed(16, 3, 0.02, 16, 3), 2, dict),
        (sample_colored(10, 4, 0.5, 10, 1), 0, list),
        (sample_colored(10, 4, 0.5, 10, 2), 3, list),
        (sample_colored(8, 4, 0.5, 8, 1), 0, list),
        (sample_colored(8, 4, 0.5, 8, 2), 3, list),
        (sample_directed(8, 3, 0.2, 4, 3), 0, list),
        (sample_directed(8, 3, 0.2, 4, 4), 2, list),
        (sample_colored(14, 4, 0.2, 14, 1), 0, dict),
    ],
    ids=["single", "single-anchored", "multi", "multi-anchored", "single-list",
         "single-list-anchored", "single-loop-list", "single-loop-list-anchored",
         "multi-list", "multi-list-anchored", "single-dense-dict"],
)
def test_one_short_completions_match_the_scan(H, anchor, form):
    # the completions of a set one vertex short of an edge are read off the
    # table in ascending vertex order; as a set they are the scan's, in
    # both forms of the table and from both routines
    table, edges = _edge_index(H, anchor, *_present_edges(H))
    assert type(table) is form
    _check_table(H, table, edges)
    masks = [edge for edge, _ in edges]
    untagged = [edge for edge in masks if not edge & 1]
    assert untagged and (not anchor or len(untagged) < len(masks))
    for edge in untagged:
        vertices = [1 << v for v in range(1, H.n + 1) if edge >> v & 1]
        for rest in itertools.combinations(vertices, H.k - 1):
            placed = sum(rest)
            short = _completions(table, edges, placed, True, H.multi_color)
            scan = _completions(table, edges, placed, False, H.multi_color)
            assert short[-1] == scan[-1] == 0
            assert len(set(short)) == len(short) == len(scan)
            assert set(short) == set(scan)
            low_bits = [c & -c for c in short[:-1]]
            assert low_bits == sorted(low_bits)


@pytest.mark.parametrize(
    "spec, p, p_directed",
    [
        (CycleSpec(10, 4, 3), 0.5, 0.1),
        (CycleSpec(8, 3, 1), 0.3, 0.05),
        (CycleSpec(8, 4, 2), 0.4, 0.06),
        (CycleSpec(10, 5, 3), 0.5, 0.1),
    ],
    ids=["tight", "loose", "general", "general-two-watches"],
)
def test_each_watch_reads_the_completions_its_placed_count_picks(
    spec, p, p_directed, monkeypatch
):
    # the plan fixes how many vertices a watched window holds where its
    # watch begins, so the generated source passes the reader as a literal:
    # one_short exactly when the window is one vertex short of an edge.  A
    # wrong literal keeps every verdict and node count, only slower (the
    # scan reads every edge), so the pins cannot see it
    calls = []

    def recording(table, edges, placed, one_short, multi):
        calls.append((one_short, placed.bit_count() == spec.k - 1, multi))
        return _completions(table, edges, placed, one_short, multi)

    for multi in (False, True):
        for r in (spec.m, spec.m + 1):  # color- and vertex-anchored
            search = _compiled_search(spec, r == spec.m, multi)
            monkeypatch.setitem(search.__globals__, "_completions", recording)
            calls.clear()
            sample = sample_directed if multi else sample_colored
            for t in range(4):
                H = sample(spec.n, spec.k, p_directed if multi else p, r, derive_seed(7, t))
                find_rainbow_cycle(H, spec)
            assert calls, (r, multi)
            assert all(
                one_short == short and m == multi for one_short, short, m in calls
            ), (r, multi)
            # every watch of a tight plan is one short, no other plan's here
            assert {one_short for one_short, *_ in calls} == {spec.ell == spec.k - 1}


def _index_instances():
    """(H, spec) for single-color instances on both sides of the dense
    index's rule and of both list rules, each with r = m and r = m + 1."""
    spec = CycleSpec(10, 4, 3)
    for r in (spec.m, spec.m + 1):
        for t in range(2):
            ci = CoupledInstance(10, 4, r, derive_seed(2, r, t))
            for p in make_grid(0.37, 1.0, 8):  # csweep_tight10's grid
                yield ci.realize(p), spec
    for (n, k, ell), grid in [
        ((12, 3, 1), (0.02, 0.1, 0.35, 0.6, 1.0)),
        ((16, 4, 3), (0.005, 0.02, 0.1)),
        ((9, 5, 4), (0.05, 0.2, 0.5, 1.0)),
    ]:
        spec = CycleSpec(n, k, ell)
        for r in (spec.m, spec.m + 1):
            for i, p in enumerate(grid):
                yield sample_colored(n, k, p, r, derive_seed(5, n, r, i)), spec


def _numpy_pass(H) -> bool:
    """The numpy pass's rule: single-color, n <= TABLE_MAX_N and
    E * 2^k >= DENSE_INDEX_MIN_PAIRS."""
    return (
        not H.multi_color
        and H.n <= TABLE_MAX_N
        and H.edge_count << H.k >= DENSE_INDEX_MIN_PAIRS
    )


def _lists(H, load: int) -> bool:
    """A list rule: n <= TABLE_MAX_N and 2^(n+1) <= load * E * 2^k."""
    return H.n <= TABLE_MAX_N and 1 << (H.n + 1) <= load * (H.edge_count << H.k)


def _record_index_routines(mp, taken: list) -> None:
    """Patch both index routines through mp so that each build appends
    (multi-color, E * 2^k, whether the numpy pass ran, the table's type) to
    taken."""
    for routine in (_dense_edge_index, _looped_edge_index):
        def recording(H, *args, routine=routine):
            index = routine(H, *args)
            dense = routine is _dense_edge_index
            taken.append((H.multi_color, H.edge_count << H.k, dense, type(index[0])))
            return index

        mp.setattr(solver, routine.__name__, recording)


def _index_routine(H, anchor: int = 0) -> tuple:
    """(whether _edge_index builds H's index in the numpy pass, the type of
    the table it hands back)."""
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        _record_index_routines(mp, taken)
        _edge_index(H, anchor, *_present_edges(H))
    (record,) = taken
    return record[2:]


def test_dense_index_equals_the_loop():
    # the numpy routine builds the loop's index key for key, with no anchor,
    # the rarest color and another color: in both forms of either routine's
    # table the nonzero entries are the same, and both routines list the
    # same (edge, colors) pairs in the same order (the completion scan reads
    # them in that order).  _edge_index builds what its rules pick: the
    # numpy pass on single-color instances with enough (edge, subset) pairs
    # and the loop otherwise, a list when it holds at most DENSE_LIST_LOAD
    # or LOOP_LIST_LOAD entries per pair, and a dict otherwise
    picked = set()
    for H, _ in _index_instances():
        present = _present_edges(H)
        masks = _vertex_masks(H.n, H.k)[0]
        rarest = solver._rarest_color(H, present[1])
        for anchor in {0, rarest or 0, 1 if rarest != 1 else 2}:
            built = {}
            for dense, listed in itertools.product((False, True), repeat=2):
                index = (
                    _dense_edge_index(H, anchor, *present, listed) if dense
                    else _looped_edge_index(H, anchor, *present, masks, listed)
                )
                assert type(index[0]) is (list if listed else dict), (H, anchor)
                if listed:
                    assert len(index[0]) == 1 << (H.n + 1)
                _check_table(H, *index)
                built[dense, listed] = index
            table, edges = built[False, False]
            for index in built.values():
                assert _entries(index[0]) == _entries(table), (H, anchor)
                assert index[1] == edges, (H, anchor)
            dense = _numpy_pass(H)
            listed = _lists(H, DENSE_LIST_LOAD if dense else LOOP_LIST_LOAD)
            assert _index_routine(H, anchor) == (dense, list if listed else dict)
            assert _edge_index(H, anchor, *present) == built[dense, listed]
            picked.add((dense, listed))
    assert picked == set(itertools.product((False, True), repeat=2))


def _searched_instances():
    """_index_instances and the directed instances MULTI_COLOR_SEARCH_PINS
    pins."""
    loose = CycleSpec(8, 3, 1)
    return list(_index_instances()) + [
        (sample_directed(8, 3, q_from_p(0.05), 4, derive_seed(1010, 1, t)), loose)
        for t in range(200)
    ]


def _records(instances, budget) -> list[dict]:
    return [find_rainbow_cycle(H, spec, budget).to_record() for H, spec in instances]


@pytest.mark.parametrize("budget", [None, 20])
def test_forced_loop_forms_search_alike(budget, monkeypatch):
    # the loop's list and dict tables, each forced on every index the loop
    # builds, give the records of the forms _edge_index picks: statuses,
    # node counts and certificates, on single-color instances of several
    # specs and on the directed instances MULTI_COLOR_SEARCH_PINS pins
    instances = _searched_instances()
    picked = _records(instances, budget)
    looped = solver._looped_edge_index
    for form in (list, dict):
        forms = set()

        def forced(H, anchor, ranks, slots, masks, listed):
            index = looped(H, anchor, ranks, slots, masks, form is list)
            forms.add(type(index[0]))
            return index

        monkeypatch.setattr(solver, "_looped_edge_index", forced)
        assert _records(instances, budget) == picked, form
        monkeypatch.undo()
        assert forms == {form}
    statuses = {record["status"] for record in picked}
    assert {"found", "not_found"} <= statuses
    assert ("unknown" in statuses) == (budget is not None)


def _oracle_sized_instances():
    """(H, spec) at n <= 9 for the counting oracle: single- and multi-color,
    r = m and r = m + 1."""
    for (n, k, ell), p, q in [
        ((8, 3, 1), 0.3, 0.05),
        ((8, 4, 2), 0.4, 0.06),
        ((9, 4, 3), 0.6, 0.1),
    ]:
        spec = CycleSpec(n, k, ell)
        for r in (spec.m, spec.m + 1):
            for t in range(4):
                seed = derive_seed(29, n, r, t)
                yield sample_colored(n, k, p, r, seed), spec
                yield sample_directed(n, k, q, r, seed), spec


def test_large_n_regime_searches_alike(monkeypatch):
    # with TABLE_MAX_N at 0 every search takes the path of n > 16 (loops
    # popping the lowest candidate bit, the loop builder, masks unranked for
    # the search alone and dict tables) at sizes the oracle reaches: its
    # records are the default regime's, and its verdicts the oracle's
    instances = _searched_instances()
    oracle = list(_oracle_sized_instances())
    default = [_records(instances, budget) for budget in (None, 20)]
    looped = solver._looped_edge_index
    built = []

    def recording(H, anchor, ranks, slots, masks, listed):
        built.append((type(masks), listed))
        return looped(H, anchor, ranks, slots, masks, listed)

    def unused(*args):
        raise AssertionError("the numpy pass ran past TABLE_MAX_N")

    monkeypatch.setattr(solver, "TABLE_MAX_N", 0)
    monkeypatch.setattr(solver, "_looped_edge_index", recording)
    monkeypatch.setattr(solver, "_dense_edge_index", unused)
    _compiled_search.cache_clear()
    try:
        large = [_records(instances, budget) for budget in (None, 20)]
        checks = [solver_agrees_with_oracle(H, spec) for H, spec in oracle]
        plans = {(spec, H.r == spec.m, H.multi_color) for H, spec in instances + oracle}
        sources = [_search_source(*plan) for plan in plans]
    finally:
        monkeypatch.undo()
        _compiled_search.cache_clear()
    assert large == default
    assert set(built) == {(dict, False)}
    assert all(
        "while cand0:" in source and "_candidate_bits" not in source for source in sources
    )
    assert all(agree for agree, _, _ in checks)
    assert {outcome.found for _, outcome, _ in checks} == {False, True}
    assert {H.multi_color for H, _ in oracle} == {False, True}


def test_dense_index_rule():
    # single-color, n <= TABLE_MAX_N and E * 2^k >= DENSE_INDEX_MIN_PAIRS,
    # nothing else
    H = sample_colored(10, 4, 1.0, 10, 1)
    assert H.edge_count << 4 >= DENSE_INDEX_MIN_PAIRS and _index_routine(H)[0]
    assert not _index_routine(sample_colored(10, 4, 0.05, 10, 1))[0]
    assert _index_routine(sample_colored(16, 3, 0.3, 16, 1))[0]
    assert not _index_routine(sample_colored(17, 3, 0.3, 17, 1))[0]
    directed = sample_directed(10, 4, 0.05, 10, 1)
    assert directed.edge_count << 4 >= DENSE_INDEX_MIN_PAIRS
    assert not _index_routine(directed)[0]


def test_bench_shaped_searches_take_their_index_routine(monkeypatch, capsys):
    # the calls csweep_tight10, sweep_loose12 and couple_directed8 make:
    # every csweep search has 1,184-3,360 (edge, subset) pairs, at least a
    # quarter of its 2,048-entry table, and takes the numpy pass and gets a
    # list; sweep (<= 704 pairs) and couple (<= 232 pairs, or multi-color)
    # take the loop, which lists a table holding at most 32 entries per
    # pair: every couple search (n = 8 and at least m = 4 edges: 512 <= 32
    # * 32) and the sweep searches with at least 256 pairs, where the rest
    # get dicts
    taken = []
    _record_index_routines(monkeypatch, taken)
    calls = {
        "csweep": [
            ["csweep", "--n", "10", "--k", "4", "--ell", "3", "--c", "1",
             "--p-grid", "0.37:1.0:8", "--mode", "budgeted", "--budget", "50000",
             "--trials", "1", "--seed", str(seed)]
            for seed in range(2, 7)
        ],
        "sweep": [
            ["sweep", "--n", "12", "--k", "3", "--ell", "1", "--r", "6",
             "--p-grid", "0.02:0.35:9", "--trials", "1", "--seed", str(seed)]
            for seed in range(1, 7)
        ],
        "couple": [
            ["couple", "--n", "8", "--k", "3", "--p", "0.05", "--trials", "100",
             "--seed", str(seed)]
            for seed in range(1010, 1018)
        ],
    }
    seen = {}
    for name, argvs in calls.items():
        taken.clear()
        for argv in argvs:
            assert main(argv) == 0
        capsys.readouterr()
        seen[name] = list(taken)
    assert all(
        dense and form is list and 1184 <= pairs <= 3360
        for _, pairs, dense, form in seen["csweep"]
    )
    assert not any(dense or pairs > 704 for _, pairs, dense, _ in seen["sweep"])
    assert all(
        form is (list if (1 << 13) <= LOOP_LIST_LOAD * pairs else dict)
        for _, pairs, _, form in seen["sweep"]
    )
    assert {form for *_, form in seen["sweep"]} == {list, dict}
    assert not any(dense or form is not list for _, _, dense, form in seen["couple"])
    assert all(multi or pairs <= 232 for multi, pairs, _, _ in seen["couple"])
    assert all(seen.values())


def test_shared_caches_are_read_only():
    # cached arrays are handed to every caller; a write would reach them all
    for array in (_perm_edge_table(6, 3, 1), _edge_set_table(6, 3, 1)[0], _vertex_masks(10, 4)[1]):
        with pytest.raises(ValueError):
            array[0, 0] = 0


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


def test_colors_past_63_bits_search_as_their_ranks():
    # single-color ids whose bits would pass bit 63 are numbered by rank
    # among the present colors before the search; ranks keep the colors'
    # order, so the tree is that of the instance colored by those ranks,
    # and the certificate names the original colors
    cases = [(CycleSpec(8, 3, 1), p, 2**63 - 1, None) for p in (0.15, 0.3, 0.6)]
    cases += [(CycleSpec(10, 4, 3), 0.9, 2**40, 2000)]  # a dense, listed index
    found = 0
    for spec, p, r, budget in cases:
        for seed in range(3):
            H = sample_colored(spec.n, spec.k, p, r, seed)
            palette = sorted({c for _, cs in H.items() for c in cs})
            rank = {c: i + 1 for i, c in enumerate(palette)}
            ranked = ColoredHypergraph(
                spec.n, spec.k, max(len(palette), spec.m + 1),
                {e: {rank[c] for c in cs} for e, cs in H.items()},
            )
            out, expected = find_rainbow_cycle(H, spec, budget), find_rainbow_cycle(ranked, spec, budget)
            assert (out.status, out.nodes_expanded) == (expected.status, expected.nodes_expanded)
            if out.found:
                cert, ranked_cert = out.certificate, expected.certificate
                assert (cert.hamperm, cert.edges) == (ranked_cert.hamperm, ranked_cert.edges)
                assert cert.colors == tuple(palette[c - 1] for c in ranked_cert.colors)
                assert verify_certificate(H, cert)
                found += 1
    assert found >= 4


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
            sample_directed(8, 3, q, 4, derive_seed(1010, 1, t)), spec, budget
        ).to_record()
        for t in range(200)
    ]
    statuses = {record["status"] for record in records}
    assert {"found", "not_found"} <= statuses
    assert ("unknown" in statuses) == (budget is not None)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == MULTI_COLOR_SEARCH_PINS[mode, budget]


# SHA-256 of the JSON of to_record() over every spec with n <= 9, r in
# {m, m+1}, single-color and directed multi-color instances at three edge
# densities, each searched exhaustively and with a budget of 20 nodes: pins
# every status, reason, node count and certificate of the search tree.
# Recorded on the interpretive search loop, before the compiled search
SEARCH_RECORD_PIN = "d74492c1f2c8908a975f163513a64f174832c6a16bcb5a1d53affc8521a68c9b"


def test_search_records_are_pinned():
    records = []
    for spec in enumerate_specs(9):
        for extra in (0, 1):
            r = spec.m + extra
            for t, p in enumerate((0.35, 0.6, 0.9)):
                seed = derive_seed(1111, spec.n, spec.k, spec.ell, extra, t)
                # q gives each k-set presence probability p
                q = 1 - (1 - p) ** (1 / math.factorial(spec.k))
                for H in (
                    sample_colored(spec.n, spec.k, p, r, seed),
                    sample_directed(spec.n, spec.k, q, r, seed),
                ):
                    for budget in (None, 20):
                        outcome = find_rainbow_cycle(H, spec, budget)
                        records.append(outcome.to_record(budget))
    statuses = {record["status"] for record in records}
    assert statuses == {"found", "not_found", "unknown"}
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SEARCH_RECORD_PIN



# SHA-256 of [status, nodes, certificate permutation] over budgeted searches
# (budgets 300 and 4,000) at n = 18-40, where the generated search spans two
# or three functions of CHUNK_STEPS steps: tight, loose and general ell,
# r in {m, m+1}, single-color, plus directed multi-color at n <= 24, at two
# edge densities each.  Recorded before the search became nested loops
CHUNK_RECORD_CASES = {
    (18, 3, 2): (0.1, 0.9), (24, 4, 3): (0.05, 0.8), (40, 3, 2): (0.02, 0.8),
    (20, 3, 1): (0.1, 0.2), (36, 4, 1): (0.05, 0.1), (40, 3, 1): (0.1, 0.4),
    (18, 4, 2): (0.02, 0.4), (30, 4, 2): (0.05, 0.2), (31, 3, 2): (0.05, 0.8),
    (40, 4, 2): (0.05, 0.2),
}
CHUNK_RECORD_PIN = "9cfaa165e215c8868c4e82f9807cff619b57ed08f7f0b6bf7117fbb1cd0465a0"


def test_search_records_across_chunks_are_pinned():
    records = []
    for (n, k, ell), densities in CHUNK_RECORD_CASES.items():
        spec = CycleSpec(n, k, ell)
        for extra in (0, 1):
            r = spec.m + extra
            for t, p in enumerate(densities):
                seed = derive_seed(1212, n, k, ell, extra, t)
                instances = [sample_colored(n, k, p, r, seed)]
                if n <= 24:
                    q = 1 - (1 - p) ** (1 / math.factorial(k))
                    instances.append(sample_directed(n, k, q, r, seed))
                for H in instances:
                    for budget in (300, 4000):
                        outcome = find_rainbow_cycle(H, spec, budget)
                        cert = outcome.certificate
                        records.append([
                            outcome.status.value,
                            outcome.nodes_expanded,
                            cert and list(cert.hamperm.pi),
                        ])
    statuses = {record[0] for record in records}
    assert statuses == {"found", "not_found", "unknown"}
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == CHUNK_RECORD_PIN


@pytest.mark.parametrize("n", [16, 30, 31, 64])
def test_every_plan_shape_compiles_and_runs_up_to_n64(n):
    # CPython rejects a function with more than 20 nested blocks, so every
    # generated function must hold at most CHUNK_STEPS step loops, at any n;
    # a planted cycle then has to come out through every chunk
    specs = [CycleSpec(n, 3, 2)]
    if n % 2 == 0:
        specs += [CycleSpec(n, 3, 1), CycleSpec(n, 4, 2)]
    rng = random.Random(n)
    for spec in specs:
        for anchored in (False, True):
            for multi in (False, True):
                source = _search_source(spec, anchored, multi)
                chunks = source.split("\n    def chunk")[1:]
                assert len(chunks) == -(-n // CHUNK_STEPS)
                # each step is one loop, over a bit-tuple table up to n = 16
                # and popping the lowest bit beyond it
                assert ("bits[" in source) == (n <= 16)
                for chunk in chunks:
                    first = int(chunk.split("(")[0]) * CHUNK_STEPS
                    loops = chunk.count("while cand") + chunk.count(" in bits[cand")
                    assert loops == min(CHUNK_STEPS, n - first)
                assert callable(_compiled_search(spec, anchored, multi))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        for r in (spec.m, spec.m + 1):  # color- and vertex-anchored
            for multi in (False, True):
                edges = {
                    e: {c + 1} for c, e in enumerate(edges_of_hamperm(Hamperm(tuple(perm), spec)))
                }
                H = ColoredHypergraph(n, spec.k, r, edges, multi_color=multi)
                out = find_rainbow_cycle(H, spec)
                assert out.found, (spec, r, multi)
                assert verify_certificate(H, out.certificate)


def _search_peak(H: ColoredHypergraph, spec: CycleSpec) -> tuple[SearchOutcome, int]:
    """A budget-300 search of H with an empty _vertex_masks cache, and the
    peak of the memory it allocates under tracemalloc."""
    _vertex_masks.cache_clear()
    tracemalloc.start()
    try:
        out = find_rainbow_cycle(H, spec, budget=300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_vertex_mask_table_holds_only_masks():
    # past n = 16 no table over every k-set is built: the loop unranks the
    # present edges alone, into Python ints, as at n = 64 the masks outgrow
    # int64 (the plan is compiled beforehand)
    spec = CycleSpec(64, 3, 2)
    find_rainbow_cycle(sample_colored(64, 3, 0.05, 65, 1), spec, budget=300)
    out, peak = _search_peak(sample_colored(64, 3, 0.05, 65, 2), spec)
    assert out.status is SearchStatus.UNKNOWN
    assert _vertex_masks.cache_info().currsize == 0
    last = ColoredHypergraph(64, 3, 65, {(62, 63, 64): {1}})
    assert _edge_index(last, 0, *_present_edges(last))[1] == [
        ((1 << 62) | (1 << 63) | (1 << 64), 1 << 66)
    ]
    assert _vertex_masks.cache_info().currsize == 0
    assert peak < 3.5 * (1 << 20)


def test_candidate_bit_table_is_built_only_up_to_n16():
    # bits[mask] lists mask's vertex bits in ascending order; the table
    # takes 7.2 MB at n = 16, and beyond it no table is built at all
    _candidate_bits.cache_clear()
    tracemalloc.start()
    try:
        bits = _candidate_bits(16)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bits) == 1 << 17 and bits[0b1010_0110] == (2, 4, 32, 128)
    assert bits[0] == bits[0b1010_0111] == () and bits[-2] == tuple(1 << v for v in range(1, 17))
    assert size < 9 * (1 << 20)
    _candidate_bits.cache_clear()
    out = find_rainbow_cycle(sample_colored(30, 3, 0.05, 31, 1), CycleSpec(30, 3, 2), budget=300)
    assert out.nodes_expanded and _candidate_bits.cache_info().currsize == 0


def test_sparse_search_on_many_ksets_stays_small():
    # C(200, 3) = 1,313,400 k-sets: a table of one Python int for each took
    # 2.8 s and a 123 MB peak on the first search of a 253-edge instance
    spec = CycleSpec(200, 3, 2)
    find_rainbow_cycle(sample_colored(200, 3, 0.0002, 201, 2), spec, budget=300)
    H = sample_colored(200, 3, 0.0002, 201, 1)
    out, peak = _search_peak(H, spec)
    assert H.edge_count == 253 and out.status is SearchStatus.NOT_FOUND
    assert peak < 3.5 * (1 << 20)


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


def test_enumeration_caps_refuse_before_any_table():
    # n above a cap is TooLarge before any n! table or loop, and the caps
    # are constants: no oracle takes a limit
    spec = CycleSpec(12, 3, 1)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="limit 9"):
            count_hamperms(ColoredHypergraph(12, 3, 4), spec)
        with pytest.raises(TooLarge, match="limit 9"):
            overlap_profile(spec)
        with pytest.raises(TooLarge, match="limit 9"):
            expected_Y_bruteforce(spec, 0.5, 4)
        with pytest.raises(TooLarge, match="limit 7"):
            second_moment_bruteforce(CycleSpec(8, 3, 1), 0.5, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for oracle in (count_hamperms, overlap_profile, expected_Y_bruteforce,
                   second_moment_bruteforce):
        assert "limit" not in inspect.signature(oracle).parameters


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


def test_count_multi_color_dense_agrees_with_per_permutation_sdr():
    # count_hamperms solves one SDR per distinct multiset of column colors;
    # here every present permutation gets its own, on dense directed
    # instances where Y lies strictly between 0 and X
    strict = 0
    for spec in (CycleSpec(7, 4, 3), CycleSpec(7, 3, 2), CycleSpec(8, 4, 2)):
        table = _perm_edge_table(spec.n, spec.k, spec.ell)
        for t in range(3):
            r = spec.m + t % 2
            H = sample_directed(spec.n, spec.k, 0.05, r, derive_seed(79, spec.n, spec.k, t))
            colors = H.by_rank[table]
            present = np.logical_and.reduce(colors != 0, axis=0)
            slow_y = sum(
                distinct_color_system([color_bits(mask) for mask in column]) is not None
                for column in colors[:, present].T.tolist()
            )
            x_count, y_count = count_hamperms(H, spec)
            assert (x_count, y_count) == (int(present.sum()), slow_y), (spec, t)
            strict += 0 < y_count < x_count
    assert strict >= 3


def _per_permutation_counts(H, spec):
    """(X, Y) read column by column off the permutation table, every
    permutation tested on its own; SDRs memoised by color multiset."""
    colors = H.by_rank[_perm_edge_table(spec.n, spec.k, spec.ell)]
    present = np.logical_and.reduce(colors != 0, axis=0)
    if H.multi_color:
        sdr = {}
        y_count = 0
        for column in colors[:, present].T.tolist():
            key = tuple(sorted(column))
            if key not in sdr:
                sdr[key] = distinct_color_system([color_bits(mask) for mask in key]) is not None
            y_count += sdr[key]
    else:
        rainbow = present.copy()
        for i, j in itertools.combinations(range(spec.m), 2):
            rainbow &= colors[i] != colors[j]
        y_count = int(np.count_nonzero(rainbow))
    return int(np.count_nonzero(present)), y_count


def test_count_matches_per_permutation_reference():
    # every spec up to n = 7, single- and multi-color, at r in {m, m + 1}
    # and two edge densities: the grouped count equals the ungrouped one
    strict = {False: 0, True: 0}  # instances with 0 < Y < X, by multi_color
    for spec in enumerate_specs(7):
        for t, (r, p) in enumerate(itertools.product((spec.m, spec.m + 1), (0.6, 0.9))):
            seed = derive_seed(80, spec.n, spec.k, spec.ell, t)
            q = 1 - (1 - p) ** (1 / math.factorial(spec.k))  # a k-set present w.p. p
            for H in (
                sample_colored(spec.n, spec.k, p, r, seed),
                sample_directed(spec.n, spec.k, q, r, seed),
            ):
                counts = count_hamperms(H, spec)
                assert counts == _per_permutation_counts(H, spec), (spec, r, p, H.multi_color)
                strict[H.multi_color] += 0 < counts[1] < counts[0]
    assert min(strict.values()) >= 10


def test_edge_set_table_groups_the_permutation_table():
    for spec in enumerate_specs(8):
        columns, weight = _edge_set_table(spec.n, spec.k, spec.ell)
        raw = np.sort(_perm_edge_table(spec.n, spec.k, spec.ell), axis=0)
        assert columns.flags.c_contiguous  # count_hamperms reads its rows
        assert np.all(columns[1:] >= columns[:-1])  # each column sorted
        grouped = set(map(tuple, columns.T.tolist()))
        assert len(grouped) == columns.shape[1]  # distinct
        assert grouped == set(map(tuple, raw.T.tolist()))
        assert columns.shape[1] * weight == math.factorial(spec.n)


def test_count_multi_color_streams_its_columns():
    # a dense (9, 7, 6) directed instance: every permutation is present and
    # rainbow.  Its (m, n!) array of Python-int color masks alone peaked at
    # ~100 MB; gathered over its 20,160 distinct edge sets at once, the call
    # stays far below that
    spec = CycleSpec(9, 7, 6)
    H = sample_directed(9, 7, 0.1, 9, 1)
    _edge_set_table(9, 7, 6)  # cached with the table it groups: not in the peak
    tracemalloc.start()
    try:
        counts = count_hamperms(H, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == (362880, 362880)
    assert peak < 16 << 20


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


def test_second_moment_bruteforce_checks_its_arguments():
    spec = CycleSpec(6, 3, 1)  # m = 3
    for r in (0, -1, -2):
        with pytest.raises(InvalidInput):
            second_moment_bruteforce(spec, Fraction(1, 2), r)
    for p in (2, -1, Fraction(3, 2)):
        with pytest.raises(InvalidInput):
            second_moment_bruteforce(spec, p, spec.m)
    # too few colors for a rainbow cycle is a value, not an error
    for r in range(1, spec.m):
        assert second_moment_bruteforce(spec, Fraction(1, 2), r) == 0


def test_oracles_refuse_a_non_finite_p():
    # NaN and the infinities are tested before any Fraction conversion
    spec = CycleSpec(6, 3, 1)
    for oracle, first in (
        (expected_Y_bruteforce, spec),
        (second_moment_from_profile, overlap_profile(spec)),
        (second_moment_bruteforce, spec),
    ):
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInput, match="p must lie in"):
                oracle(first, p, spec.m)


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
        math.perm(m, m), m**m
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


def test_expected_y_bruteforce_checks_its_arguments():
    spec = CycleSpec(6, 3, 1)
    for p in (2, -1, Fraction(3, 2)):
        with pytest.raises(InvalidInput):
            expected_Y_bruteforce(spec, p, 3)
    for r in (0, -1, -2):
        with pytest.raises(InvalidInput):
            expected_Y_bruteforce(spec, Fraction(1, 2), r)
    assert expected_Y_bruteforce(spec, 0, 1) == 0
    assert expected_Y_bruteforce(spec, 1, 1) == 0  # r < m: no rainbow cycle


# -- falling factorial ----------------------------------------------------------

@given(st.integers(0, 30), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_falling_factorial(x, t):
    # the moments read (x)_t = x (x-1) ... (x-t+1) off math.perm
    expected = 1
    for i in range(t):
        expected *= x - i
    assert math.perm(x, t) == expected
    if t > x:
        assert math.perm(x, t) == 0
