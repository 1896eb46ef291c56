import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowhc import (
    ColoredHypergraph,
    CoupledInstance,
    CycleFailure,
    CycleSpec,
    Hamperm,
    InvalidInput,
    InvalidSpec,
    RainbowCertificate,
    TooLarge,
    edges_of_hamperm,
    read_chg,
    sample_colored,
    validate_cycle,
    verify_certificate,
)
from rainbowhc.core import (
    _ENUMERATION_CAP,
    ColorMatcher,
    color_bits,
    distinct_color_system,
    kset_of_rank,
    kset_table,
    lex_rank,
)
from rainbowhc.models import _coupled_arrays

from conftest import enumerate_specs


# -- CycleSpec ---------------------------------------------------------------

def test_spec_basic_fields():
    spec = CycleSpec(12, 3, 1)
    assert spec.m == 6
    assert spec.block_size == 2


@pytest.mark.parametrize(
    "n,k,ell",
    [
        (7, 3, 1),    # k-ell does not divide n
        (3, 3, 2),    # n = k degenerate
        (6, 4, 1),    # m = 2: adjacent windows overlap at both ends
        (6, 5, 3),    # n < 2k - ell
        (6, 3, 0),    # ell out of range
        (6, 3, 3),    # ell out of range
        (4, 1, 0),    # k too small
    ],
)
def test_spec_rejects_bad_geometry(n, k, ell):
    with pytest.raises(InvalidSpec):
        CycleSpec(n, k, ell)


def test_hamperm_must_be_permutation():
    spec = CycleSpec(6, 3, 1)
    with pytest.raises(InvalidInput):
        Hamperm((1, 2, 3, 4, 5, 5), spec)


# -- edges_of_hamperm --------------------------------------------------------

def test_identity_loose_edges():
    spec = CycleSpec(6, 3, 1)
    pi = Hamperm((1, 2, 3, 4, 5, 6), spec)
    assert edges_of_hamperm(pi) == [(1, 2, 3), (3, 4, 5), (1, 5, 6)]


def test_identity_tight_edges_use_all_triples():
    spec = CycleSpec(4, 3, 2)
    pi = Hamperm((1, 2, 3, 4), spec)
    assert edges_of_hamperm(pi) == [
        (1, 2, 3),
        (2, 3, 4),
        (1, 3, 4),
        (1, 2, 4),
    ]


SPEC_POOL = enumerate_specs(9)


@st.composite
def spec_and_perm(draw):
    spec = draw(st.sampled_from(SPEC_POOL))
    perm = list(range(1, spec.n + 1))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    rnd.shuffle(perm)
    return spec, tuple(perm)


@given(spec_and_perm())
@settings(max_examples=150, deadline=None)
def test_edge_count_and_vertex_cover(case):
    spec, perm = case
    edges = edges_of_hamperm(Hamperm(perm, spec))
    assert len(edges) == spec.m
    assert all(len(e) == spec.k for e in edges)
    assert len(set(edges)) == spec.m
    covered = set(itertools.chain.from_iterable(edges))
    assert covered == set(range(1, spec.n + 1))


@given(spec_and_perm())
@settings(max_examples=150, deadline=None)
def test_adjacent_edges_share_exactly_ell(case):
    spec, perm = case
    edges = edges_of_hamperm(Hamperm(perm, spec))
    for i in range(spec.m):
        assert len(set(edges[i]) & set(edges[(i + 1) % spec.m])) == spec.ell


@given(spec_and_perm())
@settings(max_examples=150, deadline=None)
def test_block_partition(case):
    # C_i = E_i \ E_{i-1} partitions [n] into m blocks of size k - ell
    spec, perm = case
    edges = [set(e) for e in edges_of_hamperm(Hamperm(perm, spec))]
    blocks = [edges[i] - edges[i - 1] for i in range(spec.m)]
    assert all(len(b) == spec.block_size for b in blocks)
    union = set().union(*blocks)
    assert union == set(range(1, spec.n + 1))


@given(spec_and_perm())
@settings(max_examples=100, deadline=None)
def test_rotation_leaves_edge_set_invariant(case):
    spec, perm = case
    base = set(edges_of_hamperm(Hamperm(perm, spec)))
    bs = spec.block_size
    for shift in range(bs, spec.n, bs):
        rotated = perm[shift:] + perm[:shift]
        assert set(edges_of_hamperm(Hamperm(rotated, spec))) == base


# -- ColoredHypergraph -------------------------------------------------------

def test_hypergraph_validation():
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, {(1, 2, 3): {3}})  # color out of range
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, {(1, 2, 6): {1}})  # vertex out of range
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, {(1, 2): {1}})  # not a k-set
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, {(1, 2, 3): {1, 2}})  # two colors, single mode
    multi = ColoredHypergraph(5, 3, 2, {(1, 2, 3): {1, 2}}, multi_color=True)
    assert multi.colors_of((3, 2, 1)) == frozenset({1, 2})


def test_colored_edge_type():
    from rainbowhc import ColoredEdge

    e = ColoredEdge((3, 1, 2), 2)
    assert e.vertices == (1, 2, 3)
    with pytest.raises(InvalidInput):
        ColoredEdge((1, 1, 2), 1)  # repeated vertex
    with pytest.raises(InvalidInput):
        ColoredEdge((0, 1, 2), 1)  # 0 is not a vertex id
    with pytest.raises(InvalidInput):
        ColoredEdge((1, 2, 3), 0)  # 0 is not a color id
    H = ColoredHypergraph.from_pairs(5, 3, 2, [ColoredEdge((1, 2, 3), 2)])
    assert H.colors_of((1, 2, 3)) == frozenset({2})


def test_from_pairs_rejects_duplicates():
    with pytest.raises(InvalidInput):
        ColoredHypergraph.from_pairs(5, 3, 2, [((1, 2, 3), 1), ((3, 2, 1), 1)])
    # same edge, different colors: fine in multi mode only
    pairs = [((1, 2, 3), 1), ((1, 2, 3), 2)]
    with pytest.raises(InvalidInput):
        ColoredHypergraph.from_pairs(5, 3, 2, pairs)
    H = ColoredHypergraph.from_pairs(5, 3, 2, pairs, multi_color=True)
    assert H.edge_count == 1


def test_complete_rainbow():
    H = ColoredHypergraph.complete_rainbow(5, 3)
    assert H.edge_count == 10
    assert H.r == 10
    assert len({next(iter(cs)) for _, cs in H.items()}) == 10


def test_lex_rank_is_combinations_order():
    for n in range(1, 9):
        for k in range(1, n + 1):
            ksets, masks = kset_table(n, k)
            combos = list(itertools.combinations(range(1, n + 1), k))
            assert list(ksets) == combos
            assert [lex_rank(n, e) for e in combos] == list(range(math.comb(n, k)))
            assert [kset_of_rank(n, k, i) for i in range(len(combos))] == combos
            assert list(masks) == [sum(1 << v for v in e) for e in combos]


def test_storage_is_one_array_by_rank():
    H = ColoredHypergraph(5, 3, 4, {(3, 5, 4): {2}, (1, 2, 3): {4}})
    expected = np.zeros(10, dtype=np.int64)
    expected[lex_rank(5, (1, 2, 3))] = 4
    expected[lex_rank(5, (3, 4, 5))] = 2
    assert np.array_equal(H.by_rank, expected)
    assert not H.by_rank.flags.writeable
    assert list(H.items()) == [((1, 2, 3), frozenset({4})), ((3, 4, 5), frozenset({2}))]
    assert list(H.edges()) == [(1, 2, 3), (3, 4, 5)]
    assert ColoredHypergraph(5, 3, 4, by_rank=expected) == H
    for probe in [(1, 2), (1, 1, 2), (0, 1, 2), (4, 5, 6), (1, 2, 3, 4)]:
        assert not H.has_edge(probe)
        assert H.colors_of(probe) == frozenset()

    multi = ColoredHypergraph(5, 3, 3, {(2, 3, 4): {1, 3}}, multi_color=True)
    assert multi.by_rank[lex_rank(5, (2, 3, 4))] == 0b1010
    assert color_bits(0b1010) == (1, 3)
    assert multi.colors_of((4, 3, 2)) == frozenset({1, 3})


def test_by_rank_constructor_checks_range_and_shape():
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, by_rank=[0] * 9)  # wrong length
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, by_rank=[3] + [0] * 9)  # color above r
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, by_rank=[-1] + [0] * 9)
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, by_rank=[0.5] * 10)
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, by_rank=[0b1000] + [0] * 9, multi_color=True)
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, by_rank=[0b1] + [0] * 9, multi_color=True)
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, by_rank=[-2] + [0] * 9, multi_color=True)
    with pytest.raises(InvalidInput):
        ColoredHypergraph(5, 3, 2, {(1, 2, 3): {1}}, by_rank=[0] * 10)
    given = np.zeros(10, dtype=np.int64)
    H = ColoredHypergraph(5, 3, 2, by_rank=given)
    given[0] = 1  # the hypergraph keeps its own copy
    assert H.edge_count == 0


def test_sparse_hypergraph_near_the_cap_lists_edges_cheaply():
    H = ColoredHypergraph(2000, 2, 3, {(1, 2): {1}, (1999, 2000): {3}})
    tracemalloc.start()
    try:
        assert list(H.items()) == [((1, 2), frozenset({1})), ((1999, 2000), frozenset({3}))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_more_ksets_than_the_cap_is_too_large_before_allocating():
    n, k = 200, 4
    assert math.comb(n, k) > _ENUMERATION_CAP
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            ColoredHypergraph(n, k, 3)
        with pytest.raises(TooLarge):
            read_chg(io.StringIO(f"{n} {k} 3\n1 2 3 4 1\n"))
        with pytest.raises(TooLarge):
            sample_colored(n, k, 0.5, 3, seed=0)
        with pytest.raises(TooLarge):
            CoupledInstance(n, k, 3, seed=0).realize(0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert kset_table.cache_info().maxsize <= 8
    assert _coupled_arrays.cache_info().maxsize <= 8


# -- validate_cycle / verify_certificate -------------------------------------

def test_validate_on_complete_rainbow():
    spec = CycleSpec(6, 3, 1)
    H = ColoredHypergraph.complete_rainbow(6, 3)
    cert = validate_cycle(H, Hamperm((1, 2, 3, 4, 5, 6), spec))
    assert isinstance(cert, RainbowCertificate)
    assert verify_certificate(H, cert)


def test_validate_reports_missing_edge_index():
    spec = CycleSpec(6, 3, 1)
    pi = Hamperm((1, 2, 3, 4, 5, 6), spec)
    edges = edges_of_hamperm(pi)
    pairs = [(e, i + 1) for i, e in enumerate(edges) if i != 1]
    H = ColoredHypergraph.from_pairs(6, 3, 3, pairs)
    failure = validate_cycle(H, pi)
    assert isinstance(failure, CycleFailure)
    assert failure.kind == CycleFailure.MISSING_EDGE
    assert failure.edge_index == 2


def test_validate_not_rainbow_by_pigeonhole():
    # all four triples of [4] present, colors (1, 1, 2, 3)
    spec = CycleSpec(4, 3, 2)
    pairs = [((1, 2, 3), 1), ((2, 3, 4), 1), ((1, 3, 4), 2), ((1, 2, 4), 3)]
    H = ColoredHypergraph.from_pairs(4, 3, 4, pairs)
    failure = validate_cycle(H, Hamperm((1, 2, 3, 4), spec))
    assert isinstance(failure, CycleFailure)
    assert failure.kind == CycleFailure.NOT_RAINBOW


def test_validate_dimension_mismatch():
    spec = CycleSpec(6, 3, 1)
    H = ColoredHypergraph(7, 3, 3)
    with pytest.raises(InvalidInput):
        validate_cycle(H, Hamperm((1, 2, 3, 4, 5, 6), spec))


def test_validate_multi_color_needs_matching():
    # forced chain: greedy color-per-edge fails, augmenting succeeds
    spec = CycleSpec(6, 3, 1)
    pi = Hamperm((1, 2, 3, 4, 5, 6), spec)
    e1, e2, e3 = edges_of_hamperm(pi)
    H = ColoredHypergraph(
        6, 3, 3,
        {e1: {1, 2}, e2: {1}, e3: {2, 3}},
        multi_color=True,
    )
    cert = validate_cycle(H, pi)
    assert isinstance(cert, RainbowCertificate)
    assert sorted(cert.colors) == [1, 2, 3] or len(set(cert.colors)) == 3
    assert verify_certificate(H, cert)


def test_validate_multi_color_infeasible():
    spec = CycleSpec(6, 3, 1)
    pi = Hamperm((1, 2, 3, 4, 5, 6), spec)
    e1, e2, e3 = edges_of_hamperm(pi)
    H = ColoredHypergraph(
        6, 3, 3,
        {e1: {1, 2}, e2: {1, 2}, e3: {1, 2}},
        multi_color=True,
    )
    failure = validate_cycle(H, pi)
    assert isinstance(failure, CycleFailure)
    assert failure.kind == CycleFailure.NOT_RAINBOW


def test_verify_rejects_tampering():
    spec = CycleSpec(6, 3, 1)
    H = ColoredHypergraph.complete_rainbow(6, 3)
    cert = validate_cycle(H, Hamperm((1, 2, 3, 4, 5, 6), spec))
    assert verify_certificate(H, cert)
    # repeated color
    bad = RainbowCertificate(cert.hamperm, cert.edges, (5,) * len(cert.colors))
    assert not verify_certificate(H, bad)
    # edge list disagrees with the hamperm
    rolled = cert.edges[1:] + cert.edges[:1]
    assert not verify_certificate(H, RainbowCertificate(cert.hamperm, rolled, cert.colors))
    # color not on that edge in H
    wrong = list(cert.colors)
    wrong[0] = wrong[1]
    assert not verify_certificate(H, RainbowCertificate(cert.hamperm, cert.edges, tuple(wrong)))
    assert not verify_certificate(H, "not a certificate")


@given(spec_and_perm(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_validate_verify_round_trip(case, seed):
    spec, perm = case
    rnd = random.Random(seed)
    pi = Hamperm(perm, spec)
    edges = edges_of_hamperm(pi)
    r = spec.m + rnd.randrange(3)
    colors = rnd.sample(range(1, r + 1), spec.m)
    pairs = list(zip(edges, colors))
    H = ColoredHypergraph.from_pairs(spec.n, spec.k, r, pairs)
    result = validate_cycle(H, pi)
    assert isinstance(result, RainbowCertificate)
    assert verify_certificate(H, result)


# -- ColorMatcher ------------------------------------------------------------

def test_matcher_add_remove():
    m = ColorMatcher()
    assert m.add(0, {1})
    assert m.add(1, {1, 2})
    assert not m.add(2, {1, 2})  # Hall violation
    m.remove(1)
    assert m.add(2, {1, 2})
    assert len(m) == 2


def test_distinct_color_system_examples():
    assert distinct_color_system([{1}, {1, 2}, {2, 3}]) is not None
    assert distinct_color_system([{1, 2}, {1, 2}, {1, 2}]) is None
    assert distinct_color_system([]) == []


@given(st.lists(st.sets(st.integers(1, 6), min_size=1, max_size=6), max_size=7))
@settings(max_examples=200, deadline=None)
def test_matcher_agrees_with_exhaustive_sdr(color_sets):
    got = distinct_color_system(color_sets)
    exists = any(
        len(set(choice)) == len(choice)
        for choice in itertools.product(*[sorted(cs) for cs in color_sets])
    ) if color_sets else True
    if got is None:
        assert not exists
    else:
        assert len(set(got)) == len(color_sets)
        assert all(c in cs for c, cs in zip(got, color_sets))
