import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowhc import (
    ColoredHypergraph,
    CoupledInstance,
    CycleSpec,
    Hamperm,
    InvalidCycle,
    InvalidInput,
    NoRealRoot,
    build_gamma,
    detect_color_collisions,
    edges_of_hamperm,
    find_gamma_cycle,
    find_rainbow_cycle,
    gamma_cycle_from_certificate,
    gamma_cycle_to_rainbow,
    q_from_p,
    sample_colored,
    sample_directed,
    validate_cycle,
    verify_certificate,
)
from rainbowhc.chgio import dumps_chg
from rainbowhc.models import _COLOR_SALT, _coupled_arrays
from rainbowhc.seeds import derive_seed, mix64, unit_interval


# -- sample_colored ----------------------------------------------------------

def test_sample_colored_extremes():
    assert sample_colored(8, 3, 0.0, 4, seed=1).edge_count == 0
    full = sample_colored(8, 3, 1.0, 4, seed=1)
    assert full.edge_count == math.comb(8, 3)


def test_sample_colored_is_deterministic():
    a = sample_colored(8, 3, 0.37, 5, seed=42)
    b = sample_colored(8, 3, 0.37, 5, seed=42)
    assert a == b
    assert a != sample_colored(8, 3, 0.37, 5, seed=43)


# SHA-256 of dumps_chg output, recorded before the samplers wrote straight
# into the rank-indexed array: pins both the draw order and the lex order.
STREAM_PINS = {
    "colored-0": (lambda: sample_colored(9, 3, 0.3, 3, 0),
                  "754007efb70cae1995f6a5e9e02802b975dca1359495a3cc664ae3af79cf701a"),
    "colored-12345": (lambda: sample_colored(9, 3, 0.3, 3, 12345),
                      "80dd5c5b51a80991656dc0ce7f6ffe005a62e77e99040acf4eba2ebc95bc9723"),
    "directed-0": (lambda: sample_directed(8, 3, 0.05, 4, 0),
                   "293b127057adace1c0f5035b10173c5bead380273922df545839e8aa5df52c34"),
    "directed-12345": (lambda: sample_directed(8, 3, 0.05, 4, 12345),
                       "415cbc070f9c4ba671f564890e65dd5efae50ec6e6dc93f828a6eabbae3c28f7"),
    "coupled-0": (lambda: CoupledInstance(10, 4, 10, 0).realize(0.6),
                  "865df4b3e6062b53d136168ecf8f905667cae6c80e7200916b4727b1451f70e2"),
    "coupled-12345": (lambda: CoupledInstance(10, 4, 10, 12345).realize(0.6),
                      "40440c189f5106e9bcd745d916f484f549198f3e6d36af658e851576bd3b5843"),
}


@pytest.mark.parametrize("name", STREAM_PINS)
def test_sampler_streams_are_pinned(name):
    build, digest = STREAM_PINS[name]
    assert hashlib.sha256(dumps_chg(build()).encode()).hexdigest() == digest


def test_sample_colored_rejects_bad_p():
    with pytest.raises(InvalidInput):
        sample_colored(6, 3, -0.1, 3, seed=0)
    with pytest.raises(InvalidInput):
        sample_colored(6, 3, 1.2, 3, seed=0)


def test_sample_colored_mean_edge_count():
    # binomial moments as oracle: n=10, k=3 -> N=120, p=0.2
    n_trials = 10_000
    counts = np.array(
        [
            sample_colored(10, 3, 0.2, 3, seed=derive_seed(8, i)).edge_count
            for i in range(n_trials)
        ]
    )
    mean, sigma = 120 * 0.2, math.sqrt(120 * 0.2 * 0.8)
    assert abs(counts.mean() - mean) <= 3 * sigma / math.sqrt(n_trials)


def test_colors_uniform():
    H = sample_colored(10, 3, 1.0, 4, seed=3)
    counts = np.zeros(5)
    for _, cs in H.items():
        counts[next(iter(cs))] += 1
    # 120 edges over 4 colors; crude 5-sigma sanity band
    assert all(abs(c - 30) < 5 * math.sqrt(30) for c in counts[1:])


# -- CoupledInstance ---------------------------------------------------------

def test_realize_extremes_and_nesting():
    ci = CoupledInstance(7, 3, 4, seed=9)
    assert ci.realize(0.0).edge_count == 0
    assert ci.realize(1.0).edge_count == math.comb(7, 3)
    sub, sup = ci.realize(0.3), ci.realize(0.7)
    for edge, colors in sub.items():
        assert sup.colors_of(edge) == colors


@pytest.mark.parametrize("n, k, r", [(6, 3, 3), (10, 4, 10), (12, 3, 6), (9, 1, 5)])
@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 2, 2**64 - 1, 2**64 + 5, -3])
def test_coupled_arrays_match_scalar_definition(n, k, r, seed):
    # the uint64 arrays must equal the per-edge definition in pure Python
    # ints, wrap-around near 2^64 and seeds outside [0, 2^64) included
    us, colors = _coupled_arrays(CoupledInstance(n, k, r, seed))
    want_us, want_colors = [], []
    for edge in itertools.combinations(range(1, n + 1), k):
        h = derive_seed(seed, *edge)
        want_us.append(unit_interval(h))
        want_colors.append(1 + mix64(h ^ _COLOR_SALT) % r)
    assert us.dtype == np.float64 and colors.dtype == np.int64
    assert us.tolist() == want_us
    assert colors.tolist() == want_colors


def test_level_of_is_when_the_edges_all_appear():
    # csweep settles every grid point above a certificate's level as found
    ci = CoupledInstance(8, 3, 4, seed=3)
    for edges in ([(1, 2, 3)], [(1, 2, 3), (3, 4, 5), (5, 6, 7), (1, 7, 8)]):
        level = ci.level_of(edges)
        below, above = ci.realize(level), ci.realize(math.nextafter(level, 1.0))
        assert not all(below.has_edge(e) for e in edges)
        assert all(above.has_edge(e) for e in edges)


@given(st.integers(0, 2**63), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_realize_monotone(seed, p1, p2):
    lo, hi = sorted((p1, p2))
    ci = CoupledInstance(6, 3, 3, seed=seed)
    sub, sup = ci.realize(lo), ci.realize(hi)
    assert sub.edge_count <= sup.edge_count
    for edge, colors in sub.items():
        assert sup.colors_of(edge) == colors


def test_realize_nesting_thousand_pairs():
    # deterministic sweep of 1000 (seed, p < p') pairs
    for t in range(1000):
        seed = derive_seed(5150, t)
        lo = 0.05 + 0.0007 * t
        hi = lo + 0.2
        ci = CoupledInstance(6, 3, 3, seed=seed)
        sub, sup = ci.realize(lo), ci.realize(hi)
        for edge, colors in sub.items():
            assert sup.colors_of(edge) == colors


def test_realize_edge_count_distribution():
    # the avalanche-derived uniforms must not bias the density
    p, trials = 0.3, 4000
    total_sets = math.comb(7, 3)
    counts = np.array(
        [
            CoupledInstance(7, 3, 4, seed=derive_seed(61, i)).realize(p).edge_count
            for i in range(trials)
        ]
    )
    mean, sigma = total_sets * p, math.sqrt(total_sets * p * (1 - p))
    assert abs(counts.mean() - mean) <= 3 * sigma / math.sqrt(trials)
    assert abs(counts.var() - sigma**2) <= 0.15 * sigma**2


def test_found_is_monotone_along_coupling():
    spec = CycleSpec(6, 3, 1)
    hits = 0
    for trial in range(100):
        ci = CoupledInstance(6, 3, 3, seed=derive_seed(21, trial))
        lo = 0.2 + 0.3 * (trial % 3) / 3
        hi = lo + 0.25
        found_lo = find_rainbow_cycle(ci.realize(lo), spec).found
        found_hi = find_rainbow_cycle(ci.realize(hi), spec).found
        hits += found_lo
        assert not (found_lo and not found_hi)
    assert hits > 0  # the premise fired at least sometimes


# -- q_from_p ----------------------------------------------------------------

def test_q_from_p_examples():
    assert q_from_p(0.0) == 0.0
    assert q_from_p(0.125) == 0.25
    q = q_from_p(0.1)
    assert abs(q - 0.1381966011) < 1e-9
    assert abs((q - 2 * q * q) - 0.1) < 1e-12


def test_q_from_p_domain():
    with pytest.raises(NoRealRoot):
        q_from_p(0.2)
    with pytest.raises(InvalidInput):
        q_from_p(-0.01)


@given(st.floats(0, 0.125))
@settings(max_examples=300, deadline=None)
def test_q_from_p_inverts(p):
    q = q_from_p(p)
    assert 0 <= q <= 0.25
    assert abs((q - 2 * q * q) - p) <= 1e-12 * p + 1e-16


# -- sample_directed ---------------------------------------------------------

def test_sample_directed_extremes():
    assert sample_directed(6, 3, 0.0, 3, seed=2).edge_count == 0
    H = sample_directed(6, 3, 1.0, 1, seed=2)
    assert H.multi_color
    assert H.edge_count == math.comb(6, 3)
    assert all(cs == frozenset({1}) for _, cs in H.items())


# SHA-256 of dumps_chg output, recorded while each k-set drew its own colors
MANY_COLOR_PINS = {
    0: "1953a0850b54fd2ad7f550c8da41482f3e71a6cb76e6ce2a1c523a1be94b551b",
    12345: "3baf91a13d81b778afb1387da1e25c01ed43f5aad2d737b5519bcec9ae27455d",
}


@pytest.mark.parametrize("seed", MANY_COLOR_PINS)
def test_sample_directed_beyond_64_colors(seed):
    # color bitmasks are Python ints: colors above 63 must survive intact
    H = sample_directed(6, 3, 0.5, 70, seed)
    colors = frozenset().union(*(cs for _, cs in H.items()))
    assert min(colors) >= 1 and 63 < max(colors) <= 70
    assert hashlib.sha256(dumps_chg(H).encode()).hexdigest() == MANY_COLOR_PINS[seed]


def test_sample_directed_presence_frequency():
    # P(fixed k-set present) = 1 - (1-q)^(k!)
    q, trials = 0.05, 10_000
    target = (1, 2, 3)
    hits = sum(
        1
        for i in range(trials)
        if sample_directed(5, 3, q, 3, seed=derive_seed(31, i)).has_edge(target)
    )
    p_present = 1 - (1 - q) ** 6
    sigma = math.sqrt(p_present * (1 - p_present) / trials)
    assert abs(hits / trials - p_present) <= 3 * sigma


# -- gamma reduction ----------------------------------------------------------

def test_build_gamma_worked_example():
    # n=6, k=3: X={1,2,3}, Y={4,5,6}, Z={7,8,9}; {1,2,4} color 2 -> {1,2,4,8}
    H = ColoredHypergraph.from_pairs(
        6, 3, 3,
        [((1, 2, 4), 2), ((1, 2, 3), 1), ((1, 4, 5), 1)],
    )
    G = build_gamma(H)
    assert G.edges == ((1, 2, 4, 8),)
    assert list(G.x_vertices) == [1, 2, 3]
    assert list(G.y_vertices) == [4, 5, 6]
    assert list(G.z_vertices) == [7, 8, 9]


def test_build_gamma_edge_count_matches_filter():
    H = sample_colored(12, 3, 0.5, 6, seed=17)
    G = build_gamma(H)
    expected = sum(
        1 for e, _ in H.items() if sum(1 for v in e if v <= 6) == 2
    )
    assert len(G.edges) == expected
    for e in G.edges:
        assert sum(1 for v in e if v <= 6) == 2
        assert sum(1 for v in e if 6 < v <= 12) == 1  # k - 2 = 1
        assert sum(1 for v in e if v > 12) == 1


def test_build_gamma_preconditions():
    with pytest.raises(InvalidInput):
        build_gamma(sample_colored(7, 3, 0.5, 3, seed=1))  # 2 does not divide 7
    with pytest.raises(InvalidInput):
        build_gamma(sample_colored(6, 3, 0.5, 4, seed=1))  # r != m
    with pytest.raises(InvalidInput):
        build_gamma(sample_directed(6, 3, 0.3, 3, seed=1))  # multi-color


def _hand_gamma_instance():
    H = ColoredHypergraph.from_pairs(
        6, 3, 3,
        [((1, 2, 4), 2), ((2, 3, 5), 1), ((1, 3, 6), 3)],
    )
    return H, build_gamma(H)


def test_gamma_cycle_to_rainbow_round_trip():
    H, G = _hand_gamma_instance()
    cycle = [(1, 2, 4, 8), (2, 3, 5, 7), (1, 3, 6, 9)]
    cert = gamma_cycle_to_rainbow(G, cycle)
    assert cert.edges == ((1, 2, 4), (2, 3, 5), (1, 3, 6))
    assert cert.colors == (2, 1, 3)
    assert verify_certificate(H, cert)
    assert isinstance(validate_cycle(H, cert.hamperm), type(cert))
    # re-attaching color vertices recovers the same gamma cycle
    assert gamma_cycle_from_certificate(cert) == [tuple(sorted(e)) for e in cycle]


def test_gamma_cycle_rejects_bad_input():
    _, G = _hand_gamma_instance()
    with pytest.raises(InvalidCycle):
        gamma_cycle_to_rainbow(G, [(1, 2, 4, 8), (2, 3, 5, 7)])  # wrong length
    with pytest.raises(InvalidCycle):
        gamma_cycle_to_rainbow(G, [(1, 2, 4, 8), (2, 3, 5, 7), (1, 2, 6, 9)])  # not in G


def test_gamma_filters_by_x_intersection_size():
    H = ColoredHypergraph.from_pairs(
        6, 3, 3,
        [((1, 2, 5), 2), ((3, 5, 6), 1), ((1, 2, 3), 3), ((1, 4, 5), 1)],
    )
    G = build_gamma(H)
    # |e∩X| = 1 ({3,5,6}, {1,4,5}) and |e∩X| = 3 ({1,2,3}) are excluded
    assert G.edges == ((1, 2, 5, 8),)


def test_gamma_cycle_rejects_y_intersection():
    # n=12 loose instance: edges 0 and 1 of the cycle meet in Y vertex 7
    base = [
        ((1, 2, 7), 1), ((3, 4, 7), 2), ((4, 5, 8), 3),
        ((5, 6, 9), 4), ((1, 6, 10), 5), ((1, 3, 11), 6),
    ]
    H = ColoredHypergraph.from_pairs(12, 3, 6, base)
    G = build_gamma(H)
    assert len(G.edges) == 6
    cycle = [tuple(sorted(e + (12 + c,))) for e, c in base]
    with pytest.raises(InvalidCycle, match="outside X"):
        gamma_cycle_to_rainbow(G, cycle)


def test_round_trip_on_planted_loose_cycle():
    # plant an X-structured rainbow loose cycle, reduce, search, map back
    spec = CycleSpec(12, 3, 1)
    perm = (1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 6, 12)
    pi = Hamperm(perm, spec)
    edges = edges_of_hamperm(pi)
    pairs = [(e, i + 1) for i, e in enumerate(edges)]
    H = ColoredHypergraph.from_pairs(12, 3, 6, pairs)
    G = build_gamma(H)
    cycle = find_gamma_cycle(G)
    assert cycle is not None
    cert = gamma_cycle_to_rainbow(G, cycle)
    assert verify_certificate(H, cert)


def test_reattach_then_strip_is_identity_on_certificates():
    # certificate -> gamma cycle -> certificate preserves edges and colors
    H, G = _hand_gamma_instance()
    spec = CycleSpec(6, 3, 1)
    cert = validate_cycle(H, Hamperm((1, 4, 2, 5, 3, 6), spec))
    assert verify_certificate(H, cert)
    cycle = gamma_cycle_from_certificate(cert)
    back = gamma_cycle_to_rainbow(G, cycle)
    assert back.edges == cert.edges
    assert back.colors == cert.colors
    assert back.hamperm.pi == cert.hamperm.pi  # interiors sorted on both paths
    assert verify_certificate(H, back)


def test_find_gamma_cycle_absent():
    H, G = _hand_gamma_instance()
    # drop one edge: no spanning cycle remains
    G2 = type(G)(G.base_n, G.base_k, G.edges[:-1])
    assert find_gamma_cycle(G2) is None


# -- detect_color_collisions ---------------------------------------------------

def test_collision_planted_pair():
    edges = [(1, 2, 4, 8), (1, 2, 4, 9), (2, 3, 5, 7)]
    assert detect_color_collisions(edges) == [((1, 2, 4, 8), (1, 2, 4, 9))]


def test_collision_disjoint_edges():
    assert detect_color_collisions([(1, 2, 3, 4), (5, 6, 7, 8)]) == []


def _bruteforce_collisions(edges):
    out = set()
    canon = sorted(set(map(tuple, edges)))
    for a, b in itertools.combinations(canon, 2):
        if len(set(a) & set(b)) == len(a) - 1:
            out.add((a, b))
    return sorted(out)


def test_collision_detector_is_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(40):
        count = int(rng.integers(2, 25))
        edges = set()
        while len(edges) < count:
            edges.add(tuple(sorted(rng.choice(12, size=4, replace=False) + 1)))
        edges = sorted(edges)
        assert detect_color_collisions(edges) == _bruteforce_collisions(edges)


def test_collision_frequency_sparse_regime():
    # sparse 4-uniform samples on [30]: collisions should stay rare
    rng = np.random.default_rng(12)
    n, edges_per_sample, samples = 30, 5, 1000
    hits = 0
    for _ in range(samples):
        edges = set()
        while len(edges) < edges_per_sample:
            edges.add(tuple(sorted(rng.choice(n, size=4, replace=False) + 1)))
        if detect_color_collisions(sorted(edges)):
            hits += 1
    assert hits / samples < 0.05
