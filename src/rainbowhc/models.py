"""Random-model samplers and the color-vertex reduction.

Three generators: the plain randomly colored model (every k-set kept with
probability p, then uniformly colored), a monotone-coupled variant whose
realizations at increasing p are nested with identical colors, and the
directed model (each of the k! orderings of a k-set kept independently with
probability q and colored; orientation dropped on output, so a k-set may
carry several colors).

Also here: the reduction that turns a colored k-uniform instance into a
(k+1)-uniform hypergraph by appending one color-encoding vertex per edge,
plus the inverse map from a loose cycle of the reduced graph back to a
rainbow certificate of the base instance.

All samplers are pure functions of (parameters, seed).  They draw in lex
order of the k-sets and write straight into the rank-indexed array that
ColoredHypergraph stores, with no per-edge conversion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    ColoredHypergraph,
    CycleSpec,
    Hamperm,
    RainbowCertificate,
    canonical_edge,
    check_colors,
    check_mask_bits,
    check_probability,
    kset_count,
    ksets_of_ranks,
    lex_ranks,
)
from .errors import InvalidCycle, InvalidInput, NoRealRoot
from .seeds import derive_seed_rows, mix64_array, unit_interval

_COLOR_SALT = 0xC2B2AE3D27D4EB4F


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & ((1 << 64) - 1)))


def sample_colored(n: int, k: int, p: float, r: int, seed: int) -> ColoredHypergraph:
    """Sample the plain model: each k-set present independently with
    probability p, each present edge colored uniformly on [r].

    Draws one uniform and then one color for every k-set in lex order, so
    the result is a deterministic function of the seed.
    """
    check_probability(p)
    check_colors(r)
    total = kset_count(n, k)
    rng = _rng(seed)
    us = rng.random(total)
    colors = rng.integers(1, r + 1, size=total)
    colors[us >= p] = 0
    return ColoredHypergraph(n, k, r, by_rank=colors)


@dataclass(frozen=True)
class CoupledInstance:
    """Shared-uniform coupling of the plain model across all p.

    Every k-set e gets a deterministic pair (u_e, color_e) from the master
    seed: h = derive_seed(seed, v_1, ..., v_k) over the canonical vertex
    order, u_e = top 53 bits of h scaled to [0,1), and color_e derived from
    mix64(h XOR salt) mod r.  realize(p) keeps exactly the edges with
    u_e < p, so realizations at p <= p' are nested with identical colors.

    The instance computes both arrays, by lex rank, once on construction:
    derive_seed and unit_interval over all k-sets at once in uint64
    arithmetic, equal to the per-edge scalar definition bit for bit.  They
    are read-only, as every realize shares them, and take no part in ==
    or hash.
    """

    n: int
    k: int
    r: int
    seed: int
    us: np.ndarray = field(init=False, repr=False, compare=False)
    colors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_colors(self.r)
        ksets = ksets_of_ranks(self.n, self.k, np.arange(kset_count(self.n, self.k)))
        h = derive_seed_rows(self.seed, ksets)
        us = unit_interval(h)
        colors = (mix64_array(h ^ np.uint64(_COLOR_SALT)) % np.uint64(self.r)).astype(np.int64) + 1
        us.flags.writeable = colors.flags.writeable = False
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "colors", colors)

    def realize(self, p: float) -> ColoredHypergraph:
        check_probability(p)
        return ColoredHypergraph(
            self.n, self.k, self.r, by_rank=np.where(self.us < p, self.colors, 0)
        )

    def level_of(self, edges: Sequence[Sequence[int]]) -> float:
        """The largest u_e over the given canonical k-sets: realize(p) holds
        all of them, with the same colors, exactly when p exceeds it."""
        return float(self.us[lex_ranks(self.n, np.array(edges))].max())


def q_from_p(p: float) -> float:
    """Smaller root of q - 2q^2 = p, i.e. q = (1 - sqrt(1 - 8p)) / 4.

    Defined for 0 <= p <= 1/8; the smaller root is the one that vanishes
    with p, which is the regime the coupling is used in.  Evaluated as
    2p / (1 + sqrt(1 - 8p)) to avoid cancellation at small p.  A p above 1/8
    that check_probability accepts is NoRealRoot.
    """
    check_probability(p)
    if p > 0.125:
        raise NoRealRoot(f"q - 2q^2 = p has no real root for p = {p} > 1/8")
    return 2.0 * p / (1.0 + math.sqrt(1.0 - 8.0 * p))


def sample_directed(n: int, k: int, q: float, r: int, seed: int) -> ColoredHypergraph:
    """Sample the directed model and drop orientations.

    For each k-set, each of its k! orderings is present independently with
    probability q and carries an independent uniform color; the output
    records, per k-set, the set of colors received (multi-color mode).
    Too many mask bits (core.check_mask_bits) are refused before any color.
    """
    check_probability(q, "q")
    check_colors(r, multi_color=True)
    total = kset_count(n, k)
    rng = _rng(seed)
    counts = rng.binomial(math.factorial(k), q, size=total)
    check_mask_bits(int(np.count_nonzero(counts)), r)
    # one draw for every present ordering, in rank order: the same stream as
    # one draw per k-set
    colors = rng.integers(1, r + 1, size=int(counts.sum()))
    masks = [0] * total  # Python-int masks, r <= 2^16 (see check_colors)
    for rank, color in zip(np.repeat(np.arange(total), counts).tolist(), colors.tolist()):
        masks[rank] |= 1 << color
    return ColoredHypergraph(n, k, r, by_rank=masks, multi_color=True)


def build_gamma(H: ColoredHypergraph) -> ColoredHypergraph:
    """Map each base edge e with |e ∩ X| = 2 to e ∪ {n + color(e)}.

    Requires the most restrictive loose setting: single-color H with a loose
    CycleSpec(n, k, 1) and r = n/(k-1).  Base edges meeting X in any other size are
    ignored.  The result is (k+1)-uniform on n + m vertices, m = n/(k-1),
    with r = 1 and every edge colored 1.  Its vertices split into
    X = [1, m], Y = [m+1, n] and Z = [n+1, n+m]: every edge has exactly 2
    vertices in X, k-2 in Y and the single Z vertex n + color.
    """
    if H.multi_color:
        raise InvalidInput("reduction needs a single-color hypergraph")
    m = CycleSpec(H.n, H.k, 1).m
    if H.r != m:
        raise InvalidInput(f"need r = n/(k-1) = {m}, got r = {H.r}")
    gamma_edges = {}
    for edge, colors in H.items():
        in_x = sum(1 for v in edge if v <= m)
        if in_x == 2:
            (color,) = colors
            gamma_edges[edge + (H.n + color,)] = {1}
    return ColoredHypergraph(H.n + m, H.k + 1, 1, gamma_edges)


def _loose_base(G: ColoredHypergraph) -> CycleSpec:
    """The loose CycleSpec(n, k, 1) of the base instances that build_gamma
    reduces to G's shape: G has n + m = k·m vertices and uniformity k + 1.
    InvalidSpec where that spec is refused."""
    k = G.k - 1
    if k < 2 or G.n % k != 0:
        raise InvalidInput(
            f"no loose instance reduces to n = {G.n}, k = {G.k}: "
            f"need k >= 3 and k - 1 dividing n"
        )
    return CycleSpec(G.n - G.n // k, k, 1)


def _cycle_intersections(
    cycle: Sequence[tuple[int, ...]], x_max: int
) -> list[int]:
    """Shared vertex s_i between consecutive cycle edges, s_1 joining the
    last and first edge; raises InvalidCycle unless every consecutive pair
    meets in exactly one vertex of X = [1, x_max]."""
    m = len(cycle)
    shared = []
    for i in range(m):
        prev = set(cycle[i - 1])
        cur = set(cycle[i])
        meet = prev & cur
        if len(meet) != 1:
            raise InvalidCycle(
                f"cycle edges {(i - 1) % m} and {i} share {len(meet)} vertices, "
                "expected exactly 1"
            )
        s = next(iter(meet))
        if s > x_max:
            raise InvalidCycle(
                f"cycle edges {(i - 1) % m} and {i} intersect at {s}, "
                f"outside X = [1, {x_max}]"
            )
        shared.append(s)
    return shared


def gamma_cycle_to_rainbow(
    G: ColoredHypergraph, cycle: Sequence[Iterable[int]]
) -> RainbowCertificate:
    """Strip Z vertices from a loose cycle of G into colors of the base.

    The input must be a loose Hamilton cycle of G, listed in cyclic order,
    whose consecutive intersections are single vertices of X.  Each edge's
    Z vertex z becomes the color z - n; the result is a certificate for a
    rainbow loose Hamilton cycle of the base hypergraph (rainbow because the
    m distinct Z vertices give m distinct colors).  Hamperm refuses a cycle
    that does not visit every base vertex exactly once.
    """
    spec = _loose_base(G)
    n, m = spec.n, spec.m
    cyc = [canonical_edge(e) for e in cycle]
    if len(cyc) != m:
        raise InvalidCycle(f"need {m} edges for a loose Hamilton cycle, got {len(cyc)}")
    colors = []
    for e in cyc:
        if not G.has_edge(e):
            raise InvalidCycle(f"edge {e} is not an edge of the reduced graph")
        zs = [v for v in e if v > n]
        if len(zs) != 1:
            raise InvalidCycle(f"edge {e} carries {len(zs)} color vertices, expected 1")
        colors.append(zs[0] - n)
    if len(set(colors)) != m:
        raise InvalidCycle("cycle uses a color vertex twice")

    # Block i of the base permutation is the connector s_i followed by the
    # rest of base edge i, sorted, without the next connector s_{i+1}.
    shared = _cycle_intersections(cyc, m)
    perm: list[int] = []
    for i, e in enumerate(cyc):
        ends = (shared[i], shared[(i + 1) % m])
        perm.append(ends[0])
        perm.extend(v for v in e if v <= n and v not in ends)
    try:
        hamperm = Hamperm(tuple(perm), spec)
    except InvalidInput:
        raise InvalidCycle("cycle does not visit every base vertex exactly once") from None
    return RainbowCertificate(hamperm, tuple(colors))


def gamma_cycle_from_certificate(cert: RainbowCertificate) -> list[tuple[int, ...]]:
    """Inverse of gamma_cycle_to_rainbow: re-attach color vertices.

    Takes a rainbow loose-cycle certificate of a base instance on n vertices
    and returns the corresponding reduced-graph cycle, edge i mapped to
    edges[i] ∪ {n + colors[i]}, in the same cyclic order.
    """
    n = cert.hamperm.spec.n
    if cert.hamperm.spec.ell != 1:
        raise InvalidInput("only loose-cycle certificates reduce to the gamma graph")
    return [
        tuple(sorted(edge + (n + color,)))
        for edge, color in zip(cert.edges, cert.colors)
    ]


def detect_color_collisions(
    edges: Iterable[Iterable[int]],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All pairs of distinct edges sharing all but one vertex.

    For a (k+1)-uniform edge list this is exactly the event that some base
    k-set received two colors; an empty result certifies its absence for this
    sample.  Pairs are returned lexicographically, each exactly once.
    """
    canon = sorted({canonical_edge(e) for e in edges})
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for e in canon:
        for i in range(len(e)):
            buckets.setdefault(e[:i] + e[i + 1 :], []).append(e)
    pairs = set()
    for group in buckets.values():
        for a, b in itertools.combinations(group, 2):
            pairs.add((a, b) if a <= b else (b, a))
    return sorted(pairs)


def find_gamma_cycle(G: ColoredHypergraph) -> Optional[list[tuple[int, ...]]]:
    """Search G for a loose Hamilton cycle with X-vertex intersections.

    Backtracks over edge sequences e_1, ..., e_m with connector vertices
    x_1 = 1, x_2, ..., x_m in X: edge e_i contains {x_i, x_{i+1}} as its X
    pair and otherwise fresh vertices.  Independent of the hamperm solver;
    returns the cycle in order, or None when none exists.
    """
    m = _loose_base(G).m
    adjacency: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for e in G.edges():
        xs = [v for v in e if v <= m]
        if len(xs) != 2:
            raise InvalidInput(f"reduced-graph edge {e} has {len(xs)} X vertices")
        a, b = xs
        adjacency.setdefault(a, []).append((b, e))
        adjacency.setdefault(b, []).append((a, e))
    for lst in adjacency.values():
        lst.sort()

    used_x = {1}
    used_rest: set[int] = set()
    path: list[tuple[int, ...]] = []

    def extend(x: int) -> bool:
        if len(path) == m:
            return x == 1
        closing = len(path) == m - 1
        for nxt, e in adjacency.get(x, ()):
            if closing:
                if nxt != 1:
                    continue
            elif nxt in used_x:
                continue
            rest = e[2:]  # the vertices after e's X pair, the two smallest
            if any(v in used_rest for v in rest):
                continue
            path.append(e)
            if not closing:
                used_x.add(nxt)
            used_rest.update(rest)
            if extend(nxt):
                return True
            path.pop()
            if not closing:
                used_x.discard(nxt)
            used_rest.difference_update(rest)
        return False

    if extend(1):
        return list(path)
    return None
