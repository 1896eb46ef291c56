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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    ColoredHypergraph,
    CycleSpec,
    Hamperm,
    RainbowCertificate,
    canonical_edge,
    kset_count,
    lex_rank,
)
from .errors import InvalidCycle, InvalidInput, NoRealRoot
from .seeds import derive_seed_rows, mix64_array

_COLOR_SALT = 0xC2B2AE3D27D4EB4F


def _check_probability(p: float, name: str = "p") -> None:
    if not 0.0 <= p <= 1.0:
        raise InvalidInput(f"{name} must lie in [0, 1], got {p}")


def _check_colors(r: int) -> None:
    if r < 1:
        raise InvalidInput(f"need r >= 1, got {r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & ((1 << 64) - 1)))


def sample_colored(n: int, k: int, p: float, r: int, seed: int) -> ColoredHypergraph:
    """Sample the plain model: each k-set present independently with
    probability p, each present edge colored uniformly on [r].

    Draws one uniform and then one color for every k-set in lex order, so
    the result is a deterministic function of the seed.
    """
    _check_probability(p)
    _check_colors(r)
    total = kset_count(n, k)
    rng = _rng(seed)
    us = rng.random(total)
    colors = rng.integers(1, r + 1, size=total)
    return ColoredHypergraph(n, k, r, by_rank=np.where(us < p, colors, 0))


@dataclass(frozen=True)
class CoupledInstance:
    """Shared-uniform coupling of the plain model across all p.

    Every k-set e gets a deterministic pair (u_e, color_e) from the master
    seed: h = derive_seed(seed, v_1, ..., v_k) over the canonical vertex
    order, u_e = top 53 bits of h scaled to [0,1), and color_e derived from
    mix64(h XOR salt) mod r.  realize(p) keeps exactly the edges with
    u_e < p, so realizations at p <= p' are nested with identical colors.
    """

    n: int
    k: int
    r: int
    seed: int

    def realize(self, p: float) -> ColoredHypergraph:
        _check_probability(p)
        us, colors = _coupled_arrays(self)
        return ColoredHypergraph(self.n, self.k, self.r, by_rank=np.where(us < p, colors, 0))

    def level_of(self, edges: Iterable[Sequence[int]]) -> float:
        """The largest u_e over the given canonical k-sets: realize(p) holds
        all of them, with the same colors, exactly when p exceeds it."""
        us = _coupled_arrays(self)[0]
        return max(float(us[lex_rank(self.n, edge)]) for edge in edges)


@lru_cache(maxsize=4)  # a coupled trial realizes one instance at every grid point
def _coupled_arrays(ci: CoupledInstance) -> tuple[np.ndarray, np.ndarray]:
    """(u_e, color_e) for every k-set of [n], by lex rank.

    derive_seed and unit_interval evaluated over all k-sets at once in
    uint64 arithmetic; the arrays equal the per-edge scalar definition bit
    for bit.
    """
    _check_colors(ci.r)
    n, k = ci.n, ci.k
    total = kset_count(n, k)
    ksets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), k)),
        dtype=np.int32,
        count=total * k,
    ).reshape(total, k)
    h = derive_seed_rows(ci.seed, ksets)
    us = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53  # unit_interval
    colors = mix64_array(h ^ np.uint64(_COLOR_SALT)) % np.uint64(ci.r)
    return us, colors.astype(np.int64) + 1


def q_from_p(p: float) -> float:
    """Smaller root of q - 2q^2 = p, i.e. q = (1 - sqrt(1 - 8p)) / 4.

    Defined for 0 <= p <= 1/8; the smaller root is the one that vanishes
    with p, which is the regime the coupling is used in.  Evaluated as
    2p / (1 + sqrt(1 - 8p)) to avoid cancellation at small p.
    """
    if p < 0:
        raise InvalidInput(f"p must be nonnegative, got {p}")
    if p > 0.125:
        raise NoRealRoot(f"q - 2q^2 = p has no real root for p = {p} > 1/8")
    return 2.0 * p / (1.0 + math.sqrt(1.0 - 8.0 * p))


def sample_directed(n: int, k: int, q: float, r: int, seed: int) -> ColoredHypergraph:
    """Sample the directed model and drop orientations.

    For each k-set, each of its k! orderings is present independently with
    probability q and carries an independent uniform color; the output
    records, per k-set, the set of colors received (multi-color mode).
    """
    _check_probability(q, "q")
    _check_colors(r)
    total = kset_count(n, k)
    rng = _rng(seed)
    counts = rng.binomial(math.factorial(k), q, size=total)
    # one draw for every present ordering, in rank order: the same stream as
    # one draw per k-set
    colors = rng.integers(1, r + 1, size=int(counts.sum()))
    masks = np.zeros(total, dtype=object)
    present = np.flatnonzero(counts)
    if len(present):
        bits = np.array([1 << c for c in colors.tolist()], dtype=object)
        per_set = counts[present]
        # Python-int masks, so any r fits; every k-set's run is non-empty
        masks[present] = np.bitwise_or.reduceat(bits, np.cumsum(per_set) - per_set)
    return ColoredHypergraph(n, k, r, by_rank=masks, multi_color=True)


@dataclass(frozen=True)
class GammaGraph:
    """(k+1)-uniform hypergraph obtained by appending color vertices.

    Vertices split into X = [1, m], Y = [m+1, n], Z = [n+1, n+m] where
    m = n/(k-1); every edge has exactly 2 vertices in X, k-2 in Y and the
    single Z vertex n + color.
    """

    base_n: int
    base_k: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return self.base_n // (self.base_k - 1)

    @property
    def n_total(self) -> int:
        return self.base_n + self.m

    @property
    def uniformity(self) -> int:
        return self.base_k + 1

    @property
    def x_vertices(self) -> range:
        return range(1, self.m + 1)

    @property
    def y_vertices(self) -> range:
        return range(self.m + 1, self.base_n + 1)

    @property
    def z_vertices(self) -> range:
        return range(self.base_n + 1, self.base_n + self.m + 1)

    def to_hypergraph(self) -> ColoredHypergraph:
        """View as a ColoredHypergraph (r=1, all edges color 1) so the
        standard .chg writer serializes it: uniformity k+1, n+m vertices."""
        return ColoredHypergraph(
            self.n_total,
            self.uniformity,
            1,
            {e: {1} for e in self.edges},
        )


def build_gamma(H: ColoredHypergraph) -> GammaGraph:
    """Map each base edge e with |e ∩ X| = 2 to e ∪ {n + color(e)}.

    Requires the most restrictive loose setting: single-color H with
    (k-1) | n and r = n/(k-1).  Base edges meeting X in any other size are
    ignored.
    """
    if H.multi_color:
        raise InvalidInput("reduction needs a single-color hypergraph")
    if H.k < 2 or H.n % (H.k - 1) != 0:
        raise InvalidInput(f"k - 1 = {H.k - 1} must divide n = {H.n}")
    m = H.n // (H.k - 1)
    if H.r != m:
        raise InvalidInput(f"need r = n/(k-1) = {m}, got r = {H.r}")
    gamma_edges = []
    for edge, colors in H.items():
        in_x = sum(1 for v in edge if v <= m)
        if in_x == 2:
            (color,) = colors
            gamma_edges.append(tuple(sorted(edge + (H.n + color,))))
    return GammaGraph(H.n, H.k, tuple(sorted(gamma_edges)))


def _cycle_intersections(
    cycle: Sequence[tuple[int, ...]], x_max: int
) -> list[int]:
    """Shared vertex s_i between consecutive cycle edges, s_1 joining the
    last and first edge; raises InvalidCycle unless every consecutive pair
    meets in exactly one vertex of X = [1, x_max], all m connectors distinct."""
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
    if len(set(shared)) != m:
        raise InvalidCycle("cycle connector vertices repeat")
    return shared


def gamma_cycle_to_rainbow(
    G: GammaGraph, cycle: Sequence[Iterable[int]]
) -> RainbowCertificate:
    """Strip Z vertices from a loose cycle of G into colors of the base.

    The input must be a loose Hamilton cycle of G, listed in cyclic order,
    whose consecutive intersections are single vertices of X.  Each edge's
    Z vertex z becomes the color z - n; the result is a certificate for a
    rainbow loose Hamilton cycle of the base hypergraph (rainbow because the
    m distinct Z vertices give m distinct colors).
    """
    n, k, m = G.base_n, G.base_k, G.m
    edge_set = set(G.edges)
    cyc = [canonical_edge(e) for e in cycle]
    if len(cyc) != m:
        raise InvalidCycle(f"need {m} edges for a loose Hamilton cycle, got {len(cyc)}")
    if len(set(cyc)) != m:
        raise InvalidCycle("cycle repeats an edge")
    for e in cyc:
        if e not in edge_set:
            raise InvalidCycle(f"edge {e} is not an edge of the reduced graph")

    bases = []
    colors = []
    for e in cyc:
        zs = [v for v in e if v > n]
        if len(zs) != 1:
            raise InvalidCycle(f"edge {e} carries {len(zs)} color vertices, expected 1")
        colors.append(zs[0] - n)
        bases.append(tuple(v for v in e if v <= n))

    shared = _cycle_intersections(cyc, m)
    covered = set(itertools.chain.from_iterable(cyc))
    if covered != set(range(1, G.n_total + 1)):
        raise InvalidCycle("cycle does not span all vertices of the reduced graph")

    # Rebuild the base permutation: block i is the connector s_i followed by
    # the sorted interior of base edge i; the next connector opens block i+1.
    perm: list[int] = []
    for i in range(m):
        s_here = shared[i]
        s_next = shared[(i + 1) % m]
        interior = sorted(set(bases[i]) - {s_here, s_next})
        if len(interior) != k - 2:
            raise InvalidCycle(f"edge {bases[i]} has a malformed interior")
        perm.append(s_here)
        perm.extend(interior)
    spec = CycleSpec(n, k, 1)
    hamperm = Hamperm(tuple(perm), spec)
    ordered_edges = tuple(tuple(sorted(b)) for b in bases)
    return RainbowCertificate(hamperm, ordered_edges, tuple(colors))


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


def find_gamma_cycle(G: GammaGraph) -> Optional[list[tuple[int, ...]]]:
    """Search G for a loose Hamilton cycle with X-vertex intersections.

    Backtracks over edge sequences e_1, ..., e_m with connector vertices
    x_1 = 1, x_2, ..., x_m in X: edge e_i contains {x_i, x_{i+1}} as its X
    pair and otherwise fresh vertices.  Independent of the hamperm solver;
    returns the cycle in order, or None when none exists.
    """
    m = G.m
    by_x_pair: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for e in G.edges:
        xs = [v for v in e if v <= m]
        if len(xs) != 2:
            raise InvalidInput(f"reduced-graph edge {e} has {len(xs)} X vertices")
        by_x_pair.setdefault((xs[0], xs[1]), []).append(e)
    adjacency: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for (a, b), group in sorted(by_x_pair.items()):
        for e in group:
            adjacency.setdefault(a, []).append((b, e))
            adjacency.setdefault(b, []).append((a, e))
    for lst in adjacency.values():
        lst.sort()

    used_x = {1}
    used_rest: set[int] = set()
    path: list[tuple[int, ...]] = []

    def rest_vertices(e: tuple[int, ...]) -> list[int]:
        return [v for v in e if v > m]

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
            rest = rest_vertices(e)
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
