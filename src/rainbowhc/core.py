"""Combinatorial objects: cycle geometry, colored hypergraphs, certificates.

Vertices are 1-based everywhere; the canonical form of an edge is the strictly
increasing tuple of its vertices.  A colored hypergraph stores one array over
all C(n, k) k-sets, indexed by the lex rank of each k-set (the order of
itertools.combinations, which is also the order the samplers draw in), so
samplers, the search index and the counting oracle all read it directly.  All
types are immutable after construction and all operations are pure functions,
so everything here can be shared freely across concurrent workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInput, InvalidSpec, TooLarge

Edge = tuple  # canonical edge: strictly increasing tuple of vertex ids

_ENUMERATION_CAP = 2_000_000  # refuse to index more k-sets than this


def canonical_edge(vertices: Iterable[int]) -> Edge:
    """Sort vertices into canonical edge form; reject repeats."""
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise InvalidInput(f"edge has a repeated vertex: {vs}")
    return vs


def kset_count(n: int, k: int) -> int:
    """C(n, k), the length of a rank-indexed array over the k-sets of [n].

    Raises InvalidInput unless n >= k >= 1, and TooLarge when C(n, k)
    exceeds the enumeration cap.
    """
    if k < 1 or n < k:
        raise InvalidInput(f"need n >= k >= 1, got n={n}, k={k}")
    total = math.comb(n, k)
    if total > _ENUMERATION_CAP:
        raise TooLarge(f"C({n},{k}) = {total} k-sets exceeds the enumeration cap")
    return total


def lex_rank(n: int, edge: Edge) -> int:
    """Rank of a canonical k-set among all k-subsets of [n] in lex order,
    the order of itertools.combinations(range(1, n + 1), k)."""
    k = len(edge)
    return math.comb(n, k) - 1 - sum(math.comb(n - v, k - j) for j, v in enumerate(edge))


def kset_of_rank(n: int, k: int, rank: int) -> Edge:
    """Inverse of lex_rank: the k-set of [n] with the given lex rank.

    Walks the combinatorial number system of C(n, k) - 1 - rank, so it costs
    at most n binomials and allocates nothing per (n, k).
    """
    rest = math.comb(n, k) - 1 - rank
    edge = []
    a = n - 1
    for t in range(k, 0, -1):
        while math.comb(a, t) > rest:
            a -= 1
        rest -= math.comb(a, t)
        edge.append(n - a)
        a -= 1
    return tuple(edge)


@lru_cache(maxsize=4)
def kset_table(n: int, k: int) -> tuple[tuple[Edge, ...], tuple[int, ...]]:
    """Rank -> k-set and rank -> vertex bitmask (bit v for vertex v)."""
    kset_count(n, k)
    ksets = tuple(itertools.combinations(range(1, n + 1), k))
    return ksets, tuple(sum(1 << v for v in e) for e in ksets)


def color_bits(mask: int) -> tuple[int, ...]:
    """The colors of a multi-color bitmask, ascending."""
    colors = []
    while mask:
        low = mask & -mask
        colors.append(low.bit_length() - 1)
        mask ^= low
    return tuple(colors)


@dataclass(frozen=True)
class CycleSpec:
    """Geometry of an ell-overlapping Hamilton cycle on n vertices.

    The cycle has m = n/(k-ell) edges, each of k cyclically consecutive
    vertices, adjacent edges sharing exactly ell vertices.  Besides the
    divisibility requirement we insist on n >= 2k - ell: below that, two
    cyclically adjacent length-k windows overlap at both ends and the
    sharing-exactly-ell structure collapses (n = k being the fully
    degenerate "one repeated edge" case).
    """

    n: int
    k: int
    ell: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidSpec(f"uniformity k must be >= 2, got {self.k}")
        if not 1 <= self.ell < self.k:
            raise InvalidSpec(f"overlap must satisfy 1 <= ell < k, got ell={self.ell}")
        if self.n % (self.k - self.ell) != 0:
            raise InvalidSpec(
                f"k - ell = {self.k - self.ell} must divide n = {self.n}"
            )
        if self.n < 2 * self.k - self.ell:
            raise InvalidSpec(
                f"need n >= 2k - ell = {2 * self.k - self.ell} "
                f"for adjacent edges to overlap in exactly ell vertices, got n={self.n}"
            )

    @property
    def m(self) -> int:
        """Number of edges in the cycle."""
        return self.n // (self.k - self.ell)

    @property
    def block_size(self) -> int:
        """Vertices gained per edge when walking the cycle: k - ell."""
        return self.k - self.ell

    def windows(self) -> tuple[tuple[int, ...], ...]:
        """0-based position windows: window i covers positions
        i*(k-ell) .. i*(k-ell)+k-1, taken cyclically mod n."""
        return _windows(self.n, self.k, self.ell)


@lru_cache(maxsize=None)
def _windows(n: int, k: int, ell: int) -> tuple[tuple[int, ...], ...]:
    bs = k - ell
    return tuple(
        tuple((i * bs + j) % n for j in range(k)) for i in range(n // bs)
    )


@dataclass(frozen=True)
class ColoredEdge:
    """One colored edge: a canonical k-set and a color in [1, r].

    Range checks against (n, r) happen where the edge meets a hypergraph;
    here only the canonical-form invariant is enforced.
    """

    vertices: tuple[int, ...]
    color: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", canonical_edge(self.vertices))
        if self.vertices[0] < 1:
            raise InvalidInput(f"vertex ids are 1-based, got {self.vertices}")
        if self.color < 1:
            raise InvalidInput(f"color ids are 1-based, got {self.color}")


@dataclass(frozen=True)
class Hamperm:
    """A permutation of [n] considered as a candidate cycle ordering."""

    pi: tuple[int, ...]
    spec: CycleSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", tuple(self.pi))
        if sorted(self.pi) != list(range(1, self.spec.n + 1)):
            raise InvalidInput("pi must be a permutation of 1..n")


def edges_of_hamperm(pi: Hamperm) -> list[Edge]:
    """The m induced edges, in cycle order, each in canonical form.

    Edge i collects the permutation values on positions
    (i-1)(k-ell)+1 .. (i-1)(k-ell)+k, positions wrapping cyclically.
    """
    perm = pi.pi
    return [
        tuple(sorted(perm[p] for p in window)) for window in pi.spec.windows()
    ]


class ColoredHypergraph:
    """A k-uniform hypergraph on [n] whose edges carry colors from [r].

    In single-color mode every edge has exactly one color (the plain randomly
    colored model).  Multi-color mode keeps a set of colors per edge and is
    used for the orientation-dropped directed model.

    Storage is one read-only array over all C(n, k) k-sets of [n], indexed by
    lex rank (see ``lex_rank``).  A single-color slot holds the edge's color;
    a multi-color slot holds a Python-int bitmask of its colors, bit c for
    color c.  Zero means absent.  Build from a mapping of edges to colors
    (validated edge by edge), or pass such an array as ``by_rank`` (one
    vectorised range check; this is what the samplers do).  Construction
    refuses C(n, k) above the enumeration cap with TooLarge before it
    allocates anything.
    """

    __slots__ = ("n", "k", "r", "multi_color", "by_rank", "edge_count")

    def __init__(
        self,
        n: int,
        k: int,
        r: int,
        edges: Optional[Mapping[Edge, Iterable[int]]] = None,
        *,
        multi_color: bool = False,
        by_rank: Optional[Sequence[int]] = None,
    ) -> None:
        total = kset_count(n, k)
        if r < 1:
            raise InvalidInput(f"need r >= 1 colors, got r={r}")
        self.n = n
        self.k = k
        self.r = r
        self.multi_color = multi_color
        if by_rank is None:
            slots = self._slots_from_mapping(edges or {}, total)
        elif edges is not None:
            raise InvalidInput("give edges or by_rank, not both")
        else:
            slots = self._checked_slots(by_rank, total)
        slots.flags.writeable = False
        self.by_rank = slots
        self.edge_count = int(np.count_nonzero(slots))

    def _slots_from_mapping(
        self, edges: Mapping[Edge, Iterable[int]], total: int
    ) -> np.ndarray:
        n, k, r = self.n, self.k, self.r
        slots = np.zeros(total, dtype=object if self.multi_color else np.int64)
        for key, colors in edges.items():
            edge = canonical_edge(key)
            if len(edge) != k:
                raise InvalidInput(f"edge {edge} is not a {k}-set")
            if edge[0] < 1 or edge[-1] > n:
                raise InvalidInput(f"edge {edge} leaves the vertex range [1, {n}]")
            cset = frozenset(int(c) for c in colors)
            if not cset:
                raise InvalidInput(f"edge {edge} has an empty color set")
            if any(c < 1 or c > r for c in cset):
                raise InvalidInput(f"edge {edge} has a color outside [1, {r}]")
            if not self.multi_color and len(cset) != 1:
                raise InvalidInput(
                    f"edge {edge} carries {len(cset)} colors in single-color mode"
                )
            rank = lex_rank(n, edge)
            if slots[rank]:
                raise InvalidInput(f"edge {edge} given twice")
            slots[rank] = sum(1 << c for c in cset) if self.multi_color else next(iter(cset))
        return slots

    def _checked_slots(self, by_rank: Sequence[int], total: int) -> np.ndarray:
        if self.multi_color:
            slots = np.array(by_rank, dtype=object)
        else:
            given = np.asarray(by_rank)
            if given.dtype.kind not in "iu":
                raise InvalidInput(f"colors by rank must be integers, got {given.dtype}")
            slots = given.astype(np.int64)
        if slots.shape != (total,):
            raise InvalidInput(f"need {total} slots by rank, got shape {slots.shape}")
        if self.multi_color:
            # a slot is out of range iff the union of all slots is
            union = np.bitwise_or.reduce(slots)
            bad = union < 0 or union & 1 or union >> (self.r + 1)
        else:
            bad = slots.min() < 0 or slots.max() > self.r
        if bad:
            raise InvalidInput(f"a slot by rank holds a color outside [1, {self.r}]")
        return slots

    @classmethod
    def from_pairs(
        cls,
        n: int,
        k: int,
        r: int,
        pairs: Iterable[Union["ColoredEdge", tuple[Iterable[int], int]]],
        *,
        multi_color: bool = False,
    ) -> "ColoredHypergraph":
        """Build from ColoredEdge values or bare (vertices, color) pairs;
        a repeated (k-set, color) pair is an error."""
        acc: dict[Edge, set[int]] = {}
        for item in pairs:
            if isinstance(item, ColoredEdge):
                edge, color = item.vertices, item.color
            else:
                vertices, color = item
                edge = canonical_edge(vertices)
            colors = acc.setdefault(edge, set())
            if color in colors:
                raise InvalidInput(f"repeated (edge, color) pair: {edge} color {color}")
            colors.add(color)
        return cls(n, k, r, acc, multi_color=multi_color)

    @classmethod
    def complete_rainbow(cls, n: int, k: int) -> "ColoredHypergraph":
        """All C(n, k) edges, every edge its own color (handy in tests)."""
        total = kset_count(n, k)
        return cls(n, k, total, by_rank=np.arange(1, total + 1))

    def _rank(self, vertices: Iterable[int]) -> Optional[int]:
        """Lex rank of a k-set of [n] given in any order; None if it is not one."""
        vs = tuple(sorted(vertices))
        if len(vs) != self.k or vs[0] < 1 or vs[-1] > self.n:
            return None
        if any(a == b for a, b in zip(vs, vs[1:])):
            return None
        return lex_rank(self.n, vs)

    def _color_set(self, slot) -> frozenset[int]:
        if not slot:
            return frozenset()
        if self.multi_color:
            return frozenset(color_bits(int(slot)))
        return frozenset((int(slot),))

    def has_edge(self, vertices: Iterable[int]) -> bool:
        rank = self._rank(vertices)
        return rank is not None and bool(self.by_rank[rank])

    def colors_of(self, vertices: Iterable[int]) -> frozenset[int]:
        """Colors carried by an edge; empty frozenset if absent."""
        rank = self._rank(vertices)
        return frozenset() if rank is None else self._color_set(self.by_rank[rank])

    def items(self) -> Iterator[tuple[Edge, frozenset[int]]]:
        """(edge, colors) pairs in lex order of the edges.  Unranks only the
        present edges, so a sparse hypergraph near the cap stays cheap."""
        slots = self.by_rank
        for rank in np.flatnonzero(slots).tolist():
            yield kset_of_rank(self.n, self.k, rank), self._color_set(slots[rank])

    def edges(self) -> Iterator[Edge]:
        return (edge for edge, _ in self.items())

    def __contains__(self, vertices: Iterable[int]) -> bool:
        return self.has_edge(vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredHypergraph):
            return NotImplemented
        return (
            (self.n, self.k, self.r, self.multi_color)
            == (other.n, other.k, other.r, other.multi_color)
            and np.array_equal(self.by_rank, other.by_rank)
        )

    def __repr__(self) -> str:
        mode = "multi" if self.multi_color else "single"
        return (
            f"ColoredHypergraph(n={self.n}, k={self.k}, r={self.r}, "
            f"edges={self.edge_count}, {mode})"
        )


@dataclass(frozen=True)
class RainbowCertificate:
    """Self-validating witness: a hamperm, its induced edges, their colors."""

    hamperm: Hamperm
    edges: tuple[Edge, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))


@dataclass(frozen=True)
class CycleFailure:
    """Why a permutation is not a rainbow cycle of H."""

    MISSING_EDGE: ClassVar[str] = "missing_edge"
    NOT_RAINBOW: ClassVar[str] = "not_rainbow"

    kind: str
    edge_index: Optional[int] = None  # 1-based induced-edge index, missing_edge only

    @classmethod
    def missing_edge(cls, index: int) -> "CycleFailure":
        return cls(cls.MISSING_EDGE, index)

    @classmethod
    def not_rainbow(cls) -> "CycleFailure":
        return cls(cls.NOT_RAINBOW)


class ColorMatcher:
    """Incremental system-of-distinct-representatives solver.

    Maintains a color assignment for a growing set of slots (edges), each slot
    restricted to its own candidate set, via Kuhn augmenting paths.  SDR
    feasibility only shrinks as slots are added, so the moment add() fails a
    search may prune: no completion of the current slot set exists.  remove()
    frees a slot again (any slot; the rest stay validly assigned).

    It serves `distinct_color_system`, and through it the counting oracle
    and `validate_cycle`.  The search keeps its own int-bitmask copy of the
    same algorithm, so the solver-vs-oracle checks compare two matchers.
    """

    def __init__(self) -> None:
        self._color_of: dict[int, int] = {}
        self._slot_of: dict[int, int] = {}
        self._candidates: dict[int, tuple[int, ...]] = {}

    def add(self, slot: int, colors: Iterable[int]) -> bool:
        if slot in self._candidates:
            raise InvalidInput(f"slot {slot} already present")
        self._candidates[slot] = tuple(sorted(colors))
        if self._augment(slot, set()):
            return True
        del self._candidates[slot]
        return False

    def _augment(self, slot: int, visited: set[int]) -> bool:
        for c in self._candidates[slot]:
            if c in visited:
                continue
            visited.add(c)
            holder = self._slot_of.get(c)
            if holder is None or self._augment(holder, visited):
                self._slot_of[c] = slot
                self._color_of[slot] = c
                return True
        return False

    def remove(self, slot: int) -> None:
        c = self._color_of.pop(slot)
        del self._slot_of[c]
        del self._candidates[slot]

    def color_of(self, slot: int) -> int:
        return self._color_of[slot]

    def __len__(self) -> int:
        return len(self._color_of)


def distinct_color_system(color_sets: Sequence[Iterable[int]]) -> Optional[list[int]]:
    """One distinct color per set (an SDR), or None if impossible.

    Deterministic: slots are processed in order, candidates in ascending
    color order.
    """
    matcher = ColorMatcher()
    for i, cs in enumerate(color_sets):
        if not matcher.add(i, cs):
            return None
    return [matcher.color_of(i) for i in range(len(color_sets))]


def validate_cycle(
    H: ColoredHypergraph, pi: Hamperm
) -> Union[RainbowCertificate, CycleFailure]:
    """Check that pi induces a rainbow cycle in H.

    Returns a certificate when every induced edge is present and one color
    per edge can be chosen with all m colors pairwise distinct (forced in
    single-color mode, a bipartite-matching instance in multi-color mode).
    Otherwise reports the first missing edge (1-based) or non-rainbowness.
    """
    spec = pi.spec
    if H.n != spec.n or H.k != spec.k:
        raise InvalidInput(
            f"hypergraph (n={H.n}, k={H.k}) does not match spec "
            f"(n={spec.n}, k={spec.k})"
        )
    edges = edges_of_hamperm(pi)
    color_sets = []
    for i, edge in enumerate(edges):
        colors = H.colors_of(edge)
        if not colors:
            return CycleFailure.missing_edge(i + 1)
        color_sets.append(colors)
    chosen = distinct_color_system(color_sets)
    if chosen is None:
        return CycleFailure.not_rainbow()
    return RainbowCertificate(pi, tuple(edges), tuple(chosen))


def verify_certificate(H: ColoredHypergraph, cert: object) -> bool:
    """Re-derive every certificate invariant against H; False on any failure.

    Deliberately independent of how the certificate was produced: the edge
    list is recomputed from the hamperm, colors are re-checked for pairwise
    distinctness, and each (edge, color) pair is looked up in H.
    """
    try:
        if not isinstance(cert, RainbowCertificate):
            return False
        spec = cert.hamperm.spec
        if H.n != spec.n or H.k != spec.k:
            return False
        edges = edges_of_hamperm(cert.hamperm)
        if list(cert.edges) != edges:
            return False
        if len(cert.colors) != len(edges):
            return False
        if len(set(cert.colors)) != len(cert.colors):
            return False
        for edge, color in zip(cert.edges, cert.colors):
            if color not in H.colors_of(edge):
                return False
        return True
    except Exception:
        return False
