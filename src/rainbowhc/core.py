"""Combinatorial objects: cycle geometry, colored hypergraphs, certificates.

Vertices are 1-based everywhere; the canonical form of an edge is the strictly
increasing tuple of its vertices.  A colored hypergraph stores one array over
all C(n, k) k-sets, indexed by the lex rank of each k-set (the order of
itertools.combinations, which is also the order the samplers draw in), so
samplers, the search index and the counting oracle all read it directly;
lex_rank, lex_ranks and ksets_of_ranks here are its only converters.  All
types are immutable after construction and all operations are pure functions,
so everything here can be shared freely across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInput, InvalidSpec, TooLarge

Edge = tuple  # canonical edge: strictly increasing tuple of vertex ids

_ENUMERATION_CAP = 2_000_000  # refuse to index more k-sets than this
_UNRANK_CHUNK = 1 << 14       # present edges unranked at a time by items()
_MAX_COLORS = (1 << 63) - 1   # the largest color a single-color int64 slot holds
_MAX_MULTI_COLORS = 1 << 16   # a multi-color slot's mask has a bit per color: 8 KiB
_MAX_MASK_BITS = 1 << 32      # all multi-color masks together: 512 MiB of bits


def check_colors(r: int, multi_color: bool = False) -> None:
    """InvalidInput unless 1 <= r <= 2^63 - 1, the color counts a slot holds,
    and, multi-color, r <= 2^16, since each color is a bit of a mask."""
    if not 1 <= r <= _MAX_COLORS:
        raise InvalidInput(f"need 1 <= r <= 2^63 - 1 colors, got r={r}")
    if multi_color and r > _MAX_MULTI_COLORS:
        raise InvalidInput(f"need r <= 2^16 colors in multi-color mode, got r={r}")


def check_probability(p: float, name: str = "p") -> None:
    """InvalidInput unless p lies in [0, 1]; NaN compares False, so it is refused."""
    if not 0 <= p <= 1:
        raise InvalidInput(f"{name} must lie in [0, 1], got {p}")


def check_mask_bits(present: int, r: int) -> None:
    """TooLarge unless `present` multi-color masks of up to r + 1 bits each
    fit in _MAX_MASK_BITS bits; checked before any mask is built."""
    if present * (r + 1) > _MAX_MASK_BITS:
        raise TooLarge(f"{present} masks of up to {r + 1} bits exceed the 2^32-bit bound")


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


@lru_cache(maxsize=64)
def _comb_column(n: int, k: int, t: int) -> np.ndarray:
    """C(n - v, t), all below C(n, k), for each vertex v that index k-t of a
    k-set of [n] can hold, ascending (a = n - v from t-1 to n-k+t-1)."""
    column = np.array([math.comb(a, t) for a in range(t - 1, n - k + t)], dtype=np.int64)
    column.flags.writeable = False
    return column


def lex_ranks(n: int, rows: np.ndarray) -> np.ndarray:
    """lex_rank of each row of an (N, k) array of ascending k-sets, as int64."""
    k = rows.shape[1]
    ranks = np.full(len(rows), math.comb(n, k) - 1, dtype=np.int64)
    for j, column in enumerate(rows.T):
        ranks -= _comb_column(n, k, k - j)[n - k + j + 1 - column]
    return ranks


def ksets_of_ranks(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """Inverse of lex_ranks: the ascending k-sets of [n] with the given lex
    ranks, as an (N, k) int32 array.  Greedy in the combinatorial number
    system of C(n, k) - 1 - rank: one searchsorted per vertex index picks
    the largest value of its _comb_column not above what is left."""
    rest = math.comb(n, k) - 1 - np.asarray(ranks, dtype=np.int64)
    ksets = np.empty((len(rest), k), dtype=np.int32)
    for j in range(k):
        column = _comb_column(n, k, k - j)
        index = np.searchsorted(column, rest, side="right") - 1
        rest -= column[index]
        ksets[:, j] = n - k + j + 1 - index
    return ksets


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
    refuses C(n, k) above the enumeration cap (TooLarge), an r that
    check_colors refuses (InvalidInput) and a mapping whose multi-color
    masks check_mask_bits refuses (TooLarge) before it allocates anything.
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
        check_colors(r, multi_color)
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
        if self.multi_color:
            check_mask_bits(len(edges), r)
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
            # a negative slot reads as above r once unsigned
            bad = slots.view(np.uint64).max() > self.r
        if bad:
            raise InvalidInput(f"a slot by rank holds a color outside [1, {self.r}]")
        return slots

    @classmethod
    def from_pairs(
        cls,
        n: int,
        k: int,
        r: int,
        pairs: Iterable[tuple[Iterable[int], int]],
        *,
        multi_color: bool = False,
    ) -> "ColoredHypergraph":
        """Build from (vertices, color) pairs, the vertices of each in any
        order; a repeated (k-set, color) pair is an error."""
        acc: dict[Edge, set[int]] = {}
        for vertices, color in pairs:
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
        ranks = np.flatnonzero(self.by_rank)
        for chunk in np.array_split(ranks, len(ranks) // _UNRANK_CHUNK + 1):
            ksets = ksets_of_ranks(self.n, self.k, chunk).tolist()
            for edge, slot in zip(ksets, self.by_rank[chunk].tolist()):
                yield tuple(edge), self._color_set(slot)

    def edges(self) -> Iterator[Edge]:
        return (edge for edge, _ in self.items())

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
    """Self-validating witness: a hamperm and the colors of its induced
    edges, which are derived from the hamperm, never given."""

    hamperm: Hamperm
    colors: tuple[int, ...]
    edges: tuple[Edge, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(edges_of_hamperm(self.hamperm)))
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))


@dataclass(frozen=True)
class CycleFailure:
    """Why a permutation is not a rainbow cycle of H."""

    MISSING_EDGE: ClassVar[str] = "missing_edge"
    NOT_RAINBOW: ClassVar[str] = "not_rainbow"

    kind: str
    edge_index: Optional[int] = None  # 1-based induced-edge index, missing_edge only


def distinct_color_system(color_sets: Sequence[Iterable[int]]) -> Optional[list[int]]:
    """One distinct color per set (an SDR), or None if impossible.

    Kuhn augmenting paths, deterministic: sets are matched in order, each
    trying its colors in ascending order with a fresh visited set.  It
    serves the counting oracle and `validate_cycle`; the search keeps its
    own int-bitmask copy of the same algorithm, so the solver-vs-oracle
    checks compare two matchers.
    """
    candidates = [sorted(colors) for colors in color_sets]
    holder: dict[int, int] = {}  # color -> the set it represents
    for i in range(len(candidates)):
        if not _augment(i, candidates, holder, set()):
            return None
    chosen = [0] * len(candidates)
    for color, i in holder.items():
        chosen[i] = color
    return chosen


def _augment(
    i: int, candidates: list[list[int]], holder: dict[int, int], visited: set[int]
) -> bool:
    """Give set i a color, moving the sets along one augmenting path over to
    other colors; False when no path exists, and then nothing moved."""
    for color in candidates[i]:
        if color in visited:
            continue
        visited.add(color)
        other = holder.get(color)
        if other is None or _augment(other, candidates, holder, visited):
            holder[color] = i
            return True
    return False


def check_spec_fits(H: ColoredHypergraph, spec: CycleSpec) -> None:
    """InvalidInput unless H has the spec's n and k."""
    if H.n != spec.n or H.k != spec.k:
        raise InvalidInput(
            f"hypergraph (n={H.n}, k={H.k}) does not match spec "
            f"(n={spec.n}, k={spec.k})"
        )


def validate_cycle(
    H: ColoredHypergraph, pi: Hamperm
) -> Union[RainbowCertificate, CycleFailure]:
    """Check that pi induces a rainbow cycle in H.

    Returns a certificate when every induced edge is present and one color
    per edge can be chosen with all m colors pairwise distinct (forced in
    single-color mode, a bipartite-matching instance in multi-color mode).
    Otherwise reports the first missing edge (1-based) or non-rainbowness.
    """
    check_spec_fits(H, pi.spec)
    color_sets = []
    for i, edge in enumerate(edges_of_hamperm(pi)):
        colors = H.colors_of(edge)
        if not colors:
            return CycleFailure(CycleFailure.MISSING_EDGE, i + 1)
        color_sets.append(colors)
    chosen = distinct_color_system(color_sets)
    if chosen is None:
        return CycleFailure(CycleFailure.NOT_RAINBOW)
    return RainbowCertificate(pi, tuple(chosen))


def verify_certificate(H: ColoredHypergraph, cert: object) -> bool:
    """Re-derive every certificate invariant against H; False on any failure.

    Deliberately independent of how the certificate was produced: the edge
    list is recomputed from the hamperm, colors are re-checked for pairwise
    distinctness, and each (edge, color) pair is looked up in H.
    """
    try:
        if not isinstance(cert, RainbowCertificate):
            return False
        check_spec_fits(H, cert.hamperm.spec)
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
