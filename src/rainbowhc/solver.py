"""Exact search for rainbow cycles plus brute-force moment oracles.

The searcher places one vertex per cycle position, in a placement order set
by the spec and the anchor that fixes the rotation (the rarest color when
r = m, vertex 1 otherwise), and extends only into edges that exist, using a
per-instance vertex-bitmask index of the present edges.  The index is one
table subscripted by vertex mask, holding each proper subset's extenders
and each edge's colors: a flat list over every mask or a dict of the
present keys, built in one numpy pass or by a per-subset loop, as
_edge_index alone decides.  No per-n table over every mask or k-set is
built past n = TABLE_MAX_N.  Core owns the order of the k-sets by rank;
the solver owns its rank -> bitmask table, _vertex_masks.  Colors are
pruned with used-color bits kept in the same int as the placed vertices
(single-color) or an incremental distinct-representatives matching over int
color bitmasks, Kuhn augmenting paths (_augment) trying colors in ascending
order (multi-color).  A window left half-placed by the order (the
windows through position 0 wrap around the cycle) is watched: a remembered
completion edge is re-checked, and the branch cut when none is left.  The
plan watches only where a cut can happen.  A watch lists its window's
completions afresh where it begins, with no memo: a window one vertex short
of an edge reads them off the index, any other scans the edges, and the
plan fixes which.  Without a budget the search is exhaustive and proves
absence; with one it gives up after a node quota and reports Unknown.  Each
search plan is compiled once into Python source: one loop per placement
step, each nested in the previous step's, cut into functions of at most 15
steps.  Up to TABLE_MAX_N a step's loop iterates a per-n table of the
candidate mask's vertex bits, in ascending order; beyond it, it pops the
lowest candidate bit.  The leaf hands a found cycle's vertex bits back by
cycle position, so the plan is read only at compile time.

The oracles enumerate all n! permutations outright and exist to pin the
closed-form moment calculations to something independently computable, so
they stay deliberately naive.  The permutations of [n] are enumerated once,
into one cached (m, n!) table of induced-edge ranks, the only enumeration of
them here; the overlap and moment oracles read it permutation by
permutation.  The counting oracle, which Monte Carlo tests call a hundred
thousand times, reads a grouping of it: one column per distinct induced
edge set, n!/|Aut| of them, each standing for the same measured number of
permutations.  It looks up the hypergraph's rank-indexed color array
through those columns.
"""

from __future__ import annotations

import itertools
import linecache
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .core import (
    ColoredHypergraph,
    CycleSpec,
    Hamperm,
    RainbowCertificate,
    check_spec_fits,
    color_bits,
    distinct_color_system,
    edges_of_hamperm,
    kset_count,
    ksets_of_ranks,
    lex_ranks,
    verify_certificate,
)
from .errors import InvalidInput, TooLarge
from .moments import MomentParams

ENUMERATION_LIMIT = 9       # n! enumeration cap for counting oracles
PAIRWISE_LIMIT = 7          # (n!)^2 cap for the pairwise second-moment oracle
CHUNK_STEPS = 15            # placement steps per generated search function
# the largest n with per-n tables over every vertex mask or k-set, each
# doubling with a vertex: _candidate_bits (6-7 MB at n = 16), _vertex_masks,
# the numpy index's 2^(n+1)-entry table (1 MB) and list-form indexes
TABLE_MAX_N = 16
# E * 2^k (present edges times subsets) from which the numpy index runs: it
# overtook the loop at ~250-400 pairs for n <= 14 and ~900 at n = 16
DENSE_INDEX_MIN_PAIRS = 1024
# the numpy index hands its 2^(n+1)-entry table over as a flat list when the
# table holds at most this many entries per (edge, subset) pair; sparser
# tables become dicts (see _dense_edge_index for the measurements)
DENSE_LIST_LOAD = 4
# the same bound for the per-subset loop, which writes a list at once rather
# than converting a numpy table (see _looped_edge_index for the measurements)
LOOP_LIST_LOAD = 32


class SearchStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Result of one search: status, optional certificate, effort spent.

    A FOUND outcome of find_rainbow_cycle keeps the instance and what the
    search produced, the vertex bit at each cycle position (and, multi-color,
    the matching's color bits), as the arguments of _certificate, never the
    search index; the certificate is built from them when `certificate` is
    first read, and later reads return that same object.
    """

    status: SearchStatus
    nodes_expanded: int
    reason: Optional[str] = None
    _pending: Optional[tuple] = field(default=None, repr=False)

    @cached_property  # writes the instance __dict__, which frozen allows
    def certificate(self) -> Optional[RainbowCertificate]:
        """The witness of a FOUND outcome, None otherwise; built on first read."""
        return None if self._pending is None else _certificate(*self._pending)

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND

    @property
    def budget_hit(self) -> bool:
        """Whether the search stopped at its node budget: UNKNOWN, exactly."""
        return self.status is SearchStatus.UNKNOWN

    def to_record(self, budget: Optional[int] = None, provenance=None) -> dict:
        """JSON-ready record: status, certificate, effort, provenance."""
        cert = None
        if self.certificate is not None:
            cert = {
                "permutation": list(self.certificate.hamperm.pi),
                "edges": [list(e) for e in self.certificate.edges],
                "colors": list(self.certificate.colors),
            }
        return {
            "status": self.status.value,
            "certificate": cert,
            "nodes_expanded": self.nodes_expanded,
            "budget_hit": self.budget_hit,
            "budget": budget,
            "reason": self.reason,
            "provenance": provenance,
        }


def _certificate(
    spec: CycleSpec, placed: list[int], H: ColoredHypergraph, held: Optional[list[int]]
) -> RainbowCertificate:
    """The certificate of a found cycle of H: placed[p] is the vertex bit at
    cycle position p.  A single-color edge's color is read from H.  A
    multi-color window's is held[j], the color bit (see _edge_index) that
    the search's matching gave window j, as H's color sets do not say which
    one it took."""
    pi = Hamperm(tuple(bit.bit_length() - 1 for bit in placed), spec)
    if held is None:
        # edges_of_hamperm sorts each window in Python: np.sort's first call
        # maps about 0.3 MB more of numpy into the process
        colors = H.by_rank[lex_ranks(spec.n, np.array(edges_of_hamperm(pi)))].tolist()
    else:
        colors = [bit.bit_length() - 1 - (spec.n + 1) for bit in held]
    return RainbowCertificate(pi, tuple(colors))


class _BudgetExceeded(Exception):
    pass


def _search_plan(spec: CycleSpec, anchored: bool):
    """Per-step tables for the edge-driven search, steps 0..n-1.

    The tables are the search's program: _search_source compiles them into
    one nested loop per step, which _compiled_search caches, so a plan is
    built once per compiled search and nothing here is read while
    searching, nor when a found cycle is decoded, as the leaf hands its
    vertex bits back in position order.

    order[s]: the position placed at step s; every plan places position 0
        at step 0, so the leaf's b[0] marks a find (see _search_source).
        The vertex-anchored plan (anchored=False) places tight specs
        (ell = k-1) in the order 0, n-1, 1, 2, ..., n-2, so both cycle
        neighbours of position 0 come first and the reflection rule below
        prunes at step 2, and every other spec in position order.  The
        color-anchored plan (anchored=True) places every spec in position
        order, so window 0, which holds the anchor color's edge, is placed
        first.
    member[s]: windows containing position order[s].
    filters[s]: the windows of member[s] whose extend sets the search
        intersects at step s.  A window is dropped when another member
        window of its edge class (window 0 of the color-anchored plan reads
        the anchor's edges, so it is a class of its own) has already placed
        a superset of its positions, ties keeping the lower index: the
        larger placed set's extend set lies inside the smaller one's, so the
        intersection does not change.
    closing[s]: windows whose last-placed position is placed at step s.
    ordered[s]: (ref, +1) if the vertex placed at step s must exceed the
        one placed at step ref, (ref, -1) if it must be below it, None if
        free.  (s-1, +1) marks interchangeable positions: order[s] shares
        its window set with order[s-1] = order[s]-1.  A window starts at
        every block, so such runs never cross a block boundary and sorting
        one keeps vertex 1 in the first block.  The reflection rules are
        the other entries: the vertex at position 1 lies below the one at
        position n-1 (vertex-anchored, tight), and the first vertex of the
        run holding position k-1 lies above the one at position 0
        (color-anchored, every spec).
    watch[s]: (j, begins) or None.  After step s a window waits when some
        but not all of its positions are placed and its next position is
        not placed at step s+1, so no extend filter reads it; window j is
        the waiting window with the fewest unplaced positions, ties going to
        the higher index.  begins is True when window j was not watched
        after step s-1, which happens only at a step placing one of j's
        positions; its placed set does not change while it is watched, so
        its completions are rebuilt only where a watch begins.  The watch is
        None when no window waits, and also when it cannot cut and does not
        carry on to step s+1 (whose check would read its list again).  It
        cannot cut when every placed position lies in window j, so no window
        has closed and no color is used, and a filter window of j's class
        holds them all with the position of step s: that filter has put the
        placed vertices in a present untagged edge, and no vertex or color
        can block its completion.
    force_one: the step placing the last position of the first block that
        can hold the minimum of its run; vertex 1 is forced there if still
        unplaced.  -1 in the color-anchored plan, which has no vertex-1 rule.
    """
    n, k, windows = spec.n, spec.k, spec.windows()
    tight = spec.block_size == 1 and not anchored
    order = (0, n - 1, *range(1, n - 1)) if tight else tuple(range(n))
    step_of = {p: s for s, p in enumerate(order)}
    member = tuple(
        tuple(j for j, w in enumerate(windows) if p in w) for p in order
    )
    steps = [sorted(step_of[q] for q in w) for w in windows]
    closing = tuple(
        tuple(j for j in range(len(windows)) if steps[j][-1] == s) for s in range(n)
    )

    def implied(j: int, i: int, s: int) -> bool:
        """Window i has placed, before step s, a superset of j's positions."""
        if anchored and 0 in (i, j):
            return False
        mine = {t for t in steps[j] if t < s}
        theirs = {t for t in steps[i] if t < s}
        return mine < theirs or (mine == theirs and i < j)

    filters = tuple(
        tuple(j for j in member[s] if not any(implied(j, i, s) for i in member[s]))
        for s in range(n)
    )
    watch: list = []
    for s in range(n):
        waiting = [
            (sum(t > s for t in steps[j]), -j)
            for j in range(len(windows))
            if steps[j][0] <= s < steps[j][-1]
            and min(t for t in steps[j] if t > s) > s + 1
        ]
        if not waiting:
            watch.append(None)
            continue
        j = -min(waiting)[1]
        previous = watch[-1] if watch else None
        watch.append((j, previous is None or previous[0] != j))
    for s, w in enumerate(watch):
        if w is None or s + 1 < n and watch[s + 1] == (w[0], False):
            continue
        # every placed position in the unfinished window j means no window
        # has closed, so no color is used; a filter window of j's class that,
        # with step s, holds them all put them in a present untagged edge
        # that nothing blocks, so the watch cannot cut
        early = set(range(s + 1))
        if early <= set(steps[w[0]]) and any(
            early <= set(steps[i])
            for i in filters[s]
            if not (anchored and 0 in (i, w[0]))
        ):
            watch[s] = None
    watch = tuple(watch)
    ordered = [
        (s - 1, 1) if s > 0 and order[s - 1] == p - 1 and member[s] == member[s - 1]
        else None
        for s, p in enumerate(order)
    ]
    if anchored:
        # p -> k-1-p maps window i to window -i, fixing window 0, and the run
        # holding position 0 to the one holding k-1; the runs are disjoint,
        # so comparing their minima keeps exactly one orientation
        first = k - 1
        while ordered[step_of[first]] is not None:
            first -= 1
        ordered[step_of[first]] = (step_of[0], 1)
        return order, member, filters, closing, tuple(ordered), watch, -1
    if tight:
        ordered[step_of[1]] = (step_of[n - 1], -1)
    force_one = max(
        step_of[p] for p in range(spec.block_size) if ordered[step_of[p]] is None
    )
    return order, member, filters, closing, tuple(ordered), watch, force_one


def _present_edges(H: ColoredHypergraph) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, slots): the ranks of H's present edges, ascending, and their
    slots; a search extracts them once for the rarest color and the index."""
    ranks = np.flatnonzero(H.by_rank)
    return ranks, H.by_rank[ranks]


def _rarest_color(H: ColoredHypergraph, slots: np.ndarray) -> Optional[int]:
    """The color of [1, r] carried by the fewest present edges, ties going to
    the smaller color; None if some color is carried by no edge.  slots are
    those of H's present edges (see _present_edges)."""
    if H.multi_color:
        counts = [0] * (H.r + 1)
        for mask in slots.tolist():
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
    else:
        counts = np.bincount(slots, minlength=H.r + 1).tolist()
    counts = counts[1:]
    fewest = min(counts)
    return counts.index(fewest) + 1 if fewest else None


def _vertex_bits(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """The search's bit layout (bit v for vertex v) over core's rank order:
    row i holds the k vertex bits of the k-set of rank ranks[i], ascending,
    as int64 below n = 63 and as Python ints from there."""
    vertex_bit = np.array([1 << v for v in range(n + 1)], dtype=np.int64 if n < 63 else object)
    return vertex_bit[ksets_of_ranks(n, k, ranks)]


@lru_cache(maxsize=4)
def _vertex_masks(n: int, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """_vertex_bits of every k-set, read only up to n = TABLE_MAX_N (see
    _edge_index).

    Returns (masks, bits): masks[rank] is the vertex bitmask of the k-set of
    that rank, a Python int; bits[rank] is the read-only int64 row of its k
    vertex bits, which the dense index reads.  Beyond the bound nothing is
    cached: a Python int per k-set took ~404 MB at (2000, 2).
    """
    bits = _vertex_bits(n, k, np.arange(kset_count(n, k)))
    bits.flags.writeable = False
    return tuple(np.bitwise_or.reduce(bits, axis=1).tolist()), bits


@lru_cache(maxsize=4)
def _candidate_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[mask]: the vertex bits of mask in ascending order, for every
    even mask over vertices 1..n, read only up to n = TABLE_MAX_N (see
    _search_source).

    The search loops over a step's candidates as bits[cand].  Bit 0 is the
    anchor's tag, never a candidate, so every odd mask shares the empty
    tuple.  The table holds 2^n tuples (tracemalloc, build time on a 2-core
    VM): 0.3 MB and 1 ms at n = 12, 1.0 MB and 4 ms at n = 14, 6-7 MB and
    30 ms at n = 16.  Against loops popping the lowest bit, warm CLI passes
    in one process (alternating, process time, 12 passes each) took
    x0.88-0.92 on tight (n, 4, 3) budgeted csweeps at each n = 12..16 and
    x0.94 and x0.97 on loose (n, 3, 1) sweeps at n = 14 and 16, 8-12 of 12
    passes faster.  So the table pays its build back after about 0.4 s of
    csweep search at n = 16 and 1 s of sweep search; beyond n = 16 it
    would double per vertex, and the loops keep popping the lowest bit.
    """
    even: list[tuple[int, ...]] = [()]
    for v in range(1, n + 1):
        bit = (1 << v,)
        even += [low + bit for low in even]
    bits: list[tuple[int, ...]] = [()] * (2 << n)
    bits[::2] = even
    return tuple(bits)


_Index = Union[dict[int, int], list[int]]
_Edges = list[tuple[int, int]]  # (edge mask, color bits) pairs in rank order


def _edge_index(
    H: ColoredHypergraph, anchor: int, ranks: np.ndarray, slots: np.ndarray
) -> tuple[_Index, _Edges]:
    """Vertex-bitmask index of H's present edges (bit v for vertex v), whose
    ranks and slots are given (see _present_edges).

    Returns (table, edges), table holding two kinds of keys.  table[T] for
    a proper subset T of an edge is the set of vertices v outside T with
    T | {v} contained in some present edge.  table[e] for an edge e is its
    colors as a bitmask past the vertex bits, bit n + 1 + c for color c, so
    that one int can hold placed vertices and used colors: one bit
    (single-color) or the edge's whole color set (multi-color).  A subset
    has fewer than k vertex bits and an edge exactly k, so the keys never
    collide.  edges lists the (edge, colors) pairs in rank order.

    With an anchor color (anchor > 0; 0 means none), the edges carrying it
    and their subsets are keyed tagged with bit 0, which is never a vertex
    bit, with the anchor as their only color; the untagged keys index the
    other edges, the anchor removed from their colors (an edge left with no
    color leaves).

    The table comes in one of two forms, which the search subscripts alike:
    a dict holding just those keys, or a list over all 2^(n+1) masks holding
    0 at every other one.  Two routines build it, _dense_edge_index in one
    numpy pass and _looped_edge_index one subset at a time.  This function
    alone reads the rules that shape it, and hands the routine its form
    (and the loop its masks), with E * 2^k (edge, subset) pairs:
    - the numpy pass runs iff H is single-color, n <= TABLE_MAX_N and there
      are at least DENSE_INDEX_MIN_PAIRS pairs; on smaller instances its
      fixed numpy costs make it slower than the loop;
    - the table is a list iff n <= TABLE_MAX_N and the list holds at most
      DENSE_LIST_LOAD (numpy pass) or LOOP_LIST_LOAD (loop) entries per
      pair, 2^(n+1) <= load * E * 2^k (each routine gives its measurements);
    - the loop reads the cached _vertex_masks up to n = TABLE_MAX_N, and
      beyond it a dict of just these ranks' masks, made for this search.
    """
    n, k = H.n, H.k
    if n > TABLE_MAX_N:
        masks = np.bitwise_or.reduce(_vertex_bits(n, k, ranks), axis=1)
        masks = dict(zip(ranks.tolist(), masks.tolist()))
        return _looped_edge_index(H, anchor, ranks, slots, masks, False)
    pairs = len(ranks) << k
    if not H.multi_color and pairs >= DENSE_INDEX_MIN_PAIRS:
        listed = 1 << (n + 1) <= DENSE_LIST_LOAD * pairs
        return _dense_edge_index(H, anchor, ranks, slots, listed)
    listed = 1 << (n + 1) <= LOOP_LIST_LOAD * pairs
    return _looped_edge_index(H, anchor, ranks, slots, _vertex_masks(n, k)[0], listed)


def _looped_edge_index(
    H: ColoredHypergraph,
    anchor: int,
    ranks: np.ndarray,
    slots: np.ndarray,
    masks: Union[tuple[int, ...], dict[int, int]],
    listed: bool,
) -> tuple[_Index, _Edges]:
    """_edge_index of any instance: each edge's proper subsets walked in a
    loop, largest first, each one a table update.  masks[rank] is the vertex
    bitmask of the k-set of each of these ranks, a Python int; the table is
    a flat list if listed and a dict otherwise (see _edge_index).

    The loop writes the list in place, so a list costs only its allocation
    more than a dict, and every write and read after that is a list
    subscript.  Search time with a list over time with a dict, on loop
    instances shaped like couple_directed8's (8, 3, 1) and sweep_loose12's
    (12, 3, 1) plus sparse (14, 3, 1) and (12, 4, 3) ones (best of 7
    in-process runs each, "load" is 2^(n+1) / (E * 2^k)): x0.87-0.92 at
    loads below 48 (149 couple searches at loads under 8: x0.87), x0.99 at
    48-64 and x1.10 at 64-96; searches shorter than 20 us gained little at
    any load (x0.97-1.02), hence LOOP_LIST_LOAD = 32.
    """
    multi = H.multi_color
    shift = H.n + 1
    # no edge carries color 0, so without an anchor no edge carries its bit
    anchor_bit = 1 << (anchor + shift)
    edges = []
    for rank, slot in zip(ranks.tolist(), slots.tolist()):
        edge = masks[rank]
        bits = slot << shift if multi else 1 << (slot + shift)
        if bits & anchor_bit:
            edges.append((edge | 1, anchor_bit))
            bits ^= anchor_bit
            if not bits:
                continue
        edges.append((edge, bits))
    # each proper subset sub of an edge, largest first, gains edge ^ sub; a
    # tagged edge's subsets keep its tag: from sub = S | 1 (S even), sub - 2
    # is S - 1, the untagged step from S with bit 0 set, so steps of 2 walk
    # the same subsets tagged, down to the tag alone.  One walk per form: a
    # single walk into a defaultdict, copied to a dict at the end, built
    # dict tables x1.14-1.34 slower at (12, 3, 1) and (18, 3, 1)
    if listed:
        table: _Index = [0] * (1 << shift)
        for edge, bits in edges:
            table[edge] = bits
            tag = edge & 1
            step = 1 + tag
            sub = edge
            while sub > tag:
                sub = (sub - step) & edge
                table[sub] |= edge ^ sub
    else:
        table = {}
        get = table.get
        for edge, bits in edges:
            table[edge] = bits
            tag = edge & 1
            step = 1 + tag
            sub = edge
            while sub > tag:
                sub = (sub - step) & edge
                table[sub] = get(sub, 0) | (edge ^ sub)
    return table, edges


def _dense_edge_index(
    H: ColoredHypergraph, anchor: int, ranks: np.ndarray, slots: np.ndarray, listed: bool
) -> tuple[_Index, _Edges]:
    """_edge_index of a single-color instance with n <= TABLE_MAX_N, in one
    numpy pass: every subset of every edge is one entry of an (E, 2^k)
    array, the product of the edges' vertex bits with the 0/1 matrix of
    subset patterns.  Its last column is the edge itself, the others are the
    proper subsets, which the anchor's edges tag with bit 0; one unbuffered
    OR gathers each key's rests (edge minus subset) in a table over all
    2^(n+1) keys, whose nonzero entries are the subsets' part of the index.
    The edges' colors are written in afterwards in Python, as a renumbered
    color's bit can lie past bit 63.

    If listed (see _edge_index for the rule), that table is handed over as
    a list: a list subscript is cheaper than a dict's.  Every csweep_tight10
    search is listed, and its traced search time per pass went 18.3-19.3 ->
    15.9-16.2 ms at the same 43,545 nodes.  Otherwise it becomes a dict of
    its nonzero entries: a list costs O(2^n) to build (tolist took ~20 us
    at n = 10, ~0.9 ms at n = 16) and its reads stop being cheaper once it
    outgrows the cache.  Search time with lists over time with dicts, budget
    20,000, on the coupled realizations of six (n, k, k-1) trials at r = n
    (median of 10 alternating in-process pairs; "load" is 2^(n+1) /
    (E * 2^k)), which set DENSE_LIST_LOAD = 4:
    - k = 4, n = 12: x0.84-0.90 at p = 0.35-0.6 (load 1.7-3.4), x1.03 at
      p = 0.25 (load 3.9-4.9), x1.18 at p = 0.15 (load 6.1-7.4);
    - k = 4, n = 14: x0.89-0.93 at p = 0.3-0.7 (load 2.8-7.1), x1.35-4.1
      at p <= 0.2 (load 8.8-28);
    - k = 4, n = 16: x1.08-11 at every p from 0.04 to 0.7 (load >= 6.3);
    - k = 5, n = 16: x0.92-0.93 at p = 0.6-0.9 (load 1.0-1.6), but x1.10
      at p = 0.3 (load 3.0-3.2), the one slower case the rule lists.
    """
    n, k = H.n, H.k
    patterns = np.arange(1 << k) >> np.arange(k)[:, None] & 1
    subsets = _vertex_masks(n, k)[1][ranks] @ patterns
    edges, subsets = subsets[:, -1], subsets[:, :-1]
    tags = (slots == anchor).astype(np.int64)  # no edge carries color 0
    table = np.zeros(1 << (n + 1), dtype=np.int64)
    np.bitwise_or.at(table, subsets | tags[:, None], edges[:, None] - subsets)
    present = list(
        zip((edges | tags).tolist(), [1 << (slot + n + 1) for slot in slots.tolist()])
    )
    if listed:
        index: _Index = table.tolist()
        for edge, bits in present:
            index[edge] = bits
    else:
        keys = np.flatnonzero(table != 0)  # a bool scan: ~4x faster than int64's
        index = dict(zip(keys.tolist(), table[keys].tolist()))
        index.update(present)
    return index, present


def _completions(
    table: _Index, edges: _Edges, placed: int, one_short: bool, multi: bool
) -> list[int]:
    """Completions of a watched window whose placed vertices are `placed`,
    read from _edge_index's (table, edges).

    One per present untagged edge holding them: the edge's vertices outside
    `placed` with its color bits, which lie past the vertex bits
    (multi-color: no color bits, as the matching may still reassign colors),
    so one AND against the placed vertices and used colors tests it.  The
    list ends in a 0, which no AND blocks and no completion equals.  When
    `placed` is one_short, one vertex short of an edge, each vertex u of
    table[placed] gives the edge placed | u, in ascending vertex order;
    otherwise every edge is scanned, in rank order.  `placed` always lies
    in a present edge (see _search_source), so it is a key of the table.
    """
    if one_short:
        comps = []
        rest = table[placed]
        while rest:
            u = rest & -rest
            rest ^= u
            comps.append(u if multi else u | table[placed | u])
    else:
        comps = [
            (edge ^ placed) | (0 if multi else bits)
            for edge, bits in edges
            if not edge & 1 and edge & placed == placed
        ]
    comps.append(0)
    return comps


def _augment(
    j: int, choices: list[int], holder: dict[int, int], held: list[int], visited: int
) -> int:
    """Kuhn augmenting path from window j, which holds no color, in the
    multi-color search's matching of completed windows to distinct colors:
    j tries the color bits of choices[j] outside visited in ascending order,
    as core.distinct_color_system does, a held color moving its holder on.
    Returns 0 once j holds a color; otherwise the colors visited, nonzero,
    with nothing moved."""
    rest = choices[j] & ~visited
    while rest:
        low = rest & -rest
        visited |= low
        h = holder.get(low)
        if h is None or not (visited := _augment(h, choices, holder, held, visited)):
            holder[low] = j
            held[j] = low
            return 0
        rest = choices[j] & ~visited
    return visited


def _search_source(spec: CycleSpec, anchored: bool, multi: bool) -> str:
    """Python source of the search over _search_plan(spec, anchored).

    The source defines a factory, search(table, edges, holder, held,
    choices, b, limit), binding plain data only: one instance's edge index
    (see _edge_index), the multi-color matching's state (see _augment), the
    list b that receives the vertex bit at each cycle position and the node
    limit.  It returns chunk0, which runs the search and returns the nodes
    expanded; b is written only when a cycle is found, at the leaf, in
    position order, so a found cycle is decoded without the plan.  Every
    plan places position 0 at step 0, so b[0] != 0 exactly when one is.

    Each placement step is one loop over its candidate vertices in ascending
    order: `for v<s> in bits[cand<s>]` up to n = TABLE_MAX_N, where the
    factory binds bits = _candidate_bits(n), and, as that table grows as
    2^n, a `while cand<s>` loop popping the lowest bit beyond it; this is
    the only place that picks the form, as _edge_index is for the index.
    The loop of step s+1 sits in the body of step s's, so backtracking is
    the fall-through of an inner loop and a failed check is a `continue`.
    CPython allows 20 statically nested blocks in a function, so the steps
    are cut into chunks of at most CHUNK_STEPS (15), one function each; the
    watched window's scan adds one more block inside a step.  The last step
    of a chunk calls the next chunk with what the steps after it read (the
    taken set, the vertex bits of every earlier step, the watched window's
    completions and witness when its watch carries over, and the node count)
    and gets the node count back.  Step s's vertex bit v<s>, candidates
    cand<s>, witness x<s>, taken set z<s> and the node count are all fast
    locals.  z<s> holds the vertices placed up to step s and, in
    single-color mode, the colors used, whose bits lie past the vertex bits
    (see _edge_index): one AND tests a color, and one AND tests a completion
    of the watched window.

    Everything the plan fixes is resolved here: each window mask a step
    reads is an OR of the bits of the steps placing that window's positions
    (plus the tag bit for window 0 of the color-anchored plan), filters and
    closing windows are unrolled, and rule, force-one and watch code appears
    only at the steps that have it.  A watch begins with a direct
    _completions call whose one_short and multi arguments are literals: the
    plan fixes how many of the window's positions are placed there, so it
    is one short exactly when that count is k - 1.  Filters subscript the
    table outright: a window's placed vertices always lie in a present edge
    of its class, put there by its own filter or by that of a window
    holding a superset of them, so the key is there.  Every step has a
    filter, and each reads a proper subset's extenders, so a step's
    candidates hold only vertex bits 1..n: an even index into bits.  A
    multi-color window whose lowest color is free takes it in place, which
    is what _augment's first step would do; otherwise _augment looks for an
    augmenting path.  The candidates, their order, the prunes and the node
    count are those of find_rainbow_cycle's description.
    """
    order, member, filters, closing, ordered, watch, force_one = _search_plan(
        spec, anchored
    )
    n = spec.n
    table_loops = n <= TABLE_MAX_N
    placed_at = [[s for s in range(n) if j in member[s]] for j in range(spec.m)]

    def placed(j: int, s: int) -> list[str]:
        """Terms of window j's mask before step s."""
        terms = [f"v{t}" for t in placed_at[j] if t < s]
        if anchored and j == 0:
            terms.append("1")  # the tag bit: window 0 reads the anchor's edges
        return terms

    def carried(s: int) -> bool:
        return watch[s] is not None and not watch[s][1]

    def watch_begin(s: int) -> int:
        while carried(s):
            s -= 1
        return s

    def state(s: int) -> str:
        """The vertices taken and colors used after step s (s = -1: none)."""
        return f"z{s}" if s >= 0 else "z"

    def handed_on(s: int) -> str:
        """Parameters of the chunk starting at step s."""
        names = [state(s - 1)] + [f"v{t}" for t in range(s)]
        names += [f"comps{watch_begin(s)}", f"x{s - 1}"] if carried(s) else []
        return ", ".join(names + ["nodes"])

    lines = ["def search(table, edges, holder, held, choices, b, limit):"]
    out = lines.append
    if table_loops:
        out(f"    bits = _candidate_bits({n})")

    def step(s: int, pad: str) -> None:
        """Emit step s, its loop at indentation pad, and the steps it nests."""
        wj, begins = watch[s] if watch[s] is not None else (None, False)
        z = state(s - 1)
        # the masks that each candidate reads again (closing and
        # watch-beginning windows) are kept when they are more than one bit,
        # named where the filters compute them
        reread = {*closing[s], *([wj] if begins else [])}
        again = {j for j in reread if len(placed(j, s)) > 1}
        before = {j: " | ".join(placed(j, s)) or "0" for j in {*filters[s], *reread}}
        for j in sorted(again - set(filters[s])):
            out(f"{pad}m{s}_{j} = {before[j]}")
        reads = "".join(
            f"table[m{s}_{j} := {before[j]}] & " if j in again
            else f"table[{before[j]}] & "
            for j in filters[s]
        )
        before.update((j, f"m{s}_{j}") for j in again)
        out(f"{pad}cand{s} = {reads}~{z}  # position {order[s]}")
        if ordered[s] is not None:
            ref, sign = ordered[s]
            if sign > 0:
                out(f"{pad}cand{s} &= -(v{ref} << 1)  # above step {ref}'s vertex")
            else:
                out(f"{pad}cand{s} &= v{ref} - 1  # below step {ref}'s vertex")
        if s == force_one:
            out(f"{pad}if not {z} & 2:  # vertex 1")
            out(f"{pad}    cand{s} &= 2")
        body = pad + "    "
        if table_loops:
            out(f"{pad}for v{s} in bits[cand{s}]:")
        else:
            out(f"{pad}while cand{s}:")
            out(f"{body}v{s} = cand{s} & -cand{s}")
            out(f"{body}cand{s} ^= v{s}")
        out(f"{body}nodes += 1")
        out(f"{body}if nodes > limit:")
        out(f"{body}    raise _BudgetExceeded")
        undo = []
        for j in closing[s]:
            out(f"{body}c = table[{before[j]} | v{s}]")
            if multi:
                # the lowest color free is what the matching would take
                out(f"{body}choices[{j}] = c")
                out(f"{body}low = c & -c")
                out(f"{body}if low not in holder:")
                out(f"{body}    holder[low] = {j}")
                out(f"{body}    held[{j}] = low")
                out(f"{body}elif _augment({j}, choices, holder, held, 0):  # no augmenting path")
                lines.extend(f"{body}    {line}" for line in undo)
                out(f"{body}    continue")
                undo.append(f"del holder[held[{j}]]")
            else:
                out(f"{body}if {z} & c:")
                out(f"{body}    continue")
                if z == f"z{s}":
                    out(f"{body}z{s} |= c")
                else:
                    out(f"{body}z{s} = {z} | c | v{s}")
                    z = f"z{s}"
        if z != f"z{s}":
            out(f"{body}z{s} = {z} | v{s}")
        if wj is not None:
            comps = f"comps{watch_begin(s)}"
            if begins:
                one_short = sum(t <= s for t in placed_at[wj]) == spec.k - 1
                out(
                    f"{body}{comps} = _completions(table, edges, {before[wj]} | v{s},"
                    f" {one_short}, {multi})"
                )
                out(f"{body}x{s} = 0")
            else:
                out(f"{body}x{s} = x{s - 1}")
            out(f"{body}while {comps}[x{s}] & z{s}:")
            out(f"{body}    x{s} += 1")
            out(f"{body}if not {comps}[x{s}]:")
            lines.extend(f"{body}    {line}" for line in undo)
            out(f"{body}    continue")
        if s + 1 == n:
            out(f"{body}b[:] = ({', '.join(f'v{order.index(p)}' for p in range(n))})")
            out(f"{body}return nodes")
            return
        if (s + 1) % CHUNK_STEPS:
            step(s + 1, body)
        else:
            out(f"{body}nodes = chunk{(s + 1) // CHUNK_STEPS}({handed_on(s + 1)})")
            out(f"{body}if b[0]:")
            out(f"{body}    return nodes")
        lines.extend(f"{body}{line}" for line in undo)

    for first in reversed(range(0, n, CHUNK_STEPS)):
        out("")
        if first:
            out(f"    def chunk{first // CHUNK_STEPS}({handed_on(first)}):")
        else:
            out("    def chunk0():")
            out("        nodes = 0")
            out("        z = 0")
        step(first, "        ")
        out("        return nodes")
    out("")
    out("    return chunk0")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _compiled_search(spec: CycleSpec, anchored: bool, multi: bool):
    """The search factory of _search_source, compiled once per plan.  The
    source is registered with linecache under the code's filename, so
    tracebacks and profilers show the generated lines."""
    source = _search_source(spec, anchored, multi)
    filename = (
        f"<rainbowhc search n={spec.n} k={spec.k} ell={spec.ell}"
        f" {'color' if anchored else 'vertex'}-anchored"
        f" {'multi' if multi else 'single'}-color>"
    )
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {
        "_BudgetExceeded": _BudgetExceeded,
        "_candidate_bits": _candidate_bits,
        "_completions": _completions,
        "_augment": _augment,
    }
    exec(compile(source, filename, "exec"), namespace)
    return namespace["search"]


def check_budget(budget: Optional[int]) -> None:
    """InvalidInput unless budget is None (exhaustive) or a positive node count."""
    if budget is not None and budget <= 0:
        raise InvalidInput(f"need a positive budget, got {budget}")


def find_rainbow_cycle(
    H: ColoredHypergraph,
    spec: CycleSpec,
    budget: Optional[int] = None,
) -> SearchOutcome:
    """Search H for a rainbow ell-overlapping Hamilton cycle.

    The search places one vertex per cycle position, in the placement order
    of _search_plan, and only extends into edges that exist: an index of H's
    present edges gives, for the vertices already placed in a window, the
    vertices that can still complete that window to a present edge.  A
    position's candidates are the intersection of those sets over every
    window containing it, complete or not, minus the vertices already used;
    the plan's filters skip a window whose set contains another's.  The
    index is one table, a dict or a flat list, subscripted alike (see
    _edge_index).  When a window completes its color is checked: against
    the used colors, kept as bits in the same int as the placed vertices,
    in single-color mode; in multi-color mode the completed windows are
    matched to distinct colors by Kuhn augmenting paths over int color
    bitmasks, each window trying its colors in ascending order, and the
    window joins the matching or the vertex is pruned.  Color c is bit
    n + 1 + c of those ints, so a single-color instance with r + n + 1 > 63
    searches its present colors numbered by rank instead, which keeps their
    order and so the tree; the certificate reads H's own colors.  The
    plan is compiled once into nested loops, one per step, in functions of
    at most CHUNK_STEPS steps (see _search_source); each loop iterates the
    candidates' vertex bits in ascending order, read off the cached
    _candidate_bits(n) table up to n = TABLE_MAX_N and popped one lowest
    bit at a time beyond it.  This function binds the plan to the
    instance's plain data: no closure and no cache lives per search.

    A window whose next position comes more than one step later is read by
    no extend filter until then; the windows through position 0 wait like
    this for most of the search.  After each step the plan watches one such
    window, unless the watch could not cut (see _search_plan's watch table),
    and the search lists its completions where the watch begins (see
    _completions), afresh each time: the present edges containing its placed
    vertices, each as the vertices still missing plus its color
    (multi-color: no color, as the matching may still reassign colors).  A
    window one vertex short of an edge reads them off the index, one per
    vertex of its extend set; any other scans the edges.  The plan fixes
    which, as it fixes how many of the window's positions are placed.  A
    placement that passes the color check descends only if some completion
    has all its missing vertices free and its color unused.  The index of
    the first such completion, the witness, is passed down the branch; free
    vertices only shrink and used colors only grow along a branch, so it
    only moves forward, a residual support in the sense of Lecoutre and
    Hemery.  A cut depends only on whether some completion fits, not on
    their order, so neither the dropped watches nor the order of the lists
    read off the index change the search tree.

    Rotating a permutation by multiples of k-ell moves every edge to the
    next window, so one rotation can be fixed.  With r = m colors a rainbow
    cycle uses every color exactly once, so the search anchors on a color:
    the rarest color c* (fewest present edges, ties to the smaller color)
    sits in window 0, which reads only c*-edges, and no other window may use
    c*.  If some color is on no edge there is nothing to search (NOT_FOUND,
    reason "missing_color", 0 nodes).  With r > m it anchors on a vertex
    instead.  All reductions are existence-preserving:

    - anchor: c* in window 0 (r = m), or vertex 1 in the first block
      (r > m);
    - positions lying in exactly the same windows (the interior vertices of
      an edge) are interchangeable, so their vertices are kept increasing;
    - reflection.  r = m: the map p -> k-1-p (mod n) sends window i to
      window -i, so it keeps window 0 and its color and maps the run of
      interchangeable positions holding 0 onto the one holding k-1; the
      first vertex of the latter must exceed the vertex at position 0.
      r > m, tight specs only: the vertex at position 1 is below the one at
      position n-1.  With blocks of one vertex, vertex 1 sits at position
      0; reversing the cyclic order keeps it there, maps windows to windows
      (so the same edges, and the same colors per window) and swaps
      positions 1 and n-1.  Either way exactly one orientation passes.

    The budget counts nodes: one node is one vertex placed after passing the
    edge-index filter (and the symmetry rules), before its completed
    windows' colors and the watched window's completions are checked.
    ``budget=None`` searches exhaustively and returns NOT_FOUND only on full
    exhaustion; a positive ``budget`` additionally stops the search at node
    ``budget + 1`` and returns UNKNOWN.  A FOUND outcome builds its
    certificate when it is first read (see SearchOutcome).
    """
    check_spec_fits(H, spec)
    check_budget(budget)

    m = spec.m
    if H.r < m:
        return SearchOutcome(SearchStatus.NOT_FOUND, 0, reason="insufficient_colors")
    if H.edge_count < m:
        return SearchOutcome(SearchStatus.NOT_FOUND, 0, reason="too_few_edges")

    n = spec.n
    multi = H.multi_color
    ranks, slots = _present_edges(H)
    if not multi and H.r + n + 1 > 63:
        # color c becomes bit n + 1 + c of an int; numbering the present
        # colors by rank keeps those ints small and the colors' order, so
        # the tree is the same
        slots = np.unique(slots, return_inverse=True)[1] + 1
    anchor = 0
    if H.r == m:
        anchor = _rarest_color(H, slots)
        if anchor is None:
            return SearchOutcome(SearchStatus.NOT_FOUND, 0, reason="missing_color")

    anchored = bool(anchor)
    table, edges = _edge_index(H, anchor, ranks, slots)
    # multi-color matching of completed windows to distinct colors
    held = [0] * m  # the color each matched window holds, as a bit
    choices = [0] * m  # its candidate colors, as the table holds them
    holder: dict[int, int] = {}  # color bit -> the window holding it
    placed = [0] * n  # the vertex bit at each position, written if found
    run = _compiled_search(spec, anchored, multi)(
        table, edges, holder, held, choices, placed,
        sys.maxsize if budget is None else budget,
    )
    try:
        nodes = run()
    except _BudgetExceeded:
        # raised at node budget + 1
        return SearchOutcome(SearchStatus.UNKNOWN, budget + 1)
    if not placed[0]:
        return SearchOutcome(SearchStatus.NOT_FOUND, nodes, reason="exhausted")
    # each step placed one vertex bit, so they are n distinct vertices of
    # [n] exactly when they sum to bits 1..n
    if sum(placed) != (1 << (n + 1)) - 2:
        raise RuntimeError(f"the search placed {placed}, not a permutation of 1..{n}")
    # the certificate is built when first read (SearchOutcome.certificate);
    # only the multi-color matching, which H cannot give back, is kept
    return SearchOutcome(
        SearchStatus.FOUND, nodes, _pending=(spec, placed, H, held if multi else None)
    )


# ---------------------------------------------------------------------------
# permutation-enumeration machinery


def _check_limit(n: int, cap: int, kind: str) -> None:
    """TooLarge unless n <= cap, as the oracles' tables and loops grow with n!."""
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the {kind} limit {cap}")


@lru_cache(maxsize=2)  # one table is m x n! int64: ~26 MB at n = 9
def _perm_edge_table(n: int, k: int, ell: int) -> np.ndarray:
    """(m, n!) array: column = induced-edge lex ranks (see core.lex_rank) of
    each permutation of [n] in lexicographic permutation order, row i for
    cycle edge i (window-major, so per-edge work runs over long rows)."""
    spec = CycleSpec(n, k, ell)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(1, n + 1))),
        dtype=np.int32,
        count=math.factorial(n) * n,
    ).reshape(math.factorial(n), n)
    table = np.empty((spec.m, perms.shape[0]), dtype=np.int64)
    for i, window in enumerate(spec.windows()):
        table[i] = lex_ranks(n, np.sort(perms[:, list(window)], axis=1))
    table.flags.writeable = False  # cached: every oracle call shares it
    return table


@lru_cache(maxsize=2)  # a fraction of _perm_edge_table: n!/|Aut| columns
def _edge_set_table(n: int, k: int, ell: int) -> tuple[np.ndarray, int]:
    """(columns, weight): one column of sorted ranks per distinct induced edge
    set, and the number of permutations inducing each.  pi and pi' induce
    the same edges exactly when pi' = pi o sigma for a sigma mapping the
    windows onto the windows, so every set has the same weight; the count
    is measured here, and a spread raises RuntimeError."""
    ranks = np.sort(_perm_edge_table(n, k, ell), axis=0)
    # equal columns made adjacent: ~0.15 s at n = 9, against ~0.8 s for
    # np.unique(axis=1)
    ranks = ranks[:, np.lexsort(ranks[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(ranks[:, 1:] != ranks[:, :-1], axis=0)])
    counts = np.diff(np.r_[starts, ranks.shape[1]])
    # take writes C order: count_hamperms's gather keeps its index's layout,
    # and the row-wise tests after it ran ~1.4x slower on strided rows
    columns = ranks.take(starts, axis=1)
    weight = int(counts[0])
    if np.any(counts != weight):
        raise RuntimeError(f"unequal edge-set multiplicities for ({n}, {k}, {ell})")
    columns.flags.writeable = False  # cached: every oracle call shares it
    return columns, weight


def count_hamperms(H: ColoredHypergraph, spec: CycleSpec) -> tuple[int, int]:
    """Count the permutations of [n] against H.

    Returns (X_count, Y_count): permutations whose induced edges all exist,
    and those additionally admitting a system of pairwise distinct colors.
    Both depend on a permutation only through its induced edge set, so each
    distinct set is tested once and counted with its weight (see
    _edge_set_table).  An n above ENUMERATION_LIMIT is TooLarge before
    anything is allocated.
    """
    check_spec_fits(H, spec)
    _check_limit(spec.n, ENUMERATION_LIMIT, "enumeration")
    table, weight = _edge_set_table(spec.n, spec.k, spec.ell)
    if H.multi_color:
        x_sets, y_sets = _count_multi_color(H.by_rank, table)
        return x_sets * weight, y_sets * weight
    colors = H.by_rank[table]  # (m, sets): the slot of each induced edge
    present = colors.all(axis=0)  # color 0 marks an absent edge
    x_sets = int(np.count_nonzero(present))
    for i, j in itertools.combinations(range(spec.m), 2):
        present &= colors[i] != colors[j]  # now: present and rainbow
    return x_sets * weight, int(np.count_nonzero(present)) * weight


def _count_multi_color(slots: np.ndarray, table: np.ndarray) -> tuple[int, int]:
    """(present, with an SDR) columns of table, for multi-color slots.
    Whether a column has an SDR depends only on its multiset of color
    masks, so each distinct one is solved once.  The table holds one column
    per distinct edge set (see _edge_set_table), at most 20,160 at n <= 9,
    so the present ones are gathered at once."""
    present = np.flatnonzero(np.logical_and.reduce((slots != 0)[table], axis=0))
    masks = slots[table[:, present]]
    columns = Counter(tuple(sorted(column)) for column in masks.T.tolist())
    y_count = sum(
        count
        for column, count in columns.items()
        if distinct_color_system([color_bits(mask) for mask in column]) is not None
    )
    return len(present), y_count


@dataclass(frozen=True)
class OverlapProfile:
    """N(b, a) table against a reference cycle, plus the N(0, 0) mass.

    Entry (b, a) counts permutations whose induced cycle shares exactly b
    edges with the reference cycle, those shared edges forming a maximal
    chains in the reference cycle's cyclic edge order (consecutive chain
    members intersecting; chains meeting across the wrap-around seam merge;
    the full-overlap case b = m is recorded under a = 1).  Entry (0, 0)
    counts edge-disjoint permutations, so the table totals n!.
    """

    spec: CycleSpec
    table: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.table.values())

    def by_overlap(self) -> dict[int, int]:
        """Aggregate N(b) = sum_a N(b, a)."""
        agg: dict[int, int] = {}
        for (b, _a), count in self.table.items():
            agg[b] = agg.get(b, 0) + count
        return agg


def overlap_profile(spec: CycleSpec) -> OverlapProfile:
    """Exhaustive N(b, a) via enumeration, reference cycle = identity.

    Fixing the reference permutation is sound because the table does not
    depend on it (relabeling vertices is a bijection on permutations).
    """
    _check_limit(spec.n, ENUMERATION_LIMIT, "enumeration")
    n, m = spec.n, spec.m
    identity = Hamperm(tuple(range(1, n + 1)), spec)
    ref_edges = edges_of_hamperm(identity)
    ref_sets = [set(e) for e in ref_edges]
    meets = [
        [bool(ref_sets[i] & ref_sets[j]) for j in range(m)] for i in range(m)
    ]
    ref_index = np.full(kset_count(n, spec.k), -1, dtype=np.int64)
    ref_index[lex_ranks(n, np.array(ref_edges))] = np.arange(m)  # k < n: no repeats

    table = _perm_edge_table(spec.n, spec.k, spec.ell)
    idx_mat = ref_index[table].T  # one row per permutation
    counts: dict[tuple[int, int], int] = {}
    for row in idx_mat:
        shared = sorted(int(i) for i in row if i >= 0)
        b = len(shared)
        if b == 0:
            key = (0, 0)
        else:
            breaks = sum(
                1
                for t in range(b)
                if not meets[shared[t]][shared[(t + 1) % b]]
            )
            key = (b, breaks if breaks else 1)
        counts[key] = counts.get(key, 0) + 1
    return OverlapProfile(spec, counts)


def _both_rainbow_probability(b: int, m: int, r: int) -> Fraction:
    """Pr(two cycles sharing b edges are both rainbow), colors iid uniform.

    The first cycle is rainbow with probability (r)_m / r^m; conditioned on
    that, the second needs its m-b fresh edges colored distinctly avoiding
    the b shared colors: (r-b)_{m-b} / r^{m-b}.  The falling factorials
    (x)_t are math.perm(x, t); with r < m colors neither cycle is rainbow.
    """
    if r < m:
        return Fraction(0)
    return Fraction(math.perm(r, m), r**m) * Fraction(
        math.perm(r - b, m - b), r ** (m - b)
    )


def second_moment_from_profile(
    profile: OverlapProfile, p, r: int
) -> Fraction:
    """Exact E(Y^2) from the overlap table.

    E(Y^2) = n! * sum_b N(b) p^{2m-b} ((r)_m / r^m) ((r-b)_{m-b} / r^{m-b}),
    the b = 0 term carried by the true N(0, 0).  Exact rational arithmetic.
    """
    spec = profile.spec
    m = spec.m
    if r < m:
        raise InvalidInput(f"r = {r} < m = {m}: E(Y) = 0 regime")
    MomentParams(spec.n, spec.k, spec.ell, p, r)  # checks p and r
    p = Fraction(p)
    total = Fraction(0)
    for b, count in profile.by_overlap().items():
        total += count * p ** (2 * m - b) * _both_rainbow_probability(b, m, r)
    return math.factorial(spec.n) * total


def second_moment_bruteforce(spec: CycleSpec, p, r: int) -> Fraction:
    """Exact E(Y^2) by looping over all ordered permutation pairs.

    For each pair, the union size of the two induced edge sets and the shared
    count b are measured directly on edge bitmasks; the pair contributes
    p^{|union|} * Pr(both rainbow).  No overlap table, no path counting.
    """
    _check_limit(spec.n, PAIRWISE_LIMIT, "pairwise")
    MomentParams(spec.n, spec.k, spec.ell, p, r)  # checks p and r
    p = Fraction(p)
    total = Fraction(0)
    for (union, b), count in _pair_counts(spec):
        total += count * p**union * _both_rainbow_probability(b, spec.m, r)
    return total


@lru_cache(maxsize=8)
def _pair_counts(spec: CycleSpec) -> tuple[tuple[tuple[int, int], int], ...]:
    """((union, shared), count) over all ordered permutation pairs, measured
    on induced-edge bitmasks; it does not depend on (p, r), so it is built
    once per spec."""
    masks = []
    for column in _perm_edge_table(spec.n, spec.k, spec.ell).T.tolist():
        mask = 0
        for rank in column:
            mask |= 1 << rank
        masks.append(mask)
    pair_counts: dict[tuple[int, int], int] = {}
    for m1 in masks:
        for m2 in masks:
            key = ((m1 | m2).bit_count(), (m1 & m2).bit_count())
            pair_counts[key] = pair_counts.get(key, 0) + 1
    return tuple(pair_counts.items())


def expected_Y_bruteforce(spec: CycleSpec, p, r: int) -> Fraction:
    """Exact E(Y) summed over all n! permutations.

    Each permutation contributes p^d * (r)_d / r^d where d is its number of
    distinct induced edges (measured, not assumed): the distinct ranks in
    its column of the permutation table.
    """
    _check_limit(spec.n, ENUMERATION_LIMIT, "enumeration")
    MomentParams(spec.n, spec.k, spec.ell, p, r)  # checks p and r
    p = Fraction(p)
    ranks = np.sort(_perm_edge_table(spec.n, spec.k, spec.ell), axis=0)
    distinct = 1 + np.count_nonzero(ranks[1:] != ranks[:-1], axis=0)
    total = Fraction(0)
    for d, count in enumerate(np.bincount(distinct).tolist()):
        total += count * p**d * Fraction(math.perm(r, d), r**d)
    return total


def solver_agrees_with_oracle(
    H: ColoredHypergraph, spec: CycleSpec
) -> tuple[bool, SearchOutcome, tuple[int, int]]:
    """Cross-check: exhaustive search existence vs the counting oracle."""
    outcome = find_rainbow_cycle(H, spec)
    counts = count_hamperms(H, spec)
    agree = outcome.found == (counts[1] > 0)
    if outcome.found and not verify_certificate(H, outcome.certificate):
        agree = False
    return agree, outcome, counts
