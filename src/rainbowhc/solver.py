"""Exact search for rainbow cycles plus brute-force moment oracles.

The searcher places one vertex per cycle position, in a placement order set
by the spec and the anchor that fixes the rotation (the rarest color when
r = m, vertex 1 otherwise), and extends only into edges that exist, using a
per-instance vertex-bitmask index of the present edges; colors are pruned with a
used-color bitmask (single-color) or an incremental distinct-representatives
matching over int color bitmasks, Kuhn augmenting paths trying colors in
ascending order (multi-color).  A window left half-placed by the order (the
windows through position 0 wrap around the cycle) is watched: a remembered
completion edge is re-checked, and the branch cut when none is left.
Exhaustive mode proves absence; budgeted mode gives up after a node quota and
reports Unknown.

The oracles enumerate all n! permutations outright and exist to pin the
closed-form moment calculations to something independently computable, so
they stay deliberately naive.  The counting oracle reads the hypergraph's
rank-indexed color array through a cached (m, n!) table of induced-edge
ranks, since Monte Carlo tests call it a hundred thousand times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    ColoredHypergraph,
    CycleSpec,
    Hamperm,
    RainbowCertificate,
    color_bits,
    distinct_color_system,
    edges_of_hamperm,
    kset_table,
    lex_rank,
    verify_certificate,
)
from .errors import InvalidInput, TooLarge

ENUMERATION_LIMIT = 9       # n! enumeration cap for counting oracles
PAIRWISE_LIMIT = 7          # (n!)^2 cap for the pairwise second-moment oracle


class SearchStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search: status, optional certificate, effort spent."""

    status: SearchStatus
    certificate: Optional[RainbowCertificate]
    nodes_expanded: int
    budget_hit: bool
    reason: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND

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


class _BudgetExceeded(Exception):
    pass


@lru_cache(maxsize=None)
def _search_plan(spec: CycleSpec, anchored: bool):
    """Per-step tables for the edge-driven search, steps 0..n-1.

    order[s]: the position placed at step s.  The vertex-anchored plan
        (anchored=False) places tight specs (ell = k-1) in the order
        0, n-1, 1, 2, ..., n-2, so both cycle neighbours of position 0 come
        first and the reflection rule below prunes at step 2, and every
        other spec in position order.  The color-anchored plan
        (anchored=True) places every spec in position order, so window 0,
        which holds the anchor color's edge, is placed first.
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
        its completions are rebuilt only where a watch begins.
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


def _rarest_color(H: ColoredHypergraph) -> Optional[int]:
    """The color of [1, r] carried by the fewest present edges, ties going to
    the smaller color; None if some color is carried by no edge."""
    if H.multi_color:
        counts = [0] * (H.r + 1)
        for mask in H.by_rank[np.flatnonzero(H.by_rank)].tolist():
            for c in color_bits(mask):
                counts[c] += 1
    else:
        counts = np.bincount(H.by_rank, minlength=H.r + 1).tolist()
    counts = counts[1:]
    fewest = min(counts)
    return counts.index(fewest) + 1 if fewest else None


def _index_edge(
    extend: dict[int, int], colors: dict[int, int], edge: int, tag: int, slot: int
) -> None:
    """Add one edge's vertex mask to the index, every key or-ed with tag."""
    colors[edge | tag] = slot
    sub = (edge - 1) & edge
    while True:
        key = sub | tag
        extend[key] = extend.get(key, 0) | (edge ^ sub)
        if not sub:
            break
        sub = (sub - 1) & edge


def _edge_index(
    H: ColoredHypergraph, anchor: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Vertex-bitmask index of H's present edges (bit v for vertex v).

    extend[T] is the set of vertices v outside T with T | {v} contained in
    some present edge, for every proper subset T of every edge; colors maps
    each edge's mask to its slot in H.by_rank: the color (single-color) or
    the color bitmask, bit c for color c (multi-color).

    With an anchor color (anchor > 0; 0 means none), the edges carrying it
    are indexed under keys tagged with bit 0, which is never a vertex bit,
    with the anchor as their only color; the untagged keys index the other
    edges, the anchor removed from their colors (single-color: anchor edges
    leave; multi-color: an edge left with no color leaves).
    """
    extend: dict[int, int] = {}
    colors: dict[int, int] = {}
    masks = kset_table(H.n, H.k)[1]
    ranks = np.flatnonzero(H.by_rank)
    multi = H.multi_color
    anchor_bit = 1 << anchor
    for rank, slot in zip(ranks.tolist(), H.by_rank[ranks].tolist()):
        edge = masks[rank]
        if anchor and (slot & anchor_bit if multi else slot == anchor):
            _index_edge(extend, colors, edge, 1, anchor_bit if multi else anchor)
            slot = slot ^ anchor_bit if multi else 0
        if slot:
            _index_edge(extend, colors, edge, 0, slot)
    return extend, colors


def find_rainbow_cycle(
    H: ColoredHypergraph,
    spec: CycleSpec,
    mode: str = "exhaustive",
    budget: Optional[int] = None,
) -> SearchOutcome:
    """Search H for a rainbow ell-overlapping Hamilton cycle.

    The search places one vertex per cycle position, in the placement order
    of _search_plan, and only extends into edges that exist: an index of H's
    present edges gives, for the vertices already placed in a window, the
    vertices that can still complete that window to a present edge.  A
    position's candidates are the intersection of those sets over every
    window containing it, complete or not, minus the vertices already used;
    the plan's filters skip a window whose set contains another's.
    When a window completes its color is checked: against a bitmask of
    used colors in single-color mode; in multi-color mode the completed
    windows are matched to distinct colors by Kuhn augmenting paths over int
    color bitmasks, each window trying its colors in ascending order, and
    the window joins the matching or the vertex is pruned.

    A window whose next position comes more than one step later is read by
    no extend filter until then; the windows through position 0 wait like
    this for most of the search.  After each step the plan watches one such
    window (see _search_plan's watch table), and the search keeps its
    completions: the present edges containing its placed vertices, each as
    the vertices still missing plus its color (multi-color: no color, as
    the matching may still reassign colors).  A placement that passes the
    color check descends only if some completion has all its missing
    vertices free and its color unused.  The index of the first such
    completion, the witness, is passed down the branch; free vertices only
    shrink and used colors only grow along a branch, so it only moves
    forward, a residual support in the sense of Lecoutre and Hemery.

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
    Exhaustive mode returns NOT_FOUND only on full exhaustion; budgeted mode
    additionally stops at node ``budget + 1`` and returns UNKNOWN.
    """
    if H.n != spec.n or H.k != spec.k:
        raise InvalidInput(
            f"hypergraph (n={H.n}, k={H.k}) does not match spec "
            f"(n={spec.n}, k={spec.k})"
        )
    if mode not in ("exhaustive", "budgeted"):
        raise InvalidInput(f"unknown search mode {mode!r}")
    if mode == "budgeted":
        if budget is None or budget <= 0:
            raise InvalidInput("budgeted mode needs a positive budget")
    else:
        budget = None

    m = spec.m
    if H.r < m:
        return SearchOutcome(
            SearchStatus.NOT_FOUND, None, 0, False, reason="insufficient_colors"
        )
    if H.edge_count < m:
        return SearchOutcome(
            SearchStatus.NOT_FOUND, None, 0, False, reason="too_few_edges"
        )

    anchor = 0
    if H.r == m:
        anchor = _rarest_color(H)
        if anchor is None:
            return SearchOutcome(
                SearchStatus.NOT_FOUND, None, 0, False, reason="missing_color"
            )

    n = spec.n
    order, member, filters, closing, ordered, watch, force_one = _search_plan(
        spec, bool(anchor)
    )
    extend, edge_colors = _edge_index(H, anchor)
    extend_of = extend.get
    multi = H.multi_color
    all_vertices = (1 << (n + 1)) - 2
    # a completion packs an edge's vertices outside a window's placed set
    # with its color bit shifted past the vertex bits (multi-color: no color
    # bit, as the matching may still reassign colors), so one AND against
    # the placed vertices and used colors tests it; each list ends in a 0,
    # which no AND blocks and no completion equals
    shift = n + 1
    completion_lists: dict[int, list[int]] = {}

    def completions(placed: int) -> list[int]:
        comps = completion_lists.get(placed)
        if comps is None:
            comps = completion_lists[placed] = [
                (edge ^ placed) | (0 if multi else 1 << (color + shift))
                for edge, color in edge_colors.items()
                if not edge & 1 and edge & placed == placed
            ]
            comps.append(0)
        return comps

    window_mask = [0] * m  # vertices placed so far in each window
    if anchor:
        window_mask[0] = 1  # the tag bit: window 0 reads the anchor's edges
    perm = [0] * n  # the vertex placed at each step
    nodes = 0
    # multi-color matching of completed windows to distinct colors
    held = [0] * m  # the color each matched window holds, as a bit
    choices = [0] * m  # its candidate colors, bit c for color c
    holder: dict[int, int] = {}  # color bit -> the window holding it
    visited = 0  # colors the current augmenting-path search has tried

    def augment(j: int) -> bool:
        nonlocal visited
        rest = choices[j] & ~visited
        while rest:
            low = rest & -rest  # ascending color order, as in core.ColorMatcher
            visited |= low
            h = holder.get(low)
            if h is None or augment(h):
                holder[low] = j
                held[j] = low
                return True
            rest = choices[j] & ~visited
        return False

    def claim(j: int, colors: int) -> bool:
        """Match window j into one of its colors; False leaves no change."""
        nonlocal visited
        choices[j] = colors
        visited = 0
        return augment(j)

    def certificate() -> RainbowCertificate:
        at = [0] * n
        for p, v in zip(order, perm):
            at[p] = v
        pi = Hamperm(tuple(at), spec)
        if multi:
            colors = tuple(bit.bit_length() - 1 for bit in held)
        else:
            colors = tuple(edge_colors[mask] for mask in window_mask)
        return RainbowCertificate(pi, tuple(edges_of_hamperm(pi)), colors)

    def place(
        s: int, free: int, used_colors: int, comps: list[int], witness: int
    ) -> Optional[RainbowCertificate]:
        """Place step s.  comps and witness carry the watched window's
        completions and the index of the first one that may still fit."""
        nonlocal nodes
        wins, closes, watched = member[s], closing[s], watch[s]
        cand = free
        for j in filters[s]:
            cand &= extend_of(window_mask[j], 0)
        rule = ordered[s]
        if rule is not None:
            ref, sign = rule
            prev = perm[ref]
            # vertices above prev, or below it
            cand &= -(2 << prev) if sign > 0 else (1 << prev) - 1
        if s == force_one and free & 2:
            cand &= 2
        if watched is not None:
            wj, begins = watched
        while cand:
            bit = cand & -cand
            cand ^= bit
            nodes += 1
            if budget is not None and nodes > budget:
                raise _BudgetExceeded
            colors_now = used_colors
            ok = True
            if multi:
                added = []
                for j in closes:
                    if not claim(j, edge_colors[window_mask[j] | bit]):
                        ok = False
                        break
                    added.append(j)
                if not ok:
                    for j in added:
                        del holder[held[j]]
                    continue
            else:
                for j in closes:
                    cbit = 1 << edge_colors[window_mask[j] | bit]
                    if colors_now & cbit:
                        ok = False
                        break
                    colors_now |= cbit
                if not ok:
                    continue
            w = witness
            if watched is not None:
                # the watched window still needs an edge through free
                # vertices with an unused color; along a branch the free
                # vertices only shrink and the used colors only grow, so
                # the witness only moves forward
                if begins:
                    comps, w = completions(window_mask[wj] | bit), 0
                blocked = (all_vertices ^ free ^ bit) | (colors_now << shift)
                while comps[w] & blocked:
                    w += 1
                if not comps[w]:
                    if multi:
                        for j in closes:
                            del holder[held[j]]
                    continue
            for j in wins:
                window_mask[j] |= bit
            perm[s] = bit.bit_length() - 1
            if s + 1 == n:
                return certificate()
            result = place(s + 1, free ^ bit, colors_now, comps, w)
            if result is not None:
                return result
            for j in wins:
                window_mask[j] ^= bit
            if multi:
                for j in closes:
                    del holder[held[j]]
        return None

    try:
        cert = place(0, all_vertices, 0, [], 0)
    except _BudgetExceeded:
        return SearchOutcome(SearchStatus.UNKNOWN, None, nodes, True)
    finally:
        # the recursive closures reach themselves through their cells
        del place, augment
    if cert is not None:
        return SearchOutcome(SearchStatus.FOUND, cert, nodes, False)
    return SearchOutcome(SearchStatus.NOT_FOUND, None, nodes, False, reason="exhausted")


# ---------------------------------------------------------------------------
# permutation-enumeration machinery


@lru_cache(maxsize=2)  # one table is m x n! int64: ~26 MB at n = 9
def _perm_edge_table(n: int, k: int, ell: int) -> np.ndarray:
    """(m, n!) array: column = induced-edge lex ranks (see core.lex_rank) of
    each permutation of [n] in lexicographic permutation order, row i for
    cycle edge i (window-major, so per-edge work runs over long rows)."""
    spec = CycleSpec(n, k, ell)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int32,
        count=math.factorial(n) * n,
    ).reshape(math.factorial(n), n)
    comb = np.zeros((n, k + 1), dtype=np.int64)
    for v in range(n):
        for t in range(k + 1):
            comb[v, t] = math.comb(v, t)
    table = np.empty((spec.m, perms.shape[0]), dtype=np.int64)
    for i, window in enumerate(spec.windows()):
        vals = np.sort(perms[:, list(window)], axis=1)  # 0-based vertices
        rank = np.full(perms.shape[0], math.comb(n, k) - 1, dtype=np.int64)
        for j in range(k):
            rank -= comb[n - 1 - vals[:, j], k - j]
        table[i] = rank
    return table


def count_hamperms(
    H: ColoredHypergraph, spec: CycleSpec, limit: int = ENUMERATION_LIMIT
) -> tuple[int, int]:
    """Enumerate all n! permutations of [n] against H.

    Returns (X_count, Y_count): permutations whose induced edges all exist,
    and those additionally admitting a system of pairwise distinct colors.
    """
    if H.n != spec.n or H.k != spec.k:
        raise InvalidInput("hypergraph does not match spec")
    if spec.n > limit:
        raise TooLarge(f"n = {spec.n} exceeds the enumeration limit {limit}")
    table = _perm_edge_table(spec.n, spec.k, spec.ell)
    colors = H.by_rank[table]  # (m, n!): the slot of each induced edge
    present = np.logical_and.reduce(colors != 0, axis=0)
    x_count = int(np.count_nonzero(present))
    if not H.multi_color:
        rainbow = present.copy()
        for i, j in itertools.combinations(range(spec.m), 2):
            rainbow &= colors[i] != colors[j]
        return x_count, int(np.count_nonzero(rainbow))

    y_count = sum(
        1
        for column in colors[:, present].T.tolist()
        if distinct_color_system([color_bits(mask) for mask in column]) is not None
    )
    return x_count, y_count


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


def overlap_profile(spec: CycleSpec, limit: int = ENUMERATION_LIMIT) -> OverlapProfile:
    """Exhaustive N(b, a) via enumeration, reference cycle = identity.

    Fixing the reference permutation is sound because the table does not
    depend on it (relabeling vertices is a bijection on permutations).
    """
    if spec.n > limit:
        raise TooLarge(f"n = {spec.n} exceeds the enumeration limit {limit}")
    n, m = spec.n, spec.m
    identity = Hamperm(tuple(range(1, n + 1)), spec)
    ref_edges = edges_of_hamperm(identity)
    ref_sets = [set(e) for e in ref_edges]
    meets = [
        [bool(ref_sets[i] & ref_sets[j]) for j in range(m)] for i in range(m)
    ]
    total_ranks = math.comb(n, spec.k)
    ref_index = np.full(total_ranks, -1, dtype=np.int64)
    for i, e in enumerate(ref_edges):
        ref_index[lex_rank(n, e)] = i

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


def falling_factorial(x: int, t: int) -> int:
    """(x)_t = x (x-1) ... (x-t+1); zero when t > x >= 0."""
    out = 1
    for i in range(t):
        out *= x - i
    return out


def _both_rainbow_probability(b: int, m: int, r: int) -> Fraction:
    """Pr(two cycles sharing b edges are both rainbow), colors iid uniform.

    The first cycle is rainbow with probability (r)_m / r^m; conditioned on
    that, the second needs its m-b fresh edges colored distinctly avoiding
    the b shared colors: (r-b)_{m-b} / r^{m-b}.
    """
    return Fraction(falling_factorial(r, m), r**m) * Fraction(
        falling_factorial(r - b, m - b), r ** (m - b)
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
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidInput(f"p must lie in [0, 1], got {p}")
    total = Fraction(0)
    for b, count in profile.by_overlap().items():
        total += count * p ** (2 * m - b) * _both_rainbow_probability(b, m, r)
    return math.factorial(spec.n) * total


def second_moment_bruteforce(
    spec: CycleSpec, p, r: int, limit: int = PAIRWISE_LIMIT
) -> Fraction:
    """Exact E(Y^2) by looping over all ordered permutation pairs.

    For each pair, the union size of the two induced edge sets and the shared
    count b are measured directly on edge bitmasks; the pair contributes
    p^{|union|} * Pr(both rainbow).  No overlap table, no path counting.
    """
    if spec.n > limit:
        raise TooLarge(f"n = {spec.n} exceeds the pairwise limit {limit}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidInput(f"p must lie in [0, 1], got {p}")
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
    for perm in itertools.permutations(range(1, spec.n + 1)):
        mask = 0
        for edge in edges_of_hamperm(Hamperm(perm, spec)):
            mask |= 1 << lex_rank(spec.n, edge)
        masks.append(mask)
    pair_counts: dict[tuple[int, int], int] = {}
    for m1 in masks:
        for m2 in masks:
            key = ((m1 | m2).bit_count(), (m1 & m2).bit_count())
            pair_counts[key] = pair_counts.get(key, 0) + 1
    return tuple(pair_counts.items())


def expected_Y_bruteforce(
    spec: CycleSpec, p, r: int, limit: int = ENUMERATION_LIMIT
) -> Fraction:
    """Exact E(Y) summed over all n! permutations.

    Each permutation contributes p^d * (r)_d / r^d where d is its number of
    distinct induced edges (measured, not assumed).
    """
    if spec.n > limit:
        raise TooLarge(f"n = {spec.n} exceeds the enumeration limit {limit}")
    p = Fraction(p)
    by_distinct: dict[int, int] = {}
    for perm in itertools.permutations(range(1, spec.n + 1)):
        d = len(set(edges_of_hamperm(Hamperm(perm, spec))))
        by_distinct[d] = by_distinct.get(d, 0) + 1
    total = Fraction(0)
    for d, count in by_distinct.items():
        total += count * p**d * Fraction(falling_factorial(r, d), r**d)
    return total


def solver_agrees_with_oracle(
    H: ColoredHypergraph, spec: CycleSpec
) -> tuple[bool, SearchOutcome, tuple[int, int]]:
    """Cross-check: exhaustive search existence vs the counting oracle."""
    outcome = find_rainbow_cycle(H, spec, mode="exhaustive")
    counts = count_hamperms(H, spec)
    agree = outcome.found == (counts[1] > 0)
    if outcome.found and not verify_certificate(H, outcome.certificate):
        agree = False
    return agree, outcome, counts
