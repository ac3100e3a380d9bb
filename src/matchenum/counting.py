"""Exact perfect-matching counts by three independent methods.

* ``count_brute``     - backtracking on the minimum-degree vertex; the
  ground-truth oracle for everything else, bounded by ``BRUTE_NODE_LIMIT``
  partner tries.  ``enumerate_matchings`` walks the same search and yields
  the matchings themselves.
* ``frontier_count``  - the state DP along any vertex order of any graph.
  ``count_permanent`` is one schedule of it: the rows of the 0/1
  biadjacency of a balanced bipartite graph (hypercubes included), each
  preceded by the columns it is the last row to meet.
* ``count_kasteleyn`` - determinant of the signed biadjacency under a
  Kasteleyn orientation; needs the planar embedding, which may be
  disconnected.  The determinant (``det_bareiss``) is a fraction-free
  elimination confined to the band of the matrix, which lexicographic
  lattice labels keep narrow: 20 diagonals on each side for the order-20
  Aztec diamond's 420 rows.

One DP loop, ``_advance``, serves the state DP here and both operators of
an Aztec window in ``transfer``.  It runs the compiled steps of a vertex
order over a table of states.  A vertex that has a neighbour earlier in
the order takes a slot in the frontier when that neighbour is processed
and frees it when it is processed itself; a state is an int bitmask over
the slots, a set bit marking a vertex already covered by an edge from an
earlier vertex.  The frontier width (the number of slots) bounds the
number of states by 2^width.

Everything here is exact integer arithmetic; no floating point at all.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

from .graphs import Classes, GraphError, MatchGraph

BRUTE_FORCE_LIMIT = 64   # vertices
# partner tries of one search: the 5-cube takes 2 063 361 (~5 s on a
# 2-vCPU Xeon), and the 6-cube's ~1.6e13 leaves are refused after ~10 s
BRUTE_NODE_LIMIT = 1 << 22
PERMANENT_LIMIT = 20     # columns (one color class)
FRONTIER_LIMIT = 22      # slots; a 2**22-state table is the desk-scale ceiling
# rows (one color class) of the dense Kasteleyn matrix, 2048^2 list slots
# (32 MiB); the order-44 diamond's 1980 rows take ~3.4 s on a 2-vCPU Xeon
KASTELEYN_LIMIT = 2048


class BoundError(ValueError):
    """Input exceeds a documented safety bound."""


# -- backtracking oracle ----------------------------------------------------


def _matchings(g: MatchGraph) -> Iterator[list[int]]:
    """Yield every perfect matching of g as its ``mate`` array (mate[v] is
    v's partner).  The one list is reused, so read it before resuming.

    Backtracks on a minimum-degree vertex, so degree-1 vertices propagate
    as forced edges and degree-0 vertices prune immediately.  The stack
    holds each branch vertex with an iterator over its untried partners.
    Raises BoundError once the search has tried more than BRUTE_NODE_LIMIT
    partners.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise BoundError(
            f"{g.n} vertices exceeds the brute-force limit {BRUTE_FORCE_LIMIT}"
        )
    if g.n % 2:
        return
    budget = BRUTE_NODE_LIMIT
    adj = [set(ns) for ns in g.adj]
    alive = set(range(g.n))
    mate = [-1] * g.n
    stack: list[tuple[int, Iterator[int]]] = []

    def detach(v: int) -> None:
        for u in adj[v]:
            adj[u].remove(v)
        alive.remove(v)

    def attach(v: int) -> None:
        for u in adj[v]:
            adj[u].add(v)
        alive.add(v)

    def degree(v: int) -> int:
        return len(adj[v])

    while True:
        if not alive:
            yield mate
        else:
            v = min(alive, key=degree)
            if adj[v]:
                detach(v)
                mate[v] = -1  # no partner tried yet
                stack.append((v, iter(tuple(adj[v]))))
        # undo the deepest branch and take its next partner
        while stack:
            v, partners = stack[-1]
            if mate[v] >= 0:
                attach(mate[v])
            u = next(partners, -1)
            if u >= 0:
                budget -= 1
                if budget < 0:
                    raise BoundError(
                        f"brute-force search exceeds its node limit {BRUTE_NODE_LIMIT}"
                    )
                detach(u)
                mate[v] = u
                mate[u] = v
                break
            stack.pop()
            attach(v)
        else:
            return


def count_brute(g: MatchGraph) -> int:
    """Exact number of perfect matchings: the leaves of the backtracking
    search, up to ``BRUTE_FORCE_LIMIT`` vertices and ``BRUTE_NODE_LIMIT``
    partner tries."""
    return sum(1 for _ in _matchings(g))


def enumerate_matchings(g: MatchGraph) -> Iterator[frozenset[tuple[int, int]]]:
    """Yield every perfect matching as a frozenset of sorted edge pairs, in
    the order of the backtracking search behind ``count_brute``."""
    for mate in _matchings(g):
        yield frozenset((v, u) for v, u in enumerate(mate) if v < u)


# -- the state DP along a vertex order ----------------------------------------

Step = tuple[int, tuple[int, ...]]


def _compile_order(
    g: MatchGraph, order: Sequence[int]
) -> tuple[list[Step], int, list[int]]:
    """Reduce a vertex order to per-step ``(vbit, fwd_bits)``, the width
    and each vertex's final slot.

    ``vbit`` is the slot bit of the processed vertex (0 if it never entered
    the frontier); ``fwd_bits`` are the slot bits of its later neighbours.
    A vertex's final slot is -1 when it never entered the frontier.
    """
    n = g.n
    order = list(order)
    if len(order) != n or set(order) != set(range(n)):
        raise GraphError(f"vertex order must be a permutation of range({n})")
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    slot = [-1] * n
    free: list[int] = []
    width = 0
    steps = []
    for v in order:
        s = slot[v]
        vbit = 0
        if s >= 0:
            vbit = 1 << s
            free.append(s)
        fwd = []
        for u in g.adj[v]:
            if pos[u] > pos[v]:
                if slot[u] < 0:
                    if free:
                        slot[u] = free.pop()
                    else:
                        slot[u] = width
                        width += 1
                fwd.append(1 << slot[u])
        steps.append((vbit, tuple(fwd)))
    return steps, width, slot


def _advance(steps: Sequence[Step], states: dict[int, int]) -> dict[int, int]:
    """Run compiled steps on a ``{state: count}`` table; ``{}`` once every
    state has died."""
    for vbit, fwd in steps:
        nxt: dict[int, int] = {}
        get = nxt.get
        for st, cnt in states.items():
            if st & vbit:
                st ^= vbit
                nxt[st] = get(st, 0) + cnt
            else:
                for bit in fwd:
                    if not st & bit:
                        s2 = st | bit
                        nxt[s2] = get(s2, 0) + cnt
        if not nxt:
            return {}
        states = nxt
    return states


def frontier_count(g: MatchGraph, order: Sequence[int]) -> int:
    """Exact perfect-matching count of ``g`` by a frontier DP along ``order``.

    ``order`` must be a permutation of the vertex indices.  Raises
    BoundError before any DP step when the frontier width of the order
    exceeds FRONTIER_LIMIT.
    """
    steps, width, _ = _compile_order(g, order)
    if width > FRONTIER_LIMIT:
        raise BoundError(
            f"frontier width {width} exceeds the limit {FRONTIER_LIMIT}"
        )
    return _advance(steps, {0: 1}).get(0, 0)


def count_permanent(g: MatchGraph) -> int:
    """Permanent of the 0/1 biadjacency: the number of ways to give every
    row its own column, as ``frontier_count`` along a row schedule.

    Rows are taken in order of the largest column position they meet, and
    each column comes just before the last row that meets it (the columns
    no row meets come first, and kill every state at once).  A closing
    column that no earlier row took can then only take that row, so dead
    states die before the row branches, and the live slots are the open
    columns plus at most one row: the width is at most m + 1 <= 21, under
    FRONTIER_LIMIT.  The 5-cube (m = 16) has width 13, peaks at 1708 live
    states and takes ~4 ms on a 2-vCPU Xeon.  Dense input is the worst
    case: K20,20 holds all C(20, 10) states at its widest and takes
    3-4.5 s with ~62 MB max RSS.
    """
    rows, cols = g.balanced_classes()
    m = len(rows)
    if m > PERMANENT_LIMIT:
        raise BoundError(
            f"class size {m} exceeds the permanent limit {PERMANENT_LIMIT}"
        )
    pos = g.class_pos
    rows = sorted(rows, key=lambda v: max((pos[u] for u in g.adj[v]), default=-1))
    last = {u: v for v in rows for u in g.adj[v]}  # column -> its last row
    order = [u for u in cols if u not in last]
    for v in rows:
        order += [u for u in g.adj[v] if last[u] == v]
        order.append(v)
    return frontier_count(g, order)


# -- Kasteleyn orientation and determinant ----------------------------------

Orientation = dict[tuple[int, int], tuple[int, int]]


def kasteleyn_orient(g: MatchGraph, seed: int = 0) -> Orientation:
    """Edge orientation making every bounded face clockwise-odd.

    Builds one spanning tree of the dual graph per component, rooted at
    that component's outer walk, and fixes face parities from the leaves
    upward.  The condition is per face, so a disconnected embedding (islands
    nested in holes included) needs no split into components.  ``seed``
    shuffles the dual traversal so tests can probe different (equally
    valid) orientations.  Maps each edge (u, v) with u < v to its oriented
    (tail, head) pair.
    """
    if g.coords is None:
        raise GraphError("kasteleyn_orient needs an embedding")

    orient: Orientation = {e: e for e in g.edges}
    faces = g.faces()
    face_of = g.face_of_dart()

    dual: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in faces]
    for u, v in g.edges:
        f1 = face_of[(u, v)]
        f2 = face_of[(v, u)]
        if f1 != f2:  # bridges border one face twice and carry no constraint
            dual[f1].append((f2, (u, v)))
            dual[f2].append((f1, (u, v)))

    # every component's outer walk roots its own tree of the dual forest
    roots = [i for i, f in enumerate(faces) if not f.bounded]
    rng = random.Random(seed)

    parent_edge: dict[int, tuple[int, int]] = {}
    order = []
    seen = set(roots)
    stack = roots[::-1]
    while stack:
        f = stack.pop()
        order.append(f)
        nbrs = list(dual[f])
        rng.shuffle(nbrs)
        for f2, e in nbrs:
            if f2 not in seen:
                seen.add(f2)
                parent_edge[f2] = e
                stack.append(f2)

    def cw_count(fi: int) -> int:
        # the stored walk keeps the interior on the left (counter-clockwise
        # for bounded faces), so an edge is clockwise iff it opposes its dart
        n_cw = 0
        for a, b in faces[fi].darts:
            e = (a, b) if a < b else (b, a)
            if orient[e] == (b, a):
                n_cw += 1
        return n_cw

    # children first: flipping a face's parent edge never touches a face
    # that was already fixed
    for f in reversed(order):
        if not faces[f].bounded:
            continue
        if cw_count(f) % 2 == 0:
            e = parent_edge[f]
            t, h = orient[e]
            orient[e] = (h, t)

    return orient


def kasteleyn_classes(g: MatchGraph, caller: str) -> Classes:
    """(rows, columns) of a Kasteleyn matrix, refused unless g has, in this
    order, an embedding, a bipartition, classes of equal size and at most
    KASTELEYN_LIMIT rows (the matrix is dense).  ``caller`` names the
    entry; each entry checks before ``kasteleyn_orient`` walks a face."""
    if g.coords is None:
        raise GraphError(f"{caller} needs an embedding")
    if g.color is None:
        raise GraphError(f"{caller} needs a bipartition")
    rows, cols = g.balanced_classes()
    if len(rows) > KASTELEYN_LIMIT:
        raise BoundError(
            f"class size {len(rows)} exceeds the Kasteleyn limit {KASTELEYN_LIMIT}"
        )
    return rows, cols


def signed_biadjacency(
    g: MatchGraph, orient: Orientation
) -> tuple[tuple[int, ...], tuple[int, ...], list[list[int]]]:
    """Rows are class-0 vertices, columns class-1; entries +1 when the edge
    is oriented row -> column, -1 the other way, 0 for non-edges.  The
    matrix is dense: it is refused as ``kasteleyn_classes`` refuses."""
    rows, cols = kasteleyn_classes(g, "signed_biadjacency")
    pos = g.class_pos
    mat = [[0] * len(cols) for _ in rows]
    for r, v in enumerate(rows):
        for u in g.adj[v]:
            e = (v, u) if v < u else (u, v)
            mat[r][pos[u]] = 1 if orient[e] == (v, u) else -1
    return rows, cols, mat


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination,
    confined to the band of the matrix.

    The lower and upper bandwidths ``lo`` and ``hi`` are read from the
    nonzero pattern.  Step k updates only rows k+1..k+lo and columns
    k+1..k+lo+hi: the rows below have a zero in column k, and a zero-pivot
    row swap inside the band widens the upper band to at most lo+hi.

    Bareiss changes a row below the band only by the factor pivot/prev at
    each step, and these factors telescope.  Such rows are scaled lazily
    instead: when row k+lo enters the band at step k it is multiplied once
    by the current ``prev`` (for lo = 0 this also scales the last row).

    A dense matrix is the case lo = hi = n-1.  The cost is about
    n*lo*(lo+hi) big-integer updates instead of n**3/3, and every division
    is exact, as in the dense elimination.
    """
    n = len(matrix)
    if n == 0:
        return 1
    lo = hi = 0
    for i, row in enumerate(matrix):
        left = row[:i - lo] if i > lo else ()
        if any(left):
            lo = i - list(map(bool, left)).index(True)
        right = row[i + hi + 1:]
        if any(right):
            hi = n - 1 - i - list(map(bool, reversed(right))).index(True)
    width = lo + hi + 1  # band rows are zero outside columns k..k+lo+hi
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n):
        end = min(n, k + width)
        entering = k + lo
        if k and entering < n:
            row_e = m[entering]
            row_e[k:end] = [v * prev for v in row_e[k:end]]
        if k == n - 1:
            break
        last = min(n, entering + 1)
        if m[k][k] == 0:
            for r in range(k + 1, last):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1:end]
        for i in range(k + 1, last):
            row_i = m[i]
            factor = row_i[k]
            if factor:
                row_i[k + 1:end] = [(a * pivot - factor * b) // prev
                                    for a, b in zip(row_i[k + 1:end], tail_k)]
            else:  # only the pivot/prev scaling is left
                row_i[k + 1:end] = [a * pivot // prev for a in row_i[k + 1:end]]
        prev = pivot
    return sign * m[n - 1][n - 1]


def count_kasteleyn(g: MatchGraph, seed: int = 0) -> int:
    """|det| of the Kasteleyn-signed biadjacency.

    Imbalanced graphs count 0 (no perfect matching exists); the other
    refusals are ``kasteleyn_classes``'s.  A balanced graph with an
    imbalanced component gives a singular matrix, so it counts 0 as well.
    """
    if g.coords is not None and g.color is not None and not g.is_balanced():
        return 0
    kasteleyn_classes(g, "count_kasteleyn")
    _, _, mat = signed_biadjacency(g, kasteleyn_orient(g, seed=seed))
    return abs(det_bareiss(mat))


# -- forced edges and ratios -------------------------------------------------


def count_auto(g: MatchGraph) -> int:
    """Pick the strongest applicable exact method for this graph.

    A bipartite graph without an embedding goes to the permanent, whose
    BoundError stands past its limit.  Only a graph without a bipartition
    goes to the backtracking search, bounded by BRUTE_NODE_LIMIT partner
    tries.
    """
    if g.color is not None and not g.is_balanced():
        return 0
    if g.color is not None:
        return count_kasteleyn(g) if g.coords is not None else count_permanent(g)
    if g.n <= BRUTE_FORCE_LIMIT:
        return count_brute(g)
    raise BoundError(f"no exact method applies to {g.n} vertices")


def count_with_forced_edge(g: MatchGraph, e: tuple[int, int]) -> int:
    """Matchings containing e = matchings of g minus both endpoints of e."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge of the graph")
    return count_auto(g.delete_vertices((u, v)))


def containment_counts(g: MatchGraph, e: tuple[int, int]) -> tuple[int, int]:
    """(matchings containing the edge e, all matchings); the total must be
    nonzero for the ratio of the two to be defined."""
    total = count_auto(g)
    if total == 0:
        raise GraphError("containment ratio undefined: zero total count")
    return count_with_forced_edge(g, e), total


def containment_ratio(g: MatchGraph, e: tuple[int, int]) -> Fraction:
    """Fraction of all perfect matchings that contain the edge e."""
    return Fraction(*containment_counts(g, e))


COUNTERS = {
    "brute": count_brute,
    "permanent": count_permanent,
    "kasteleyn": count_kasteleyn,
    "auto": count_auto,
}
