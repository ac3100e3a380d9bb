"""Exact perfect-matching counts by three independent methods.

* ``count_brute``     - bitmask backtracking on a minimum-degree vertex; the
  ground-truth oracle for everything else, bounded by ``BRUTE_NODE_LIMIT``
  partner tries.  ``enumerate_matchings`` walks the same search and yields
  the matchings themselves.
* ``frontier_count``  - the state DP along any vertex order of any graph.
  ``count_permanent`` is one schedule of it: the rows of the 0/1
  biadjacency of a bipartite graph (hypercubes included), each preceded
  by the columns it is the last row to meet; unequal classes count 0.
* ``count_kasteleyn`` - determinant of the signed biadjacency under a
  Kasteleyn orientation; needs the planar embedding, which may be
  disconnected.  ``kasteleyn_orient`` roots one spanning tree of the dual
  per component at its outer walk and, leaves first, flips the tree edge
  of every face whose clockwise parity is even; each parity is read once
  from the face walk and then kept by XOR.  ``signed_biadjacency`` builds
  that matrix, for ``spectra`` too, and checks ``kasteleyn_classes``
  before it orients.
  K is one sparse row format from orientation to determinant and
  spectrum: one ``{column: +-1}`` dict per row, zeros not stored, which
  ``spectra.SignedMatrix`` holds as they are; ``check_rows`` is the one
  check of that format.  The determinant (``det_bareiss``) is
  a sparse fraction-free elimination that pivots on the column with the
  fewest live rows, and in it on the sparsest row (minimum degree, after
  Markowitz), so the order comes from the sparsity pattern alone and no
  pivot is 0.  Bareiss's quotients are minors of the permuted matrix, so
  every division stays exact under this order, and the sign is that of
  the permutation taking each pivot row to its column.  Rows are rescaled
  lazily: each keeps the pivot it was last updated with, a row without
  an entry in the pivot column is skipped, and zeros are never stored.

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
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .graphs import Classes, GraphError, MatchGraph

BRUTE_FORCE_LIMIT = 64   # vertices
# partner tries of one search: the 5-cube takes 2 067 879 (~3 s on a
# 2-vCPU Xeon); the 6-cube, with over 1.7e12 leaves by Schrijver's bound,
# is refused before its search starts
BRUTE_NODE_LIMIT = 1 << 22
PERMANENT_LIMIT = 20     # columns (one color class)
FRONTIER_LIMIT = 22      # slots; a 2**22-state table is the desk-scale ceiling
# rows (one color class) of the Kasteleyn matrix, a time bound: the
# determinant of the order-44 diamond's 1980 rows takes ~0.3 s on a 2-vCPU
# Xeon, but the cost grows faster than the rows (order 60, 3660 rows: ~1.8 s;
# order 80: ~10 s), so the bound stays until refusals follow predicted cost
KASTELEYN_LIMIT = 2048


class BoundError(ValueError):
    """Input exceeds a documented safety bound."""


# -- backtracking oracle ----------------------------------------------------


def _matchings(g: MatchGraph) -> Iterator[list[int]]:
    """Yield every perfect matching of g as its ``mate`` array (mate[v] is
    v's partner).  The one list is reused, so read it before resuming.

    The vertices still unmatched are one int bitmask, ``alive``, and each
    vertex has a neighbour mask, so a degree is ``(nbr[v] & alive)``'s bit
    count.  The search branches on the first alive vertex (lowest index) of
    degree <= 1, else on the first of minimum degree: degree-1 vertices
    propagate as forced edges and degree-0 vertices prune at once.  The
    stack holds each branch as (vertex, alive without it, untried partner
    mask), and partners are tried lowest bit first.
    Raises BoundError once the search has tried more than BRUTE_NODE_LIMIT
    partners.  Every matching is a leaf reached by its own partner try, so
    a k-regular bipartite graph whose count provably exceeds the limit is
    refused before any search: by Schrijver's bound (1998), with N
    vertices per side it has at least ((k-1)^(k-1) / k^(k-2))^N perfect
    matchings.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise BoundError(
            f"{g.n} vertices exceeds the brute-force limit {BRUTE_FORCE_LIMIT}"
        )
    if g.n % 2:
        return
    k = len(g.adj[0]) if g.n else 0
    if g.color is not None and k >= 2 and all(len(ns) == k for ns in g.adj):
        side = g.n // 2
        if (k - 1) ** ((k - 1) * side) > BRUTE_NODE_LIMIT * k ** ((k - 2) * side):
            raise BoundError(
                f"brute-force search exceeds its node limit {BRUTE_NODE_LIMIT}: "
                f"a {k}-regular bipartite graph with {side} vertices per side "
                f"has more perfect matchings (Schrijver's bound)"
            )
    budget = BRUTE_NODE_LIMIT
    nbr = [sum(1 << u for u in ns) for ns in g.adj]
    alive = (1 << g.n) - 1
    mate = [-1] * g.n
    stack: list[tuple[int, int, int]] = []
    while True:
        if not alive:
            yield mate
        else:
            # the first vertex of degree <= 1, else the first of minimum degree
            v, least, rest = -1, g.n, alive
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                d = (nbr[w] & alive).bit_count()
                if d < least:
                    v, least = w, d
                    if d <= 1:
                        break
                rest ^= low
            if least:
                stack.append((v, alive ^ (1 << v), nbr[v] & alive))
        # undo the deepest branch and take its next partner, lowest bit first
        while stack:
            v, rest, partners = stack.pop()
            if partners:
                budget -= 1
                if budget < 0:
                    raise BoundError(
                        f"brute-force search exceeds its node limit {BRUTE_NODE_LIMIT}"
                    )
                low = partners & -partners
                u = low.bit_length() - 1
                stack.append((v, rest, partners ^ low))
                mate[v] = u
                mate[u] = v
                alive = rest ^ low
                break
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
    3-4.5 s with ~62 MB max RSS.  Unequal classes count 0, before the bound.
    """
    m, other = g.class_sizes()
    if m != other:
        return 0
    rows, cols = g.classes
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

    Every edge starts as (u, v), under which each face's clockwise parity
    is its stored ``parity``.  A face whose parity is even flips the edge
    to its parent face, which flips the parity of both; its children were
    fixed before it and no face is touched again once fixed.
    """
    if g.coords is None:
        raise GraphError("kasteleyn_orient needs an embedding")

    orient: Orientation = {e: e for e in g.edges}
    faces = g.faces()
    face_of = g.dart_face
    rot = g.rotation
    base = [0, *accumulate(map(len, rot))]  # dart (v, k) has the id base[v] + k

    dual: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in faces]
    for e in g.edges:
        u, v = e
        f1 = face_of[base[u] + rot[u].index(v)]
        f2 = face_of[base[v] + rot[v].index(u)]
        if f1 != f2:  # bridges border one face twice and carry no constraint
            dual[f1].append((f2, e))
            dual[f2].append((f1, e))

    # every component's outer walk roots its own tree of the dual forest
    roots = [i for i, f in enumerate(faces) if not f.bounded]
    rng = random.Random(seed)

    parent: list[tuple[int, tuple[int, int]] | None] = [None] * len(faces)
    order = []
    seen = set(roots)
    stack = roots[::-1]
    while stack:
        f = stack.pop()
        order.append(f)
        nbrs = dual[f]
        rng.shuffle(nbrs)
        for f2, e in nbrs:
            if f2 not in seen:
                seen.add(f2)
                parent[f2] = (f, e)
                stack.append(f2)

    parity = [f.parity for f in faces]
    for f in reversed(order):  # children first
        if not parity[f] and faces[f].bounded:
            p, e = parent[f]
            orient[e] = (e[1], e[0])
            parity[p] ^= 1

    return orient


def kasteleyn_classes(g: MatchGraph) -> Classes:
    """(rows, columns) of a Kasteleyn matrix, refused unless g has, in this
    order, an embedding, a bipartition, classes of equal size and at most
    KASTELEYN_LIMIT rows (a bound on the elimination's time)."""
    if g.coords is None:
        raise GraphError("a Kasteleyn matrix needs an embedding")
    if g.color is None:
        raise GraphError("a Kasteleyn matrix needs a bipartition")
    rows, cols = g.balanced_classes()
    if len(rows) > KASTELEYN_LIMIT:
        raise BoundError(
            f"class size {len(rows)} exceeds the Kasteleyn limit {KASTELEYN_LIMIT}"
        )
    return rows, cols


def signed_biadjacency(g: MatchGraph, seed: int = 0) -> list[dict[int, int]]:
    """K under ``kasteleyn_orient(g, seed)`` as sparse rows: row r is the
    r-th class-0 vertex v, as ``{column: sign}`` over v's neighbours, a
    column being a class-1 vertex's position in ``g.classes``; the sign is
    +1 when the edge is oriented row -> column, -1 the other way.  Refused
    as ``kasteleyn_classes`` refuses, before any face is walked."""
    rows, _ = kasteleyn_classes(g)
    orient = kasteleyn_orient(g, seed)
    pos = g.class_pos
    return [{pos[u]: 1 if orient[(v, u) if v < u else (u, v)] == (v, u) else -1
             for u in g.adj[v]} for v in rows]


def check_rows(rows: Sequence[dict[int, int]]) -> None:
    """Refuse sparse rows that do not make an n x n integer matrix, n being
    the number of rows: TypeError for a row that is not a dict, or a column
    or value that is not an int (a bool is refused, and a float, which
    floor division would truncate), ValueError for a column outside
    range(n).  The one check of K's row format, for ``det_bareiss`` and
    ``spectra.SignedMatrix``."""
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise TypeError(f"row {i} is a {type(row).__name__}, not a dict")
        for j, v in row.items():
            if type(j) is not int or type(v) is not int:
                raise TypeError(f"row {i} holds {j!r}: {v!r}; columns and values must be ints")
            if not 0 <= j < n:
                raise ValueError(f"row {i} holds column {j}, outside range({n})")


def det_bareiss(rows: list[dict[int, int]]) -> int:
    """Exact integer determinant of the n x n matrix given as sparse rows,
    ``{column: value}`` with columns in range(n), by sparse fraction-free
    (Bareiss) elimination in minimum-degree order; the argument is not
    changed.

    Each step pivots on the column with the fewest live rows (Markowitz's
    rule), and within it on the row with the fewest entries, ties to the
    lowest index.  A live column without rows, or an empty row, gives 0;
    so no pivot is ever 0.  Step k thus eliminates A[r_k][c_k], which is
    Bareiss's elimination of P*A*Q with B[k][l] = A[r_k][c_l]; every
    entry after step k is a (k+1)-minor of B (Bareiss, 1968), whatever
    the pivot sequence, and det A = sgn(r_k -> c_k) * det B, where det B
    is the last pivot.

    Rows are scaled lazily.  Bareiss changes a row without an entry in the
    pivot column only by pivot/prev, and these factors telescope, so such
    a row is skipped and keeps its ``stamp``: the pivot it was last
    updated with (1 for a row never updated).  The pivot row is brought up
    to date as v*prev // stamp.  A row with factor f becomes
    (a*pivot - f*b) // stamp where both it and the pivot row hold a
    column, a*pivot // stamp where only it does and -f*b // stamp (fill)
    where only the pivot row does; these are the true Bareiss entries, so
    every division is exact.  Entries that cancel to 0 are dropped.

    An updated row is a new dict, so the caller's rows are never changed.
    ``col_rows[j]`` is exactly the list of live rows that hold column j,
    and None once j is pivoted on: the pivot row leaves the lists of its
    columns, a row leaves a list when its entry cancels to 0 and joins it
    when the entry is fill.  A bucket queue indexed by list length, with
    stale entries skipped when popped, gives the next pivot column.

    Malformed rows are refused by ``check_rows`` before any elimination
    step.
    """
    check_rows(rows)
    n = len(rows)
    # a stored 0 is dropped, so that it is never taken for a pivot
    m: list[dict[int, int] | None] = [
        row if all(row.values()) else {j: v for j, v in row.items() if v} for row in rows]
    col_rows: list[list[int] | None] = [[] for _ in range(n)]
    for i, row in enumerate(m):
        for j in row:
            col_rows[j].append(i)
    if not all(m):
        return 0
    buckets: list[list[int]] = []  # buckets[d]: columns queued at d rows
    low = 0  # no live column has fewer rows than this
    stamp = [1] * n  # the pivot each row was last updated with
    perm = [0] * n  # pivot row -> its pivot column
    prev = 1
    # every column is queued before the first step, highest first: a bucket
    # pops its last entry, so the first pivot column is the lowest of fewest rows
    changed: Iterable[int] = range(n - 1, -1, -1)
    for _ in range(n):
        for j in changed:  # queue each column at its new number of rows
            d = len(col_rows[j])
            while len(buckets) <= d:
                buckets.append([])
            buckets[d].append(j)
            if d < low:
                low = d
        while True:  # the live column of fewest rows; skip stale entries
            while not buckets[low]:
                low += 1
            c = buckets[low].pop()
            live = col_rows[c]
            if live is not None and len(live) == low:
                break
        if low == 0:
            return 0
        col_rows[c] = None
        r = min(live, key=lambda i: (len(m[i]), i))
        perm[r] = c
        tail = dict(m[r])
        m[r] = None  # the pivot row is done with
        pivot = tail.pop(c)
        s = stamp[r]
        if s != prev:  # bring the pivot row up to date
            pivot = pivot * prev // s
            tail = {j: b * prev // s for j, b in tail.items()}
        for j in tail:
            col_rows[j].remove(r)
        for i in live:
            if i == r:
                continue
            row_i = m[i]
            f = row_i[c]
            s = stamp[i]
            new = {}
            for j, a in row_i.items():
                b = tail.get(j)
                if b is None:
                    if j != c:
                        new[j] = a * pivot // s
                else:
                    v = (a * pivot - f * b) // s
                    if v:
                        new[j] = v
                    else:  # exact cancellation
                        col_rows[j].remove(i)
            for j, b in tail.items():
                if j not in row_i:  # fill
                    new[j] = -f * b // s
                    col_rows[j].append(i)
            m[i] = new
            stamp[i] = pivot
        changed = tail  # every list that changed is a column of the pivot row
        prev = pivot
    return _parity(perm) * prev


def _parity(perm: list[int]) -> int:
    """The sign of a permutation of range(len(perm)), by its cycles."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            j = start
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    return sign


def count_kasteleyn(g: MatchGraph) -> int:
    """|det| of the Kasteleyn-signed biadjacency.

    Imbalanced graphs count 0 (no perfect matching exists); the other
    refusals are ``kasteleyn_classes``'s.  A balanced graph with an
    imbalanced component gives a singular matrix, so it counts 0 as well.
    """
    if g.coords is not None and g.color is not None and not g.is_balanced():
        return 0
    return abs(det_bareiss(signed_biadjacency(g)))


# -- forced edges and ratios -------------------------------------------------


def count_auto(g: MatchGraph) -> int:
    """Pick the strongest applicable exact method for this graph.

    An embedded bipartite graph goes to Kasteleyn, one without an
    embedding to the permanent, and a graph without a bipartition to the
    backtracking search.  The chosen engine's refusals and zeros stand.
    """
    if g.color is None:
        return count_brute(g)
    return count_kasteleyn(g) if g.coords is not None else count_permanent(g)


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
