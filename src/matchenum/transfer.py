"""Frontier (profile) DP counting, Aztec windows and polynomial detection.

One DP loop, ``_advance``, serves every result of this module.  It runs
the compiled steps of a vertex order over a table of states.  A vertex
that has a neighbour earlier in the order takes a slot in the frontier
when that neighbour is processed and frees it when it is processed
itself; a state is an int bitmask over the slots, a set bit marking a
vertex already covered by an edge from an earlier vertex.  The frontier
width (the number of slots) bounds the number of states by 2^width.

``frontier_count`` runs the loop over a whole graph from the empty state.
``column_transfer_matrix`` runs it over one column of the window's band,
from each incoming mask in turn, and reads the surviving states as the
cells of the next column that the column's dominoes cover.

An Aztec window is invariant under the quarter turn (i, j) -> (j, -i-1),
so the loop sweeps only its first quadrant, the cells with i >= 0 and
j >= 0, which the ring order visits first.  The states that survive are
read as pairs (a, b): a is the set of seam cells (-1, j) covered from
(0, j), b the set of cut cells (i, -1) covered from (i, 0).  Their counts
form the quarter operator T[a][b].  The quarter turn carries the seam
pair {(-1, j), (0, j)} onto the cut pair {(j, 0), (j, -1)}, so seam index
j and cut index i = j are the same index, and the ring closes as
count = trace(T^4), the transfer-matrix method of Stanley, Enumerative
Combinatorics I, 4.7.  Seam and cut have w cells each; the whole ring
order, which ``frontier_count`` can still sweep, has frontier width
2w + 1 for w >= 2.

Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
from typing import Optional, Sequence

from .counting import BoundError
from .graphs import GraphError, MatchGraph
from .regions import RegionError, RegionSpec, aztec_window_row, build_aztec_window

FRONTIER_LIMIT = 22  # slots; a 2**22-state table is the desk-scale ceiling
COLUMN_MATRIX_LIMIT = 10  # dense 2**w x 2**w column operator, w <= 10

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


def _window_order(g: MatchGraph) -> list[int]:
    """The window's cells in one cyclic sweep: the upper half (j >= 0)
    west to east from i = 0, the lower half east to west, then the upper
    half's columns i < 0 west to east; each column bottom to top."""

    def key(v: int) -> tuple[int, int, int]:
        i, j = g.labels[v]
        if j < 0:
            return (1, -i, j)
        return (0 if i >= 0 else 2, i, j)

    return sorted(range(g.n), key=key)


def _quarter_operator(x: int, w: int) -> dict[int, dict[int, int]]:
    """The window's quarter operator as ``{a: {b: count}}``.

    ``count`` is the number of ways to cover the first quadrant's cells
    with dominoes inside it or across its two edges, the dominoes across
    being exactly those at seam cells (-1, x + k) for the set bits k of
    ``a`` and at cut cells (x + k, -1) for the set bits k of ``b``.
    """
    g = build_aztec_window(x, w)
    steps, _, slot = _compile_order(g, _window_order(g))
    quadrant = sum(i >= 0 and j >= 0 for i, j in g.labels)
    seam = [1 << slot[g.index[(-1, x + k)]] for k in range(w)]
    cut = [1 << slot[g.index[(x + k, -1)]] for k in range(w)]
    quarter: dict[int, dict[int, int]] = {}
    for state, cnt in _advance(steps[:quadrant], {0: 1}).items():
        a = sum(1 << k for k, bit in enumerate(seam) if state & bit)
        b = sum(1 << k for k, bit in enumerate(cut) if state & bit)
        quarter.setdefault(a, {})[b] = cnt
    return quarter


def transfer_count(spec: RegionSpec) -> int:
    """Exact matching count of an Aztec window as trace(T^4) of its
    quarter operator T, swept over the first quadrant only."""
    if spec.kind != "AZTEC_WINDOW":
        raise RegionError("the transfer method applies only to AZTEC_WINDOW regions")
    x, w = spec.params["x"], spec.params["w"]
    # the ring order has frontier width 2w + 1 (w >= 2); refuse before building
    if 2 * w + 1 > FRONTIER_LIMIT:
        raise BoundError(
            f"frontier width {2 * w + 1} exceeds the limit {FRONTIER_LIMIT}"
        )
    t = _quarter_operator(x, w)
    t2: dict[int, dict[int, int]] = {}
    for a, row in t.items():
        acc: dict[int, int] = {}
        for b, u in row.items():
            for c, v in t.get(b, {}).items():
                acc[c] = acc.get(c, 0) + u * v
        t2[a] = acc
    return sum(
        v * t2.get(c, {}).get(a, 0) for a, row in t2.items() for c, v in row.items()
    )


def count_sequence(w: int, x_from: int, x_to: int) -> list[int]:
    """transfer_count for each inner order x in x_from..x_to, in order."""
    return [
        transfer_count(RegionSpec("AZTEC_WINDOW", {"x": x, "w": w}))
        for x in range(x_from, x_to + 1)
    ]


def column_transfer_matrix(x: int, w: int) -> list[list[int]]:
    """Single-column step operator of the straight band, as a dense matrix.

    States are w-bit masks over the cells of a full radial cut (bit k set =
    cell already covered by a domino crossing the cut); the entry [A][B]
    is 1 when the column with incoming state A can be completed (vertical
    dominoes inside the column, horizontal pokes into the next column)
    leaving outgoing state B, else 0.  The dimension 2**w depends only on
    the ring thickness, never on the inner order x.

    Each row is one run of the frontier DP over the open cells of the
    column i = 0 followed by the column i = 1; the states that survive
    the first column's steps are the row's outgoing masks.
    """
    if x < 1 or w < 1:
        raise RegionError("Aztec window needs x >= 1 and w >= 1")
    if w > COLUMN_MATRIX_LIMIT:
        raise BoundError(
            f"dense column operator needs w <= {COLUMN_MATRIX_LIMIT}, got {w}"
        )
    col_a, col_b = (
        [(i, j) for j in aztec_window_row(x, w, i) if j >= 0] for i in (0, 1)
    )
    size = 1 << w
    matrix = [[0] * size for _ in range(size)]
    for a_mask in range(size):
        cells = [c for k, c in enumerate(col_a) if not a_mask >> k & 1]
        open_a = len(cells)
        cells += col_b
        index = {c: v for v, c in enumerate(cells)}
        # up the column, or across into the next one
        edges = [
            (index[(i, j)], index[nb])
            for i, j in cells[:open_a]
            for nb in ((i, j + 1), (i + 1, j))
            if nb in index
        ]
        steps, _, slot = _compile_order(MatchGraph(cells, edges), range(len(cells)))
        for state, cnt in _advance(steps[:open_a], {0: 1}).items():
            if cnt != 1:
                raise ArithmeticError("column completion counted twice")
            b_mask = 0
            for k, s in enumerate(slot[open_a:]):
                if s >= 0 and state >> s & 1:
                    b_mask |= 1 << k
            matrix[a_mask][b_mask] = 1
    return matrix


# -- polynomial detection ---------------------------------------------------


@dataclass(frozen=True)
class PolyReport:
    """Finite-difference analysis of a count sequence over one window.

    The detected degree is evidence on this window only; finite data can
    never certify that the sequence is globally polynomial, and the note
    says so.
    """

    counts: tuple[int, ...]
    detected_degree: Optional[int]
    differences: tuple[tuple[int, ...], ...]
    x_from: Optional[int] = None
    x_to: Optional[int] = None
    w: Optional[int] = None
    note: str = ""

    def to_dict(self) -> dict:
        d = {
            "counts": [str(c) for c in self.counts],
            "detected_degree": self.detected_degree,
            "differences": [[str(v) for v in row] for row in self.differences],
            "note": self.note,
        }
        if self.w is not None:
            d["w"] = self.w
        if self.x_from is not None:
            d["x_from"] = self.x_from
            d["x_to"] = self.x_to
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def detect_polynomial(
    counts: Sequence[int],
    x_from: Optional[int] = None,
    w: Optional[int] = None,
) -> PolyReport:
    """Least degree d whose (d+1)-th differences vanish across the window.

    Returns degree None when no order of differences vanishes within the
    window.  An identically zero window reports degree 0 (the zero
    polynomial), flagged in the note.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) < 3:
        raise BoundError("polynomial detection needs at least 3 counts")

    rows = [counts]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append(tuple(b - a for a, b in zip(prev, prev[1:])))
    table = tuple(rows)

    x_to = None if x_from is None else x_from + len(counts) - 1
    window = (
        f"x={x_from}..{x_to}" if x_from is not None else f"{len(counts)} samples"
    )

    if not any(counts):
        return PolyReport(
            counts, 0, table, x_from, x_to, w,
            note=f"window {window} is identically zero; reporting the zero "
                 "polynomial as degree 0",
        )

    degree = None
    for d in range(len(counts) - 1):
        if not any(rows[d + 1]):
            degree = d
            break
    if degree is None:
        note = (f"no order of differences vanishes on window {window}; "
                "no polynomial of degree < window length fits")
    else:
        note = (f"degree {degree} fits on window {window}; windowed evidence "
                "only, not a certificate of global polynomial behaviour")
    return PolyReport(counts, degree, table, x_from, x_to, w, note=note)
