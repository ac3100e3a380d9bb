"""Frontier (profile) DP counting, Aztec windows and polynomial detection.

``frontier_count`` counts the perfect matchings of any graph by sweeping
its vertices in a given order.  A vertex that has a neighbour earlier in
the order takes a slot in the frontier when that neighbour is processed
and frees it when it is processed itself; a state is an int bitmask over
the slots, a set bit marking a vertex already covered by an edge from an
earlier vertex.  The frontier width (the number of slots) bounds the
number of states by 2^width.

Aztec windows are swept once around the annulus: columns of the upper
half left to right, columns of the lower half right to left, then back up
to the start.  The seam partners (-1, j) come last in that order, so a
domino chosen across the seam at (0, j) keeps its bit in the frontier
until the sweep returns to (-1, j); closure around the ring needs no
special case.  One sweep replaces a trace over the 2^w seam states; its
frontier width is 2w + 1 for w >= 2: the w seam bits plus a broken-line
cut of w + 1 cells between two columns.

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

Cell = tuple[int, int]


def _ring_slices(x: int, w: int) -> list[list[Cell]]:
    """Columns of the annulus in one cyclic sweep order.

    Upper half (j >= 0) west to east, lower half east to west; every
    column holds at most w contiguous cells.
    """
    outer = x + w

    def north(i: int) -> list[Cell]:
        return [(i, j) for j in aztec_window_row(x, w, i) if j >= 0]

    def south(i: int) -> list[Cell]:
        return [(i, j) for j in aztec_window_row(x, w, i) if j < 0]

    slices = [north(i) for i in range(0, outer)]
    slices += [south(i) for i in range(outer - 1, -outer - 1, -1)]
    slices += [north(i) for i in range(-outer, 0)]
    assert all(slices) and all(len(s) <= w for s in slices)
    return slices


def _compile_order(
    g: MatchGraph, order: Sequence[int]
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """Reduce a vertex order to per-step ``(vbit, fwd_bits)`` and the width.

    ``vbit`` is the slot bit of the processed vertex (0 if it never entered
    the frontier); ``fwd_bits`` are the slot bits of its later neighbours.
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
    return steps, width


def frontier_count(g: MatchGraph, order: Sequence[int]) -> int:
    """Exact perfect-matching count of ``g`` by a frontier DP along ``order``.

    ``order`` must be a permutation of the vertex indices.  Raises
    BoundError before any DP step when the frontier width of the order
    exceeds FRONTIER_LIMIT.
    """
    steps, width = _compile_order(g, order)
    if width > FRONTIER_LIMIT:
        raise BoundError(
            f"frontier width {width} exceeds the limit {FRONTIER_LIMIT}"
        )
    states = {0: 1}
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
            return 0
        states = nxt
    return states.get(0, 0)


def _window_order(g: MatchGraph, x: int, w: int) -> list[int]:
    return [g.index[c] for s in _ring_slices(x, w) for c in s]


def transfer_count(spec: RegionSpec) -> int:
    """Exact matching count of an Aztec window by the ring sweep."""
    if spec.kind != "AZTEC_WINDOW":
        raise RegionError("transfer_count only applies to AZTEC_WINDOW regions")
    x, w = spec.params["x"], spec.params["w"]
    if x < 1 or w < 1:
        raise RegionError("Aztec window needs x >= 1 and w >= 1")
    # the ring order has frontier width 2w + 1 (w >= 2); refuse before building
    if 2 * w + 1 > FRONTIER_LIMIT:
        raise BoundError(
            f"frontier width {2 * w + 1} exceeds the limit {FRONTIER_LIMIT}"
        )
    g = build_aztec_window(x, w)
    return frontier_count(g, _window_order(g, x, w))


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
    """
    if x < 1 or w < 1:
        raise RegionError("Aztec window needs x >= 1 and w >= 1")
    if w > COLUMN_MATRIX_LIMIT:
        raise BoundError(
            f"dense column operator needs w <= {COLUMN_MATRIX_LIMIT}, got {w}"
        )
    slices = _ring_slices(x, w)
    col_a, col_b = slices[0], slices[1]
    pos_b = {c: k for k, c in enumerate(col_b)}
    size = 1 << w
    matrix = [[0] * size for _ in range(size)]
    for a_mask in range(size):
        for b_mask in _column_completions(col_a, pos_b, a_mask):
            if matrix[a_mask][b_mask]:
                raise ArithmeticError("column completion counted twice")
            matrix[a_mask][b_mask] = 1
    return matrix


def _column_completions(col_a, pos_b, a_mask):
    """Outgoing poke masks for one column given the incoming covered mask."""
    w = len(col_a)

    def rec(k: int, covered: int, b_mask: int):
        if k == w:
            yield b_mask
            return
        if (covered >> k) & 1:
            yield from rec(k + 1, covered, b_mask)
            return
        i, j = col_a[k]
        # vertical domino with the cell above (next in the column)
        if k + 1 < w and col_a[k + 1] == (i, j + 1) and not (covered >> (k + 1)) & 1:
            yield from rec(k + 2, covered, b_mask)
        # horizontal domino poking into the next column
        nb = (i + 1, j)
        if nb in pos_b:
            yield from rec(k + 1, covered, b_mask | (1 << pos_b[nb]))

    yield from rec(0, a_mask, 0)


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
