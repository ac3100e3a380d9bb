"""Transfer-matrix counting for Aztec windows and polynomial detection.

The annulus is swept once around: columns of the upper half left to right,
columns of the lower half right to left, then back up to the start.  A
radial cut crosses exactly w cells, so boundary states are w-bit masks
marking cells already covered by a domino crossing the cut.  Closure
around the ring is handled by fixing the state on one seam cut, running
the full sweep, and keeping only runs that return to the same state; the
total is the trace of the composed sweep operator.

Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import json
from typing import Optional, Sequence

from .counting import BoundError
from .regions import RegionError, RegionSpec, aztec_window_cells

CUT_WIDTH_LIMIT = 24  # 2**24 boundary states caps memory at desk scale

Cell = tuple[int, int]


def _ring_slices(x: int, w: int) -> list[list[Cell]]:
    """Columns of the annulus in one cyclic sweep order.

    Upper half (j >= 0) west to east, lower half east to west; every
    column holds at most w contiguous cells.
    """
    outer = x + w

    def in_window(i: int, j: int) -> bool:
        return x < max(abs(i + j + 1), abs(i - j)) <= outer

    def north(i: int) -> list[Cell]:
        return [(i, j) for j in range(0, outer + 1) if in_window(i, j)]

    def south(i: int) -> list[Cell]:
        return [(i, j) for j in range(-outer - 1, 0) if in_window(i, j)]

    slices = [north(i) for i in range(0, outer)]
    slices += [south(i) for i in range(outer - 1, -outer - 1, -1)]
    slices += [north(i) for i in range(-outer, 0)]
    assert all(slices) and all(len(s) <= w for s in slices)
    return slices


def _seam_rows(x: int, w: int) -> range:
    # vertical seam between columns -1 and 0, north of the hole
    return range(x, x + w)


def _sweep_count(x: int, w: int) -> int:
    slices = _ring_slices(x, w)
    order = [c for s in slices for c in s]
    assert len(order) == 2 * w * (2 * x + w + 1)
    pos = {c: k for k, c in enumerate(order)}

    seam = [((-1, j), (0, j)) for j in _seam_rows(x, w)]
    seam_edges = set(seam) | {(b, a) for a, b in seam}

    def forward_neighbors(c: Cell) -> list[Cell]:
        i, j = c
        out = []
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in pos and pos[nb] > pos[c] and (c, nb) not in seam_edges:
                out.append(nb)
        return out

    fwd = {c: forward_neighbors(c) for c in order}

    total = 0
    for r in range(w + 1):
        for rows in combinations(_seam_rows(x, w), r):
            # seam dominoes fixed in advance; both of their cells arrive
            # pre-covered and must be consumed by the sweep
            state = frozenset((0, j) for j in rows) | frozenset((-1, j) for j in rows)
            states = {state: 1}
            for c in order:
                nxt: dict[frozenset, int] = {}
                for st, cnt in states.items():
                    if c in st:
                        s2 = st - {c}
                        nxt[s2] = nxt.get(s2, 0) + cnt
                    else:
                        for nb in fwd[c]:
                            if nb not in st:
                                s2 = st | {nb}
                                nxt[s2] = nxt.get(s2, 0) + cnt
                states = nxt
                if not states:
                    break
            total += states.get(frozenset(), 0)
    return total


def transfer_count(spec: RegionSpec) -> int:
    """Exact matching count of an Aztec window by the ring sweep."""
    if spec.kind != "AZTEC_WINDOW":
        raise RegionError("transfer_count only applies to AZTEC_WINDOW regions")
    x, w = spec.params["x"], spec.params["w"]
    if x < 1 or w < 1:
        raise RegionError("Aztec window needs x >= 1 and w >= 1")
    if w > CUT_WIDTH_LIMIT:
        raise BoundError(f"cut width {w} exceeds the limit {CUT_WIDTH_LIMIT}")
    assert len(aztec_window_cells(x, w)) == 2 * w * (2 * x + w + 1)
    return _sweep_count(x, w)


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
    if w > CUT_WIDTH_LIMIT:
        raise BoundError(f"cut width {w} exceeds the limit {CUT_WIDTH_LIMIT}")
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
