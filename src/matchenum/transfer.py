"""Aztec windows by transfer operators, and polynomial detection.

``_boundary_operator`` runs the state DP of ``counting`` (``_advance``)
over some cells only and holds a few boundary vertices that are never
swept: the states that survive, read on the held vertices as pairs of
masks (in, out), give an operator {in: {out: count}}.  Both operators of
an Aztec window come from it.

The window of inner order x and thickness w is invariant under the
quarter turn (i, j) -> (j, -i-1).  Its first quadrant is the staircase
band Q(x) = {i, j >= 0, x <= i + j <= x + w - 1}.  The quarter operator
T(x)[a][b] counts the coverings of Q(x) by dominoes inside it or across
its two edges, the dominoes across being exactly those at the seam
cells (-1, x + k) for the set bits k of a and at the cut cells
(x + k, -1) for the set bits k of b.  The quarter turn carries seam index
j onto cut index j, so the ring closes as count = trace(T(x)^4), the
transfer-matrix method of Stanley, Enumerative Combinatorics I, 4.7.

Translation lemma: Q(x + 1) minus its column i = 0 is Q(x) shifted one
column on, and that column's cells are the same for every x.  So
T(x + 1) = A.T(x), where the column operator A[a][b] = 1 when column 0,
with the cells of ``a`` covered from the seam, can be completed leaving
the cells of ``b`` covered in column 1.  Hence T(x) = A^x.T0, where T0 is
the quarter operator of Q(0), the first quadrant of the order-w Aztec
diamond, and trace(T0^4) = 2^(w(w+1)/2) (Elkies, Kuperberg, Larsen and
Propp 1992).  The window itself is never built.

Octant identity: the reflection (i, j) -> (j, i) maps Q(0) onto itself
and its seam onto its cut, and the diagonal cells D = {(i, i)} are
pairwise non-adjacent, so each is covered either from the side j > i or
from the side j < i.  With H[a][S] the coverings of the cells j >= i,
seam mask a, in which exactly the diagonal cells in S are left to the
other side, T0[a][b] = sum over S of H[a][S].H[b][D - S].  One sweep of
that octant gives H.

Colouring lemma: colour cell (i, j) by the parity of i + j.  The
diagonal i + j = s of Q(x) has s + 1 cells, all of colour s mod 2; a
domino inside Q(x) covers one cell of each colour, and the domino across
at seam or cut index k covers a cell on the diagonal x + k.  So
level(a) + level(b), with level(m) = sum of (-1)^k over the set bits k of
m, is the same for every nonzero T(x)[a][b].  T(x)^2 is then block
diagonal by level, and T(x) maps the block at level s onto the block at
e - s, so the two have equal traces of T(x)^4: ``_trace4`` squares only
the rows at levels s <= e/2.

Polynomiality: if A^j (A - I)^k = 0, every entry of A^x is a polynomial
in x of degree < k for x >= j, so the count is a polynomial of degree
<= 4(k - 1) there (identically zero when k = 0).

Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import json
from typing import Hashable, Optional, Sequence

from .counting import FRONTIER_LIMIT, BoundError, _advance, _compile_order
from .graphs import MatchGraph
from .regions import RegionError, RegionSpec, aztec_window_cell_count

_EVEN_BITS = 0x5555_5555  # bits 0, 2, 4, ... of a mask; w <= 10
ANNIHILATOR_LIMIT = 24  # degree j + k searched for A^j (A - I)^k = 0

Operator = dict[int, dict[int, int]]  # sparse {row mask: {column mask: entry}}


# -- the window's operators -------------------------------------------------


def _boundary_operator(
    cells: Sequence[Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
    held_in: Sequence[Hashable],
    held_out: Sequence[Hashable],
) -> Operator:
    """Sweep ``cells`` in the order given and read the held vertices.

    The held vertices are never swept; ``edges`` join labels, and each
    edge has at least one swept end.  Entry [a][b] counts the ways to
    cover every swept cell, with edges among the cells or to held
    vertices, such that the held vertices covered are exactly
    ``held_in[k]`` for the set bits k of a and ``held_out[k]`` for the
    set bits k of b.
    """
    labels = [*cells, *held_in, *held_out]
    index = {c: v for v, c in enumerate(labels)}
    g = MatchGraph(labels, [(index[u], index[v]) for u, v in edges])
    steps, _, slot = _compile_order(g, range(g.n))

    def bits(held: Sequence[Hashable]) -> list[int]:
        # a held vertex without a swept neighbour is never covered
        return [1 << s if s >= 0 else 0 for s in (slot[index[c]] for c in held)]

    bits_in, bits_out = bits(held_in), bits(held_out)
    operator: Operator = {}
    for state, cnt in _advance(steps[:len(cells)], {0: 1}).items():
        a = sum(1 << k for k, bit in enumerate(bits_in) if state & bit)
        b = sum(1 << k for k, bit in enumerate(bits_out) if state & bit)
        operator.setdefault(a, {})[b] = cnt
    return operator


def _diamond_quarter(w: int) -> Operator:
    """T0, the quarter operator of the order-w Aztec diamond, from one sweep
    of the octant j >= i of its first quadrant (the octant identity)."""
    # rows from the top down: the table holds one row of the octant
    cells = [(i, j) for j in range(w - 1, -1, -1) for i in range(min(j, w - 1 - j) + 1)]
    inside = set(cells)
    half = (w + 1) // 2
    edges = [(c, nb) for c in cells for nb in ((c[0] + 1, c[1]), (c[0], c[1] + 1))
             if nb in inside]
    edges += [((0, j), (-1, j)) for j in range(w)]
    # the pendant ("diagonal", i) covers (i, i) from the side j < i
    edges += [((i, i), ("diagonal", i)) for i in range(half)]
    h = _boundary_operator(
        cells, edges, [(-1, j) for j in range(w)], [("diagonal", i) for i in range(half)]
    )
    # h_mirror[D - S][b] = h[b][S]: the side j < i, reflected onto j > i
    full = (1 << half) - 1
    h_mirror: Operator = {}
    for b, row in h.items():
        for s, cnt in row.items():
            h_mirror.setdefault(full ^ s, {})[b] = cnt
    return _product(h, h_mirror)


def _column_operator(w: int) -> Operator:
    """A as ``{a: {b: 1}}``: column 0 of Q(1), the cells (0, 1 + k), each
    with a pendant seam cell (-1, 1 + k) that carries bit k of a, swept
    once; b is read on the cells (1, m) of column 1."""
    cells = [(0, j) for j in range(1, w + 1)]
    edges = [((0, j), (0, j + 1)) for j in range(1, w)]
    edges += [((0, j), (-1, j)) for j in range(1, w + 1)]
    edges += [((0, j), (1, j)) for j in range(1, w)]
    operator = _boundary_operator(
        cells, edges, [(-1, j) for j in range(1, w + 1)], [(1, m) for m in range(w)]
    )
    if any(cnt != 1 for row in operator.values() for cnt in row.values()):
        raise ArithmeticError("column completion counted twice")
    return operator


def _product(p: Operator, q: Operator) -> Operator:
    """The sparse product p.q of two operators with nonnegative entries."""
    out: Operator = {}
    for a, row in p.items():
        acc: dict[int, int] = {}
        get = acc.get
        for b, u in row.items():
            for c, v in q.get(b, {}).items():
                acc[c] = get(c, 0) + u * v
        if acc:
            out[a] = acc
    return out


def _difference(p: Operator, q: Operator) -> Operator:
    """p - q, with its zero entries and empty rows dropped."""
    out = {a: dict(row) for a, row in p.items()}
    for a, row in q.items():
        acc = out.setdefault(a, {})
        for c, v in row.items():
            left = acc.get(c, 0) - v
            if left:
                acc[c] = left
            else:
                del acc[c]
        if not acc:
            del out[a]
    return out


@lru_cache(maxsize=None)  # one entry per thickness, and w <= 10
def _operators(w: int) -> tuple[Operator, Operator]:
    """(T0, A) for thickness w, which callers must not modify.  The
    thickness is checked here and nowhere else, before any sweep."""
    if w < 1:
        raise RegionError("Aztec window needs w >= 1")
    # the bound is that of the whole window swept in ring order, which only
    # the tests still do as a reference: frontier width 2w + 1 (w >= 2); the
    # operators' own sweeps are narrower
    if 2 * w + 1 > FRONTIER_LIMIT:
        raise BoundError(
            f"thickness {w} needs frontier width {2 * w + 1}, "
            f"over the limit {FRONTIER_LIMIT}"
        )
    return _diamond_quarter(w), _column_operator(w)


# the last quarter operator reached for each w, so a sequence steps once per x
_reached: dict[int, tuple[int, Operator]] = {}


def _quarter(x: int, w: int) -> Operator:
    """T(x) = A^x.T0, stepped from the last T reached for w unless it is
    past x."""
    t0, a = _operators(w)
    start, t = _reached.get(w, (0, t0))
    if start > x:
        start, t = 0, t0
    for _ in range(start, x):
        t = _product(a, t)
    _reached[w] = (x, t)
    return t


def _level(mask: int) -> int:
    return (mask & _EVEN_BITS).bit_count() - (mask & ~_EVEN_BITS).bit_count()


def _trace4(t: Operator) -> int:
    """trace(T^4) of a quarter operator, from the rows of T^2 at levels
    up to half the constant of the colouring lemma (see the module
    docstring); the block at level s counts twice for s < e/2."""
    if not t:
        return 0
    a = next(iter(t))
    e = _level(a) + _level(next(iter(t[a])))
    t2 = _product({a: row for a, row in t.items() if 2 * _level(a) <= e}, t)
    total = 0
    for a, row in t2.items():
        diagonal = sum(v * t2.get(c, {}).get(a, 0) for c, v in row.items())
        total += diagonal if 2 * _level(a) == e else 2 * diagonal
    return total


def transfer_count(spec: RegionSpec) -> int:
    """Exact matching count of an Aztec window as trace(T^4) of its quarter
    operator T = A^x.T0; the window itself is never built."""
    if spec.kind != "AZTEC_WINDOW":
        raise RegionError("the transfer method applies only to AZTEC_WINDOW regions")
    x, w = spec.params["x"], spec.params["w"]
    aztec_window_cell_count(x, w)  # the window's own refusals, before any work
    return _trace4(_quarter(x, w))


def count_sequence(w: int, x_from: int, x_to: int) -> list[int]:
    """transfer_count for each inner order x in x_from..x_to, in order."""
    return [
        transfer_count(RegionSpec("AZTEC_WINDOW", {"x": x, "w": w}))
        for x in range(x_from, x_to + 1)
    ]


def column_transfer_matrix(w: int) -> Operator:
    """Single-column step operator A of the window's band, as sparse
    ``{a: {b: 1}}``.

    States are w-bit masks over the cells of one column of the band (bit
    k set = cell k covered by a domino crossing into the column); [a][b]
    is 1 when the column with incoming mask a can be completed (vertical
    dominoes inside the column, horizontal pokes into the next column)
    leaving outgoing mask b.  Masks without a completion have no row.
    A depends only on the thickness, never on the inner order x.  The
    result is a copy, free to modify.
    """
    return {a: dict(row) for a, row in _operators(w)[1].items()}


def column_annihilator(w: int) -> tuple[int, int]:
    """The least k, then the least j, with A^j (A - I)^k = 0, by exact
    sparse products.

    Pass n of the search holds the differences A^(n-k) (A - I)^k for
    k = 0..n; each is the difference of two of pass n-1's, and only
    A^n takes a product.  The first vanishing one is unique: the minimal
    polynomial of A then divides z^j (z - 1)^k, and no z^j' (z - 1)^k' of
    lower degree annihilates A, so it is z^j (z - 1)^k itself.  Raises
    BoundError when none vanishes up to degree ANNIHILATOR_LIMIT.
    """
    a = _operators(w)[1]
    diffs: list[Operator] = [{m: {m: 1} for m in range(1 << w)}]  # n = 0: I
    for n in range(1, ANNIHILATOR_LIMIT + 1):
        nxt = [_product(a, diffs[0])]
        for k in range(n):
            nxt.append(_difference(nxt[k], diffs[k]))
        for k, d in enumerate(nxt):
            if not d:
                return n - k, k
        diffs = nxt
    raise BoundError(
        f"no A^j (A - I)^k of degree <= {ANNIHILATOR_LIMIT} vanishes at w = {w}"
    )


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
