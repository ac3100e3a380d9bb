"""Aztec windows by transfer operators, and polynomial detection.

``_boundary_operator`` runs the state DP of ``counting`` (``_advance``)
over some cells only and holds a few boundary vertices that are never
swept: the states that survive, read on the held vertices as pairs of
masks (in, out), give an operator {in: {out: count}}.  The two swept
operators of an Aztec window, H and A below, come from it.

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
other side, and M[D - S][b] = H[b][S] its mirror, T0 = H.M.  One sweep of
that octant gives H.

Half-size trace: T(x) = U(x).M with U(x) = A^x.H, so by the cyclicity of
the trace, count = trace((U(x).M)^4) = trace(R(x)^4) with R(x) = M.U(x),
a square operator on the 2^ceil(w/2) subsets of D.  The 2^w-state T(x)
is never formed; only U(x) is stepped by A.  ``_ring_trace`` takes that
trace for the counts and, at U(0) = H, for the diamond's 2^(w(w+1)/2),
an exact check of H and M independent of A.

Polynomiality: the count reads A only through U(x) = A^x.H.  If
A^j (A - I)^k.H = 0, then for x >= j

    U(x) = A^j (I + (A - I))^(x - j).H = sum_{i<k} C(x - j, i) A^j (A - I)^i.H,

since every term with i >= k is (A - I)^(i - k) times A^j (A - I)^k.H = 0.
So R(x) = M.U(x) is a polynomial in x of degree < k, and trace(R(x)^4) one
of degree <= 4(k - 1) there.  When k = 0, A^j.H = 0 and the count is the
zero polynomial for x >= j: the case of every odd w up to the limit.

``detect_polynomial`` keeps one copy of a count sequence: its difference
table, whose first row is the counts, and the least degree at which the
table vanishes.

Everything is exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Optional, Sequence

from .counting import BoundError, Operator, _advance, _compile_order, _product
from .graphs import MatchGraph, Record
from .regions import RegionError, RegionSpec, _strict_int, aztec_window_cell_count

ANNIHILATOR_LIMIT = 24  # degree j + k searched for A^j (A - I)^k.H = 0
# thickness w, bounded by the operators' own cost on a 2-vCPU Xeon: at
# w = 10, H, M and A take ~0.01 s, column_annihilator ~0.02 s and
# ``verify problem14 --w 10`` ~0.1 s; at w = 12 that claim takes ~1 s
# and ~24 MB, most of it stepping U(x) to x = 39 for the fit
WINDOW_THICKNESS_LIMIT = 10


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

    # slot bit -> bit k of a, or bit len(held_in) + k of b; once every cell
    # is swept only held slots are live, and a held vertex without a swept
    # neighbour has no slot and is never covered
    held = {1 << s: 1 << k
            for k, s in enumerate(slot[index[c]] for c in (*held_in, *held_out))
            if s >= 0}
    shift = len(held_in)
    low = (1 << shift) - 1
    operator: Operator = {}
    for state, cnt in _advance(steps[:len(cells)], {0: 1}).items():
        ab = 0
        while state:
            bit = state & -state
            ab |= held[bit]
            state ^= bit
        operator.setdefault(ab & low, {})[ab >> shift] = cnt
    return operator


def _diamond_quarter(w: int) -> tuple[Operator, Operator]:
    """(H, M), the factors of T0 = H.M, the quarter operator of the order-w
    Aztec diamond, from one sweep of the octant j >= i of its first
    quadrant (the octant identity)."""
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
    # m[D - S][b] = h[b][S]: the side j < i, reflected onto j > i
    full = (1 << half) - 1
    m: Operator = {}
    for b, row in h.items():
        for s, cnt in row.items():
            m.setdefault(full ^ s, {})[b] = cnt
    return h, m


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


# one entry per thickness, and w <= 10; typed, so that 2.0 and True are
# not served the entries of 2 and 1 but refused
@lru_cache(maxsize=None, typed=True)
def _operators(w: int) -> tuple[Operator, Operator, Operator]:
    """(H, M, A) for thickness w, which callers must not modify.  The
    thickness is checked here and nowhere else, before any sweep."""
    if _strict_int(w, "Aztec window w") < 1:
        raise RegionError("Aztec window needs w >= 1")
    if w > WINDOW_THICKNESS_LIMIT:
        raise BoundError(
            f"thickness {w} exceeds the window limit {WINDOW_THICKNESS_LIMIT}"
        )
    return (*_diamond_quarter(w), _column_operator(w))


# the last U(x) reached for each w, so a sequence steps once per x
_reached: dict[int, tuple[int, Operator]] = {}


def _stepped(x: int, w: int) -> Operator:
    """U(x) = A^x.H, stepped from the last U reached for w unless it is
    past x."""
    h, _, a = _operators(w)
    start, u = _reached.get(w, (0, h))
    if start > x:
        start, u = 0, h
    for _ in range(start, x):
        u = _product(a, u)
    _reached[w] = (x, u)
    return u


def _ring_trace(u: Operator, w: int) -> int:
    """trace((M.U)^4) for thickness w: the window count when U = A^x.H,
    and the order-w diamond's 2^(w(w+1)/2) when U = H."""
    r = _product(_operators(w)[1], u)
    r2 = _product(r, r)
    return sum(v * r2.get(c, {}).get(a, 0) for a, row in r2.items() for c, v in row.items())


def transfer_count(spec: RegionSpec) -> int:
    """Exact matching count of an Aztec window as trace(R^4) of the
    half-size operator R = M.A^x.H; the window itself is never built."""
    if spec.kind != "AZTEC_WINDOW":
        raise RegionError("the transfer method applies only to AZTEC_WINDOW regions")
    x, w = spec.params["x"], spec.params["w"]
    aztec_window_cell_count(x, w)  # the window's own refusals, before any work
    return _ring_trace(_stepped(x, w), w)


def count_sequence(w: int, x_from: int, x_to: int) -> list[int]:
    """transfer_count for each inner order x in x_from..x_to, in order;
    RegionError for a w, x_from or x_to that is not an int."""
    for value, what in ((w, "w"), (x_from, "x_from"), (x_to, "x_to")):
        _strict_int(value, f"Aztec window {what}")
    return [
        transfer_count(RegionSpec("AZTEC_WINDOW", {"x": x, "w": w}))
        for x in range(x_from, x_to + 1)
    ]


def column_annihilator(w: int) -> tuple[int, int]:
    """The least k, then the least j, with A^j (A - I)^k.H = 0, by exact
    sparse products.

    Pass n of the search holds the differences A^(n-k) (A - I)^k.H for
    k = 0..n; each is the difference of two of pass n-1's, and only
    A^n.H = U(n) takes a product, stepped by ``_stepped`` as for the
    counts.  The polynomials p with p(A).H = 0 form an ideal.  Once it
    holds some z^j (z - 1)^k, its generator divides that one, so it is of
    the same form, and it is the first found: unique in its pass, and
    least in both j and k.  Raises BoundError when none vanishes up to
    degree ANNIHILATOR_LIMIT.
    """
    diffs: list[Operator] = []
    for n in range(ANNIHILATOR_LIMIT + 1):
        nxt = [_stepped(n, w)]
        for k in range(n):
            nxt.append(_difference(nxt[k], diffs[k]))
        for k, d in enumerate(nxt):
            if not d:
                return n - k, k
        diffs = nxt
    raise BoundError(
        f"no A^j (A - I)^k.H of degree <= {ANNIHILATOR_LIMIT} vanishes at w = {w}"
    )


# -- polynomial detection ---------------------------------------------------


class PolyReport(Record):
    """Finite-difference table of a count sequence, the counts its first
    row, and the least degree d whose (d+1)-th differences vanish on it
    (None when no order of differences does).  A frozen, hashable
    ``Record``.

    The degree is evidence on these counts only; finite data can never
    certify that the sequence is globally polynomial.
    """

    __slots__ = ("detected_degree", "differences")

    def __init__(self, detected_degree: Optional[int],
                 differences: tuple[tuple[int, ...], ...]):
        super().__init__(detected_degree, differences)


def detect_polynomial(counts: Sequence[int]) -> PolyReport:
    """Least degree d whose (d+1)-th differences vanish across the counts,
    with the difference table.

    Returns degree None when no order of differences vanishes on them.  An
    identically zero window reports degree 0 (the zero polynomial).
    """
    counts = tuple(counts)
    if any(type(c) is not int for c in counts):  # int() would truncate 1.5 to 1
        raise TypeError("polynomial detection needs integer counts")
    if len(counts) < 3:
        raise BoundError("polynomial detection needs at least 3 counts")

    rows = [counts]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append(tuple(b - a for a, b in zip(prev, prev[1:])))
    degree = next((d for d in range(len(counts) - 1) if not any(rows[d + 1])), None)
    return PolyReport(degree, tuple(rows))
