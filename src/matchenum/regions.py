"""Builders for every lattice region family, plus the JSON region format.

Coordinate conventions (the single source of geometric truth):

* Triangular lattice: lattice points are integer pairs (a, b) whose true
  position is (a + b/2, b*sqrt(3)/2).  The upward unit triangle UP(x, y)
  has corners (x, y), (x+1, y), (x, y+1); DOWN(x, y) has corners
  (x+1, y), (x, y+1), (x+1, y+1).  UP(x, y) is edge-adjacent to exactly
  DOWN(x, y), DOWN(x-1, y) and DOWN(x, y-1).  Cell centres are stored
  scaled by 3: UP -> (3x+1, 3y+1), DOWN -> (3x+2, 3y+2).

* Hexagons: side lengths s1..s6 are walked counter-clockwise from the
  origin along the unit directions E, NE, NW, W, SW, SE.  The walk closes
  iff s1 - s4 = s5 - s2 = s3 - s6, and then the cell counts satisfy
  #UP - #DOWN = s1 - s4.  Opposite sides lie on the lattice lines b = 0
  and b = s2+s3, a = s1 and a = s1-s3-s4, a+b = 0 and a+b = s1+s2, so
  the closed hexagon is the intersection of three strips, and a unit
  triangle is inside iff its three corners are: UP(x, y) and DOWN(x, y)
  need 0 <= y < s2+s3 and s1-s3-s4 <= x < s1, and x+y in [0, s1+s2-1]
  for UP, [-1, s1+s2-2] for DOWN.

* Square lattice: the unit square (i, j) has corners (i, j)..(i+1, j+1)
  and centre stored doubled as (2i+1, 2j+1); its color is (i+j) mod 2.
  In the diagonal coordinates p = i+j+1, q = i-j (p + q is always odd)
  the order-n Aztec diamond is the box |p| <= n, |q| <= n, since
  |2i+1| + |2j+1| = max(|2p|, |2q|), and the a x b Aztec rectangle is
  |p| <= a, -a <= q <= 2b-a.

Every region takes one path: ``RegionSpec`` checks it on construction,
``RegionSpec.cells`` lists its cells (a hypercube's vertices 0..2^n - 1)
and ``RegionSpec.build`` makes the graph they label.  The ``build_*``
functions are shorthands for a spec, so they refuse what files refuse.
"""

from __future__ import annotations

import json
import reprlib
from typing import Iterable, NamedTuple, Sequence

from .graphs import MatchGraph, Record


class RegionError(ValueError):
    """Invalid region parameters (closure violated, bad hole, imbalance...)."""


class TriCell(NamedTuple):
    x: int
    y: int
    orient: str  # "up" or "down"


UP, DOWN = "up", "down"

HYPERCUBE_LIMIT = 12  # 2**12 vertices; counting routines bound themselves
REGION_CELL_LIMIT = 1 << 16  # cells of a lattice region, checked before any is listed


def _brief(value) -> str:
    # a bad value can be a huge or deeply nested list: reprlib elides long
    # and deep parts, and messages echo at most 80 characters of the rest
    text = reprlib.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _check_cell_count(count: int, what: str) -> None:
    # the count is a closed form in the parameters, so this runs before
    # any cell is allocated
    if count > REGION_CELL_LIMIT:
        raise RegionError(f"{what} has more than {REGION_CELL_LIMIT} cells")


def _strict_int(value, what: str) -> int:
    # bool is a subclass of int, and int() would silently truncate floats
    if not isinstance(value, int) or isinstance(value, bool):
        raise RegionError(
            f"{what} must be an integer, got {type(value).__name__} {_brief(value)}"
        )
    return value


def _strict_list(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise RegionError(
            f"{what} must be a list, got {type(value).__name__} {_brief(value)}"
        )
    return value


def _strict_ints(value, what: str, length: int) -> None:
    if len(_strict_list(value, what)) != length:
        raise RegionError(
            f"{what} must have {length} entries, got {len(value)}: {_brief(value)}"
        )
    for v in value:
        _strict_int(v, f"each entry of {what}")


def _hole(h) -> TriCell:
    if not isinstance(h, (list, tuple)) or len(h) != 3:
        raise RegionError(
            "each hole must be [x, y, 'up'|'down'], "
            f"got {type(h).__name__} {_brief(h)}"
        )
    x, y, orient = h
    x, y = _strict_int(x, "a hole's x"), _strict_int(y, "a hole's y")
    if orient not in (UP, DOWN):
        # echoed as text, whatever its JSON type
        raise RegionError(
            f"hole orientation must be 'up' or 'down', got {_brief(str(orient))}"
        )
    return TriCell(x, y, orient)


def _less(cells: set, entries: Iterable, name: str, outside: str) -> set:
    """cells minus the entries, each of which must be a cell listed once."""
    seen = set()
    for e in entries:
        if e not in cells:
            raise RegionError(f"{name} {_brief(e)} {outside}")
        if e in seen:
            raise RegionError(f"{name} {_brief(e)} listed twice")
        seen.add(e)
    return cells - seen


def _tri_center3(cell: TriCell) -> tuple[int, int]:
    # centroid in lattice coordinates, scaled by 3 to stay integral
    if cell.orient == UP:
        return (3 * cell.x + 1, 3 * cell.y + 1)
    return (3 * cell.x + 2, 3 * cell.y + 2)


def validate_hex_sides(sides: Sequence[int]) -> tuple[int, ...]:
    s = tuple(_strict_int(v, "each hexagon side length") for v in sides)
    if len(s) != 6:
        raise RegionError("a hexagon needs exactly six side lengths")
    if any(v < 0 for v in s):
        raise RegionError("hexagon side lengths must be nonnegative")
    if not (s[0] - s[3] == s[4] - s[1] == s[2] - s[5]):
        raise RegionError(
            f"side tuple {_brief(s)} violates the closure condition "
            "s1 - s4 = s5 - s2 = s3 - s6"
        )
    return s


def hexagon_cells(sides: Sequence[int]) -> set[TriCell]:
    """All unit triangles of the hexagon: per row y and orientation, the
    x range left by the three strips (see the module docstring)."""
    s = validate_hex_sides(sides)
    _check_cell_count(_hexagon_area(s), "the hexagon")
    return {
        TriCell(x, y, orient)
        for y in range(s[1] + s[2])
        for orient, shift in ((UP, 0), (DOWN, 1))
        for x in range(max(s[0] - s[2] - s[3], -y - shift),
                       min(s[0], s[0] + s[1] - y - shift))
    }


def hexagon_cell_count(sides: Sequence[int]) -> int:
    """Closed-form area in unit triangles: the enclosing lattice triangle
    of side s6+s1+s2 minus the three cut corners of sides s2, s4, s6."""
    return _hexagon_area(validate_hex_sides(sides))


def _hexagon_area(s: tuple[int, ...]) -> int:
    t = s[5] + s[0] + s[1]
    return t * t - s[1] ** 2 - s[3] ** 2 - s[5] ** 2


def _tri_graph(cells: set[TriCell]) -> MatchGraph:
    labels = sorted(cells)
    index = {c: i for i, c in enumerate(labels)}
    edges = []
    for k, (x, y, orient) in enumerate(labels):
        if orient != UP:
            continue
        for nb in (TriCell(x, y, DOWN), TriCell(x - 1, y, DOWN), TriCell(x, y - 1, DOWN)):
            if nb in index:
                edges.append((k, index[nb]))
    coords = [_tri_center3(c) for c in labels]
    color = [0 if c.orient == UP else 1 for c in labels]
    return MatchGraph(labels, edges, coords=coords, color=color)


def build_hexagon(sides: Sequence[int], holes: Iterable[TriCell] = ()) -> MatchGraph:
    """Adjacency graph of the unit triangles of the hexagon minus holes.

    Perfect matchings of the result are in bijection with the rhombus
    tilings of the holey hexagon.
    """
    return RegionSpec("HEXAGON", {"sides": sides}, holes=tuple(holes)).build()


def central_rhombus_edge(sides: Sequence[int]) -> tuple[TriCell, TriCell]:
    """The unique UP/DOWN cell pair whose rhombus centre is the hexagon centre.

    Defined for side tuples (a, a, b, a, a, b) with a and b of opposite
    parity; the hexagon is then centrally symmetric with doubled centre
    (a-b, a+b), both coordinates odd.  Of the three edges of UP(x, y) only
    the one shared with DOWN(x, y) has a doubled midpoint with both
    coordinates odd, (2x+1, 2y+1), so the pair is UP/DOWN(x, y) with
    x = (a-b-1)/2 and y = (a+b-1)/2.  Both cells lie in the strips of the
    module docstring iff a >= 1: 0 <= y < a+b and -b <= x < a hold as
    a + b >= 1, and x + y = a - 1 must lie in [0, 2a-1] for UP and in
    [-1, 2a-2] for DOWN.
    """
    s = validate_hex_sides(sides)
    if not (s[0] == s[1] == s[3] == s[4] and s[2] == s[5]):
        raise RegionError(f"sides {_brief(s)} are not of the (a, a, b, a, a, b) form")
    a, b = s[0], s[2]
    if (a + b) % 2 == 0:
        raise RegionError(f"a={a} and b={b} must have opposite parity")
    if a == 0:
        raise RegionError(f"the hexagon {_brief(s)} has no central rhombus")
    x, y = (a - b - 1) // 2, (a + b - 1) // 2
    return TriCell(x, y, UP), TriCell(x, y, DOWN)


# -- square-lattice regions -----------------------------------------------


def _square_graph(cells: set[tuple[int, int]]) -> MatchGraph:
    labels = sorted(cells)
    index = {c: i for i, c in enumerate(labels)}
    edges = []
    for k, (i, j) in enumerate(labels):
        for nb in ((i + 1, j), (i, j + 1)):
            if nb in index:
                edges.append((k, index[nb]))
    coords = [(2 * i + 1, 2 * j + 1) for i, j in labels]
    color = [(i + j) & 1 for i, j in labels]
    return MatchGraph(labels, edges, coords=coords, color=color)


def _diagonal_box(p_max: int, q_min: int, q_max: int) -> set[tuple[int, int]]:
    # squares with |p| <= p_max and q_min <= q <= q_max, where p = i+j+1 and
    # q = i-j; p + q is odd, so q steps by 2 from the first odd sum
    return {
        ((p + q - 1) // 2, (p - q - 1) // 2)
        for p in range(-p_max, p_max + 1)
        for q in range(q_min + 1 - (p + q_min) % 2, q_max + 1, 2)
    }


def aztec_diamond_cells(n: int) -> set[tuple[int, int]]:
    if _strict_int(n, "Aztec diamond order") < 1:
        raise RegionError("Aztec diamond order must be >= 1")
    _check_cell_count(2 * n * (n + 1), "the Aztec diamond")
    return _diagonal_box(n, -n, n)


def build_aztec_diamond(n: int) -> MatchGraph:
    """Cell-adjacency graph of the order-n Aztec diamond (2n(n+1) cells)."""
    return RegionSpec("AZTEC_DIAMOND", {"n": n}).build()


def aztec_rectangle_cells(a: int, b: int) -> set[tuple[int, int]]:
    """Squares (i, j) with |i+j+1| <= a and -a <= i-j <= 2b-a.

    In the diagonal coordinates (p, q) = (i+j+1, i-j) this is the
    [-a, a] x [-a, 2b-a] window, whose color classes have a(b+1) and
    (a+1)b cells; for a = b it coincides with the order-a Aztec diamond.
    """
    a, b = _strict_int(a, "Aztec rectangle a"), _strict_int(b, "Aztec rectangle b")
    if not (1 <= a <= b):
        raise RegionError("Aztec rectangle needs 1 <= a <= b")
    _check_cell_count(a * (b + 1) + (a + 1) * b, "the Aztec rectangle")
    return _diagonal_box(a, -a, 2 * b - a)


def build_aztec_rectangle(
    a: int, b: int, removed: Iterable[tuple[int, int]] = ()
) -> MatchGraph:
    """Aztec rectangle minus the removed cells.

    The untouched rectangle has color-class imbalance b - a, so removals
    must restore balance; an imbalanced result would trivially have zero
    matchings and is rejected rather than silently counted.
    """
    return RegionSpec("AZTEC_RECTANGLE", {"a": a, "b": b, "removed": list(removed)}).build()


def aztec_window_row(x: int, w: int, i: int) -> list[int]:
    """The j of the window's cells (i, j), ascending.  Row i of the order-n
    diamond is -t-1 <= j <= t with t = n-1-a, where |2i+1| = 2a+1; the
    window's row is the outer diamond's minus the inner one's."""
    a = i if i >= 0 else -i - 1
    outer = x + w - 1 - a
    inner = max(x - 1 - a, -1)  # -1: the inner diamond misses row i
    return [*range(-outer - 1, -inner - 1), *range(inner + 1, outer + 1)]


def aztec_window_cell_count(x: int, w: int) -> int:
    """Closed-form cell count 2w(2x+w+1) of the window; RegionError for
    x < 1 or w < 1 and past REGION_CELL_LIMIT, like the window itself,
    and for x or w not an int."""
    x, w = _strict_int(x, "Aztec window x"), _strict_int(w, "Aztec window w")
    if x < 1 or w < 1:
        raise RegionError("Aztec window needs x >= 1 and w >= 1")
    count = 2 * w * (2 * x + w + 1)
    _check_cell_count(count, "the Aztec window")
    return count


def aztec_window_cells(x: int, w: int) -> set[tuple[int, int]]:
    """Cells of the order-x diamond's complement in the order-(x+w) one,
    built row by row in time linear in their number, 2w(2x+w+1)."""
    aztec_window_cell_count(x, w)
    n = x + w
    return {(i, j) for i in range(-n, n) for j in aztec_window_row(x, w, i)}


def build_aztec_window(x: int, w: int) -> MatchGraph:
    """Annulus between the concentric Aztec diamonds of orders x and x+w.

    2w(2x+w+1) cells, balanced; the embedding has one long bounded face
    around the hole in addition to the unit square faces.
    """
    return RegionSpec("AZTEC_WINDOW", {"x": x, "w": w}).build()


def build_hypercube(n: int) -> MatchGraph:
    """Hamming graph on n-bit vectors; bipartition by bit parity.

    Non-planar for n >= 3, so no drawing coordinates are attached.
    """
    return RegionSpec("HYPERCUBE", {"n": n}).build()


# -- declarative region specs ----------------------------------------------

# required parameters of each kind; AZTEC_RECTANGLE also takes an
# optional "removed" list of [i, j] cells
KIND_PARAMS = {
    "HEXAGON": ("sides",),
    "AZTEC_DIAMOND": ("n",),
    "AZTEC_RECTANGLE": ("a", "b"),
    "AZTEC_WINDOW": ("x", "w"),
    "HYPERCUBE": ("n",),
}


class RegionSpec(Record):
    """Declarative region description; the JSON form is the CLI input format.

    {"kind": "...", "params": {...}, "holes": [[x, y, "up"|"down"], ...]}

    The spec is checked strictly on construction: the kind must be a str
    and the params a dict, integers must be ints (not bools or floats),
    lists must be lists and a hole's orientation "up" or "down", else
    RegionError.  The holes are stored as a tuple of ``TriCell``s.  A
    frozen ``Record``: equal specs compare equal, and the params dict makes
    a spec unhashable.
    """

    __slots__ = ("kind", "params", "holes")

    def __init__(self, kind: str, params: dict, holes: Sequence = ()):
        if not isinstance(kind, str):
            raise RegionError(
                f"region kind must be a string, got {type(kind).__name__} "
                f"{_brief(kind)}"
            )
        if not isinstance(params, dict):
            raise RegionError(
                f"region params must be a dict, got {type(params).__name__} "
                f"{_brief(params)}"
            )
        holes = tuple(_hole(h) for h in _strict_list(holes, "'holes'"))
        if kind not in KIND_PARAMS:
            raise RegionError(f"unknown region kind {_brief(kind)}")
        if holes and kind != "HEXAGON":
            raise RegionError("holes are only supported for HEXAGON regions")
        required = KIND_PARAMS[kind]
        optional = ("removed",) if kind == "AZTEC_RECTANGLE" else ()
        for name in required:
            if name not in params:
                raise RegionError(f"{kind} spec is missing parameter {name!r}")
        for name, value in params.items():
            what = f"{kind} parameter {name!r}"
            if name not in required + optional:
                raise RegionError(
                    f"{kind} spec has unknown parameter {_brief(name)}"
                )
            if name == "sides":
                _strict_ints(value, what, length=6)
            elif name == "removed":
                for cell in _strict_list(value, what):
                    _strict_ints(cell, f"each cell of {what}", length=2)
            else:
                _strict_int(value, what)
        super().__init__(kind, params, holes)

    def cells(self) -> frozenset:
        """The region's cells, which label its graph's vertices: the
        hexagon less its holes, the diamond, the rectangle less its
        removals, the window, or a hypercube's vertices 0..2^n - 1.  Two
        specs build the same graph exactly when their cells are equal."""
        p = self.params
        if self.kind == "HEXAGON":
            cells = _less(hexagon_cells(p["sides"]), self.holes,
                          "hole", "lies outside the region")
        elif self.kind == "AZTEC_DIAMOND":
            cells = aztec_diamond_cells(p["n"])
        elif self.kind == "AZTEC_RECTANGLE":
            cells = _less(aztec_rectangle_cells(p["a"], p["b"]),
                          [tuple(r) for r in p.get("removed", [])],
                          "removed vertex", "is not in the region")
        elif self.kind == "AZTEC_WINDOW":
            cells = aztec_window_cells(p["x"], p["w"])
        else:
            if not 1 <= p["n"] <= HYPERCUBE_LIMIT:
                raise RegionError(f"hypercube dimension must be in 1..{HYPERCUBE_LIMIT}")
            cells = range(1 << p["n"])
        return frozenset(cells)

    def build(self) -> MatchGraph:
        cells = self.cells()
        if self.kind == "HEXAGON":
            return _tri_graph(cells)
        if self.kind == "HYPERCUBE":  # v meets v with one more bit set
            n, labels = self.params["n"], range(len(cells))
            edges = [(v, v | 1 << k) for v in labels for k in range(n) if not v >> k & 1]
            return MatchGraph(list(labels), edges,
                              color=[bin(v).count("1") & 1 for v in labels])
        g = _square_graph(cells)
        if not g.is_balanced():  # only a rectangle's removals can leave this
            raise RegionError("removal leaves color classes of sizes {} and {}; "
                              "matchings would be trivially zero".format(*g.class_sizes()))
        return g

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "params": dict(self.params)}
        if self.kind == "HEXAGON":
            d["holes"] = [[h.x, h.y, h.orient] for h in self.holes]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "RegionSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise RegionError("region document must be an object with a 'kind'")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise RegionError("'params' must be an object")
        return cls(kind=str(d["kind"]), params=params, holes=d.get("holes", []))

    @classmethod
    def from_json(cls, text: str) -> "RegionSpec":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers syntax errors and integer literals past
            # Python's digit limit; RecursionError, nesting past its depth
            raise RegionError(f"malformed region JSON: {exc}") from None
        return cls.from_dict(doc)
