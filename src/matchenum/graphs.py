"""Immutable graph container shared by every region builder.

Vertices carry hashable labels and, for the lattice regions, exact integer
drawing coordinates (cell centres scaled so they land on integer points).
Triangular-lattice regions store sheared lattice coordinates; the shear is
an orientation-preserving linear map, so cross-product signs and cyclic
angular order agree with the honest Euclidean drawing and all geometry can
stay in integer arithmetic.

The embedding is held on integer darts, whose ids exist in this module
alone.  The rotation system sorts the neighbours once per distinct tuple
of neighbour offsets, exactly, and the faces are one walk over an array
that gives each dart the dart after it in its face; the walk labels every
dart with its face and sums each face's area and parity on the way.
A face keeps only that area and parity, not its walk.  Other modules
read the faces, and each edge's two faces in ``edges`` order
(``edge_faces``), never a dart id.

A two-coloured graph stores its bipartite split once: class 0 is the rows
and class 1 the columns of every biadjacency matrix, each in vertex order,
and every vertex keeps its position within its class.

Graphs are frozen after construction and safe to share between threads.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import accumulate
from typing import Hashable, Iterable, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs or operations missing a prerequisite
    (no embedding or no bipartition)."""


Classes = tuple[tuple[int, ...], tuple[int, ...]]  # (rows, columns)


class Face:
    """One face of the embedded graph: its doubled signed area and parity.

    The face's boundary walk keeps the interior on the left, so bounded
    faces have positive doubled signed area and the outer walk of each
    component has non-positive area.  ``parity`` is that of the walk's darts
    that run from a higher vertex index to a lower one: the face's
    clockwise parity when every edge points from its lower end to its
    higher.  The walk itself is not kept.
    """

    __slots__ = ("area2", "parity")

    def __init__(self, area2: int, parity: int):
        self.area2 = area2
        self.parity = parity

    @property
    def bounded(self) -> bool:
        return self.area2 > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bounded" if self.bounded else "outer"
        return f"Face({kind}, area2={self.area2}, parity={self.parity})"


class MatchGraph:
    """Finite simple graph whose perfect matchings are the objects of study.

    Optional extras:
      * ``color``  - a two-coloring (0/1 per vertex); every edge must join
        the two classes, stored split as ``classes`` and ``class_pos``.
      * ``coords`` - integer drawing coordinates per vertex; when present,
        the rotation system (neighbours in counter-clockwise order) and the
        face structure of the straight-line embedding are available.

    ``edge_faces`` is None until ``faces()`` has run, and then holds two
    tuples aligned with ``edges``: for each edge (u, v), the face of its
    dart u -> v, and the face of its dart v -> u.
    """

    __slots__ = ("labels", "index", "edges", "adj", "color", "classes",
                 "class_pos", "coords", "edge_faces", "_rotation", "_faces")

    def __init__(
        self,
        labels: Iterable[Hashable],
        edges: Iterable[tuple[int, int]],
        coords: Optional[Sequence[tuple[int, int]]] = None,
        color: Optional[Sequence[int]] = None,
    ):
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise GraphError("duplicate vertex labels")
        n = len(self.labels)

        self.classes = self.class_pos = None
        if color is not None:
            color = tuple(color)
            # a float cannot index the classes, and a bool is not a colour
            if len(color) != n or any(type(c) is not int or c not in (0, 1) for c in color):
                raise GraphError("bipartition must assign 0/1 to every vertex")
            classes: tuple[list[int], list[int]] = ([], [])
            pos = []
            for v, c in enumerate(color):
                pos.append(len(classes[c]))
                classes[c].append(v)
            self.classes = tuple(map(tuple, classes))
            self.class_pos = tuple(pos)
        self.color = color

        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        adj: list[list[int]] = [[] for _ in range(n)]
        for item in edges:
            try:
                u, v = item
            except (TypeError, ValueError):
                raise GraphError(f"edge {item!r} is not a pair of vertex indices") from None
            # a float cannot index a vertex, and a bool is not one
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge ({u!r}, {v!r}) must join integer vertex indices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            if color is not None and color[u] == color[v]:
                raise GraphError(f"edge {e} joins same color class")
            seen.add(e)
            norm.append(e)
            adj[u].append(v)
            adj[v].append(u)
        self.edges = tuple(norm)
        self.adj = tuple(tuple(sorted(ns)) for ns in adj)

        if coords is not None:
            points = []
            for xy in coords:
                try:
                    x, y = xy
                except (TypeError, ValueError):
                    raise GraphError(f"coords item {xy!r} is not an (x, y) pair") from None
                # int() would truncate a float; bool is refused as well
                if type(x) is not int or type(y) is not int:
                    raise GraphError("coords must be integer pairs")
                points.append((x, y))
            coords = tuple(points)
            if len(coords) != n:
                raise GraphError("coords must cover every vertex")
        self.coords = coords

        self._rotation: Optional[tuple[tuple[int, ...], ...]] = None
        self._faces: Optional[tuple[Face, ...]] = None
        self.edge_faces: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return type(u) is int and 0 <= u < self.n and v in self.adj[u]

    def edge_by_labels(self, lu: Hashable, lv: Hashable) -> tuple[int, int]:
        try:
            u, v = self.index[lu], self.index[lv]
        except KeyError as exc:
            raise GraphError(f"unknown vertex label {exc.args[0]!r}") from None
        if not self.has_edge(u, v):
            raise GraphError(f"{lu!r} and {lv!r} are not adjacent")
        return (u, v) if u < v else (v, u)

    def class_sizes(self) -> tuple[int, int]:
        if self.classes is None:
            raise GraphError("graph carries no bipartition")
        return len(self.classes[0]), len(self.classes[1])

    def is_balanced(self) -> bool:
        a, b = self.class_sizes()
        return a == b

    def balanced_classes(self) -> Classes:
        """(rows, columns), or GraphError unless both classes are equal in size."""
        a, b = self.class_sizes()
        if a != b:
            raise GraphError(f"bipartition classes have sizes {a} != {b}")
        return self.classes

    # -- derived graphs -----------------------------------------------

    def _vertex_set(self, vertices: Iterable[int]) -> set[int]:
        """The vertices as a set, refused unless each is an int index."""
        vertices, n = set(vertices), self.n
        # a float or a bool is no index, and -1 would take the last vertex
        if not all(type(v) is int and 0 <= v < n for v in vertices):
            raise GraphError(f"vertices must be indices in range({n})")
        return vertices

    def subgraph(self, keep: Iterable[int]) -> "MatchGraph":
        keep = sorted(self._vertex_set(keep))
        old_to_new = {v: i for i, v in enumerate(keep)}
        labels = [self.labels[v] for v in keep]
        edges = [
            (old_to_new[u], old_to_new[v])
            for u, v in self.edges
            if u in old_to_new and v in old_to_new
        ]
        coords = [self.coords[v] for v in keep] if self.coords is not None else None
        color = [self.color[v] for v in keep] if self.color is not None else None
        return MatchGraph(labels, edges, coords=coords, color=color)

    def delete_vertices(self, drop: Iterable[int]) -> "MatchGraph":
        drop = self._vertex_set(drop)
        return self.subgraph(v for v in range(self.n) if v not in drop)

    # -- embedding ----------------------------------------------------

    @property
    def rotation(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of every vertex in counter-clockwise angular order.

        A lattice region has few distinct neighbourhoods, so the neighbours
        are sorted once per tuple of offsets (neighbour minus vertex, in
        ``adj`` order), by exact integer cross products, and every vertex
        with that tuple reuses the order.
        """
        if self.coords is None:
            raise GraphError("graph carries no drawing coordinates")
        if self._rotation is None:
            coords = self.coords
            orders: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
            rotation = []
            for v, ns in enumerate(self.adj):
                cx, cy = coords[v]
                offsets = tuple([(coords[u][0] - cx, coords[u][1] - cy) for u in ns])
                order = orders.get(offsets)
                if order is None:
                    order = orders[offsets] = _ccw_order(offsets, v)
                rotation.append(tuple([ns[k] for k in order]))
            self._rotation = tuple(rotation)
        return self._rotation

    def faces(self) -> tuple[Face, ...]:
        """All faces of the straight-line embedding, one per dart orbit.

        Each component of a plane drawing contributes its bounded faces
        plus one outer walk.  Faces come in the order of their first dart,
        and ``edge_faces`` is filled alongside.
        """
        if self._faces is None:
            self._trace_faces()
        return self._faces

    def _trace_faces(self) -> None:
        rot = self.rotation
        coords = self.coords
        base = [0, *accumulate(map(len, rot))]  # dart (v, k) has the id base[v] + k
        # interior stays on the left: the dart after (v, u) leaves u along
        # the predecessor of v in u's counter-clockwise order, cyclically
        nxt = [base[u] + (rot[u].index(v) or len(rot[u])) - 1
               for v, ns in enumerate(rot) for u in ns]
        heads = [u for ns in rot for u in ns]
        tails = [v for v, ns in enumerate(rot) for _ in ns]

        face = [-1] * len(nxt)
        faces: list[Face] = []
        for start in range(len(nxt)):
            if face[start] >= 0:
                continue
            f = len(faces)
            area2 = descents = 0
            d = start
            while face[d] < 0:
                face[d] = f
                u, v = tails[d], heads[d]
                ax, ay = coords[u]
                bx, by = coords[v]
                area2 += ax * by - ay * bx
                if u > v:
                    descents += 1
                d = nxt[d]
            faces.append(Face(area2, descents & 1))
        # two flat tuples of ints, not one pair per edge: no object for the
        # garbage collector to count per edge
        self.edge_faces = (tuple([face[base[u] + rot[u].index(v)] for u, v in self.edges]),
                           tuple([face[base[v] + rot[v].index(u)] for u, v in self.edges]))
        self._faces = tuple(faces)  # last: faces() returns once this is set

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchGraph(n={self.n}, m={len(self.edges)})"


def _ccw_order(offsets: Sequence[tuple[int, int]], v: int) -> tuple[int, ...]:
    """Positions of ``offsets`` (those of v's neighbours) in counter-clockwise
    order from angle 0, compared exactly by integer cross products."""

    def cmp(a: int, b: int) -> int:
        ax, ay = offsets[a]
        bx, by = offsets[b]
        # split at angle 0: half 0 is [0, pi), half 1 is [pi, 2*pi)
        ha = 0 if (ay > 0 or (ay == 0 and ax > 0)) else 1
        hb = 0 if (by > 0 or (by == 0 and bx > 0)) else 1
        if ha != hb:
            return ha - hb
        cr = ax * by - ay * bx
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        raise GraphError(f"neighbours of {v} share a direction")

    return tuple(sorted(range(len(offsets)), key=cmp_to_key(cmp)))
