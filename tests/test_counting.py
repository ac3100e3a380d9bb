import math
import random
import tracemalloc
from fractions import Fraction
from functools import cmp_to_key

import pytest

from matchenum import (
    BoundError,
    GraphError,
    MatchGraph,
    RegionError,
    TriCell,
    build_aztec_diamond,
    build_aztec_window,
    build_hexagon,
    build_hypercube,
    central_rhombus_edge,
    containment_ratio,
    count_auto,
    count_brute,
    count_kasteleyn,
    count_permanent,
    count_with_forced_edge,
    det_bareiss,
    enumerate_matchings,
    kasteleyn_matrix,
    kasteleyn_orient,
    random_region,
)
from matchenum import counting, graphs
from matchenum.claims import random_spec

# values frozen from the backtracking oracle
HEX_COUNTS = {
    (1, 1, 1, 1, 1, 1): 2,
    (2, 2, 2, 2, 2, 2): 20,
    (1, 1, 2, 1, 1, 2): 3,
}
DIAMOND_COUNTS = {1: 2, 2: 8, 3: 64}
CUBE_COUNTS = {1: 1, 2: 2, 3: 9, 4: 272}


def nested_island_hexagon():
    """The 3^6 hexagon minus the six cells around its central 6-cycle: an
    island of 6 cells (2 tilings) nested in a ring of 42 cells (16 tilings),
    so 32 in all."""
    sides = (3,) * 6
    g = build_hexagon(sides)
    # the six cells around the lattice point (0, 3), the hexagon's centre
    core = {TriCell(0, 3, "up"), TriCell(-1, 3, "up"), TriCell(0, 2, "up"),
            TriCell(-1, 3, "down"), TriCell(0, 2, "down"), TriCell(-1, 2, "down")}
    ring = {g.labels[u] for c in core for u in g.adj[g.index[c]]} - core
    return build_hexagon(sides, holes=sorted(ring))


def kasteleyn_det(g, seed):
    """|det K| with K oriented under ``seed``."""
    return abs(det_bareiss(counting.signed_biadjacency(g, seed=seed)))


def clockwise_edges(orient, walk):
    """Edges of a bounded face walk oriented clockwise (the walk runs
    counter-clockwise, so such an edge opposes its dart)."""
    return sum(1 for a, b in walk
               if orient[(a, b) if a < b else (b, a)] == (b, a))


def oriented(g, signs):
    """``kasteleyn_orient``'s signs as each edge's (tail, head) pair."""
    return {(u, v): (u, v) if s == 1 else (v, u) for (u, v), s in zip(g.edges, signs)}


def component_sizes(g):
    """Sorted vertex counts of the connected components of ``g``."""
    seen, sizes = set(), []
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        stack, size = [s], 0
        while stack:
            size += 1
            for u in g.adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        sizes.append(size)
    return sorted(sizes)


def cycle_graph(n):
    return MatchGraph(
        labels=range(n),
        edges=[(i, (i + 1) % n) for i in range(n)],
        color=[i % 2 for i in range(n)] if n % 2 == 0 else None,
    )


def reference_tries(g):
    """Partner tries of a plain recursive search that follows the brute
    force's documented rule: branch on the first unmatched vertex (lowest
    index) of degree <= 1, else the first of minimum degree, and try its
    unmatched neighbours one by one."""

    def search(alive):
        if not alive:
            return 0
        order = sorted(alive)
        degree = {v: sum(u in alive for u in g.adj[v]) for v in order}
        v = next((v for v in order if degree[v] <= 1), None)
        if v is None:
            v = min(order, key=degree.get)
        return sum(1 + search(alive - {v, u}) for u in g.adj[v] if u in alive)

    return search(frozenset(range(g.n)))


def dead_after_forced_chain():
    """A 4-cycle on 0..3, then the path 4-5-6-7-9 with 8 hanging off 5.
    The pendant 4 forces 4-5, which kills 8 and leaves 6 pendant.  The rule
    takes 6, the first vertex of degree <= 1, before the dead 8, and forces
    6-7; then 8 is pruned.  The search ends after those two tries, before
    the cycle ever branches: no perfect matching."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (5, 8), (7, 9)]
    return MatchGraph(labels=range(10), edges=edges)


class TestBrute:
    def test_even_cycles_have_two_matchings(self):
        for n in (4, 6, 8, 10):
            assert count_brute(cycle_graph(n)) == 2

    def test_hexagon_counts(self):
        for sides, expected in HEX_COUNTS.items():
            assert count_brute(build_hexagon(sides)) == expected

    def test_diamond_counts(self):
        for n, expected in DIAMOND_COUNTS.items():
            assert count_brute(build_aztec_diamond(n)) == expected

    def test_odd_graph_counts_zero(self):
        g = MatchGraph(labels=range(3), edges=[(0, 1), (1, 2)])
        assert count_brute(g) == 0

    def test_empty_graph_counts_one(self):
        assert count_brute(MatchGraph(labels=[], edges=[])) == 1

    def test_size_bound(self):
        with pytest.raises(BoundError):
            count_brute(build_hypercube(7))
        with pytest.raises(BoundError):
            next(enumerate_matchings(build_hypercube(7)))

    @staticmethod
    def check_budget(monkeypatch, g, count):
        # the search tries exactly as many partners as the reference
        tries = reference_tries(g)
        monkeypatch.setattr(counting, "BRUTE_NODE_LIMIT", tries)
        assert count_brute(g) == count
        assert len(list(enumerate_matchings(g))) == count
        monkeypatch.setattr(counting, "BRUTE_NODE_LIMIT", tries - 1)
        with pytest.raises(BoundError, match=f"node limit {tries - 1}"):
            count_brute(g)
        with pytest.raises(BoundError, match=f"node limit {tries - 1}"):
            list(enumerate_matchings(g))
        return tries

    def test_node_budget(self, monkeypatch):
        # 4404 tries on the order-4 diamond
        self.check_budget(monkeypatch, build_aztec_diamond(4), 1024)

    def test_dead_vertex_after_forced_chain(self, monkeypatch):
        assert self.check_budget(monkeypatch, dead_after_forced_chain(), 0) == 2

    def test_partners_in_index_order(self):
        # the 4-cycle branches on vertex 0 and tries partner 1 before 3
        assert list(enumerate_matchings(cycle_graph(4))) == [
            frozenset({(0, 1), (2, 3)}), frozenset({(0, 3), (1, 2)}),
        ]

    def test_regular_bipartite_refused_before_search(self, monkeypatch):
        # the 5-cube has at least 4^64 / 5^48 ~ 9.6e4 matchings (Schrijver);
        # a budget below that refuses it before the first partner try
        q5 = build_hypercube(5)
        floor = 4**64 // 5**48
        monkeypatch.setattr(counting, "BRUTE_NODE_LIMIT", floor)
        with pytest.raises(BoundError, match="Schrijver"):
            next(enumerate_matchings(q5))
        monkeypatch.setattr(counting, "BRUTE_NODE_LIMIT", floor + 1)
        assert len(next(enumerate_matchings(q5))) == 16

    def test_enumeration_matches_count(self):
        cases = [(build_hexagon(sides), count) for sides, count in HEX_COUNTS.items()]
        cases.append((build_hypercube(4), CUBE_COUNTS[4]))  # no embedding
        cases.append((build_aztec_diamond(3), DIAMOND_COUNTS[3]))
        cases.append((nested_island_hexagon(), 32))  # a hexagon with holes
        cases.append((build_aztec_window(2, 1), 0))  # balanced, no matching
        cases.append((dead_after_forced_chain(), 0))
        cases.append((MatchGraph(labels=range(3), edges=[(0, 1), (1, 2)]), 0))
        for g, count in cases:
            matchings = list(enumerate_matchings(g))
            assert len(matchings) == count == count_brute(g)
            assert len(set(matchings)) == len(matchings)
            for m in matchings:
                assert all(u < v and g.has_edge(u, v) for u, v in m)
                covered = [v for e in m for v in e]
                assert sorted(covered) == list(range(g.n))


def bipartite_graph(matrix, order=None):
    """Graph whose rows and columns are the two classes of a square 0/1
    matrix, with no embedding.  ``order`` relabels the vertices: row i is
    vertex order[i] and column j is vertex order[m + j]."""
    m = len(matrix)
    order = list(range(2 * m)) if order is None else order
    color = [0] * (2 * m)
    for j in range(m):
        color[order[m + j]] = 1
    edges = [(order[i], order[m + j])
             for i in range(m) for j in range(m) if matrix[i][j]]
    return MatchGraph(labels=range(2 * m), edges=edges, color=color)


def random_01(rng, m, density):
    return [[int(rng.random() < density) for _ in range(m)] for _ in range(m)]


class TestPermanent:
    def test_single_edge(self):
        g = MatchGraph(labels=[0, 1], edges=[(0, 1)], color=[0, 1])
        assert count_permanent(g) == 1

    def test_single_pair_without_edge(self):
        g = MatchGraph(labels=[0, 1], edges=[], color=[0, 1])
        assert count_permanent(g) == 0

    def test_empty_graph_counts_one(self):
        assert count_permanent(MatchGraph(labels=[], edges=[], color=[])) == 1

    def test_complete_bipartite(self):
        for m in range(1, 9):
            g = bipartite_graph([[1] * m for _ in range(m)])
            assert count_permanent(g) == math.factorial(m)

    def test_random_graphs_against_brute(self):
        rng = random.Random(19)
        for m in range(1, 10):
            for density in (0.3, 0.5, 0.7):
                for _ in range(3):
                    matrix = random_01(rng, m, density)
                    order = list(range(2 * m))
                    rng.shuffle(order)
                    g = bipartite_graph(matrix, order)
                    assert count_permanent(g) == count_brute(g), (matrix, order)

    def test_zero_degree_row_or_column_counts_zero(self):
        rng = random.Random(5)
        for m in (2, 3, 6, 7):
            for k in (0, m // 2, m - 1):
                matrix = [[1] * m for _ in range(m)]
                matrix[k] = [0] * m
                assert count_permanent(bipartite_graph(matrix)) == 0
                for density in (0.7, 0.3):
                    matrix = random_01(rng, m, density)
                    for row in matrix:
                        row[k] = 0
                    assert count_permanent(bipartite_graph(matrix)) == 0
                    matrix = random_01(rng, m, density)
                    matrix[k] = [0] * m
                    assert count_permanent(bipartite_graph(matrix)) == 0

    def test_column_permutation_invariance(self):
        rng = random.Random(7)
        for m in (5, 8, 9):
            matrix = random_01(rng, m, 0.6)
            expected = count_permanent(bipartite_graph(matrix))
            assert expected == count_brute(bipartite_graph(matrix))
            for _ in range(5):
                perm = list(range(m))
                rng.shuffle(perm)
                shuffled = [[row[p] for p in perm] for row in matrix]
                assert count_permanent(bipartite_graph(shuffled)) == expected

    def test_needs_bipartition(self):
        g = MatchGraph(labels=range(2), edges=[(0, 1)])
        with pytest.raises(GraphError):
            count_permanent(g)

    @pytest.mark.parametrize("make, width", [
        (lambda: build_hypercube(5), 13),
        (lambda: bipartite_graph([[1] * 20 for _ in range(20)]), 20),
    ], ids=["five_cube", "k20_20"])
    def test_is_the_frontier_dp_along_a_row_schedule(self, monkeypatch, make, width):
        # the spy refuses to count, so K20,20 costs only its order
        g = make()
        orders = []

        def spy(graph, order):
            orders.append(list(order))
            raise RuntimeError("spy")

        monkeypatch.setattr(counting, "frontier_count", spy)
        with pytest.raises(RuntimeError, match="spy"):
            count_permanent(g)
        [order] = orders
        assert sorted(order) == list(range(g.n))
        # at most the open columns and one row: the frontier bound never
        # refuses what the permanent admits
        assert counting._compile_order(g, order)[1] == width <= g.class_sizes()[0] + 1
        assert counting.PERMANENT_LIMIT + 1 < counting.FRONTIER_LIMIT

    @pytest.mark.slow
    def test_complete_bipartite_at_the_limit(self):
        # the DP's documented worst case: K20,20 holds all C(20, 10) states
        # at its widest, 3-4.5 s and ~62 MB max RSS on a 2-vCPU Xeon
        m = counting.PERMANENT_LIMIT
        g = bipartite_graph([[1] * m for _ in range(m)])
        assert count_permanent(g) == math.factorial(m)

    def test_hypercubes(self):
        for n, expected in CUBE_COUNTS.items():
            assert count_permanent(build_hypercube(n)) == expected

    def test_against_brute_on_lattice_regions(self):
        for sides in HEX_COUNTS:
            g = build_hexagon(sides)
            assert count_permanent(g) == HEX_COUNTS[sides]

    def test_imbalanced_counts_zero(self, monkeypatch):
        g = MatchGraph(labels=range(3), edges=[(0, 1), (1, 2)], color=[0, 1, 0])
        assert count_permanent(g) == 0
        # the zero comes before the class-size bound
        monkeypatch.setattr(counting, "PERMANENT_LIMIT", 1)
        assert count_permanent(g) == 0

    def test_bipartition_is_tested_once(self, monkeypatch):
        calls = []
        sizes = MatchGraph.class_sizes

        def counted(g):
            calls.append(g)
            return sizes(g)

        monkeypatch.setattr(MatchGraph, "class_sizes", counted)
        assert count_permanent(build_hypercube(3)) == 9
        assert len(calls) == 1
        with pytest.raises(GraphError, match="no bipartition"):
            count_permanent(MatchGraph(labels=range(2), edges=[(0, 1)]))

    def test_class_size_bound(self):
        with pytest.raises(BoundError):
            count_permanent(build_hypercube(6))

    def test_every_small_matrix_against_brute(self):
        for m in (1, 2, 3):
            for bits in range(1 << (m * m)):
                matrix = [[bits >> (i * m + j) & 1 for j in range(m)]
                          for i in range(m)]
                g = bipartite_graph(matrix)
                assert count_permanent(g) == count_brute(g), matrix

    def test_sparse_random_against_brute(self):
        rng = random.Random(23)
        for m in range(4, 13):
            for density in (0.15, 0.25, 0.35):
                for _ in range(3):
                    matrix = random_01(rng, m, density)
                    if rng.random() < 0.5:  # most are singular without it
                        for i in range(m):
                            matrix[i][i] = 1
                    order = list(range(2 * m))
                    rng.shuffle(order)
                    g = bipartite_graph(matrix, order)
                    assert count_permanent(g) == count_brute(g), (matrix, order)

    def test_permutation_matrices_count_one(self):
        rng = random.Random(31)
        for m in (1, 2, 5, 12, 20):
            perm = list(range(m))
            rng.shuffle(perm)
            g = bipartite_graph([[int(perm[i] == j) for j in range(m)]
                                 for i in range(m)])
            assert count_permanent(g) == 1

    def test_two_rows_on_one_column_count_zero(self):
        # rows 0 and 1 meet only column 0, which only one of them can use
        rng = random.Random(41)
        for m in (3, 5, 8):
            matrix = random_01(rng, m, 0.5)
            for i in range(m):
                matrix[i][0] = int(i < 2)
            matrix[0] = [1] + [0] * (m - 1)
            matrix[1] = [1] + [0] * (m - 1)
            g = bipartite_graph(matrix)
            assert count_permanent(g) == 0 == count_brute(g)


class TestKasteleynOrientation:
    @pytest.mark.parametrize("make", [
        lambda: build_hexagon((2, 2, 2, 2, 2, 2)),
        lambda: build_aztec_diamond(3),
        lambda: build_aztec_window(1, 2),
        nested_island_hexagon,
    ])
    def test_every_bounded_face_is_clockwise_odd(self, make):
        g = make()
        walks = bounded_walks(g)
        for seed in range(3):
            orient = oriented(g, kasteleyn_orient(g, seed=seed))
            for walk in walks:
                assert clockwise_edges(orient, walk) % 2 == 1

    def test_four_cycle_condition(self):
        g = build_aztec_diamond(1)
        orient = oriented(g, kasteleyn_orient(g))
        (walk,) = bounded_walks(g)
        assert clockwise_edges(orient, walk) in (1, 3)

    def test_needs_embedding(self):
        with pytest.raises(GraphError):
            kasteleyn_orient(build_hypercube(3))

    def test_disconnected_embedding(self):
        # two components, no bounded face: every edge is oriented and kept
        g = two_edges()
        assert component_sizes(g) == [2, 2]
        assert kasteleyn_orient(g) == (1, 1)
        assert count_kasteleyn(g) == 1


def two_edges():
    """Two disjoint edges side by side: two components, no bounded face."""
    return MatchGraph(labels=range(4), edges=[(0, 1), (2, 3)],
                      coords=[(0, 0), (1, 0), (5, 0), (6, 0)], color=[0, 1, 0, 1])


def embedded_corpus():
    """Named embedded graphs: diamonds, hexagons, windows, the nested island,
    100 random corpus draws (those with an embedding), two_edges() and a
    graph with odd faces."""
    corpus = [(f"diamond{n}", build_aztec_diamond(n)) for n in range(1, 8)]
    for sides in ((2,) * 6, (3, 4, 5, 3, 4, 5), (1, 2, 1, 2, 1, 2)):
        corpus.append((f"hexagon{sides}", build_hexagon(sides)))
    corpus.append(("nested-island", nested_island_hexagon()))
    for x, w in ((1, 2), (3, 4), (4, 6)):
        corpus.append((f"window{x},{w}", build_aztec_window(x, w)))
    rng = random.Random(0)
    for draw in range(100):
        try:
            g = random_spec(rng).build()
        except RegionError:
            continue
        if g.coords is not None:
            corpus.append((f"draw{draw}", g))
    corpus.append(("two-edges", two_edges()))
    # a square under a triangle: faces of odd length, no bipartition
    house = MatchGraph(labels=range(5), edges=[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)],
                       coords=[(0, 0), (2, 0), (2, 2), (0, 2), (1, 3)])
    corpus.append(("house", house))
    return corpus


EMBEDDED = embedded_corpus()


def reference_orient(g, seed):
    """The dual-tree orientation by its first algorithm: every face's
    clockwise edges are counted again under the orientation built so far."""
    orient = {e: e for e in g.edges}
    walks = reference_walks(g)
    bounded = [walk_area2(g, w) > 0 for w in walks]
    face_of = {dart: i for i, w in enumerate(walks) for dart in w}
    dual = [[] for _ in walks]
    for u, v in g.edges:
        f1, f2 = face_of[(u, v)], face_of[(v, u)]
        if f1 != f2:
            dual[f1].append((f2, (u, v)))
            dual[f2].append((f1, (u, v)))
    roots = [i for i, b in enumerate(bounded) if not b]
    rng = random.Random(seed)
    parent_edge, order, seen, stack = {}, [], set(roots), roots[::-1]
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
    for f in reversed(order):
        if bounded[f] and clockwise_edges(orient, walks[f]) % 2 == 0:
            t, h = orient[parent_edge[f]]
            orient[parent_edge[f]] = (h, t)
    return orient


def reference_rotation(g):
    """Every vertex's neighbours sorted on its own by the exact comparator:
    half-plane [0, pi) before [pi, 2 pi), then by cross product."""
    rotation = []
    for v in range(g.n):
        cx, cy = g.coords[v]

        def cmp(a, b):
            ax, ay = g.coords[a][0] - cx, g.coords[a][1] - cy
            bx, by = g.coords[b][0] - cx, g.coords[b][1] - cy
            ha = 0 if (ay > 0 or (ay == 0 and ax > 0)) else 1
            hb = 0 if (by > 0 or (by == 0 and bx > 0)) else 1
            return ha - hb if ha != hb else -1 if ax * by > ay * bx else 1

        rotation.append(tuple(sorted(g.adj[v], key=cmp_to_key(cmp))))
    return tuple(rotation)


def reference_walks(g):
    """Every face walk of g as its list of darts (tail, head), traced from
    ``reference_rotation`` alone: the dart after v -> u leaves u along the
    neighbour before v in u's counter-clockwise order.  Walks come in the
    order of their first dart, darts taken vertex by vertex in rotation
    order."""
    rot = reference_rotation(g)
    walks, seen = [], set()
    for start in [(v, u) for v in range(g.n) for u in rot[v]]:
        walk, (v, u) = [], start
        while (v, u) not in seen:
            seen.add((v, u))
            walk.append((v, u))
            v, u = u, rot[u][rot[u].index(v) - 1]
        if walk:
            walks.append(walk)
    return walks


def walk_area2(g, walk):
    """Doubled signed area enclosed by a dart walk, from ``g.coords``."""
    xy = g.coords
    return sum(xy[v][0] * xy[u][1] - xy[v][1] * xy[u][0] for v, u in walk)


def bounded_walks(g):
    """The face walks of positive area: the bounded faces."""
    return [w for w in reference_walks(g) if walk_area2(g, w) > 0]


def star(centres, spokes):
    """Graph of stars: each centre (x, y) joined to the points at the given
    offsets from it.  ``spokes[i]`` lists centre i's offsets in the order
    their vertices are numbered."""
    coords, edges = [], []
    for (cx, cy), offsets in zip(centres, spokes):
        c = len(coords)
        coords.append((cx, cy))
        for dx, dy in offsets:
            edges.append((c, len(coords)))
            coords.append((cx + dx, cy + dy))
    return MatchGraph(labels=range(len(coords)), edges=edges, coords=coords)


COMPASS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


class TestRotation:
    @pytest.mark.parametrize("spokes", [
        [COMPASS],
        [COMPASS[::-1]],
        [[(3, 1), (-2, 5), (1, -7), (-4, -1), (5, -2), (0, -3), (-1, 4)]],
        # the same offsets in two vertex orders, so two adj orders
        [[(1, 0), (0, 1), (-1, 0)], [(-1, 0), (1, 0), (0, 1)]],
        [[(1, 0), (0, 1), (-1, 0)], [(1, 0), (0, 1), (-1, 0)]],
    ])
    def test_memoized_order_is_the_comparator_order(self, spokes):
        centres = [(10 * i, 0) for i in range(len(spokes))]
        g = star(centres, spokes)
        assert g.rotation == reference_rotation(g)

    def test_exact_far_from_the_origin(self):
        # as floats, (2^60 + 1, 2^60) and (2^60, 2^60 - 1) are one direction;
        # their cross product is -1, so the second comes first
        big = 1 << 60
        for centre in ((0, 0), (1 << 40, -(1 << 40)), (big, big)):
            g = star([centre], [[(big + 1, big), (big, big - 1), (-big, 1)]])
            assert g.rotation == reference_rotation(g)
            assert g.rotation[0] == (2, 1, 3)

    def test_sorted_once_per_offset_tuple(self, monkeypatch):
        calls = []
        sort = graphs._ccw_order

        def counted(offsets, v):
            calls.append(offsets)
            return sort(offsets, v)

        monkeypatch.setattr(graphs, "_ccw_order", counted)
        g = build_aztec_diamond(6)
        assert g.rotation == reference_rotation(g)
        distinct = {tuple((g.coords[u][0] - g.coords[v][0], g.coords[u][1] - g.coords[v][1])
                          for u in g.adj[v]) for v in range(g.n)}
        assert len(calls) == len(set(calls)) == len(distinct) < g.n // 4

    @pytest.mark.parametrize("spokes", [
        [(1, 0), (2, 0)],
        [(0, -1), (0, 1), (0, -3)],
        [(1 << 40, 1 << 41), (1, 2)],
    ])
    def test_collinear_neighbours_refused(self, spokes):
        g = star([(0, 0)], [spokes])
        with pytest.raises(GraphError, match="share a direction"):
            g.rotation


def components(g):
    """Vertex sets of the connected components of ``g``."""
    seen, comps = set(), []
    for s in range(g.n):
        if s not in seen:
            comp, stack = {s}, [s]
            while stack:
                for u in g.adj[stack.pop()]:
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            comps.append(comp)
    return comps


class TestFaces:
    @pytest.mark.parametrize("name, g", EMBEDDED, ids=[name for name, _ in EMBEDDED])
    def test_face_invariants(self, name, g):
        # the face tracer against walks traced here from the rotation alone
        faces = g.faces()
        walks = reference_walks(g)
        darts = [d for w in walks for d in w]
        assert sorted(darts) == sorted(d for u, v in g.edges for d in ((u, v), (v, u)))
        # both number faces in the order of their first dart, darts numbered
        # in rotation order vertex by vertex
        face_of = {d: i for i, w in enumerate(walks) for d in w}
        assert g.edge_faces == (tuple(face_of[(u, v)] for u, v in g.edges),
                                tuple(face_of[(v, u)] for u, v in g.edges))
        identity = {e: e for e in g.edges}
        assert [(f.area2, f.parity) for f in faces] == \
            [(walk_area2(g, w), clockwise_edges(identity, w) % 2) for w in walks]
        outer = [f for f in faces if not f.bounded]
        if name == "nested-island":
            assert len(outer) == 2
        for comp in components(g):
            edges = sum(u in comp for u, _ in g.edges)
            comp_faces = [f for f, w in zip(faces, walks) if w[0][0] in comp]
            # every face but the component's one outer walk has area2 > 0
            comp_outer = [f for f in comp_faces if f.area2 <= 0]
            assert len(comp_outer) == (1 if edges else 0)
            assert len(comp) - edges + len(comp_faces) == 1 + len(comp_outer)
            assert sum(f.area2 for f in comp_faces) == 0


class TestOrientationIdentity:
    @pytest.mark.parametrize("name, g", EMBEDDED, ids=[name for name, _ in EMBEDDED])
    def test_same_orientation_as_the_reference(self, name, g):
        for seed in range(4):
            reference = reference_orient(g, seed)
            assert kasteleyn_orient(g, seed) == \
                tuple(1 if reference[e] == e else -1 for e in g.edges)

    @pytest.mark.parametrize("name, g", EMBEDDED, ids=[name for name, _ in EMBEDDED])
    def test_one_sign_per_edge_and_each_flip_breaks_its_faces(self, name, g):
        walks = reference_walks(g)
        bounded = [walk_area2(g, w) > 0 for w in walks]
        face_of = {d: i for i, w in enumerate(walks) for d in w}
        for seed in range(2):
            signs = kasteleyn_orient(g, seed)
            assert type(signs) is tuple and len(signs) == len(g.edges)
            assert set(signs) <= {1, -1}
            orient = oriented(g, signs)
            for u, v in g.edges:
                # a bridge borders one face twice and carries no constraint
                sides = {face_of[(u, v)], face_of[(v, u)]}
                if len(sides) == 1:
                    continue
                orient[(u, v)] = orient[(u, v)][::-1]
                for f in sides:
                    if bounded[f]:
                        assert clockwise_edges(orient, walks[f]) % 2 == 0
                orient[(u, v)] = orient[(u, v)][::-1]


class TestKasteleynCount:
    def test_known_counts(self):
        for sides, expected in HEX_COUNTS.items():
            assert count_kasteleyn(build_hexagon(sides)) == expected
        for n, expected in DIAMOND_COUNTS.items():
            assert count_kasteleyn(build_aztec_diamond(n)) == expected

    def test_empty_graph(self):
        g = MatchGraph(labels=[], edges=[], coords=[], color=[])
        assert count_kasteleyn(g) == 1

    def test_imbalanced_returns_zero(self):
        g = build_hexagon((1, 2, 1, 2, 1, 2))  # one excess cell
        assert not g.is_balanced()
        assert count_kasteleyn(g) == 0

    def test_disconnected_region(self):
        # opposite holes cut the unit hexagon ring into two balanced paths
        sides = (1, 1, 1, 1, 1, 1)
        g = build_hexagon(sides)
        start = g.index[sorted(g.labels)[0]]
        dist = {start: 0}
        frontier = [start]
        while frontier:
            frontier = [
                u for v in frontier for u in g.adj[v]
                if dist.setdefault(u, dist[v] + 1) == dist[v] + 1
            ]
        opposite = next(v for v, d in dist.items() if d == 3)
        h = build_hexagon(sides, holes=[g.labels[start], g.labels[opposite]])
        assert len(component_sizes(h)) > 1
        assert count_brute(h) == count_kasteleyn(h) == 1

    def test_nested_island(self):
        g = nested_island_hexagon()
        assert component_sizes(g) == [6, 42]
        assert count_kasteleyn(g) == count_brute(g) == 32
        assert {kasteleyn_det(g, s) for s in range(6)} == {32}

    def test_disconnected_aztec_subgraphs(self):
        # deleting the ends of a few edges cuts diamonds into pieces; every
        # piece needs its own dual tree for its faces to come out odd
        rng = random.Random(1)
        diamonds = [build_aztec_diamond(n) for n in (3, 4)]
        checked = nonzero = 0
        while checked < 40:
            g = rng.choice(diamonds)
            cut = rng.sample(g.edges, rng.randint(1, 4))
            h = g.delete_vertices({v for e in cut for v in e})
            if len(component_sizes(h)) == 1:
                continue
            orient = oriented(h, kasteleyn_orient(h))
            for walk in bounded_walks(h):
                assert clockwise_edges(orient, walk) % 2 == 1
            count = count_brute(h)
            assert count_kasteleyn(h) == count
            checked += 1
            nonzero += count > 0
        assert nonzero >= 10

    def test_balanced_graph_with_imbalanced_components(self):
        # a path of 3 vertices next to a single vertex of the other class
        g = MatchGraph(labels=range(4), edges=[(0, 1), (1, 2)],
                       coords=[(0, 0), (1, 0), (2, 0), (5, 0)], color=[0, 1, 0, 1])
        assert g.is_balanced()
        assert count_kasteleyn(g) == count_brute(g) == 0

    def test_orientation_seed_invariance(self):
        for g in (build_hexagon((2, 2, 2, 2, 2, 2)), build_aztec_window(1, 2)):
            counts = {kasteleyn_det(g, s) for s in range(6)}
            assert len(counts) == 1


class TestPlaneEmbedding:
    # drawings whose face walks are not those of a plane embedding, with
    # their true counts; without the check they counted 1, 0 and 1
    NOT_PLANE = {
        # V - E + F = 8 - 10 + 2: the walks lie on a torus
        "crossing": ([0] * 4 + [1] * 4,
                     [(0, 5), (0, 6), (1, 5), (1, 6), (1, 7), (2, 5), (2, 7), (3, 4), (3, 5),
                      (3, 7)],
                     [(1, 0), (-2, -3), (-2, 0), (3, -2), (-4, -3), (4, 2), (-4, -1), (1, 0)],
                     3),
        # a 4-cycle drawn as a bowtie: two walks of area 0, both outer
        "bowtie": ([0, 0, 1, 1], [(0, 2), (0, 3), (1, 2), (1, 3)],
                   [(0, 2), (3, -1), (-2, -2), (-3, -1)], 2),
        # V - E + F = 6 - 7 + 1: one walk of all 14 darts
        "one-walk": ([0] * 3 + [1] * 3, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (2, 5)],
                     [(1, 3), (-2, 0), (3, 3), (2, -2), (-3, 0), (2, 0)], 3),
    }

    @pytest.mark.parametrize("name", NOT_PLANE)
    def test_recorded_drawings_refused(self, name):
        color, edges, coords, count = self.NOT_PLANE[name]
        g = MatchGraph(range(len(color)), edges, coords=coords, color=color)
        assert count_brute(g) == count
        with pytest.raises(GraphError, match="not a plane embedding"):
            count_kasteleyn(g)

    def test_random_drawings_counted_right_or_refused(self):
        # random bipartite graphs on random points: Kasteleyn either refuses
        # the drawing or agrees with brute
        rng = random.Random(5)
        counted = refused = 0
        for _ in range(400):
            m = rng.randint(1, 5)
            edges = [(i, m + j) for i in range(m) for j in range(m) if rng.random() < 0.5]
            coords = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2 * m)]
            g = MatchGraph(range(2 * m), edges, coords=coords, color=[0] * m + [1] * m)
            try:
                count = count_kasteleyn(g)
            except GraphError as exc:
                refused += "not a plane embedding" in str(exc)
                continue
            assert count == count_brute(g), (edges, coords)
            counted += count > 0
        assert counted >= 50 and refused >= 50, (counted, refused)


class TestKasteleynLimit:
    def test_class_size_bound_is_exact(self, monkeypatch):
        g = build_aztec_diamond(3)  # 12 cells in each class
        monkeypatch.setattr(counting, "KASTELEYN_LIMIT", 12)
        assert count_kasteleyn(g) == 64
        monkeypatch.setattr(counting, "KASTELEYN_LIMIT", 11)
        with pytest.raises(BoundError, match="class size 12"):
            count_kasteleyn(g)
        with pytest.raises(BoundError):
            counting.signed_biadjacency(g)

    def test_refused_before_the_orientation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the faces were walked")

        monkeypatch.setattr(counting, "kasteleyn_orient", fail)
        refusals = [
            (build_hypercube(3), GraphError, "a Kasteleyn matrix needs an embedding"),
            (MatchGraph(labels=range(2), edges=[(0, 1)], coords=[(0, 0), (1, 0)]),
             GraphError, "a Kasteleyn matrix needs a bipartition"),
            # 2070 cells in each class
            (build_aztec_diamond(45), BoundError, "exceeds the Kasteleyn limit 2048"),
        ]
        for g, error, message in refusals:
            for entry in (count_kasteleyn, kasteleyn_matrix):
                with pytest.raises(error, match=message):
                    entry(g)
        # the balance comes before the limit: the matrix is refused, the count is 0
        monkeypatch.setattr(counting, "KASTELEYN_LIMIT", 1)
        g = build_hexagon((1, 2, 1, 2, 1, 2))  # one excess cell
        with pytest.raises(GraphError, match="bipartition classes have sizes 6 != 7"):
            kasteleyn_matrix(g)
        assert count_kasteleyn(g) == 0


class TestOracleAgreement:
    def test_corpus_of_small_regions(self):
        rng = random.Random(20240)
        regions = []
        while len(regions) < 50:
            _, g = random_region(rng)
            if g.n <= 32:
                regions.append(g)
        for g in regions:
            reference = count_brute(g)
            if g.coords is not None:
                assert count_kasteleyn(g) == reference
            if g.color is not None and g.is_balanced() and g.n // 2 <= 20:
                assert count_permanent(g) == reference


class TestCountAuto:
    def test_unembedded_bipartite_graph_goes_to_the_permanent(self, monkeypatch):
        def no_search(g):
            raise AssertionError("backtracking search started")

        monkeypatch.setattr(counting, "count_brute", no_search)
        assert count_auto(build_hypercube(4)) == CUBE_COUNTS[4]
        # 64 vertices pass the brute bound, but 32 columns are refused
        with pytest.raises(BoundError, match="permanent limit"):
            count_auto(build_hypercube(6))

    def test_uncolored_graph_goes_to_brute(self):
        assert count_auto(cycle_graph(7)) == 0
        # two triangles joined by the edge (0, 3), which every matching uses
        assert count_auto(MatchGraph(labels=range(6), edges=[
            (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])) == 1

    def test_uncolored_graph_past_the_brute_limit_keeps_its_refusal(self):
        g = MatchGraph(labels=range(66), edges=[(i, (i + 1) % 66) for i in range(66)])
        with pytest.raises(BoundError, match="66 vertices exceeds the brute-force limit 64"):
            count_auto(g)


class TestForcedEdges:
    def test_forced_count_at_most_total(self):
        g = build_hexagon((2, 2, 2, 2, 2, 2))
        total = count_brute(g)
        for e in g.edges[:8]:
            assert count_with_forced_edge(g, e) <= total

    def test_central_edge_of_112112(self):
        g = build_hexagon((1, 1, 2, 1, 1, 2))
        e = g.edge_by_labels(*central_rhombus_edge((1, 1, 2, 1, 1, 2)))
        assert count_with_forced_edge(g, e) == 1

    def test_four_cycle_edges(self):
        g = build_aztec_diamond(1)
        for e in g.edges:
            assert count_with_forced_edge(g, e) == 1
            assert containment_ratio(g, e) == Fraction(1, 2)

    def test_edge_decomposition(self):
        # matchings at any vertex split by which incident edge covers it
        for g in (build_hexagon((2, 2, 2, 2, 2, 2)), build_aztec_diamond(2)):
            total = count_brute(g)
            for v in range(0, g.n, 5):
                incident = [e for e in g.edges if v in e]
                assert sum(count_with_forced_edge(g, e) for e in incident) == total

    def test_forcing_equals_filtering(self):
        g = build_aztec_diamond(2)
        matchings = list(enumerate_matchings(g))
        for e in g.edges:
            assert count_with_forced_edge(g, e) == sum(1 for m in matchings if e in m)

    def test_non_edge_rejected(self):
        g = build_aztec_diamond(1)
        non_edge = next(
            (u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        with pytest.raises(GraphError):
            count_with_forced_edge(g, non_edge)

    def test_edge_outside_the_vertices_rejected(self):
        g = build_aztec_diamond(1)
        for e in ((-1, g.adj[-1][0]), (0.0, g.adj[0][0]), (g.n, 0)):
            assert not g.has_edge(*e)
            with pytest.raises(GraphError):
                count_with_forced_edge(g, e)

    @pytest.mark.parametrize("e", [(0, 1, 2), (0,), 5, None])
    def test_edge_that_is_not_a_pair_rejected(self, e):
        # each ended in a bare ValueError or TypeError from unpacking
        g = build_aztec_diamond(1)
        with pytest.raises(GraphError, match="forced edge .* is not a pair"):
            count_with_forced_edge(g, e)

    def test_ratio_needs_nonzero_total(self):
        g = build_aztec_window(2, 1)  # zero tilings
        with pytest.raises(GraphError):
            containment_ratio(g, g.edges[0])

    def test_problem1_ratios(self):
        for sides in ((1, 1, 2, 1, 1, 2), (3, 3, 4, 3, 3, 4)):
            g = build_hexagon(sides)
            e = g.edge_by_labels(*central_rhombus_edge(sides))
            assert containment_ratio(g, e) == Fraction(1, 3)


def det_fraction(m):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    assert det.denominator == 1
    return det.numerator


def sparse(m):
    """The rows of a dense matrix as ``det_bareiss`` takes them:
    ``{column: value}`` over the nonzeros."""
    return [{j: v for j, v in enumerate(row) if v} for row in m]


# sparse rows that are not an n x n integer matrix, and the error of the
# one row check (``counting.check_rows``)
MALFORMED_ROWS = [
    ([[1, 2], [3, 4]], TypeError),  # dense rows
    ([{0: 1, -1: 2}, {0: 3, 1: 4}], ValueError),  # would index from the end
    ([{0: 1}, {2: 1}], ValueError),  # a column past n
    ([{0: 1, 1: 1}, {0: 1, 1: 1.0000001}], TypeError),  # would truncate to 0
    ([{0: 2}, {1: 3.0}], TypeError),
    ([{0: True}], TypeError),
    ([{True: 1}], TypeError),
    ([{}, {0: 1.5}], TypeError),  # checked before an empty row gives 0
]


def banded_matrix(rng, n, lo, hi, density=0.6, span=3):
    """Random integer matrix whose nonzeros lie within lo diagonals below
    and hi diagonals above the main diagonal."""
    return [
        [rng.randint(-span, span) if -lo <= j - i <= hi and rng.random() < density
         else 0 for j in range(n)]
        for i in range(n)
    ]


def macmahon(a, b, c):
    """Lozenge tilings of the hexagon (a, b, c, a, b, c): MacMahon's box
    formula, the product over the a x b x c box of (i+j+k-1)/(i+j+k-2)."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                num *= i + j + k - 1
                den *= i + j + k - 2
    return num // den


class TestBareiss:
    def test_small_determinants(self):
        assert det_bareiss([]) == 1
        assert det_bareiss(sparse([[7]])) == 7
        assert det_bareiss(sparse([[1, 2], [3, 4]])) == -2
        assert det_bareiss(sparse([[1, 2], [2, 4]])) == 0

    def test_against_fraction_elimination(self):
        rng = random.Random(7)
        for trial in range(30):
            n = rng.randint(1, 7)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(sparse(m)) == det_fraction(m)

    def test_banded_against_fraction_elimination(self):
        rng = random.Random(11)
        for trial in range(300):
            n = rng.randint(1, 14)
            lo, hi = rng.randint(0, n - 1), rng.randint(0, n - 1)
            m = banded_matrix(rng, n, lo, hi, density=rng.choice((0.3, 0.7, 1.0)))
            assert det_bareiss(sparse(m)) == det_fraction(m), m

    def test_sparse_zero_one_matrices(self):
        # many zero entries: cancellations, fill, and columns emptied early
        rng = random.Random(12)
        for trial in range(300):
            n = rng.randint(2, 14)
            lo, hi = rng.randint(1, 3), rng.randint(0, 3)
            m = banded_matrix(rng, n, lo, hi, density=0.4, span=1)
            m = [[abs(v) for v in row] for row in m]
            assert det_bareiss(sparse(m)) == det_fraction(m), m

    def test_forced_zero_pivots(self):
        # a zero diagonal: no pivot may come from the diagonal
        rng = random.Random(13)
        for trial in range(100):
            n = rng.randint(2, 12)
            m = banded_matrix(rng, n, rng.randint(1, 3), rng.randint(1, 3), density=0.9)
            for k in range(n):
                m[k][k] = 0
            assert det_bareiss(sparse(m)) == det_fraction(m), m

    def test_triangular(self):
        # each column has one live row when it is pivoted on, so no row is
        # ever updated: every pivot row is brought up to date from stamp 1
        rng = random.Random(14)
        for trial in range(50):
            n = rng.randint(1, 12)
            upper = banded_matrix(rng, n, 0, rng.randint(0, n - 1), density=0.8)
            for k in range(n):
                upper[k][k] = rng.choice((-3, -2, -1, 1, 2, 3))
            diag = math.prod(upper[k][k] for k in range(n))
            lower = [list(col) for col in zip(*upper)]
            assert det_bareiss(sparse(upper)) == diag
            assert det_bareiss(sparse(lower)) == diag

    def test_zero_rows_and_columns(self):
        rng = random.Random(15)
        for trial in range(50):
            n = rng.randint(1, 10)
            m = banded_matrix(rng, n, 2, 2, density=1.0)
            r = rng.randrange(n)
            if trial % 2:
                m[r] = [0] * n
            else:
                for row in m:
                    row[r] = 0
            assert det_bareiss(sparse(m)) == 0

    def test_singular(self):
        # a row that is the sum of its two upper neighbours
        rng = random.Random(16)
        for trial in range(50):
            n = rng.randint(3, 12)
            m = banded_matrix(rng, n, 2, 2, density=0.8)
            r = rng.randrange(2, n)
            m[r] = [a + b for a, b in zip(m[r - 1], m[r - 2])]
            assert det_bareiss(sparse(m)) == 0

    def test_full_width_dense(self):
        rng = random.Random(17)
        for trial in range(30):
            n = rng.randint(2, 10)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m[n - 1][0] = rng.choice((-1, 1))  # bandwidths n-1 on both sides
            m[0][n - 1] = rng.choice((-1, 1))
            assert det_bareiss(sparse(m)) == det_fraction(m)
        for n in range(1, 9):
            anti = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
            assert det_bareiss(sparse(anti)) == (-1) ** (n * (n - 1) // 2)

    def test_stale_rows_are_brought_up_to_date(self):
        # columns 1 and 3 have one row each and go first, so rows 0 and 2
        # keep stamp 1 while the pivots grow to 6, and are brought up to
        # date only when they are updated or pivoted on
        swapped = [[2, 0, 3, 0], [1, 0, 1, 2], [1, 0, 1, 0], [0, 3, 0, 0]]
        assert det_bareiss(sparse(swapped)) == det_fraction(swapped) == 6
        # column 3 has one row and goes first, so rows 0 to 2 are all stale
        # (stamp 1, pivot 4) when the next column is pivoted on
        stale_last = [[2, 2, 0, 0], [1, 1, 5, 0], [0, 3, 1, 0], [0, 0, 0, 4]]
        assert det_bareiss(sparse(stale_last)) == det_fraction(stale_last) == -120
        rng = random.Random(19)
        for trial in range(200):  # a zero factor in every other row
            n = rng.randint(3, 12)
            m = banded_matrix(rng, n, 2, 2, density=0.8)
            for i in range(1, n - 1, 2):
                m[i][i - 1] = 0
            assert det_bareiss(sparse(m)) == det_fraction(m), m

    def test_input_unchanged(self):
        # an updated row is a new dict: pivot rows, stale rows and fill
        # must leave the caller's list and dicts untouched
        rng = random.Random(18)
        cases = [
            banded_matrix(rng, 9, 2, 2, density=1.0),
            [[2, 0, 3, 0], [1, 0, 1, 2], [1, 0, 1, 0], [0, 3, 0, 0]],
            [[2, 2, 0, 0], [1, 1, 5, 0], [0, 3, 1, 0], [0, 0, 0, 4]],
            [[2, 1, 5], [0, 3, 1], [0, 0, -4]],  # triangular: no row updated
        ]
        for trial in range(100):
            n = rng.randint(2, 12)
            m = banded_matrix(rng, n, rng.randint(1, 3), rng.randint(1, 3), density=0.9)
            for k in range(0, n, 1 + trial % 2):  # every diagonal entry, or every other
                m[k][k] = 0
            cases.append(m)
        for m in cases:
            rows = sparse(m)
            listed = list(rows)
            copies = [dict(row) for row in rows]
            assert det_bareiss(rows) == det_fraction(m), m
            assert len(rows) == len(listed) and all(r is s for r, s in zip(rows, listed)), m
            assert rows == copies, m

    def test_sparse_row_edge_cases(self):
        # n = 1: the one row is the one pivot
        assert det_bareiss([{0: 7}]) == 7
        assert det_bareiss([{0: -3}]) == -3
        # an empty row gives 0, wherever it is
        assert det_bareiss([{}]) == 0
        assert det_bareiss([{}, {0: 1, 1: 1}]) == 0
        assert det_bareiss([{0: 1, 1: 2}, {}]) == 0
        assert det_bareiss([{0: 1}, {}, {2: 5}]) == 0
        # a column that no row meets: first, inner and last
        assert det_bareiss([{1: 1, 2: 1}, {1: 2, 2: 3}, {1: 5, 2: 1}]) == 0
        assert det_bareiss([{0: 1, 2: 1}, {0: 2, 2: 3}, {0: 5, 2: 1}]) == 0
        assert det_bareiss([{0: 1, 1: 1}, {0: 2, 1: 3}, {0: 5, 1: 1}]) == 0
        # triangular with a zero diagonal: column 1's only row is column
        # 0's pivot row, so column 1 is left without rows
        assert det_bareiss([{0: 1, 1: 1}, {2: 1}, {2: 1}]) == 0
        # triangular: no row is updated, and each pivot row is brought up
        # to date from stamp 1
        assert det_bareiss([{0: 2, 1: 1, 2: 5}, {1: 3, 2: 1}, {2: -4}]) == -24
        assert det_bareiss([{0: 2, 3: 1}, {1: -1}, {2: 3, 3: 7}, {3: 5}]) == -30
        rng = random.Random(20)
        for trial in range(100):
            n = rng.randint(1, 12)
            upper = banded_matrix(rng, n, 0, rng.randint(0, n - 1), density=0.7)
            upper[n - 1][n - 1] = rng.choice((-2, -1, 1, 2))
            assert det_bareiss(sparse(upper)) == det_fraction(upper), upper

    def test_stored_zeros_are_not_pivots(self):
        assert det_bareiss([{0: 0, 1: 1}, {0: 1, 1: 0}]) == -1
        assert det_bareiss([{0: 0}]) == 0
        assert det_bareiss([{0: 2, 1: 0}, {0: 0, 1: 3}]) == 6
        rows = [{0: 0, 1: 2}, {0: 1}]
        assert det_bareiss(rows) == -2
        assert rows == [{0: 0, 1: 2}, {0: 1}]

    @pytest.mark.parametrize("rows,error", MALFORMED_ROWS)
    def test_malformed_rows_refused(self, rows, error):
        with pytest.raises(error):
            det_bareiss(rows)


def permutation_sign(p):
    """(-1)^(number of inversions of p)."""
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


class TestMinimumDegreePivoting:
    def test_permuted_rows_and_columns(self):
        # det(P A Q) = sgn(P) sgn(Q) det(A): the same matrix under other
        # labels takes another pivot sequence, and the sign must follow it
        rng = random.Random(21)
        for trial in range(300):
            n = rng.randint(1, 10)
            density = rng.choice((0.2, 0.35, 0.5, 0.8))
            a = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(n)]
            p, q = list(range(n)), list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            b = [[a[p[i]][q[j]] for j in range(n)] for i in range(n)]
            det = det_fraction(a)
            assert det_bareiss(sparse(a)) == det, a
            assert det_bareiss(sparse(b)) == permutation_sign(p) * permutation_sign(q) * det, (a, p, q)

    def test_cancel_and_refill(self):
        # small entries cancel exactly, and a row that loses a column by
        # cancellation can regain it as fill: it leaves that column's list
        # on the cancellation and rejoins it on the fill
        rng = random.Random(22)
        for trial in range(1000):
            n = rng.randint(1, 10)
            density = rng.choice((0.2, 0.4, 0.6, 0.8, 1.0))
            m = [[rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 3 == 0:
                m[rng.randrange(n)] = list(m[rng.randrange(n)])
            assert det_bareiss(sparse(m)) == det_fraction(m), m

    def test_column_emptied_by_cancellation(self):
        # column 0 is pivoted on row 0, and row 1's entry in column 1
        # cancels to 0: column 1 is left without rows
        assert det_bareiss([{0: 1, 1: 1}, {0: 1, 1: 1}]) == 0
        assert det_bareiss([{0: 2, 1: 1, 2: 1}, {0: 4, 1: 2, 2: 1}, {2: 1}]) == 0
        # row 3 loses column 2 by cancellation at the first step (column 0),
        # leaving column 2's list, and regains it as fill at the second
        # (column 3), rejoining the list
        refill = [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 1, 0]]
        assert det_bareiss(sparse(refill)) == det_fraction(refill) == 0


class TestKasteleynClosedForms:
    @pytest.mark.parametrize("n", [12, 20])
    def test_aztec_diamond(self, n):
        # Elkies-Kuperberg-Larsen-Propp: 2^(n(n+1)/2) domino tilings
        assert count_kasteleyn(build_aztec_diamond(n)) == 2 ** (n * (n + 1) // 2)

    @pytest.mark.parametrize("abc", [(4, 4, 4), (6, 8, 10), (8, 8, 8)])
    def test_macmahon_hexagon(self, abc):
        assert count_kasteleyn(build_hexagon(abc * 2)) == macmahon(*abc)

    def test_orientation_seed_invariance_at_scale(self):
        g = build_aztec_diamond(12)
        counts = {kasteleyn_det(g, s) for s in range(4)}
        assert counts == {2 ** 78}


class TestSparseK:
    def test_one_entry_per_edge(self):
        # row r of K holds exactly the edges of its class-0 vertex, as +-1
        for g in (build_aztec_diamond(5), nested_island_hexagon(),
                  build_hexagon((2, 3, 4, 2, 3, 4))):
            rows = counting.signed_biadjacency(g)
            pos = g.class_pos
            assert len(rows) == len(g.classes[0])
            for v, row in zip(g.classes[0], rows):
                assert len(row) == g.degree(v)
                assert set(row) == {pos[u] for u in g.adj[v]}
                assert set(row.values()) <= {-1, 1}

    def test_spectra_holds_the_same_rows(self):
        # one copy of K: spectra's matrix is signed_biadjacency's rows
        for g in (build_aztec_diamond(5), nested_island_hexagon(),
                  build_hexagon((2, 3, 4, 2, 3, 4))):
            for s in range(3):
                assert kasteleyn_matrix(g, seed=s).rows == \
                    tuple(counting.signed_biadjacency(g, seed=s))

    def test_count_holds_no_dense_matrix(self):
        # the order-20 diamond's dense K alone took ~1.4 MiB of list slots
        g = build_aztec_diamond(20)
        g.faces()
        tracemalloc.start()
        try:
            assert count_kasteleyn(g) == 2 ** 210
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
