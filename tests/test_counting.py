import math
import random
from fractions import Fraction

import pytest

from matchenum import (
    BoundError,
    GraphError,
    MatchGraph,
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
from matchenum import counting, spectra

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


def clockwise_edges(orient, face):
    """Edges of a bounded face oriented clockwise (the walk runs
    counter-clockwise, so such an edge opposes its dart)."""
    return sum(1 for a, b in face.darts
               if orient[(a, b) if a < b else (b, a)] == (b, a))


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

    def test_node_budget(self, monkeypatch):
        # the order-4 diamond's search tries exactly 4405 partners
        g = build_aztec_diamond(4)
        monkeypatch.setattr(counting, "BRUTE_NODE_LIMIT", 4405)
        assert count_brute(g) == 1024
        monkeypatch.setattr(counting, "BRUTE_NODE_LIMIT", 4404)
        with pytest.raises(BoundError, match="node limit 4404"):
            count_brute(g)
        with pytest.raises(BoundError, match="node limit 4404"):
            list(enumerate_matchings(g))

    def test_enumeration_matches_count(self):
        cases = [(build_hexagon(sides), count) for sides, count in HEX_COUNTS.items()]
        cases.append((build_hypercube(4), CUBE_COUNTS[4]))  # no embedding
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

    def test_hypercubes(self):
        for n, expected in CUBE_COUNTS.items():
            assert count_permanent(build_hypercube(n)) == expected

    def test_against_brute_on_lattice_regions(self):
        for sides in HEX_COUNTS:
            g = build_hexagon(sides)
            assert count_permanent(g) == HEX_COUNTS[sides]

    def test_imbalanced_rejected(self):
        g = MatchGraph(labels=range(3), edges=[(0, 1), (1, 2)], color=[0, 1, 0])
        with pytest.raises(GraphError):
            count_permanent(g)

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
        for seed in range(3):
            orient = kasteleyn_orient(g, seed=seed)
            for face in g.bounded_faces():
                assert clockwise_edges(orient, face) % 2 == 1

    def test_four_cycle_condition(self):
        g = build_aztec_diamond(1)
        orient = kasteleyn_orient(g)
        (face,) = g.bounded_faces()
        assert clockwise_edges(orient, face) in (1, 3)

    def test_needs_embedding(self):
        with pytest.raises(GraphError):
            kasteleyn_orient(build_hypercube(3))

    def test_disconnected_embedding(self):
        # two components, no bounded face: every edge is oriented and kept
        g = MatchGraph(labels=range(4), edges=[(0, 1), (2, 3)],
                       coords=[(0, 0), (1, 0), (5, 0), (6, 0)], color=[0, 1, 0, 1])
        assert component_sizes(g) == [2, 2]
        assert kasteleyn_orient(g) == {(0, 1): (0, 1), (2, 3): (2, 3)}
        assert count_kasteleyn(g) == 1


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
        assert {count_kasteleyn(g, seed=s) for s in range(6)} == {32}

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
            orient = kasteleyn_orient(h)
            for face in h.bounded_faces():
                assert clockwise_edges(orient, face) % 2 == 1
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
            counts = {count_kasteleyn(g, seed=s) for s in range(6)}
            assert len(counts) == 1


class TestKasteleynLimit:
    def test_class_size_bound_is_exact(self, monkeypatch):
        g = build_aztec_diamond(3)  # 12 cells in each class
        monkeypatch.setattr(counting, "KASTELEYN_LIMIT", 12)
        assert count_kasteleyn(g) == 64
        monkeypatch.setattr(counting, "KASTELEYN_LIMIT", 11)
        with pytest.raises(BoundError, match="class size 12"):
            count_kasteleyn(g)
        with pytest.raises(BoundError):
            counting.signed_biadjacency(g, kasteleyn_orient(g))

    def test_refused_before_the_orientation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the faces were walked")

        monkeypatch.setattr(counting, "kasteleyn_orient", fail)
        monkeypatch.setattr(spectra, "kasteleyn_orient", fail)
        refusals = [
            (build_hypercube(3), GraphError, "{} needs an embedding"),
            (MatchGraph(labels=range(2), edges=[(0, 1)], coords=[(0, 0), (1, 0)]),
             GraphError, "{} needs a bipartition"),
            # 2070 cells in each class
            (build_aztec_diamond(45), BoundError, "exceeds the Kasteleyn limit 2048"),
        ]
        for g, error, message in refusals:
            for entry in (count_kasteleyn, kasteleyn_matrix):
                with pytest.raises(error, match=message.format(entry.__name__)):
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
        assert det_bareiss([[7]]) == 7
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    def test_against_fraction_elimination(self):
        rng = random.Random(7)
        for trial in range(30):
            n = rng.randint(1, 7)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(m) == det_fraction(m)

    def test_banded_against_fraction_elimination(self):
        rng = random.Random(11)
        for trial in range(300):
            n = rng.randint(1, 14)
            lo, hi = rng.randint(0, n - 1), rng.randint(0, n - 1)
            m = banded_matrix(rng, n, lo, hi, density=rng.choice((0.3, 0.7, 1.0)))
            assert det_bareiss(m) == det_fraction(m), m

    def test_sparse_zero_one_matrices(self):
        # many zero pivots: swaps inside the band, or an early zero result
        rng = random.Random(12)
        for trial in range(300):
            n = rng.randint(2, 14)
            lo, hi = rng.randint(1, 3), rng.randint(0, 3)
            m = banded_matrix(rng, n, lo, hi, density=0.4, span=1)
            m = [[abs(v) for v in row] for row in m]
            assert det_bareiss(m) == det_fraction(m), m

    def test_forced_zero_pivots(self):
        # a zero diagonal makes every step before the first swap pivot on 0
        rng = random.Random(13)
        for trial in range(100):
            n = rng.randint(2, 12)
            m = banded_matrix(rng, n, rng.randint(1, 3), rng.randint(1, 3), density=0.9)
            for k in range(n):
                m[k][k] = 0
            assert det_bareiss(m) == det_fraction(m), m

    def test_triangular(self):
        # lo = 0 leaves every row, the last one included, to lazy scaling
        rng = random.Random(14)
        for trial in range(50):
            n = rng.randint(1, 12)
            upper = banded_matrix(rng, n, 0, rng.randint(0, n - 1), density=0.8)
            for k in range(n):
                upper[k][k] = rng.choice((-3, -2, -1, 1, 2, 3))
            diag = math.prod(upper[k][k] for k in range(n))
            lower = [list(col) for col in zip(*upper)]
            assert det_bareiss(upper) == diag
            assert det_bareiss(lower) == diag

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
            assert det_bareiss(m) == 0

    def test_singular(self):
        # a row that is the sum of its two upper neighbours
        rng = random.Random(16)
        for trial in range(50):
            n = rng.randint(3, 12)
            m = banded_matrix(rng, n, 2, 2, density=0.8)
            r = rng.randrange(2, n)
            m[r] = [a + b for a, b in zip(m[r - 1], m[r - 2])]
            assert det_bareiss(m) == 0

    def test_full_width_dense(self):
        rng = random.Random(17)
        for trial in range(30):
            n = rng.randint(2, 10)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m[n - 1][0] = rng.choice((-1, 1))  # bandwidths n-1 on both sides
            m[0][n - 1] = rng.choice((-1, 1))
            assert det_bareiss(m) == det_fraction(m)
        for n in range(1, 9):
            anti = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
            assert det_bareiss(anti) == (-1) ** (n * (n - 1) // 2)

    def test_input_unchanged(self):
        m = banded_matrix(random.Random(18), 9, 2, 2, density=1.0)
        before = [row[:] for row in m]
        det_bareiss(m)
        assert m == before


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
        counts = {count_kasteleyn(g, seed=s) for s in range(4)}
        assert counts == {2 ** 78}
