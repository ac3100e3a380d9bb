import json
import time

import pytest

from matchenum import (
    MatchGraph,
    RegionError,
    RegionSpec,
    TriCell,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_aztec_window,
    build_hexagon,
    build_hypercube,
    central_rhombus_edge,
    hexagon_cell_count,
    hexagon_cells,
)
from matchenum.regions import (
    REGION_CELL_LIMIT,
    aztec_diamond_cells,
    aztec_rectangle_cells,
    aztec_window_cell_count,
    aztec_window_cells,
    validate_hex_sides,
)
from test_counting import bounded_walks


def all_hex_side_tuples(max_side):
    """Every valid closure tuple with sides in 0..max_side."""
    out = []
    for s1 in range(max_side + 1):
        for s2 in range(max_side + 1):
            for s3 in range(max_side + 1):
                for k in range(-max_side, max_side + 1):
                    sides = (s1, s2, s3, s1 - k, s2 + k, s3 - k)
                    if all(0 <= s <= max_side for s in sides):
                        out.append(sides)
    return out


def centroid_hexagon_cells(sides):
    """Reference: the unit triangles whose centroid lies strictly left of
    every nonzero side of the counter-clockwise boundary walk, found by a
    bounding-box scan; centroids are scaled by 3 to stay integral."""
    steps = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    corners = [(0, 0)]
    for length, (da, db) in zip(sides, steps):
        a, b = corners[-1]
        corners.append((a + length * da, b + length * db))
    edges = [
        (p, (q[0] - p[0], q[1] - p[1]))
        for p, q, length in zip(corners, corners[1:], sides) if length
    ]
    if not edges:
        return set()
    cells = set()
    for x in range(min(a for a, _ in corners) - 1, max(a for a, _ in corners) + 2):
        for y in range(min(b for _, b in corners) - 1, max(b for _, b in corners) + 2):
            for orient, (cx, cy) in (("up", (3 * x + 1, 3 * y + 1)),
                                     ("down", (3 * x + 2, 3 * y + 2))):
                if all(dx * (cy - 3 * py) - dy * (cx - 3 * px) > 0
                       for (px, py), (dx, dy) in edges):
                    cells.add(TriCell(x, y, orient))
    return cells


def square_scan(inside, radius):
    """Reference: the squares (i, j) with |i|, |j| <= radius that satisfy
    the predicate ``inside``."""
    span = range(-radius, radius + 1)
    return {(i, j) for i in span for j in span if inside(i, j)}


def diamond_scan(n):
    return square_scan(lambda i, j: abs(2 * i + 1) + abs(2 * j + 1) <= 2 * n, n)


def rectangle_scan(a, b):
    return square_scan(
        lambda i, j: abs(i + j + 1) <= a and -a <= i - j <= 2 * b - a, a + b + 1
    )


def central_midpoint_hits(sides):
    """Reference: the UP/DOWN edges of the hexagon whose doubled shared-edge
    midpoint is the doubled centre (a-b, a+b), by searching every edge."""
    g = build_hexagon(sides)
    a, b = sides[0], sides[2]
    center2 = (a - b, a + b)
    hits = []
    for u, v in g.edges:
        cu, cv = g.labels[u], g.labels[v]
        if cu.orient == "down":
            cu, cv = cv, cu
        if cv == TriCell(cu.x, cu.y, "down"):
            mid2 = (2 * cu.x + 1, 2 * cu.y + 1)
        elif cv == TriCell(cu.x - 1, cu.y, "down"):
            mid2 = (2 * cu.x, 2 * cu.y + 1)
        else:
            mid2 = (2 * cu.x + 1, 2 * cu.y)
        if mid2 == center2:
            hits.append((cu, cv))
    return hits


class TestMatchGraph:
    def test_rejects_self_loops(self):
        from matchenum import GraphError

        with pytest.raises(GraphError):
            MatchGraph(labels=[0, 1], edges=[(0, 0)])

    def test_rejects_duplicate_edges(self):
        from matchenum import GraphError

        with pytest.raises(GraphError):
            MatchGraph(labels=[0, 1], edges=[(0, 1), (1, 0)])

    def test_rejects_monochromatic_edges(self):
        from matchenum import GraphError

        with pytest.raises(GraphError):
            MatchGraph(labels=[0, 1], edges=[(0, 1)], color=[0, 0])

    def test_stored_split(self):
        from matchenum import GraphError

        g = MatchGraph(labels="abcde", edges=[(0, 1), (1, 2), (3, 4)],
                       color=[0, 1, 0, 1, 0])
        assert g.classes == ((0, 2, 4), (1, 3))
        assert g.class_pos == (0, 0, 1, 1, 2)
        assert g.class_sizes() == (3, 2)
        with pytest.raises(GraphError, match="bipartition classes have sizes 3 != 2"):
            g.balanced_classes()
        assert g.delete_vertices([4]).balanced_classes() == ((0, 2), (1, 3))
        assert MatchGraph(labels=[0], edges=[]).classes is None

    def test_rejects_duplicate_labels(self):
        from matchenum import GraphError

        with pytest.raises(GraphError):
            MatchGraph(labels=["a", "a"], edges=[])

    @pytest.mark.parametrize("coords", [
        [(0.9, 0), (1.5, 0)],
        [(0, 0), (1, 0.0)],
        [(True, 0), (0, 1)],
        [("0", 0), (1, 0)],
    ])
    def test_rejects_coords_that_are_not_integer_pairs(self, coords):
        # int() would store (0.9, 0), (1.5, 0) as (0, 0), (1, 0), another drawing
        from matchenum import GraphError

        with pytest.raises(GraphError, match="coords must be integer pairs"):
            MatchGraph(labels=[0, 1], edges=[(0, 1)], coords=coords)

    @pytest.mark.parametrize("color", [[0.0, 1.0], [False, True], [0, 2], ["0", "1"]])
    def test_rejects_colors_that_are_not_int_zero_or_one(self, color):
        # [0.0, 1.0] would index the class tuple by a float, and [False, True]
        # would be stored as a colouring of bools
        from matchenum import GraphError

        with pytest.raises(GraphError, match="bipartition must assign 0/1"):
            MatchGraph(labels=[0, 1], edges=[(0, 1)], color=color)

    @pytest.mark.parametrize("edges", [[(0.0, 1)], [(False, True)], [(0, True)], [("0", 1)]])
    def test_rejects_edges_that_are_not_integer_indices(self, edges):
        # (0.0, 1) cannot index the adjacency lists, and (False, True) would
        # be stored as an edge of bools
        from matchenum import GraphError

        with pytest.raises(GraphError, match="must join integer vertex indices"):
            MatchGraph(labels=[0, 1], edges=edges)

    @pytest.mark.parametrize("edges, item", [
        ([(0, 1, 2)], "(0, 1, 2)"), ([5], "5"), ([(0, 1), (1,)], "(1,)"), ([None], "None"),
    ])
    def test_rejects_edge_items_that_are_not_pairs(self, edges, item):
        # each ended in a bare ValueError or TypeError from unpacking
        from matchenum import GraphError

        with pytest.raises(GraphError) as refused:
            MatchGraph(labels=[0, 1], edges=edges)
        assert str(refused.value) == f"edge {item} is not a pair of vertex indices"

    @pytest.mark.parametrize("coords, item", [
        ([(0, 0), (1,)], "(1,)"), ([(0, 0, 0), (1, 0)], "(0, 0, 0)"), ([(0, 0), 7], "7"),
    ])
    def test_rejects_coords_items_that_are_not_pairs(self, coords, item):
        from matchenum import GraphError

        with pytest.raises(GraphError) as refused:
            MatchGraph(labels=[0, 1], edges=[(0, 1)], coords=coords)
        assert str(refused.value) == f"coords item {item} is not an (x, y) pair"

    @pytest.mark.parametrize("method", ["subgraph", "delete_vertices"])
    @pytest.mark.parametrize("vertices", [[0.5], [0.0, 1], [True], [-1], [3], ["a"]])
    def test_vertex_sets_refuse_what_is_not_a_vertex_index(self, method, vertices):
        # subgraph([-1]) would take the last vertex, and delete_vertices
        # would drop nothing for any of these
        from matchenum import GraphError

        g = MatchGraph(labels="abc", edges=[(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="vertices must be indices"):
            getattr(g, method)(vertices)

    def test_rotation_needs_coords(self):
        from matchenum import GraphError

        g = MatchGraph(labels=[0, 1], edges=[(0, 1)])
        with pytest.raises(GraphError):
            g.rotation


class TestHexagon:
    def test_unit_hexagon_is_six_cycle(self):
        g = build_hexagon((1, 1, 1, 1, 1, 1))
        assert g.n == 6
        assert all(g.degree(v) == 2 for v in range(6))
        assert g.class_sizes() == (3, 3)

    def test_222222_cell_count(self):
        g = build_hexagon((2, 2, 2, 2, 2, 2))
        assert g.n == 24
        assert g.class_sizes() == (12, 12)

    def test_strips_equal_the_centroid_scan(self):
        for sides in all_hex_side_tuples(4):
            assert hexagon_cells(sides) == centroid_hexagon_cells(sides), sides

    def test_cell_count_matches_closed_form(self):
        for sides in all_hex_side_tuples(4):
            assert len(hexagon_cells(sides)) == hexagon_cell_count(sides), sides

    def test_bipartition_imbalance_is_s1_minus_s4(self):
        for sides in all_hex_side_tuples(4):
            g = build_hexagon(sides)
            ups = sum(1 for c in g.labels if c.orient == "up")
            downs = g.n - ups
            assert ups - downs == sides[0] - sides[3], sides

    def test_shifted_hexagon_balances_after_removing_excess_cell(self):
        sides = (1, 2, 1, 2, 1, 2)
        g = build_hexagon(sides)
        ups = sum(1 for c in g.labels if c.orient == "up")
        downs = g.n - ups
        assert abs(ups - downs) == 1
        excess = "up" if ups > downs else "down"
        hole = next(c for c in g.labels if c.orient == excess)
        h = build_hexagon(sides, holes=[hole])
        assert h.is_balanced()

    def test_sides_are_validated_once_per_call(self, monkeypatch):
        from matchenum import regions

        calls = []

        def counted(sides):
            calls.append(sides)
            return validate_hex_sides(sides)

        monkeypatch.setattr(regions, "validate_hex_sides", counted)
        for entry in (hexagon_cells, hexagon_cell_count, central_rhombus_edge):
            calls.clear()
            entry((1, 1, 2, 1, 1, 2))
            assert len(calls) == 1, entry.__name__

    def test_closure_violation_rejected(self):
        with pytest.raises(RegionError):
            build_hexagon((1, 2, 1, 1, 2, 2))
        with pytest.raises(RegionError):
            build_hexagon((1, 1, 1, 1, 1))
        with pytest.raises(RegionError):
            build_hexagon((1, 1, -1, 1, 1, -1))

    def test_bad_holes_rejected(self):
        sides = (2, 2, 2, 2, 2, 2)
        outside = TriCell(99, 99, "up")
        with pytest.raises(RegionError):
            build_hexagon(sides, holes=[outside])
        inside = sorted(hexagon_cells(sides))[0]
        with pytest.raises(RegionError):
            build_hexagon(sides, holes=[inside, inside])

    def test_faces_are_hexagonal_and_euler_holds(self):
        for sides in ((1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), (1, 1, 2, 1, 1, 2)):
            g = build_hexagon(sides)
            assert g.n - len(g.edges) + len(g.faces()) == 2
            walks = bounded_walks(g)
            assert len(walks) == sum(f.bounded for f in g.faces())
            assert all(len(w) == 6 for w in walks)


class TestCentralRhombus:
    @pytest.mark.parametrize("sides", [(1, 1, 2, 1, 1, 2), (3, 3, 4, 3, 3, 4)])
    def test_unique_central_edge(self, sides):
        up, down = central_rhombus_edge(sides)
        g = build_hexagon(sides)
        g.edge_by_labels(up, down)  # must exist
        # uniqueness oracle: the doubled midpoint of every other rhombus
        # differs from the doubled centre
        assert central_midpoint_hits(sides) == [(up, down)]

    def test_formula_equals_the_midpoint_search(self):
        for a in range(7):
            for b in range(1 - a % 2, 7, 2):
                sides = (a, a, b, a, a, b)
                hits = central_midpoint_hits(sides)
                if hits:
                    assert [central_rhombus_edge(sides)] == hits, sides
                else:
                    with pytest.raises(RegionError):
                        central_rhombus_edge(sides)

    def test_missing_rhombus_rejected(self):
        assert hexagon_cells((0, 0, 1, 0, 0, 1)) == set()
        with pytest.raises(RegionError, match="no central rhombus"):
            central_rhombus_edge((0, 0, 1, 0, 0, 1))

    def test_equal_parity_rejected(self):
        with pytest.raises(RegionError):
            central_rhombus_edge((2, 2, 2, 2, 2, 2))

    def test_wrong_shape_rejected(self):
        with pytest.raises(RegionError):
            central_rhombus_edge((1, 2, 1, 2, 1, 2))


class TestAztecDiamond:
    def test_order_one_is_four_cycle(self):
        g = build_aztec_diamond(1)
        assert g.n == 4
        assert all(g.degree(v) == 2 for v in range(4))

    @pytest.mark.parametrize("n,cells", [(1, 4), (2, 12), (3, 24)])
    def test_cell_counts(self, n, cells):
        g = build_aztec_diamond(n)
        assert g.n == cells == 2 * n * (n + 1)
        assert g.is_balanced()

    def test_cells_equal_the_inequality_scan(self):
        for n in range(1, 11):
            assert aztec_diamond_cells(n) == diamond_scan(n), n

    def test_faces_are_squares(self):
        g = build_aztec_diamond(3)
        assert g.n - len(g.edges) + len(g.faces()) == 2
        walks = bounded_walks(g)
        assert len(walks) == sum(f.bounded for f in g.faces())
        assert all(len(w) == 4 for w in walks)

    def test_invalid_order(self):
        with pytest.raises(RegionError):
            build_aztec_diamond(0)


class TestAztecRectangle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_case_equals_diamond(self, n):
        # why an n x n rectangle's ``RegionSpec.cells`` are the diamond's
        assert aztec_rectangle_cells(n, n) == aztec_diamond_cells(n)
        ar = build_aztec_rectangle(n, n)
        ad = build_aztec_diamond(n)
        # canonical labeled form: identical label set and adjacency
        assert ar.labels == ad.labels
        assert ar.edges == ad.edges

    def test_cells_equal_the_inequality_scan(self):
        for b in range(1, 9):
            for a in range(1, b + 1):
                assert aztec_rectangle_cells(a, b) == rectangle_scan(a, b), (a, b)

    def test_class_sizes(self):
        for a, b in ((1, 2), (1, 3), (2, 3)):
            cells = aztec_rectangle_cells(a, b)
            ones = sum((i + j) & 1 for i, j in cells)
            sizes = sorted((len(cells) - ones, ones))
            assert sizes == sorted((a * (b + 1), (a + 1) * b))

    def test_imbalance_without_removal_rejected(self):
        with pytest.raises(RegionError):
            build_aztec_rectangle(2, 3)

    def test_removal_restores_balance(self):
        cells = sorted(aztec_rectangle_cells(1, 2))
        ones = sum((i + j) & 1 for i, j in cells)
        majority = 1 if 2 * ones > len(cells) else 0
        victim = next(c for c in cells if ((c[0] + c[1]) & 1) == majority)
        g = build_aztec_rectangle(1, 2, removed=[victim])
        assert g.is_balanced()
        assert g.n == len(cells) - 1

    def test_some_single_removal_admits_a_matching(self):
        from matchenum import count_brute

        cells = sorted(aztec_rectangle_cells(1, 2))
        ones = sum((i + j) & 1 for i, j in cells)
        majority = 1 if 2 * ones > len(cells) else 0
        counts = [
            count_brute(build_aztec_rectangle(1, 2, removed=[c]))
            for c in cells
            if ((c[0] + c[1]) & 1) == majority
        ]
        assert max(counts) >= 1

    def test_bad_removals_rejected(self):
        with pytest.raises(RegionError):
            build_aztec_rectangle(1, 2, removed=[(99, 99)])
        with pytest.raises(RegionError):
            build_aztec_rectangle(2, 1)


class TestAztecWindow:
    @pytest.mark.parametrize("x,w", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
    def test_cell_count_formula(self, x, w):
        g = build_aztec_window(x, w)
        assert g.n == 2 * w * (2 * x + w + 1)
        assert g.n % 2 == 0
        assert g.is_balanced()

    def test_window_is_diamond_difference(self):
        assert aztec_window_cells(1, 2) == (
            set(build_aztec_diamond(3).labels) - set(build_aztec_diamond(1).labels)
        )

    def test_rows_equal_the_diamond_scan(self):
        for x in range(1, 7):
            for w in range(1, 7):
                assert aztec_window_cells(x, w) == (
                    diamond_scan(x + w) - diamond_scan(x)
                ), (x, w)

    def test_one_hole_face(self):
        g = build_aztec_window(1, 2)
        assert g.n - len(g.edges) + len(g.faces()) == 2
        walks = bounded_walks(g)
        assert len(walks) == sum(f.bounded for f in g.faces())
        lens = sorted(len(w) for w in walks)
        assert lens[:-1] == [4] * (len(lens) - 1)
        assert lens[-1] > 4  # the face around the hole

    def test_invalid_parameters(self):
        with pytest.raises(RegionError):
            build_aztec_window(0, 1)
        with pytest.raises(RegionError):
            build_aztec_window(1, 0)


class TestHypercube:
    def test_small_cubes(self):
        q1 = build_hypercube(1)
        assert q1.n == 2 and len(q1.edges) == 1
        q2 = build_hypercube(2)
        assert q2.n == 4 and len(q2.edges) == 4
        q3 = build_hypercube(3)
        assert q3.n == 8 and len(q3.edges) == 12
        assert q3.coords is None

    def test_bipartition_by_bit_parity(self):
        g = build_hypercube(4)
        for u, v in g.edges:
            assert bin(u ^ v).count("1") == 1
            assert g.color[u] != g.color[v]

    def test_out_of_range(self):
        with pytest.raises(RegionError):
            build_hypercube(0)
        with pytest.raises(RegionError):
            build_hypercube(13)


class TestRegionSpec:
    def test_json_round_trip(self):
        spec = RegionSpec(
            "HEXAGON",
            {"sides": [2, 2, 2, 2, 2, 2]},
            holes=(TriCell(0, 1, "up"),),
        )
        again = RegionSpec.from_json(spec.to_json())
        assert again == spec
        assert again.build().n == spec.build().n

    def test_all_kinds_build(self):
        docs = [
            {"kind": "HEXAGON", "params": {"sides": [1, 1, 1, 1, 1, 1]}},
            {"kind": "AZTEC_DIAMOND", "params": {"n": 2}},
            {"kind": "AZTEC_RECTANGLE", "params": {"a": 2, "b": 2, "removed": []}},
            {"kind": "AZTEC_WINDOW", "params": {"x": 1, "w": 1}},
            {"kind": "HYPERCUBE", "params": {"n": 3}},
        ]
        for doc in docs:
            g = RegionSpec.from_dict(doc).build()
            assert isinstance(g, MatchGraph)
            assert g.n > 0

    def test_bad_documents(self):
        with pytest.raises(RegionError):
            RegionSpec.from_json("{not json")
        with pytest.raises(RegionError):
            RegionSpec.from_dict({"kind": "TRIANGLE", "params": {}})
        with pytest.raises(RegionError):
            RegionSpec.from_dict({"params": {}})
        with pytest.raises(RegionError):
            RegionSpec.from_dict(
                {"kind": "AZTEC_DIAMOND", "params": {"n": 1},
                 "holes": [[0, 0, "up"]]}
            )
        with pytest.raises(RegionError):
            RegionSpec.from_dict({"kind": "AZTEC_DIAMOND", "params": {}}).build()

    def test_holes_serialize_per_format(self):
        doc = {"kind": "HEXAGON", "params": {"sides": [2, 2, 2, 2, 2, 2]},
               "holes": [[0, 1, "up"]]}
        spec = RegionSpec.from_dict(doc)
        assert json.loads(spec.to_json())["holes"] == [[0, 1, "up"]]

    @pytest.mark.parametrize("kind, params", [
        ("AZTEC_DIAMOND", {"n": 2.0}),
        ("AZTEC_DIAMOND", {"n": "2"}),
        ("AZTEC_DIAMOND", {"n": 2, "m": 1}),
        ("AZTEC_DIAMOND", {"n": 2, "sides": [1, 1, 1, 1, 1, 1]}),
        ("AZTEC_WINDOW", {"x": 1, "w": 2, "removed": []}),
        ("HYPERCUBE", {"n": False}),
        ("HEXAGON", {"sides": [1, 1, 1, 1, 1, 1.5]}),
        ("HEXAGON", {"sides": [1, 1, 1, 1, 1]}),
        ("AZTEC_RECTANGLE", {"a": 1, "b": 2, "removed": [[0]]}),
        ("AZTEC_RECTANGLE", {"a": 1, "b": 2, "removed": [[0, True]]}),
    ])
    def test_strict_parameter_types(self, kind, params):
        with pytest.raises(RegionError):
            RegionSpec(kind, params)

    @pytest.mark.parametrize("make", [
        lambda: build_hexagon((1.5, 1, 1, 1, 1, 1)),
        lambda: build_hexagon((True, 1, 1, 1, 1, 1)),
        lambda: build_hexagon((2,) * 6, holes=[(0, False, "up")]),
        lambda: build_aztec_diamond(2.5),
        lambda: build_aztec_diamond(True),
        lambda: build_aztec_rectangle(1, 2, removed=[(0.9, -0.2)]),
        lambda: build_aztec_rectangle(1, True),
        lambda: build_aztec_window(1.0, 2),
        lambda: build_aztec_window(1, True),
        lambda: build_hypercube(2.0),
        lambda: build_hypercube(True),
        lambda: hexagon_cells((1, 1, 1, 1, 1, 1.0)),
        lambda: hexagon_cells((1, 1, 1, True, 1, 1)),
        lambda: RegionSpec("HEXAGON", {"sides": [2] * 6}, holes=((0.5, 0, "up"),)),
        lambda: RegionSpec("HEXAGON", {"sides": [2] * 6}, holes=((0, True, "up"),)),
    ], ids=["hexagon-float", "hexagon-bool", "hexagon-bool-hole", "diamond-float",
            "diamond-bool", "rectangle-float-removal", "rectangle-bool", "window-float",
            "window-bool", "hypercube-float", "hypercube-bool", "hexagon-cells-float",
            "hexagon-cells-bool", "spec-float-hole", "spec-bool-hole"])
    def test_library_inputs_refuse_floats_and_bools(self, make):
        # int() would count a neighbouring region, or fail with a TypeError
        with pytest.raises(RegionError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: aztec_diamond_cells(2.5),
        lambda: aztec_diamond_cells(True),
        lambda: aztec_rectangle_cells(True, 2),
        lambda: aztec_rectangle_cells(1, 2.0),
        lambda: aztec_window_cells(1, True),
        lambda: aztec_window_cells(1.5, 2),
        lambda: aztec_window_cell_count(2, 1.0),
    ], ids=["diamond-float", "diamond-bool", "rectangle-bool", "rectangle-float",
            "window-bool", "window-float", "window-count-float"])
    def test_cell_helpers_refuse_floats_and_bools(self, make):
        # a bool would list a neighbouring region's cells, a float end in a
        # bare TypeError from range
        with pytest.raises(RegionError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("kind, params, match", [
        (["HEXAGON"], {"sides": [1] * 6}, "kind must be a string, got list"),
        (None, {"n": 2}, "kind must be a string, got NoneType"),
        ("HEXAGON", None, "params must be a dict, got NoneType"),
        ("AZTEC_DIAMOND", [("n", 2)], "params must be a dict, got list"),
    ], ids=["list-kind", "none-kind", "none-params", "list-params"])
    def test_kind_and_params_types(self, kind, params, match):
        # checked first: a list kind is unhashable, None params not iterable
        with pytest.raises(RegionError, match=match):
            RegionSpec(kind, params)


class TestCellLimit:
    # the largest admitted region of each kind and the next one up; the
    # rectangle and the window sit exactly on the limit
    @pytest.mark.parametrize("cells, admitted, refused", [
        (aztec_diamond_cells, (180,), (181,)),
        (aztec_rectangle_cells, (1, 21845), (1, 21846)),
        (aztec_window_cells, (16383, 1), (16384, 1)),
        (hexagon_cells, ([104] * 6,), ([105] * 6,)),
    ], ids=["diamond", "rectangle", "window", "hexagon"])
    def test_limit_is_exact(self, cells, admitted, refused):
        assert len(cells(*admitted)) <= REGION_CELL_LIMIT
        with pytest.raises(RegionError, match=f"more than {REGION_CELL_LIMIT} cells"):
            cells(*refused)

    @pytest.mark.parametrize("kind, params", [
        ("AZTEC_DIAMOND", {"n": 10**6}),
        ("AZTEC_RECTANGLE", {"a": 10**6, "b": 10**6}),
        ("AZTEC_WINDOW", {"x": 10**6, "w": 2}),
        ("HEXAGON", {"sides": [10**6] * 6}),
    ])
    def test_oversized_spec_is_refused_before_building(self, kind, params):
        start = time.perf_counter()
        with pytest.raises(RegionError, match=f"more than {REGION_CELL_LIMIT} cells"):
            RegionSpec(kind, params).build()
        assert time.perf_counter() - start < 1.0
