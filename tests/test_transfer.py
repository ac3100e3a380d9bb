import random
import time
from dataclasses import fields

import pytest

from matchenum import (
    BoundError,
    GraphError,
    MatchGraph,
    RegionError,
    RegionSpec,
    build_aztec_window,
    build_hypercube,
    count_brute,
    count_kasteleyn,
    count_sequence,
    detect_polynomial,
    frontier_count,
    transfer_count,
)
from matchenum import transfer
from matchenum.regions import REGION_CELL_LIMIT, _square_graph, build_aztec_diamond
from matchenum.counting import FRONTIER_LIMIT, _advance, _compile_order
from matchenum.transfer import _operators, _product, _stepped, column_annihilator


def window_spec(x, w):
    return RegionSpec("AZTEC_WINDOW", {"x": x, "w": w})


def _window_order(g):
    # the window's cells in one cyclic sweep: the upper half (j >= 0) west
    # to east from i = 0, the lower half east to west, then the upper
    # half's columns i < 0 west to east; each column bottom to top
    def key(v):
        i, j = g.labels[v]
        if j < 0:
            return (1, -i, j)
        return (0 if i >= 0 else 2, i, j)

    return sorted(range(g.n), key=key)


def ring_count(x, w):
    # the whole ring swept by the generic engine, the quarter trace's reference
    g = build_aztec_window(x, w)
    return frontier_count(g, _window_order(g))


def quadrant_operator(g, x, w):
    # the quarter operator read off a sweep of the first quadrant of a
    # window (or, with x = 0, of a diamond): seam cells (-1, x + k) and cut
    # cells (x + k, -1); the ring order visits the quadrant first
    steps, _, slot = _compile_order(g, _window_order(g))
    quadrant = sum(i >= 0 and j >= 0 for i, j in g.labels)
    seam = [1 << slot[g.index[(-1, x + k)]] for k in range(w)]
    cut = [1 << slot[g.index[(x + k, -1)]] for k in range(w)]
    quarter = {}
    for state, cnt in _advance(steps[:quadrant], {0: 1}).items():
        a = sum(1 << k for k, bit in enumerate(seam) if state & bit)
        b = sum(1 << k for k, bit in enumerate(cut) if state & bit)
        quarter.setdefault(a, {})[b] = cnt
    return quarter


def trace4(t):
    t2 = _product(t, t)
    return sum(v * t2.get(c, {}).get(a, 0) for a, row in t2.items() for c, v in row.items())


def quarter(x, w):
    # the quarter operator T(x) = U(x).M, which the count never forms
    return _product(_stepped(x, w), _operators(w)[1])


def level(mask):
    # sum of (-1)^k over the set bits k of a mask of up to 32 bits
    return (mask & 0x5555_5555).bit_count() - (mask & ~0x5555_5555).bit_count()


class TestTransferCount:
    @pytest.mark.parametrize(
        "w, x",
        [(w, x) for w in range(1, 8) for x in range(1, 7)]
        + [(w, x) for w in (8, 9, 10) for x in (1, 2, 3)],
    )
    def test_agrees_with_kasteleyn(self, w, x):
        assert transfer_count(window_spec(x, w)) == count_kasteleyn(
            build_aztec_window(x, w)
        )

    def test_agrees_with_brute_on_smallest_window(self):
        assert transfer_count(window_spec(1, 1)) == count_brute(build_aztec_window(1, 1))

    def test_rejects_other_kinds(self):
        with pytest.raises(RegionError):
            transfer_count(RegionSpec("AZTEC_DIAMOND", {"n": 2}))

    @pytest.mark.parametrize("x, w", [(0, 2), (2, 0), (0, 0)])
    def test_empty_order_or_thickness_is_refused(self, x, w):
        with pytest.raises(RegionError, match="x >= 1 and w >= 1"):
            transfer_count(window_spec(x, w))

    def test_cut_width_limit(self):
        with pytest.raises(BoundError):
            transfer_count(window_spec(1, 25))

    def test_frontier_limit_admits_w10_and_refuses_w11(self):
        g = build_aztec_window(1, 10)
        assert _compile_order(g, _window_order(g))[1] <= FRONTIER_LIMIT
        with pytest.raises(BoundError):
            transfer_count(window_spec(1, 11))
        # the engine's own check, on the graph in ring order
        g = build_aztec_window(1, 11)
        with pytest.raises(BoundError):
            frontier_count(g, _window_order(g))

    def test_ring_slices_equal_the_column_scan(self):
        # the sweep visits the columns as a full scan of each column finds them
        for x in range(1, 7):
            for w in range(1, 7):
                def column(i, js):
                    return [(i, j) for j in js
                            if x < max(abs(i + j + 1), abs(i - j)) <= x + w]
                north, south = range(0, x + w + 1), range(-x - w - 1, 0)
                scan = [column(i, north) for i in range(0, x + w)]
                scan += [column(i, south) for i in range(x + w - 1, -x - w - 1, -1)]
                scan += [column(i, north) for i in range(-x - w, 0)]
                assert all(scan) and all(len(c) <= w for c in scan), (x, w)
                g = build_aztec_window(x, w)
                swept = [g.labels[v] for v in _window_order(g)]
                assert swept == [c for col in scan for c in col], (x, w)

    def test_long_thin_window_is_built_in_linear_time(self):
        # 8012 cells; building the window scanned a quadratic box before
        start = time.perf_counter()
        assert transfer_count(window_spec(1000, 2)) == 8
        assert time.perf_counter() - start < 5.0

    def test_cell_limit_is_checked_before_any_work(self, monkeypatch):
        # the window is never built, so the count refuses it by its closed form
        def fail(w):
            raise AssertionError("the operators were swept")

        monkeypatch.setattr(transfer, "_operators", fail)
        for x, w in [(16384, 1), (10**6, 2), (10**40, 3), (10**4, 11)]:
            assert 2 * w * (2 * x + w + 1) > REGION_CELL_LIMIT
            start = time.perf_counter()
            with pytest.raises(RegionError, match="more than 65536 cells"):
                transfer_count(window_spec(x, w))
            assert time.perf_counter() - start < 1.0

    def test_largest_admitted_window(self):
        # exactly REGION_CELL_LIMIT cells, and zero past half its width
        assert 2 * 1 * (2 * 16383 + 1 + 1) == REGION_CELL_LIMIT
        assert transfer_count(window_spec(16383, 1)) == 0

    def test_pinned_w8_x4(self):
        assert transfer_count(window_spec(4, 8)) == 73898794978115584

    @pytest.mark.parametrize("x, w", [(1, 2), (2, 3), (3, 4), (2, 5)])
    def test_count_does_not_depend_on_the_order(self, x, w):
        g = build_aztec_window(x, w)
        ring = _window_order(g)
        expected = transfer_count(window_spec(x, w))
        assert frontier_count(g, ring[::-1]) == expected
        for start in (1, len(ring) // 3, len(ring) - 1):
            assert frontier_count(g, ring[start:] + ring[:start]) == expected

    @pytest.mark.parametrize("w", [2, 3, 6, 10])
    def test_ring_order_frontier_width(self, w):
        # w seam bits held around the ring plus a broken-line cut of w + 1
        g = build_aztec_window(2, w)
        assert _compile_order(g, _window_order(g))[1] == 2 * w + 1


class TestQuarterTrace:
    @pytest.mark.parametrize(
        "x, w",
        [(x, w) for w in range(1, 8) for x in range(1, 11)] + [(x, 8) for x in range(1, 6)],
    )
    def test_equals_the_full_ring(self, x, w):
        assert transfer_count(window_spec(x, w)) == ring_count(x, w)

    @pytest.mark.parametrize("w", [1, 3, 5, 7])
    def test_odd_thickness_vanishes_past_half_its_width(self, w):
        for x in range(1, (w + 3) // 2 + 3):
            count = transfer_count(window_spec(x, w))
            assert (count == 0) == (x > (w + 1) // 2), (x, w, count)

    @pytest.mark.parametrize("w", range(1, 9))
    def test_quarter_table_is_symmetric(self, w):
        # the reflection (i, j) -> (j, i) maps the first quadrant onto itself
        # and the seam cell (-1, j) onto the cut cell (j, -1)
        for x in (0, 1, 2, 3):
            entries = {
                (a, b): cnt
                for a, row in quarter(x, w).items()
                for b, cnt in row.items()
            }
            assert entries == {(b, a): cnt for (a, b), cnt in entries.items()}, x

    def test_even_thickness_support_does_not_depend_on_x(self):
        # U(x) = A^x.H has C(w + 1, w / 2) rows; the entries grow with x,
        # their positions do not
        for w, rows, nonzero in [(2, 3, 3), (4, 10, 12), (6, 35, 55)]:
            supports = []
            for x in range(1, 6):
                u = _stepped(x, w)
                supports.append({(a, b) for a, row in u.items() for b in row})
                assert len(u) == rows, (x, w)
            assert all(sup == supports[0] for sup in supports), w
            assert len(supports[0]) == nonzero, w
        for w, size in [(8, (126, 273)), (10, (462, 1428))]:
            u = _stepped(5, w)
            assert (len(u), sum(map(len, u.values()))) == size, w


class TestOperators:
    @pytest.mark.parametrize("w", range(1, 9))
    def test_octant_equals_the_diamond_quadrant_sweep(self, w):
        h, m, _ = _operators(w)
        assert _product(h, m) == quadrant_operator(build_aztec_diamond(w), 0, w)

    @pytest.mark.parametrize("w", range(1, 9))
    def test_column_operator_steps_the_quarter_operator(self, w):
        # T(x) = U(x).M with U(x + 1) = A.U(x), from U(0) = H on
        h, m, a = _operators(w)
        u = h
        for x in range(1, 7):
            swept = quadrant_operator(build_aztec_window(x, w), x, w)
            assert _product(_product(a, u), m) == swept, (x, w)
            u = _product(a, u)
            assert _stepped(x, w) == u, (x, w)

    @pytest.mark.parametrize("w", range(1, 11))
    def test_diamond_trace(self, w):
        # Elkies, Kuperberg, Larsen and Propp: 2^(w(w+1)/2) tilings, as the
        # trace of T0^4 = (H.M)^4 and of its half-size form (M.H)^4
        h, m, _ = _operators(w)
        assert trace4(_product(h, m)) == trace4(_product(m, h)) == 2 ** (w * (w + 1) // 2)

    @pytest.mark.parametrize("w", range(1, 11))
    def test_colouring_lemma(self, w):
        # colour cell (i, j) by the parity of i + j: level(a) + level(b) is
        # one constant over the nonzero entries of T(x), and the half-size
        # product R(x) = M.U(x) has the trace of T(x)^4
        for x in (0, 1, 2, 3, 6):
            t = quarter(x, w)
            assert len({level(a) + level(b) for a, row in t.items() for b in row}) <= 1
            if w <= 8:
                r = _product(_operators(w)[1], _stepped(x, w))
                assert trace4(r) == trace4(t), (x, w)

    def test_sequence_steps_from_the_last_x_reached(self):
        # descending, repeated and ascending x all give the fresh counts
        fresh = [ring_count(x, 4) for x in range(1, 6)]
        for xs in ([5, 4, 3, 2, 1], [2, 2, 5, 1, 3, 4]):
            assert [transfer_count(window_spec(x, 4)) for x in xs] == [
                fresh[x - 1] for x in xs
            ]


def dense(op, rows, cols):
    return [[op.get(a, {}).get(b, 0) for b in range(cols)] for a in range(rows)]


def dense_product(p, q):
    return [[sum(u * q[k][c] for k, u in enumerate(row) if u) for c in range(len(q[0]))]
            for row in p]


def dense_operators(w):
    # A, A - I and H as dense lists; H has a column per subset of the diagonal
    h, _, a = _operators(w)
    size = 1 << w
    a = dense(a, size, size)
    a_minus_i = [[v - (r == c) for c, v in enumerate(row)] for r, row in enumerate(a)]
    return a, a_minus_i, dense(h, size, 1 << (w + 1) // 2)


def dense_term(factors, j, k, start):
    # A^j (A - I)^k . start, the factors multiplied onto start one at a time
    a, a_minus_i = factors
    m = start
    for f in [a] * j + [a_minus_i] * k:
        m = dense_product(f, m)
    return m


def nonzero(m):
    return any(any(row) for row in m)


class TestColumnAnnihilator:
    # A^j (A - I)^k H = 0: j = 0 for even w, (w + 3) / 2 for odd w >= 3
    PAIRS = {1: (2, 0), 2: (0, 1), 3: (3, 0), 4: (0, 2), 5: (4, 0),
             6: (0, 3), 7: (5, 0), 8: (0, 5), 9: (6, 0)}

    @pytest.mark.parametrize("w", range(1, 10))
    def test_pairs(self, w):
        # least k, then least j, with A^j (A - I)^k H = 0; w = 10 is pinned
        # through the problem14 certificate
        assert column_annihilator(w) == self.PAIRS[w]

    @pytest.mark.parametrize("w", range(1, 6))
    def test_pair_is_least_by_dense_products(self, w):
        a, a_minus_i, h = dense_operators(w)
        j, k = column_annihilator(w)
        assert not nonzero(dense_term((a, a_minus_i), j, k, h))
        if j:
            assert nonzero(dense_term((a, a_minus_i), j - 1, k, h))
        if k:
            assert nonzero(dense_term((a, a_minus_i), j, k - 1, h))

    @pytest.mark.parametrize("w", [4, 6])
    def test_even_thickness_needs_h(self, w):
        # (A - I)^k annihilates H but not A itself: the full A needs a
        # factor A^j, j > 0, that the count never uses
        a, a_minus_i, h = dense_operators(w)
        j, k = column_annihilator(w)
        assert j == 0
        eye = [[int(r == c) for c in range(1 << w)] for r in range(1 << w)]
        assert nonzero(dense_term((a, a_minus_i), 0, k, eye))
        assert not nonzero(dense_term((a, a_minus_i), 0, k, h))

    def test_thickness_limit(self, monkeypatch):
        # every entry refuses through the one check of the thickness, before
        # any sweep; a window also needs x >= 1, so its message names both
        def fail(*args):
            raise AssertionError("an operator was swept")

        monkeypatch.setattr(transfer, "_boundary_operator", fail)
        entries = {
            "transfer_count": (lambda w: transfer_count(window_spec(1, w)),
                               "Aztec window needs x >= 1 and w >= 1"),
            "count_sequence": (lambda w: count_sequence(w, 1, 3),
                               "Aztec window needs x >= 1 and w >= 1"),
            "column_annihilator": (column_annihilator, "Aztec window needs w >= 1"),
        }
        for name, (entry, empty) in entries.items():
            with pytest.raises(RegionError) as refused:
                entry(0)
            assert str(refused.value) == empty, name
            with pytest.raises(BoundError) as refused:
                entry(11)
            assert str(refused.value) == "thickness 11 exceeds the window limit 10", name

    def test_entries_refuse_what_is_not_an_int(self):
        # with the operators of w = 1 and w = 2 cached, 2.0 and True were
        # served them: True == 1 and 2.0 == 2 hash alike
        _operators(1)
        _operators(2)
        refusals = [
            (lambda: column_annihilator(2.0), "Aztec window w must be an integer, got float 2.0"),
            (lambda: column_annihilator(True), "Aztec window w must be an integer, got bool True"),
            (lambda: count_sequence(2, 1.0, 3),
             "Aztec window x_from must be an integer, got float 1.0"),
            (lambda: count_sequence(2, 1, 3.0),
             "Aztec window x_to must be an integer, got float 3.0"),
            (lambda: count_sequence(True, 1, 3), "Aztec window w must be an integer, got bool True"),
            (lambda: count_sequence(2.0, 3, 2), "Aztec window w must be an integer, got float 2.0"),
        ]
        for entry, message in refusals:
            with pytest.raises(RegionError) as refused:
                entry()
            assert str(refused.value) == message
        assert column_annihilator(1) == (2, 0)
        assert column_annihilator(2) == (0, 1)


def random_graph(rng, n, density, bipartite):
    labels = list(range(n))
    rng.shuffle(labels)
    side = [k % 2 for k in range(n)]  # balanced classes when n is even
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (not bipartite or side[u] != side[v]) and rng.random() < density
    ]
    return MatchGraph(labels, edges)


def weight_then_index(n):
    return sorted(range(1 << n), key=lambda v: (bin(v).count("1"), v))


class TestFrontierCount:
    @pytest.mark.parametrize("bipartite", [True, False])
    def test_random_graphs_against_brute(self, bipartite):
        rng = random.Random(404 + bipartite)
        for _ in range(60):
            n = rng.randint(1, 20)
            density = rng.choice((0.3, 0.45, 0.6) if bipartite else (0.15, 0.25, 0.35))
            g = random_graph(rng, n, density, bipartite)
            order = list(range(n))
            rng.shuffle(order)
            assert frontier_count(g, order) == count_brute(g), (n, g.edges, order)

    def test_empty_graph_counts_one(self):
        assert frontier_count(MatchGraph([], []), []) == 1

    def test_isolated_vertex_counts_zero(self):
        assert frontier_count(MatchGraph(["a"], []), [0]) == 0
        # an isolated vertex next to a matchable edge, in every position
        g = MatchGraph("abc", [(0, 1)])
        for order in ([0, 1, 2], [2, 0, 1], [0, 2, 1]):
            assert frontier_count(g, order) == 0

    @pytest.mark.parametrize("n, f", [(1, 1), (2, 2), (3, 9), (4, 272), (5, 589185)])
    def test_hypercubes(self, n, f):
        assert frontier_count(build_hypercube(n), weight_then_index(n)) == f

    def test_five_cube_frontier_width(self):
        assert _compile_order(build_hypercube(5), weight_then_index(5))[1] == 14

    @pytest.mark.parametrize(
        "order", [[0, 1], [0, 1, 2, 2], [0, 1, 2, 4], [1, 2, 3, 0, 0], [0, 1, 2, "3"],
                  [0.0, 1, 2, 3], [False, True, 2, 3]]
    )
    def test_order_must_be_a_permutation(self, order):
        g = MatchGraph("abcd", [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            frontier_count(g, order)

    def test_shuffled_grid_is_refused_before_the_dp(self):
        g = _square_graph({(i, j) for i in range(12) for j in range(12)})
        order = list(range(g.n))
        random.Random(3).shuffle(order)
        assert _compile_order(g, order)[1] > FRONTIER_LIMIT
        with pytest.raises(BoundError):
            frontier_count(g, order)


class TestCountSequence:
    def test_w2_window(self):
        seq = count_sequence(2, 1, 3)
        assert len(seq) == 3
        assert all(c > 0 for c in seq)
        assert seq == [count_kasteleyn(build_aztec_window(x, 2)) for x in (1, 2, 3)]

    def test_w1_agrees_casewise(self):
        assert count_sequence(1, 1, 2) == [
            count_kasteleyn(build_aztec_window(x, 1)) for x in (1, 2)
        ]

    def test_empty_range(self):
        assert count_sequence(2, 3, 2) == []

    def test_windows_past_boundary_effects_fit_a_degree(self):
        # away from the small-x boundary every desk-range thickness settles
        # into a detectable polynomial (possibly identically zero)
        for w in (1, 2, 3):
            counts = count_sequence(w, 3, 8)
            report = detect_polynomial(counts)
            assert report.detected_degree is not None
            assert len(counts) >= report.detected_degree + 3
            assert report.differences[0] == tuple(counts)
            assert not any(report.differences[report.detected_degree + 1])


class TestColumnTransferMatrix:
    # A, the column operator, as ``_operators`` holds it for every caller

    def test_entries_are_zero_or_one(self):
        # sparse: only the ones are stored, no row is empty, masks have w bits
        for w in (1, 2, 3):
            m = _operators(w)[2]
            assert all(row and set(row.values()) == {1} for row in m.values())
            assert all(0 <= b < 1 << w for a, row in m.items() for b in (a, *row))

    def test_nonzero_entries_are_pinned(self):
        # a(w) = 2 a(w-1) + a(w-2): the completions of each incoming mask
        pinned = [1, 3, 7, 17, 41, 99, 239, 577, 1393, 3363]
        for w, nonzero in enumerate(pinned, start=1):
            m = _operators(w)[2]
            assert sum(map(len, m.values())) == nonzero, w

    def test_an_entry_other_than_one_is_refused(self, monkeypatch):
        # sweep the operators afresh, past their cache
        monkeypatch.setattr(transfer, "_boundary_operator", lambda *args: {0: {0: 2}})
        with pytest.raises(ArithmeticError):
            _operators.__wrapped__(2)

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_entries_are_brute_completions(self, w):
        # [A][B] counts the matchings of column 0 without the cells in A
        # plus the cells in B of column 1, which sits one step lower, using
        # column 0's vertical edges and the edges across
        t = _operators(w)[2]
        for a in range(1 << w):
            for b in range(1 << w):
                cells = [(0, k) for k in range(w) if not a >> k & 1]
                cells += [(1, k - 1) for k in range(w) if b >> k & 1]
                index = {c: v for v, c in enumerate(cells)}
                edges = [(index[(0, j)], index[nb])
                         for i, j in cells if i == 0
                         for nb in ((0, j + 1), (1, j)) if nb in index]
                completions = count_brute(MatchGraph(cells, edges))
                assert t.get(a, {}).get(b, 0) == completions, (a, b)

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matrix_power_counts_staircase_strips(self, w, k):
        # the single-column step operator must reproduce the matchings of a
        # k-column staircase band counted by the backtracking oracle
        cells = {(i, j) for i in range(k) for j in range(-i, -i + w)}
        strip = _square_graph(cells)
        vec = {0: 1}
        t = _operators(w)[2]
        for _ in range(k):
            nxt = {}
            for a, u in vec.items():
                for b in t.get(a, {}):
                    nxt[b] = nxt.get(b, 0) + u
            vec = nxt
        assert vec.get(0, 0) == count_brute(strip)


class TestDetectPolynomial:
    def test_quadratic(self):
        assert detect_polynomial([1, 4, 9, 16, 25]).detected_degree == 2

    def test_constant(self):
        assert detect_polynomial([5, 5, 5, 5]).detected_degree == 0

    def test_exponential_has_no_degree(self):
        assert detect_polynomial([1, 2, 4, 8, 16]).detected_degree is None

    def test_zero_window_reports_zero_polynomial(self):
        report = detect_polynomial([0, 0, 0, 0])
        assert report.detected_degree == 0
        assert report.differences == ((0, 0, 0, 0), (0, 0, 0), (0, 0), (0,))

    def test_window_too_short(self):
        with pytest.raises(BoundError):
            detect_polynomial([1, 2])

    @pytest.mark.parametrize("counts", [
        [1.5, 2.5, 3.5],
        ["1", "4", "9"],
        [1, 4, 9.0],
        [True, False, True],
    ])
    def test_refuses_counts_that_are_not_integers(self, counts):
        # int() would read [1.5, 2.5, 3.5] as (1, 2, 3), of degree 1
        with pytest.raises(TypeError, match="integer counts"):
            detect_polynomial(counts)

    def test_random_integer_polynomials(self):
        rng = random.Random(99)
        for _ in range(40):
            degree = rng.randint(0, 4)
            coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [
                rng.choice((-3, -2, -1, 1, 2, 3))
            ]
            samples = max(degree + 2, 3)
            values = [
                sum(c * x**k for k, c in enumerate(coeffs))
                for x in range(samples)
            ]
            assert detect_polynomial(values).detected_degree == degree, coeffs

    def test_difference_table_shape(self):
        report = detect_polynomial([1, 4, 9, 16])
        assert report.differences[0] == (1, 4, 9, 16)
        assert report.differences[1] == (3, 5, 7)
        assert report.differences[2] == (2, 2)
        assert report.differences[3] == (0,)
        assert report.detected_degree == 2
        # one copy of the counts: the table's first row
        assert [f.name for f in fields(report)] == ["detected_degree", "differences"]
