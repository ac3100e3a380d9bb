import json
import math
import random

import numpy as np
import pytest

from matchenum import (
    BoundError,
    GraphError,
    MatchGraph,
    build_aztec_diamond,
    build_aztec_window,
    build_hexagon,
    count_auto,
    count_brute,
    count_kasteleyn,
    kasteleyn_matrix,
    kk_star_charpoly,
    random_region,
    singular_values,
)
from matchenum import counting, spectra
from matchenum.cli import cli_main
from matchenum.spectra import CharPoly, SignedMatrix, _digit_width, _kk_star
from test_counting import MALFORMED_ROWS, nested_island_hexagon


def four_cycle():
    return build_aztec_diamond(1)


def sparse(m):
    """The rows of a dense matrix as ``det_bareiss`` and ``SignedMatrix``
    take them: ``{column: value}`` over the nonzeros."""
    return tuple({j: v for j, v in enumerate(row) if v} for row in m)


def dense(k):
    return [[row.get(j, 0) for j in range(k.dimension)] for row in k.rows]


def dense_kk_star(k):
    """K K^T from ``_kk_star``'s sparse rows as a dense m x m list."""
    return [[row.get(j, 0) for j in range(k.dimension)] for row in _kk_star(k)]


# the scalar recurrence that the packed rows replaced, their reference
def scalar_kk_star_charpoly(k: SignedMatrix, matrices=None) -> CharPoly:
    """Exact characteristic polynomial of A = K*K^T.

    Faddeev-LeVerrier recurrence over the integers: M_1 = I, then
    c_{m-s} = -tr(A M_s) / s and M_{s+1} = A M_s + c_{m-s} I; the trace
    divisions are exact and asserted to be so.  Each M_s and A M_s, s <= m,
    is appended to ``matrices`` when it is given.
    """
    a = dense_kk_star(k)
    m = len(a)
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    mat = [[int(i == j) for j in range(m)] for i in range(m)]  # M_1 = I
    for step in range(1, m + 1):
        prod = [[0] * m for _ in range(m)]  # A @ M_step
        for i in range(m):
            ai = a[i]
            row = prod[i]
            for t in range(m):
                ait = ai[t]
                if ait:
                    mt = mat[t]
                    for j in range(m):
                        row[j] += ait * mt[j]
        q, r = divmod(-sum(prod[i][i] for i in range(m)), step)
        if r:
            raise ArithmeticError("trace division in the recurrence not exact")
        coeffs[m - step] = q
        if matrices is not None:
            matrices += [mat, prod]
        mat = [[v + q * (i == j) for j, v in enumerate(row)] for i, row in enumerate(prod)]
    return CharPoly(tuple(coeffs))


def assert_packed_equals_scalar(k):
    """The packed-row charpoly against the scalar recurrence it replaced,
    and its c_{m-1} against -tr(K K^T)."""
    cp = kk_star_charpoly(k)
    assert cp == scalar_kk_star_charpoly(k)
    a = dense_kk_star(k)
    assert cp.coeffs[-1] == 1
    if a:
        assert cp.coeffs[-2] == -sum(a[i][i] for i in range(len(a)))
    return cp


def assert_digit_width_bounds_every_entry(k):
    """The packed digit width's contract: every entry of every M_s and
    A M_s of the recurrence on A = K K^T lies below 2^(B - 1)."""
    a = dense_kk_star(k)
    width = _digit_width(len(a), sum(a[i][i] for i in range(len(a))))
    matrices = []
    cp = scalar_kk_star_charpoly(k, matrices)
    assert cp == kk_star_charpoly(k)
    assert len(matrices) == 2 * len(a)
    widest = max((abs(v) for mat in matrices for row in mat for v in row), default=0)
    assert widest < 1 << (width - 1)
    return widest, width


def eigvalsh_of_kk_star(k):
    entries = np.array(dense(k), dtype=float).reshape(k.dimension, k.dimension)
    return np.sort(np.linalg.eigvalsh(entries @ entries.T))


def assert_squares_match_eigvalsh(k):
    """Squared singular values against LAPACK, to round-off of ||K K^T||."""
    sv = singular_values(k)
    assert sv == sorted(sv, reverse=True)
    assert all(isinstance(s, float) for s in sv)
    ref = eigvalsh_of_kk_star(k)
    got = np.sort(np.square(sv))
    assert got.shape == ref.shape
    tol = 1e-12 * max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    assert np.all(np.abs(got - np.maximum(ref, 0.0)) <= tol)


class TestKasteleynMatrix:
    def test_four_cycle(self):
        k = kasteleyn_matrix(four_cycle())
        assert k.dimension == 2
        e = dense(k)
        det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        assert abs(det) == 2

    def test_unit_hexagon(self):
        k = kasteleyn_matrix(build_hexagon((1, 1, 1, 1, 1, 1)))
        assert k.dimension == 3
        assert all(v in (-1, 0, 1) for row in dense(k) for v in row)

    def test_support_matches_adjacency(self):
        g = build_hexagon((2, 2, 2, 2, 2, 2))
        k = kasteleyn_matrix(g)
        rows, cols = g.classes
        e = dense(k)
        for i, u in enumerate(rows):
            for j, v in enumerate(cols):
                assert (e[i][j] != 0) == g.has_edge(u, v)

    def test_needs_balance(self):
        with pytest.raises(GraphError):
            kasteleyn_matrix(build_hexagon((1, 2, 1, 2, 1, 2)))

    def test_needs_embedding(self):
        g = MatchGraph(labels=[0, 1], edges=[(0, 1)], color=[0, 1])
        with pytest.raises(GraphError):
            kasteleyn_matrix(g)


class TestKKStar:
    @pytest.mark.parametrize("make", [
        four_cycle,
        lambda: build_hexagon((2, 3, 4, 2, 3, 4)),
        lambda: build_aztec_diamond(4),
        lambda: build_aztec_window(2, 4),
        nested_island_hexagon,
    ])
    def test_equals_dense_product(self, make):
        k = kasteleyn_matrix(make())
        e = dense(k)
        assert dense_kk_star(k) == [[sum(a * b for a, b in zip(ei, ej)) for ej in e] for ei in e]


class TestCharPoly:
    def test_one_by_one(self):
        g = MatchGraph(labels=[0, 1], edges=[(0, 1)],
                       coords=[(0, 0), (1, 0)], color=[0, 1])
        cp = kk_star_charpoly(kasteleyn_matrix(g))
        assert cp.coeffs == (-1, 1)  # lambda - 1

    @pytest.mark.parametrize("make,count", [
        (four_cycle, 2),
        (lambda: build_hexagon((1, 1, 1, 1, 1, 1)), 2),
        (lambda: build_hexagon((2, 2, 2, 2, 2, 2)), 20),
        (nested_island_hexagon, 32),
    ])
    def test_constant_term_is_count_squared(self, make, count):
        g = make()
        cp = kk_star_charpoly(kasteleyn_matrix(g))
        assert count_brute(g) == count
        assert abs(cp.constant_term) == count * count

    def test_monic_and_psd_sign_pattern(self):
        cp = kk_star_charpoly(kasteleyn_matrix(build_aztec_diamond(2)))
        m = cp.degree
        assert cp.coeffs[-1] == 1
        # positive semidefinite spectrum: coefficients alternate in sign
        assert all((-1) ** (m - k) * c >= 0 for k, c in enumerate(cp.coeffs))

    def test_matches_numpy_on_corpus(self):
        rng = random.Random(5)
        checked = 0
        while checked < 8:
            _, g = random_region(rng)
            if g.coords is None or g.color is None or not g.is_balanced():
                continue
            if not 1 <= g.n // 2 <= 12:
                continue
            k = kasteleyn_matrix(g)
            cp = kk_star_charpoly(k)
            entries = np.array(dense(k), dtype=float)
            ref = np.poly(entries @ entries.T)  # descending coefficients
            got = np.array(cp.coeffs[::-1], dtype=float)
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.all(np.abs(got - ref) / scale < 1e-6)
            checked += 1

    def test_invariant_under_orientation_choice(self):
        for g in (build_hexagon((2, 2, 2, 2, 2, 2)), build_aztec_window(1, 2)):
            polys = {
                kk_star_charpoly(kasteleyn_matrix(g, seed=s)).coeffs
                for s in range(5)
            }
            assert len(polys) == 1

    def test_packed_equals_scalar_on_random_regions(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            _, g = random_region(rng)
            if g.coords is None or g.color is None or not g.is_balanced():
                continue
            assert_packed_equals_scalar(kasteleyn_matrix(g))
            checked += 1

    @pytest.mark.parametrize("sides,m", [
        ((1, 1, 1, 1, 1, 1), 3),
        ((2, 3, 4, 2, 3, 4), 26),
        ((1, 3, 7, 1, 3, 7), 31),
        ((4, 4, 4, 4, 4, 4), 48),
        ((4, 4, 8, 4, 4, 8), 80),
    ])
    def test_packed_equals_scalar_on_hexagons(self, sides, m):
        k = kasteleyn_matrix(build_hexagon(sides))
        assert k.dimension == m <= spectra.SPECTRUM_DIMENSION_LIMIT
        cp = assert_packed_equals_scalar(k)
        assert abs(cp.constant_term) == count_kasteleyn(build_hexagon(sides)) ** 2

    def test_packed_equals_scalar_on_aztec_diamonds(self):
        for n in range(1, 8):
            cp = assert_packed_equals_scalar(kasteleyn_matrix(build_aztec_diamond(n)))
            assert abs(cp.constant_term) == (2 ** (n * (n + 1) // 2)) ** 2

    def test_packed_equals_scalar_on_dense_sign_matrices(self):
        # dense +-1 K: the largest row sums of A, so the widest digits
        rng = random.Random(30)
        for m in range(1, 31):
            entries = tuple(tuple(rng.choice((-1, 1)) for _ in range(m)) for _ in range(m))
            assert_packed_equals_scalar(SignedMatrix(sparse(entries)))

    def test_packed_edge_cases(self):
        empty = SignedMatrix(sparse(()))
        assert assert_packed_equals_scalar(empty).coeffs == (1,)
        zero_row = SignedMatrix(sparse(((1, 0, 1), (0, 0, 0), (1, -1, 0))))
        assert assert_packed_equals_scalar(zero_row).constant_term == 0

    @pytest.mark.parametrize("m", [1, 2, 12, spectra.SPECTRUM_DIMENSION_LIMIT])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_scalar_k_is_the_equality_case(self, m, c):
        # K = c*I: every eigenvalue of K K^T is c^2, Maclaurin's inequality
        # holds with equality, and the charpoly is (t - c^2)^m
        k = SignedMatrix(sparse([[c * (i == j) for j in range(m)] for i in range(m)]))
        expected = tuple(math.comb(m, i) * (-c * c) ** (m - i) for i in range(m + 1))
        assert kk_star_charpoly(k).coeffs == expected

    def test_dense_sign_matrix_against_determinants(self):
        # p(t) = det(t*I - K K^T) at integer t, by the sparse elimination (det_bareiss)
        rng = random.Random(31)
        for m in (11, 12, 13):
            k = SignedMatrix(sparse([[rng.choice((-1, 1)) for _ in range(m)]
                                     for _ in range(m)]))
            coeffs, a = kk_star_charpoly(k).coeffs, dense_kk_star(k)
            for t in (-3, 0, 1, 7, 50, 10**6):
                shifted = [[t * (i == j) - a[i][j] for j in range(m)] for i in range(m)]
                assert sum(c * t**i for i, c in enumerate(coeffs)) == \
                    counting.det_bareiss(sparse(shifted)), (m, t)

    @pytest.mark.parametrize("make", [
        four_cycle,
        nested_island_hexagon,
        lambda: build_aztec_diamond(4),
        lambda: build_hexagon((2, 3, 4, 2, 3, 4)),
        lambda: build_hexagon((4, 4, 4, 4, 4, 4)),
    ], ids=["four-cycle", "nested-island", "aztec-4", "hexagon-234", "hexagon-4^6"])
    def test_digit_width_bounds_every_entry_on_lattice_k(self, make):
        assert_digit_width_bounds_every_entry(kasteleyn_matrix(make()))

    @pytest.mark.parametrize("m", [1, 2, 7, 16, 30])
    def test_digit_width_bounds_every_entry_on_dense_sign_k(self, m):
        rng = random.Random(m)
        assert_digit_width_bounds_every_entry(SignedMatrix(sparse(
            [[rng.choice((-1, 1)) for _ in range(m)] for _ in range(m)])))

    @pytest.mark.parametrize("m,c", [(1, 3), (12, 1), (12, 3), (40, 2),
                                     (spectra.SPECTRUM_DIMENSION_LIMIT, 1)])
    def test_digit_width_bounds_every_entry_on_scalar_k(self, m, c):
        # K = c*I, where Maclaurin's inequality holds with equality
        assert_digit_width_bounds_every_entry(SignedMatrix(sparse(
            [[c * (i == j) for j in range(m)] for i in range(m)])))

    def test_json_constant_term_first(self, tmp_path, capsys):
        # the spectrum report lists the coefficients as strings, constant first
        path = tmp_path / "ad.json"
        path.write_text('{"kind": "AZTEC_DIAMOND", "params": {"n": 2}}')
        assert cli_main(["spectrum", "--region", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        cp = kk_star_charpoly(kasteleyn_matrix(build_aztec_diamond(2)))
        assert doc["charpoly"] == [str(c) for c in cp.coeffs]
        assert doc["charpoly"][0] == str(cp.constant_term) == "64"
        assert doc["charpoly"][-1] == "1"


class TestSingularValues:
    def test_empty(self):
        k = SignedMatrix(sparse(()))
        assert singular_values(k) == []
        assert kk_star_charpoly(k).coeffs == (1,)

    def test_one_by_one(self):
        g = MatchGraph(labels=[0, 1], edges=[(0, 1)],
                       coords=[(0, 0), (1, 0)], color=[0, 1])
        assert singular_values(kasteleyn_matrix(g)) == [1.0]

    @pytest.mark.parametrize("make,count", [
        (four_cycle, 2),
        (lambda: build_hexagon((1, 1, 1, 1, 1, 1)), 2),
        (lambda: build_hexagon((2, 2, 2, 2, 2, 2)), 20),
        (lambda: build_aztec_window(1, 2), 8),
    ])
    def test_product_is_matching_count(self, make, count):
        sv = singular_values(kasteleyn_matrix(make()))
        assert sv == sorted(sv, reverse=True)
        assert math.prod(sv) == pytest.approx(count, rel=1e-9)

    def test_squares_match_charpoly_roots(self):
        # squared singular values against an independent eigensolver, up
        # to K of dimension 48 (hexagon 4^6) and 42 (Aztec diamond n = 6)
        for make in (lambda: build_hexagon((2, 2, 2, 2, 2, 2)),
                     lambda: build_aztec_diamond(3),
                     lambda: build_hexagon((4, 4, 4, 4, 4, 4)),
                     lambda: build_aztec_diamond(6)):
            assert_squares_match_eigvalsh(kasteleyn_matrix(make()))

    def test_matches_eigvalsh_on_random_regions(self):
        rng = random.Random(1)
        checked = zero_counts = 0
        while checked < 24:
            _, g = random_region(rng)
            if g.coords is None or g.color is None or not g.is_balanced():
                continue
            k = kasteleyn_matrix(g)
            assert_squares_match_eigvalsh(k)
            if count_auto(g) == 0:
                assert min(singular_values(k)) < 1e-6
                zero_counts += 1
            checked += 1
        assert zero_counts >= 3

    def test_repeated_eigenvalues(self):
        # the Aztec diamond's symmetry gives K K^T multiple eigenvalues
        k = kasteleyn_matrix(build_aztec_diamond(4))
        ref = eigvalsh_of_kk_star(k)
        assert np.any(np.diff(ref) < 1e-9)
        assert_squares_match_eigvalsh(k)
        assert math.prod(singular_values(k)) == pytest.approx(1024, rel=1e-9)

    def test_diagonal_needs_no_iteration(self, monkeypatch):
        monkeypatch.setattr(spectra, "QL_ITERATION_LIMIT", 0)
        k = SignedMatrix(sparse(((1, 0, 0), (0, -3, 0), (0, 0, 2))))
        assert singular_values(k) == [3.0, 2.0, 1.0]

    def test_negative_round_off_clamped_to_zero(self, monkeypatch):
        # K K^T is positive semidefinite, so an eigenvalue that round-off
        # pushes below zero is a zero singular value, not sqrt(|e|)
        monkeypatch.setattr(spectra, "_tridiagonal_eigenvalues",
                            lambda d, e: [4.0, -1e-6, 1.0])
        k = SignedMatrix(sparse(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        assert singular_values(k) == [2.0, 1.0, 0.0]

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "QL_ITERATION_LIMIT", 0)
        k = SignedMatrix(sparse(((1, 0), (1, 1))))  # K K^T = [[1, 1], [1, 2]]
        with pytest.raises(ArithmeticError):
            singular_values(k)


class TestMalformedEntries:
    @pytest.mark.parametrize("entries,error", [
        (({0: 1}, {0: 1, 2: 2}), ValueError),  # a column past n
        (({0: 1, 2: -3}, {1: 2}), ValueError),  # 2 x 3: K is square
        (({0: 1.5}, {1: 1}), TypeError),
        (({0: True}, {1: 1}), TypeError),
        (((1, 0), (0, 1)), TypeError),  # dense rows
        (({-1: 1}, {1: 1}), ValueError),  # would index from the end
    ])
    def test_refused_when_made(self, entries, error):
        with pytest.raises(error):
            SignedMatrix(entries)

    @pytest.mark.parametrize("refuse", [counting.det_bareiss, SignedMatrix],
                             ids=["det_bareiss", "SignedMatrix"])
    @pytest.mark.parametrize("rows,error", MALFORMED_ROWS)
    def test_one_row_check(self, refuse, rows, error):
        # the determinant and the spectrum refuse the same rows alike
        with pytest.raises(error):
            refuse(rows)

    def test_other_ints_allowed(self):
        k = SignedMatrix(({0: 1, 2: -3}, {1: 2}, {}))
        assert dense_kk_star(k) == [[10, 0, 0], [0, 4, 0], [0, 0, 0]]
        assert type(k).__slots__ == ("rows",)  # no dense copy


class TestDimensionBound:
    def test_limit_admits_hexagon_5(self):
        k = kasteleyn_matrix(build_hexagon((5, 5, 5, 5, 5, 5)))
        assert k.dimension == 75 <= spectra.SPECTRUM_DIMENSION_LIMIT

    @pytest.mark.parametrize("compute", [kk_star_charpoly, singular_values])
    def test_refused_before_any_work(self, compute, monkeypatch):
        # dimension 90, built past kasteleyn_matrix, which refuses it: the
        # SignedMatrix that would carry it is refused when it is made
        rows = counting.signed_biadjacency(build_aztec_diamond(9))

        def no_work(_):
            raise AssertionError("K K^T built past the bound")

        monkeypatch.setattr(spectra, "_kk_star", no_work)
        with pytest.raises(BoundError, match="K dimension 90 exceeds the spectrum limit 80"):
            compute(SignedMatrix(tuple(rows)))

    def test_kasteleyn_matrix_refused_before_the_orientation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the faces were walked")

        monkeypatch.setattr(counting, "kasteleyn_orient", fail)
        with pytest.raises(BoundError, match="K dimension 90 exceeds the spectrum limit 80"):
            kasteleyn_matrix(build_aztec_diamond(9))
