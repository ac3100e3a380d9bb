import math
import random

import numpy as np
import pytest

from matchenum import (
    GraphError,
    MatchGraph,
    build_aztec_diamond,
    build_aztec_window,
    build_hexagon,
    count_brute,
    kasteleyn_matrix,
    kk_star_charpoly,
    random_region,
    singular_values,
)
from test_counting import nested_island_hexagon


def four_cycle():
    return build_aztec_diamond(1)


class TestKasteleynMatrix:
    def test_four_cycle(self):
        k = kasteleyn_matrix(four_cycle())
        assert k.dimension == 2
        det = k.entries[0][0] * k.entries[1][1] - k.entries[0][1] * k.entries[1][0]
        assert abs(det) == 2

    def test_unit_hexagon(self):
        k = kasteleyn_matrix(build_hexagon((1, 1, 1, 1, 1, 1)))
        assert k.dimension == 3
        assert all(v in (-1, 0, 1) for row in k.entries for v in row)

    def test_support_matches_adjacency(self):
        g = build_hexagon((2, 2, 2, 2, 2, 2))
        k = kasteleyn_matrix(g)
        for i, u in enumerate(k.row_vertices):
            for j, v in enumerate(k.col_vertices):
                assert (k.entries[i][j] != 0) == g.has_edge(u, v)

    def test_needs_balance(self):
        with pytest.raises(GraphError):
            kasteleyn_matrix(build_hexagon((1, 2, 1, 2, 1, 2)))

    def test_needs_embedding(self):
        g = MatchGraph(labels=[0, 1], edges=[(0, 1)], color=[0, 1])
        with pytest.raises(GraphError):
            kasteleyn_matrix(g)


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
            entries = np.array(k.entries, dtype=float)
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

    def test_json_constant_term_first(self):
        import json

        cp = kk_star_charpoly(kasteleyn_matrix(four_cycle()))
        doc = json.loads(cp.to_json())
        assert doc[0] == str(cp.constant_term)
        assert doc[-1] == "1"


class TestSingularValues:
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
        # squared singular values against an independent eigensolver
        for make in (lambda: build_hexagon((2, 2, 2, 2, 2, 2)),
                     lambda: build_aztec_diamond(3)):
            k = kasteleyn_matrix(make())
            sv = singular_values(k)
            entries = np.array(k.entries, dtype=float)
            eig = np.sort(np.linalg.eigvalsh(entries @ entries.T))
            got = np.sort(np.square(sv))
            assert np.allclose(got, eig, rtol=1e-6, atol=1e-9)
