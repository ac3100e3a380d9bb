"""Acceptance suite: every criterion is one test that prints its own
pass/fail line (visible with ``pytest -s`` or in the captured output).

All PASS/FAIL decisions below rest on exact arithmetic except where a
floating tolerance is explicitly stated.
"""

import functools
import math
import random
from fractions import Fraction

from matchenum import (
    build_aztec_diamond,
    build_aztec_window,
    build_hexagon,
    build_hypercube,
    central_rhombus_edge,
    containment_ratio,
    count_brute,
    count_kasteleyn,
    count_permanent,
    count_sequence,
    detect_polynomial,
    kasteleyn_matrix,
    kk_star_charpoly,
    random_region,
    singular_values,
    verify_problem19_asymptotic,
)
from matchenum.claims import matching_orbits


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            print(f"ACCEPTANCE PASS: {name}")
        return wrapper
    return deco


def corpus(seed=1, cases=50):
    rng = random.Random(seed)
    kinds = ("HEXAGON", "AZTEC_DIAMOND", "AZTEC_RECTANGLE",
             "AZTEC_WINDOW", "HYPERCUBE")
    return [random_region(rng, kinds[k % len(kinds)])[1] for k in range(cases)]


@criterion("problem 1 ratio: central rhombus containment is exactly 1/3 (n=1,2)")
def test_problem1_ratio():
    for sides in ((1, 1, 2, 1, 1, 2), (3, 3, 4, 3, 3, 4)):
        g = build_hexagon(sides)
        edge = g.edge_by_labels(*central_rhombus_edge(sides))
        assert containment_ratio(g, edge) == Fraction(1, 3)


@criterion("problem 19 parity: f(n) = n (mod 2) for n=1..5, permanent vs brute")
def test_problem19_parity():
    for n in range(1, 6):
        g = build_hypercube(n)
        f = count_permanent(g)
        if n <= 4:
            assert count_brute(g) == f
        assert f % 2 == n % 2


@criterion("problem 19 orbits: n fixed all-parallel matchings, other orbits 2^k")
def test_problem19_orbits():
    for n in (2, 3, 4):
        orbits = matching_orbits(n)
        sizes = sorted(len(o) for o in orbits)
        fixed = [o[0] for o in orbits if len(o) == 1]
        assert len(fixed) == n
        for m in fixed:
            assert len({u ^ v for u, v in m}) == 1  # all edges parallel
        assert all(s >= 2 and s & (s - 1) == 0 for s in sizes if s != 1)
        assert sum(sizes) == count_permanent(build_hypercube(n))


@criterion("problem 19 asymptotic: g(n) = f(n)^(2^(1-n)) strictly increasing, n=1..5")
def test_problem19_asymptotic_trend():
    report = verify_problem19_asymptotic(5)
    assert report.verdict == "REPORT_ONLY"
    gs = [row["g"] for row in report.computed["table"]]
    assert len(gs) == 5
    assert all(b - a > 1e-9 for a, b in zip(gs, gs[1:]))
    assert all({"n", "f", "g", "n_over_e"} <= set(row) for row in report.computed["table"])


@criterion("problem 14: w=2 transfer counts, Kasteleyn agreement, finite degree")
def test_problem14_polynomiality_evidence():
    counts = count_sequence(2, 1, 8)
    for x in (1, 2, 3):
        assert counts[x - 1] == count_kasteleyn(build_aztec_window(x, 2))
    report = detect_polynomial(counts)
    d = report.detected_degree
    assert d is not None
    assert not any(report.differences[d + 1])


@criterion("oracle equivalence: 50 seeded regions, all exact methods agree")
def test_oracle_equivalence_suite():
    regions = corpus(seed=1, cases=50)
    assert len(regions) >= 50
    for g in regions:
        reference = count_brute(g)
        if g.coords is not None and g.color is not None:
            assert count_kasteleyn(g) == reference
        if g.color is not None and g.is_balanced() and g.n // 2 <= 20:
            assert count_permanent(g) == reference


@criterion("spectral identity: |charpoly constant| = count^2, sv product within 1e-9")
def test_spectral_counting_identity():
    checked = 0
    for g in corpus(seed=1, cases=50):
        if g.coords is None or g.color is None or not g.is_balanced():
            continue
        if g.n // 2 > 30:
            continue
        count = count_kasteleyn(g)
        cp = kk_star_charpoly(kasteleyn_matrix(g))
        assert abs(cp.constant_term) == count * count
        product = math.prod(singular_values(kasteleyn_matrix(g)))
        if count > 0:
            assert abs(product - count) <= 1e-9 * count
        else:
            assert abs(product) <= 1e-6
        checked += 1
    assert checked >= 10


@criterion("baseline counts by two independent methods")
def test_baseline_counts():
    for sides, expected in (((1, 1, 1, 1, 1, 1), 2), ((2, 2, 2, 2, 2, 2), 20)):
        g = build_hexagon(sides)
        assert count_brute(g) == count_kasteleyn(g) == expected
    for n, expected in ((1, 2), (2, 8), (3, 64)):
        g = build_aztec_diamond(n)
        assert count_brute(g) == count_kasteleyn(g) == expected
    for n, expected in ((3, 9), (4, 272)):
        g = build_hypercube(n)
        assert count_brute(g) == count_permanent(g) == expected
