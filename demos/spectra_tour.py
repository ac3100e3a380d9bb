"""Kasteleyn matrices and their spectra.

K is the signed biadjacency of a planar bipartite region under a
Kasteleyn orientation; |det K| counts the matchings, so the constant term
of the characteristic polynomial of K K^T equals the count squared, and
the singular values of K multiply back to the count.
"""

import math

from matchenum import (
    build_aztec_diamond,
    build_hexagon,
    count_kasteleyn,
    kasteleyn_matrix,
    kk_star_charpoly,
    singular_values,
)

print("=== the 4-cycle, by hand size ===")
g = build_aztec_diamond(1)
k = kasteleyn_matrix(g)
print("K as {column: sign} rows =", list(k.rows))
cp = kk_star_charpoly(k)
print("charpoly coefficients (constant first):", list(cp.coeffs))
print("singular values:", singular_values(k))
print("count:", count_kasteleyn(g))

print()
print("=== the exact counting identity at scale ===")
for sides in [(1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), (3, 3, 3, 3, 3, 3)]:
    g = build_hexagon(sides)
    k = kasteleyn_matrix(g)
    cp = kk_star_charpoly(k)
    count = count_kasteleyn(g)
    print(f"hexagon {sides}: dimension {k.dimension}")
    print(f"   count {count}, count^2 {count * count}, "
          f"|constant term| {abs(cp.constant_term)} "
          f"(exact match: {abs(cp.constant_term) == count * count})")
    sv = singular_values(k)
    print(f"   top singular values {[round(s, 4) for s in sv[:4]]}..., "
          f"product {math.prod(sv):.6f}")

print()
print("=== orientation freedom does not touch the spectrum ===")
g = build_hexagon((2, 2, 2, 2, 2, 2))
polys = {kk_star_charpoly(kasteleyn_matrix(g, seed=s)).coeffs for s in range(6)}
print(f"distinct charpolys over 6 orientation seeds: {len(polys)}")
