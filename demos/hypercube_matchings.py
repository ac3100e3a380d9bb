"""1-factors of the n-cube: counts, parity, reflection orbits, growth.

The n-cube is bipartite but not planar, so the permanent does the exact
counting here, cross-checked by the backtracking oracle where feasible.
"""

import math

from matchenum import (
    build_hypercube,
    count_brute,
    count_permanent,
    verify_problem19_orbits,
)
from matchenum.claims import matching_orbits

print("=== f(n): number of perfect matchings ===")
f = {}
for n in range(1, 6):
    g = build_hypercube(n)
    f[n] = count_permanent(g)
    check = f"  (oracle {count_brute(g)})" if n <= 4 else ""
    parity = "odd" if f[n] % 2 else "even"
    print(f"n={n}: f = {f[n]:>7} ({parity}, n is {'odd' if n % 2 else 'even'}){check}")

print()
print("=== orbits under the n coordinate reflections ===")
for n in (2, 3, 4):
    orbits = verify_problem19_orbits(n).computed
    print(f"n={n}: {orbits['total']} matchings split into orbit sizes "
          f"{orbits['orbit_sizes']}")
    print(f"   fixed points: {orbits['fixed_point_count']} "
          "(one all-parallel matching per coordinate direction)")

# every fixed matching really is all-parallel
for n in (2, 3, 4):
    fixed = [o[0] for o in matching_orbits(n) if len(o) == 1]
    assert all(len({u ^ v for u, v in m}) == 1 for m in fixed)
print("fixed matchings verified all-parallel for n = 2, 3, 4")

print()
print("=== growth: g(n) = f(n)^(2^(1-n)) beside n/e ===")
print(" n        g(n)       n/e")
for n in range(1, 6):
    g_val = f[n] ** (2.0 ** (1 - n))
    print(f"{n:2d}   {g_val:9.6f} {n / math.e:9.6f}")
print("g is strictly increasing on the desk range; the n/e column shows")
print("the trend it is heading toward, which finite data cannot confirm.")
