"""Transfer-matrix counting around Aztec windows and a proof of
polynomiality.

For a fixed ring thickness w the window is invariant under a quarter
turn, so its tiling count is trace(T^4) of the quarter operator T of one
quadrant.  Moving the hole out by one column prepends a column to the
quadrant, so T(x) = A^x T0: T0 is the quarter operator of the order-w
Aztec diamond and A the single-column step operator, each swept once by
the frontier DP.  T0 = H M factors through the diagonal of the diamond,
so the count is computed as trace(R^4) of the half-size R = M A^x H.
The count reads A only through U(x) = A^x H, so an annihilator
A^j (A - I)^k H = 0 proves that the count is a polynomial in the inner
order x for x >= j, which the problem14 claim finds exactly.
"""

from matchenum import (
    RegionSpec,
    build_aztec_window,
    count_kasteleyn,
    count_sequence,
    detect_polynomial,
    transfer_count,
    verify_problem14,
)

print("=== one window, two engines ===")
spec = RegionSpec("AZTEC_WINDOW", {"x": 2, "w": 2})
print("transfer sweep :", transfer_count(spec))
print("Kasteleyn check:", count_kasteleyn(build_aztec_window(2, 2)))

print()
print("=== count sequences and their difference tables ===")
for w in (1, 2, 3):
    counts = count_sequence(w, 1, 8)
    report = detect_polynomial(counts)
    print(f"w={w}: counts {counts}")
    for depth, row in enumerate(report.differences[:4]):
        print(f"   diff^{depth}: {list(row)}")
    print(f"   detected degree: {report.detected_degree}")

print()
print("=== annihilators of H under A, and the certified polynomials ===")
for w in (2, 3, 4, 6):
    cert = verify_problem14(w, 8).computed["certificate"]
    print(f"w={w}: A^{cert['j']} (A - I)^{cert['k']} H = 0, degree {cert['d']} "
          f"for x >= {cert['onset']}, coefficients {cert['coefficients']}")

print()
print("Thickness 2 is constant; thickness 4 is 256 (x^2 + 2x + 2)^2.  Odd")
print("thickness has A^j H = 0, so U(x) = 0 for x >= j: those windows stop")
print("being tileable, and the claim proves their count is the zero")
print("polynomial from there on.")
