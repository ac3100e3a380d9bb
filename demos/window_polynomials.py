"""Transfer-matrix counting around Aztec windows and degree detection.

For a fixed ring thickness w the frontier DP sweeps one quadrant of the
annulus, column by column; the window is invariant under a quarter turn,
so the tiling count is trace(T^4) of the quarter operator T this sweep
gives.  The single-column step operator of a
straight arm comes from the same DP, run over one column from each
incoming mask, and is shown as a dense 2^w x 2^w matrix.  The counts,
viewed as a sequence in the inner order x, are then examined with finite
differences.
"""

from matchenum import (
    RegionSpec,
    build_aztec_window,
    column_transfer_matrix,
    count_kasteleyn,
    count_sequence,
    detect_polynomial,
    transfer_count,
)

print("=== one window, two engines ===")
spec = RegionSpec("AZTEC_WINDOW", {"x": 2, "w": 2})
print("transfer sweep :", transfer_count(spec))
print("Kasteleyn check:", count_kasteleyn(build_aztec_window(2, 2)))

print()
print("=== the single-column step operator ===")
t = column_transfer_matrix(1, 2)
print(f"thickness 2 -> {len(t)}x{len(t)} 0/1 matrix "
      "(dimension 2^w, independent of the inner order):")
for row in t:
    print("  ", row)

print()
print("=== count sequences and their difference tables ===")
for w in (1, 2, 3):
    counts = count_sequence(w, 1, 8)
    report = detect_polynomial(counts, x_from=1, w=w)
    print(f"w={w}: counts {counts}")
    for depth, row in enumerate(report.differences[:4]):
        print(f"   diff^{depth}: {list(row)}")
    print(f"   detected degree: {report.detected_degree}")
    print(f"   note: {report.note}")

print()
print("Thickness 2 is constant (degree 0) on the whole window; thickness")
print("1 and 3 windows stop being tileable as x grows, which the reports")
print("surface as zero counts rather than asserting tileability.")
