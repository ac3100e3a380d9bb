"""Exact enumeration of perfect matchings of lattice regions.

Region builders (hexagons on the triangular lattice, Aztec diamonds,
rectangles and windows on the square lattice, hypercubes), three mutually
checking exact counters (backtracking, Kasteleyn determinants and a state
DP along any vertex order, which the permanent runs along a row schedule
and which sweeps the two operators Aztec windows are counted from once
per thickness), exact Kasteleyn spectra, and a harness of named
verification claims.
"""

from .graphs import GraphError, MatchGraph
from .regions import (
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
from .counting import (
    BoundError,
    containment_ratio,
    count_auto,
    count_brute,
    count_kasteleyn,
    count_permanent,
    count_with_forced_edge,
    det_bareiss,
    enumerate_matchings,
    frontier_count,
    kasteleyn_orient,
)
from .transfer import (
    column_annihilator,
    count_sequence,
    detect_polynomial,
    transfer_count,
)
from .spectra import kasteleyn_matrix, kk_star_charpoly, singular_values
from .claims import (
    random_region,
    verify_oracles,
    verify_problem1,
    verify_problem14,
    verify_problem19_asymptotic,
    verify_problem19_orbits,
    verify_problem19_parity,
)

__all__ = [
    "BoundError",
    "GraphError",
    "MatchGraph",
    "RegionError",
    "RegionSpec",
    "TriCell",
    "build_aztec_diamond",
    "build_aztec_rectangle",
    "build_aztec_window",
    "build_hexagon",
    "build_hypercube",
    "central_rhombus_edge",
    "column_annihilator",
    "containment_ratio",
    "count_auto",
    "count_brute",
    "count_kasteleyn",
    "count_permanent",
    "count_sequence",
    "count_with_forced_edge",
    "det_bareiss",
    "detect_polynomial",
    "enumerate_matchings",
    "frontier_count",
    "hexagon_cell_count",
    "hexagon_cells",
    "kasteleyn_matrix",
    "kasteleyn_orient",
    "kk_star_charpoly",
    "random_region",
    "singular_values",
    "transfer_count",
    "verify_oracles",
    "verify_problem1",
    "verify_problem14",
    "verify_problem19_asymptotic",
    "verify_problem19_orbits",
    "verify_problem19_parity",
]
