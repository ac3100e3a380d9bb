"""Named, runnable verification claims with machine-readable reports.

Each claim builds its regions, computes the quantity with the exact
engines, and returns a ClaimReport.  PASS/FAIL verdicts rest on exact
integer or rational arithmetic only; floating point appears exclusively
in REPORT_ONLY content (the asymptotic table).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Optional

from .counting import (
    PERMANENT_LIMIT,
    BoundError,
    count_brute,
    count_kasteleyn,
    count_permanent,
    containment_counts,
    containment_ratio,
    enumerate_matchings,
)
from .graphs import MatchGraph, Record
from .regions import (
    RegionSpec,
    aztec_rectangle_cells,
    aztec_window_cell_count,
    central_rhombus_edge,
    hexagon_cells,
)
from .spectra import kasteleyn_matrix, kk_star_charpoly
from .transfer import (
    _operators, _ring_trace, column_annihilator, count_sequence, detect_polynomial,
)

PASS, FAIL, REPORT_ONLY = "PASS", "FAIL", "REPORT_ONLY"


class ClaimReport(Record):
    """Outcome of one named check.

    ``expected`` may carry a ``note`` describing where the value comes
    from; every other key of ``expected`` must equal the corresponding
    ``computed`` entry exactly for a PASS.  REPORT_ONLY claims carry no
    expected value.  A frozen ``Record``; its parameters dict makes it
    unhashable.
    """

    __slots__ = ("claim_id", "parameters", "computed", "expected", "verdict",
                 "runtime_ms")

    def __init__(self, claim_id: str, parameters: dict, computed: object,
                 expected: object, verdict: str, runtime_ms: int):
        super().__init__(claim_id, parameters, computed, expected, verdict, runtime_ms)

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "parameters": self.parameters,
            "computed": self.computed,
            "expected": self.expected,
            "verdict": self.verdict,
            "runtime_ms": self.runtime_ms,
        }


def _verdict(computed: dict, expected: Optional[dict]) -> str:
    if expected is None:
        return REPORT_ONLY
    for key, want in expected.items():
        if key == "note":
            continue
        if computed.get(key) != want:
            return FAIL
    return PASS


def _require_ints(**params) -> None:
    """Refuse a claim parameter that is not an int before any work: a bool
    or a float would pass the desk bounds and be reported as given."""
    for name, value in params.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def _finish(claim_id, parameters, computed, expected, t0, verdict=None) -> ClaimReport:
    if verdict is None:
        verdict = _verdict(computed, expected)
    ms = int((time.perf_counter() - t0) * 1000)
    return ClaimReport(claim_id, parameters, computed, expected, verdict, ms)


# -- problem 1: central rhombus containment ratio ---------------------------


def verify_problem1(n: int = 1, off_center: bool = False) -> ClaimReport:
    """Hexagon (a, a, b, a, a, b) with a = 2n-1, b = 2n: the fraction of
    rhombus tilings containing the central rhombus is exactly 1/3.

    With ``off_center`` the ratio is taken at a deliberately non-central
    edge instead (negative control, REPORT_ONLY); it must be a bool, so
    that a truthy string is not taken for the flag.
    """
    t0 = time.perf_counter()
    _require_ints(n=n)
    if type(off_center) is not bool:
        raise TypeError(f"off_center must be a bool, not {type(off_center).__name__}")
    if not 1 <= n <= 13:  # n = 13 has 1925 rows, the most under KASTELEYN_LIMIT
        raise BoundError("problem1 desk bound is 1 <= n <= 13")
    a, b = 2 * n - 1, 2 * n
    sides = (a, a, b, a, a, b)
    spec = RegionSpec("HEXAGON", {"sides": list(sides)})
    g = spec.build()
    cell_up, cell_down = central_rhombus_edge(sides)
    central = g.edge_by_labels(cell_up, cell_down)

    if off_center:
        # control edge at a minimum-degree corner cell, far from the centre
        v = min(range(g.n), key=g.degree)
        edge = next(e for e in g.edges if v in e and e != central)
        ratio = containment_ratio(g, edge)
        lu, lv = g.labels[edge[0]], g.labels[edge[1]]
        computed = {
            "ratio": str(ratio),
            "edge": [list(lu), list(lv)],
            "control": "off-center edge, expected to differ from 1/3",
        }
        return _finish("problem1", {"n": n, "off_center": True}, computed, None, t0)

    containing, total = containment_counts(g, central)
    computed = {
        "ratio": str(Fraction(containing, total)),
        "edge": [list(cell_up), list(cell_down)],
        "total": str(total),
        "containing": str(containing),
    }
    expected = {"ratio": "1/3", "note": "known exact value: one third"}
    return _finish("problem1", {"n": n, "sides": list(sides)}, computed, expected, t0)


# -- problem 14: window counts are polynomial in the inner order ------------


def _power_coefficients(newton: list[int], onset: int) -> list[Fraction]:
    """Coefficients, lowest power first, of sum_i newton[i] * C(x - onset, i)."""
    coeffs = [Fraction(0)] * len(newton)
    basis = [Fraction(1)]  # C(x - onset, i) in powers of x
    for i, c in enumerate(newton):
        for p, b in enumerate(basis):
            coeffs[p] += c * b
        # C(x - onset, i + 1) = C(x - onset, i) * (x - onset - i) / (i + 1)
        basis = [(lower - (onset + i) * b) / (i + 1)
                 for lower, b in zip([Fraction(0), *basis], [*basis, Fraction(0)])]
    return coeffs


def verify_problem14(w: int = 2, x_to: int = 8) -> ClaimReport:
    """Aztec windows of thickness w: the count is a polynomial in the inner
    order x from an onset on, proved and found exactly.

    The count is trace((M A^x H)^4) (see ``transfer``).  With
    A^j (A - I)^k H = 0 from ``column_annihilator``, it is a polynomial of
    degree <= D = 4(k - 1) for x >= j (the zero polynomial for k = 0, as
    for odd w; D is then taken as 0).  The counts for x = 1..X, with
    X = max(x_to, onset + D + 2), take one difference table from the
    onset: its first D + 1 counts fix the polynomial in Newton form and
    every later count, at least two, is held out and must fit it.  PASS is
    a proof for this w, with (j, k, d) and the coefficients in the report,
    and checks H and M against the order-w diamond's 2^(w(w+1)/2) tilings
    (Elkies, Kuperberg, Larsen and Propp 1992) as trace((M H)^4).  The
    counts for x = 1..x_to are reported.  Counts out of reach raise
    BoundError or RegionError.
    """
    t0 = time.perf_counter()
    _require_ints(w=w, x_to=x_to)
    aztec_window_cell_count(x_to, w)  # the largest window's own refusal
    if x_to > 64:  # every certificate, up to w = 10, needs x <= 27
        raise BoundError("problem14 desk bound is x_to <= 64")
    j, k = column_annihilator(w)
    onset, bound = max(j, 1), max(4 * (k - 1), 0)
    last = max(x_to, onset + bound + 2)
    counts = count_sequence(w, 1, last)
    fit = detect_polynomial(counts[onset - 1:])
    d = fit.detected_degree
    proved = d is not None and d <= bound
    newton = [row[0] for row in fit.differences[:d + 1]] if proved else []
    computed = {
        "degree_finite": proved,
        "diamond_count": str(_ring_trace(_operators(w)[0], w)),
        "poly": {"counts": [str(c) for c in counts[:x_to]]},
        "certificate": {
            "j": j,
            "k": k,
            "d": d if proved else None,
            "onset": onset,
            "degree_bound": bound,
            "fit_points": [onset, onset + bound],
            "held_out": [onset + bound + 1, last],
            "newton": [str(c) for c in newton],
            "coefficients": [str(c) for c in _power_coefficients(newton, onset)],
        },
    }
    expected = {
        "degree_finite": True,
        "diamond_count": str(2 ** (w * (w + 1) // 2)),
        "note": "A^j (A - I)^k H = 0 makes the count a polynomial of degree "
                "<= 4(k - 1) in the inner order for x >= j; D + 1 counts fix "
                "it and every later count fits it; trace((M H)^4) is the "
                "order-w diamond's count",
    }
    return _finish("problem14", {"w": w, "x_from": 1, "x_to": x_to}, computed, expected, t0)


# -- problem 19: hypercube 1-factors ----------------------------------------


def _hypercube_count(n: int) -> int:
    return count_permanent(RegionSpec("HYPERCUBE", {"n": n}).build())


def verify_problem19_parity(n_max: int = 5) -> ClaimReport:
    """f(n), the number of 1-factors of the n-cube, has the parity of n.

    f is computed by the permanent and cross-checked against the
    backtracking oracle for n <= 4.
    """
    t0 = time.perf_counter()
    _require_ints(n_max=n_max)
    if not 1 <= n_max <= 5:
        raise BoundError("problem19 parity desk bound is 1 <= n_max <= 5")
    f, agree = [], True
    for n in range(1, n_max + 1):
        g = RegionSpec("HYPERCUBE", {"n": n}).build()
        value = count_permanent(g)
        if n <= 4 and count_brute(g) != value:
            agree = False
        f.append(value)
    computed = {
        "f": [str(v) for v in f],
        "f_mod_2": [v % 2 for v in f],
        "methods_agree": agree,
    }
    expected = {
        "f_mod_2": [n % 2 for n in range(1, n_max + 1)],
        "methods_agree": True,
        "note": "1-factor count of the n-cube has the same parity as n",
    }
    return _finish("problem19-parity", {"n_max": n_max}, computed, expected, t0)


def matching_orbits(n: int) -> list[list[frozenset]]:
    """Orbits of the perfect matchings of the n-cube under the group
    generated by the n coordinate reflections (all 2**n XOR masks)."""
    if not 1 <= n <= 4:
        raise BoundError("full matching enumeration is bounded at 1 <= n <= 4")
    g = RegionSpec("HYPERCUBE", {"n": n}).build()
    # vertex labels are the bit vectors themselves, in index order
    matchings = list(enumerate_matchings(g))
    index = {m: k for k, m in enumerate(matchings)}
    seen = [False] * len(matchings)
    orbits = []
    for k, m in enumerate(matchings):
        if seen[k]:
            continue
        orbit = set()
        for mask in range(1 << n):
            img = frozenset(
                tuple(sorted((u ^ mask, v ^ mask))) for u, v in m
            )
            orbit.add(index[img])
        for i in orbit:
            seen[i] = True
        orbits.append([matchings[i] for i in sorted(orbit)])
    return orbits


def _all_parallel(matching: frozenset) -> bool:
    return len({u ^ v for u, v in matching}) == 1


def verify_problem19_orbits(n: int = 3) -> ClaimReport:
    """Reflection orbits of the n-cube matchings: exactly n fixed points,
    all of them all-parallel, every other orbit an even power of two, and
    the sizes add up to f(n)."""
    t0 = time.perf_counter()
    _require_ints(n=n)
    if not 1 <= n <= 4:
        raise BoundError("problem19 orbits desk bound is 1 <= n <= 4")
    orbits = matching_orbits(n)
    sizes = sorted(len(o) for o in orbits)
    fixed = [o[0] for o in orbits if len(o) == 1]
    f = _hypercube_count(n)
    computed = {
        "orbit_sizes": sizes,
        "fixed_point_count": len(fixed),
        "fixed_all_parallel": all(_all_parallel(m) for m in fixed),
        "others_power_of_two": all(
            s >= 2 and (s & (s - 1)) == 0 for s in sizes if s != 1
        ),
        "total": str(sum(sizes)),
        "f": str(f),
    }
    expected = {
        "fixed_point_count": n,
        "fixed_all_parallel": True,
        "others_power_of_two": True,
        "total": str(f),
        "note": "n all-parallel matchings are the only reflection-fixed ones; "
                "every other orbit has size 2^k, k >= 1",
    }
    return _finish("problem19-orbits", {"n": n}, computed, expected, t0)


def verify_problem19_asymptotic(n_max: int = 5) -> ClaimReport:
    """Tabulate g(n) = f(n)^(2^(1-n)) beside n/e and check that g is
    strictly increasing on the desk range.

    g(n + 1) > g(n) exactly when f(n + 1) > f(n)^2 (raise both sides to
    the power 2^n), so the trend is decided on the integers; the floats of
    the table are report-only.  REPORT_ONLY: a five-term trend is
    consistent with g(n) ~ n/e but can never verify the limit, so no PASS
    is ever issued here.
    """
    t0 = time.perf_counter()
    _require_ints(n_max=n_max)
    if not 1 <= n_max <= 5:
        raise BoundError("problem19 asymptotic desk bound is 1 <= n_max <= 5")
    fs = [_hypercube_count(n) for n in range(1, n_max + 1)]
    rows = [{"n": n, "f": str(f), "g": float(f) ** (2.0 ** (1 - n)), "n_over_e": n / math.e}
            for n, f in enumerate(fs, start=1)]
    increasing = all(b > a * a for a, b in zip(fs, fs[1:]))
    computed = {"table": rows, "strictly_increasing": increasing}
    verdict = REPORT_ONLY if increasing else FAIL
    return _finish(
        "problem19-asymptotic", {"n_max": n_max}, computed, None, t0, verdict
    )


# -- randomized oracle agreement ---------------------------------------------

_CORPUS_KINDS = (
    "HEXAGON", "AZTEC_DIAMOND", "AZTEC_RECTANGLE", "AZTEC_WINDOW", "HYPERCUBE",
)
_WINDOW_CHOICES = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3))


def random_spec(rng: random.Random, kind: Optional[str] = None) -> RegionSpec:
    """The spec of one random small region, deterministic from the
    generator state."""
    if kind is None:
        kind = rng.choice(_CORPUS_KINDS)
    if kind == "HEXAGON":
        while True:
            a, b, c = (rng.randint(0, 3) for _ in range(3))
            d = rng.choice((-1, 0, 1))
            sides = (a, b + d, c, a + d, b, c + d)
            if all(0 <= s <= 3 for s in sides) and sum(sides) > 0:
                break
        cells = sorted(hexagon_cells(sides))
        n_holes = rng.randint(0, 2) if cells else 0
        holes = tuple(rng.sample(cells, min(n_holes, len(cells))))
        spec = RegionSpec("HEXAGON", {"sides": list(sides)}, holes=holes)
    elif kind == "AZTEC_DIAMOND":
        spec = RegionSpec("AZTEC_DIAMOND", {"n": rng.randint(1, 3)})
    elif kind == "AZTEC_RECTANGLE":
        a = rng.randint(1, 3)
        b = rng.randint(a, 3)
        removed = []
        if a != b:
            # restore balance by removing b - a cells of the majority color
            cells = sorted(aztec_rectangle_cells(a, b))
            majority = [c for c in cells if ((c[0] + c[1]) & 1) == _majority_color(cells)]
            removed = [list(c) for c in sorted(rng.sample(majority, b - a))]
        spec = RegionSpec("AZTEC_RECTANGLE", {"a": a, "b": b, "removed": removed})
    elif kind == "AZTEC_WINDOW":
        x, w = rng.choice(_WINDOW_CHOICES)
        spec = RegionSpec("AZTEC_WINDOW", {"x": x, "w": w})
    else:
        spec = RegionSpec("HYPERCUBE", {"n": rng.randint(1, 4)})
    return spec


def random_region(rng: random.Random, kind: Optional[str] = None) -> tuple[RegionSpec, MatchGraph]:
    """One random small region and its graph: ``random_spec``, built."""
    spec = random_spec(rng, kind)
    return spec, spec.build()


def _majority_color(cells) -> int:
    ones = sum((i + j) & 1 for i, j in cells)
    return 1 if 2 * ones > len(cells) else 0


def _oracle_counts(g: MatchGraph) -> dict:
    """The backtracking count of g, and every other engine that applies."""
    reference = count_brute(g)
    got = {"brute": reference}
    if g.coords is not None and g.color is not None:
        got["kasteleyn"] = count_kasteleyn(g)
    if g.color is not None and g.is_balanced():
        if g.class_sizes()[0] <= PERMANENT_LIMIT:
            got["permanent"] = count_permanent(g)
        if g.coords is not None:
            cp = kk_star_charpoly(kasteleyn_matrix(g, seed=1))
            got["charpoly_constant_identity"] = (
                abs(cp.constant_term) == reference * reference
            )
    return got


def _oracles_agree(got: dict) -> bool:
    reference = got["brute"]
    return (got.get("kasteleyn", reference) == reference
            and got.get("permanent", reference) == reference
            and got.get("charpoly_constant_identity") is not False)


def verify_oracles(seed: int = 1, cases: int = 50) -> ClaimReport:
    """Random small regions across every kind: the backtracking count, the
    Kasteleyn determinant and the permanent must agree wherever each
    applies, and |charpoly constant term| must equal the count squared.
    The charpoly's K is oriented with seed 1 and the determinant's with
    seed 0, so the identity also checks that the count does not depend on
    the orientation seed.
    The permanent runs the state DP (``counting._advance``, the loop that
    also sweeps the window operators), so every balanced case checks that
    loop against the backtracking search.  The draw can repeat a region;
    ``distinct_cases`` counts the different regions among the cases, keyed
    by ``RegionSpec.cells``, which are equal exactly when two specs build
    the same graph.  The engines are deterministic, so only the first case
    of each distinct region is built and counted, and a repeated case
    reuses its result; the tallies and ``disagreements`` still list every
    case."""
    t0 = time.perf_counter()
    _require_ints(seed=seed, cases=cases)
    if not 1 <= cases <= 1000:
        raise BoundError("oracles desk bound is 1 <= cases <= 1000")
    rng = random.Random(seed)
    disagreements = []
    zero_cases = 0
    kind_tally: dict[str, int] = {}
    counted: dict[frozenset, dict] = {}  # region cells -> their engines' counts
    for case in range(cases):
        kind = _CORPUS_KINDS[case % len(_CORPUS_KINDS)]
        spec = random_spec(rng, kind)
        kind_tally[kind] = kind_tally.get(kind, 0) + 1
        cells = spec.cells()
        if cells not in counted:
            counted[cells] = _oracle_counts(spec.build())
        got = counted[cells]
        if got["brute"] == 0:
            zero_cases += 1
        if not _oracles_agree(got):
            disagreements.append({"case": case, "spec": spec.to_dict(), "got": dict(got)})
    computed = {
        "cases": cases,
        "distinct_cases": len(counted),
        "all_agree": not disagreements,
        "zero_count_cases": zero_cases,
        "kinds": kind_tally,
        "disagreements": disagreements,
    }
    expected = {
        "all_agree": True,
        "note": "mutual agreement of independent exact methods",
    }
    return _finish("oracles", {"seed": seed, "cases": cases}, computed, expected, t0)


# the claim registry: ``matchenum verify --claim ID`` runs CLAIMS[ID] with
# the options it was given that the function takes, the rest by default
CLAIMS = {
    "problem1": verify_problem1,
    "problem14": verify_problem14,
    "problem19-parity": verify_problem19_parity,
    "problem19-orbits": verify_problem19_orbits,
    "problem19-asymptotic": verify_problem19_asymptotic,
    "oracles": verify_oracles,
}
