"""Named, runnable verification claims with machine-readable reports.

Each claim builds its regions, computes the quantity with the exact
engines, and returns a ClaimReport.  PASS/FAIL verdicts rest on exact
integer or rational arithmetic only; floating point appears exclusively
in REPORT_ONLY content (the asymptotic table).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
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
from .graphs import MatchGraph
from .regions import (
    RegionSpec,
    aztec_rectangle_cells,
    aztec_window_cell_count,
    central_rhombus_edge,
    hexagon_cells,
)
from .spectra import kasteleyn_matrix, kk_star_charpoly
from .transfer import column_annihilator, count_sequence, detect_polynomial

PASS, FAIL, REPORT_ONLY = "PASS", "FAIL", "REPORT_ONLY"

ASYMPTOTIC_MARGIN = 1e-9  # g(n+1) - g(n) must exceed this to count as a rise


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one named check.

    ``expected`` may carry a ``note`` describing where the value comes
    from; every other key of ``expected`` must equal the corresponding
    ``computed`` entry exactly for a PASS.  REPORT_ONLY claims carry no
    expected value.
    """

    claim_id: str
    parameters: dict
    computed: object
    expected: object
    verdict: str
    runtime_ms: int

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "parameters": self.parameters,
            "computed": self.computed,
            "expected": self.expected,
            "verdict": self.verdict,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv_row(self) -> dict:
        def flat(v):
            return v if isinstance(v, str) else json.dumps(v)

        return {
            "claim_id": self.claim_id,
            "parameters": ";".join(f"{k}={v}" for k, v in self.parameters.items()),
            "computed": flat(self.computed),
            "expected": flat(self.expected),
            "verdict": self.verdict,
            "runtime_ms": str(self.runtime_ms),
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
    edge instead (negative control, REPORT_ONLY).
    """
    t0 = time.perf_counter()
    if not 1 <= n <= 3:
        raise BoundError("problem1 desk bound is 1 <= n <= 3")
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

    The count is trace((A^x T0)^4) (see ``transfer``).  With
    A^j (A - I)^k = 0 from ``column_annihilator``, it is a polynomial of
    degree <= D = 4(k - 1) for x >= j (zero for k = 0; D is then taken as
    0).  The D + 1 counts from the onset fix it in Newton form, and two
    more held-out counts must fit it: PASS is a proof for this w, with
    (j, k, d) and the coefficients in the report.  The counts for
    x = 1..x_to and their difference table are reported as well.
    Windows with zero counts (odd w, past half their width) are reported,
    not asserted.  Counts out of reach raise BoundError or RegionError.
    """
    t0 = time.perf_counter()
    if x_to < 3:
        raise BoundError("problem14 needs x_to >= 3 for difference detection")
    aztec_window_cell_count(x_to, w)  # the largest window's own refusal
    if x_to > 64:  # every certificate, up to w = 10, needs x <= 31
        raise BoundError("problem14 desk bound is x_to <= 64")
    j, k = column_annihilator(w)
    onset, bound = max(j, 1), max(4 * (k - 1), 0)
    last = onset + bound + 2
    counts = count_sequence(w, 1, max(x_to, last))
    report = detect_polynomial(counts[:x_to], x_from=1, w=w)
    fit = detect_polynomial(counts[onset - 1:last], x_from=onset, w=w)
    d = fit.detected_degree
    proved = d is not None and d <= bound
    newton = [row[0] for row in fit.differences[:d + 1]] if proved else []
    computed = {
        "degree_finite": proved,
        "poly": report.to_dict(),
        "certificate": {
            "j": j,
            "k": k,
            "d": d if proved else None,
            "onset": onset,
            "degree_bound": bound,
            "fit_points": [onset, onset + bound],
            "held_out": [last - 1, last],
            "newton": [str(c) for c in newton],
            "coefficients": [str(c) for c in _power_coefficients(newton, onset)],
        },
    }
    params = {"w": w, "x_from": 1, "x_to": x_to}
    if 0 in counts:
        computed["zero_counts"] = True
        return _finish("problem14", params, computed, None, t0)
    expected = {
        "degree_finite": True,
        "note": "A^j (A - I)^k = 0 makes the count a polynomial of degree "
                "<= 4(k - 1) in the inner order for x >= j; D + 1 counts fix "
                "it and two held-out counts fit it",
    }
    return _finish("problem14", params, computed, expected, t0)


# -- problem 19: hypercube 1-factors ----------------------------------------


def _hypercube_count(n: int) -> int:
    return count_permanent(RegionSpec("HYPERCUBE", {"n": n}).build())


def verify_problem19_parity(n_max: int = 5) -> ClaimReport:
    """f(n), the number of 1-factors of the n-cube, has the parity of n.

    f is computed by the permanent and cross-checked against the
    backtracking oracle for n <= 4.
    """
    t0 = time.perf_counter()
    if not 1 <= n_max <= 5:
        raise BoundError("problem19 parity desk bound is n_max <= 5")
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
        raise BoundError("full matching enumeration is bounded at n <= 4")
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
    if not 1 <= n <= 4:
        raise BoundError("problem19 orbits desk bound is n <= 4")
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

    REPORT_ONLY: a five-term trend is consistent with g(n) ~ n/e but can
    never verify the limit, so no PASS is ever issued here.
    """
    t0 = time.perf_counter()
    if not 1 <= n_max <= 5:
        raise BoundError("problem19 asymptotic desk bound is n_max <= 5")
    rows = []
    gs = []
    for n in range(1, n_max + 1):
        f = _hypercube_count(n)
        gval = float(f) ** (2.0 ** (1 - n))
        gs.append(gval)
        rows.append({
            "n": n,
            "f": str(f),
            "g": gval,
            "n_over_e": n / math.e,
        })
    increasing = all(b - a > ASYMPTOTIC_MARGIN for a, b in zip(gs, gs[1:]))
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


def random_region(rng: random.Random, kind: Optional[str] = None) -> tuple[RegionSpec, MatchGraph]:
    """One random small region, deterministic from the generator state."""
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
    return spec, spec.build()


def _majority_color(cells) -> int:
    ones = sum((i + j) & 1 for i, j in cells)
    return 1 if 2 * ones > len(cells) else 0


def verify_oracles(seed: int = 1, cases: int = 50) -> ClaimReport:
    """Random small regions across every kind: the backtracking count, the
    Kasteleyn determinant and the permanent must agree wherever each
    applies, and |charpoly constant term| must equal the count squared.
    The permanent runs the state DP (``counting._advance``, the loop that
    also sweeps the window operators), so every balanced case checks that
    loop against the backtracking search.  The draw can repeat a region;
    ``distinct_cases`` counts the different region specs among the cases."""
    t0 = time.perf_counter()
    if not 1 <= cases <= 1000:
        raise BoundError("oracles desk bound is 1 <= cases <= 1000")
    rng = random.Random(seed)
    disagreements = []
    zero_cases = 0
    kind_tally: dict[str, int] = {}
    distinct: set[str] = set()
    for case in range(cases):
        kind = _CORPUS_KINDS[case % len(_CORPUS_KINDS)]
        spec, g = random_region(rng, kind)
        kind_tally[kind] = kind_tally.get(kind, 0) + 1
        distinct.add(json.dumps(spec.to_dict(), sort_keys=True))
        reference = count_brute(g)
        if reference == 0:
            zero_cases += 1
        got = {"brute": reference}
        if g.coords is not None and g.color is not None:
            got["kasteleyn"] = count_kasteleyn(g)
        if g.color is not None and g.is_balanced():
            if g.class_sizes()[0] <= PERMANENT_LIMIT:
                got["permanent"] = count_permanent(g)
            if g.coords is not None:
                cp = kk_star_charpoly(kasteleyn_matrix(g))
                got["charpoly_constant_identity"] = (
                    abs(cp.constant_term) == reference * reference
                )
        bad = [
            (name, value)
            for name, value in got.items()
            if name in ("kasteleyn", "permanent") and value != reference
        ]
        if got.get("charpoly_constant_identity") is False:
            bad.append(("charpoly_constant_identity", False))
        if bad:
            disagreements.append({"case": case, "spec": spec.to_dict(), "got": dict(got)})
    computed = {
        "cases": cases,
        "distinct_cases": len(distinct),
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
