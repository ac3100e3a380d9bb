"""Workloads of the matchenum benchmark and the exact references they are
checked against.

A workload is a list of ``matchenum`` CLI operations plus the region files
they read, generated from the run's seed.  Each operation carries what its
output must be; ``check`` compares the CLI's stdout against it.  The
references are closed forms or stored values, never the engine under test:

* Aztec diamonds: 2^(n(n+1)/2) (Elkies, Kuperberg, Larsen, Propp 1992);
* hexagons (a, b, c, a, b, c): MacMahon's box formula;
* the central rhombus of (a, a, b, a, a, b) is in 1/3 of the tilings;
* spectrum: |constant term of the charpoly of K K^T| = count^2;
* Aztec windows: 0 for odd w, 256 (x^2 + 2x + 2)^2 for w = 4, and for
  w = 6 and w = 8 the stored table below;
* hypercube 1-factors f(1..5) = 1, 2, 9, 272, 589185.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# Aztec window counts for w = 6 and w = 8.  Each entry was computed by the
# transfer sweep and confirmed equal to the Kasteleyn determinant of the
# same window when it was recorded.
WINDOW_TABLE = {
    (6, 1): 33554432,
    (6, 2): 314703872,
    (6, 3): 1919025152,
    (6, 4): 8589934592,
    (6, 5): 30704402432,
    (6, 6): 92704735232,
    (6, 7): 245650030592,
    (6, 8): 586869112832,
    (8, 4): 73898794978115584,
    (8, 5): 731051375277899776,
}

HYPERCUBE_F = ("1", "2", "9", "272", "589185")

# Layers each kind of operation must reach in a traced pass; a missed
# rebind would otherwise hide a layer's time in its caller's self time.
_KASTELEYN = ("cli", "regions.build", "graphs.faces", "counting.kasteleyn",
              "counting.orient", "counting.biadjacency", "counting.det")
_SPECTRUM = _KASTELEYN + ("spectra.matrix", "spectra.charpoly", "spectra.jacobi")
_ORACLES = _KASTELEYN + ("claims", "counting.brute", "counting.permanent",
                         "spectra.matrix", "spectra.charpoly")
_PARITY = ("cli", "claims", "regions.build", "counting.permanent", "counting.brute")
_ORBITS = ("cli", "claims", "regions.build", "counting.enumerate",
           "counting.permanent")
_PROBLEM1 = _KASTELEYN + ("claims", "graphs.subgraph")
_TRANSFER = ("cli", "transfer.sweep")
_PROBLEM14 = _TRANSFER + ("claims", "transfer.poly")

# oracle corpora are kept only when their computed Ryser work lies in this
# band, so every run of the workload does about the same amount of work
ORACLE_CASES = 50
ORACLE_CORPORA = 5
ORACLE_WORK_BAND = (5_700_000, 6_300_000)


# -- closed forms -------------------------------------------------------------


def aztec_diamond_count(n: int) -> int:
    return 2 ** (n * (n + 1) // 2)


def macmahon(a: int, b: int, c: int) -> int:
    """Lozenge tilings of the (a, b, c, a, b, c) hexagon (plane partitions
    in an a x b x c box)."""
    value = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            value *= Fraction(i + j + c - 1, i + j - 1)
    assert value.denominator == 1
    return int(value)


def window_count(x: int, w: int) -> int:
    if w % 2:
        return 0
    if w == 4:
        return 256 * (x * x + 2 * x + 2) ** 2
    return WINDOW_TABLE[(w, x)]


def central_cells(a: int, b: int) -> tuple[list, list]:
    """UP and DOWN cells of the central rhombus of (a, a, b, a, a, b), for
    a and b of opposite parity: the shared edge's doubled midpoint is the
    doubled centre (a - b, a + b), both coordinates odd."""
    x, y = (a - b - 1) // 2, (a + b - 1) // 2
    return [x, y, "up"], [x, y, "down"]


# -- plans ----------------------------------------------------------------------


def _op(name, argv, layers, **expect):
    return {"name": name, "argv": argv, "layers": layers, "expect": expect}


def _region_file(regions, name, kind, **params):
    regions[name] = {"kind": kind, "params": params}
    return f"{name}.json"


def make_plan(workload: str, seed: int) -> dict:
    """Operations and region documents of one workload, from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    regions: dict[str, dict] = {}
    ops = []

    if workload == "planar-large":
        for n in (12, 16, 20):
            path = _region_file(regions, f"aztec{n}", "AZTEC_DIAMOND", n=n)
            ops.append(_op(f"count aztec n={n}",
                           ["count", "--region", path, "--method", "kasteleyn"], _KASTELEYN,
                           kind="count", value=aztec_diamond_count(n)))
        # a + b + c = 24 keeps the determinant sizes (ab + bc + ca of
        # 188..192 rows) nearly equal across seeds
        triples = [(a, b, 24 - a - b) for a in range(6, 11) for b in range(6, 11)
                   if 6 <= 24 - a - b <= 10]
        for k, (a, b, c) in enumerate(rng.sample(triples, 3)):
            path = _region_file(regions, f"hex{k}", "HEXAGON", sides=[a, b, c] * 2)
            ops.append(_op(f"count hexagon {a},{b},{c}",
                           ["count", "--region", path, "--method", "kasteleyn"], _KASTELEYN,
                           kind="count", value=macmahon(a, b, c)))
        total = macmahon(5, 5, 6)
        up, down = central_cells(5, 6)
        path = _region_file(regions, "hex556", "HEXAGON", sides=[5, 5, 6] * 2)
        ops.append(_op("ratio hexagon 5,5,6 central",
                       ["ratio", "--region", path, "--edge", "central",
                        "--format", "json"], _KASTELEYN + ("graphs.subgraph",),
                       kind="json", doc={
                           "kind": "HEXAGON", "edge": [down, up],
                           "containing": str(total // 3), "total": str(total),
                           "ratio": "1/3"}))
        path = _region_file(regions, "hex444", "HEXAGON", sides=[4] * 6)
        ops.append(_op("spectrum hexagon 4^6", ["spectrum", "--region", path], _SPECTRUM,
                       kind="spectrum", value=macmahon(4, 4, 4), dimension=48))

    elif workload == "oracle-corpus":
        for corpus_seed in _oracle_seeds(rng):
            ops.append(_op(f"verify oracles seed={corpus_seed}",
                           ["verify", "--claim", "oracles", "--seed", str(corpus_seed),
                            "--cases", str(ORACLE_CASES)], _ORACLES,
                           kind="claim", verdict="PASS", computed={
                               "cases": ORACLE_CASES, "all_agree": True,
                               "disagreements": [],
                               "kinds": {kind: ORACLE_CASES // 5 for kind in (
                                   "HEXAGON", "AZTEC_DIAMOND", "AZTEC_RECTANGLE",
                                   "AZTEC_WINDOW", "HYPERCUBE")}}))
        ops.append(_op("verify problem19-parity n_max=5",
                       ["verify", "--claim", "problem19-parity", "--n-max", "5"], _PARITY,
                       kind="claim", verdict="PASS", computed={
                           "f": list(HYPERCUBE_F), "f_mod_2": [1, 0, 1, 0, 1],
                           "methods_agree": True}))
        ops.append(_op("verify problem19-orbits n=4",
                       ["verify", "--claim", "problem19-orbits", "--n", "4"], _ORBITS,
                       kind="claim", verdict="PASS", computed={
                           "fixed_point_count": 4, "fixed_all_parallel": True,
                           "others_power_of_two": True, "total": HYPERCUBE_F[3],
                           "f": HYPERCUBE_F[3]}))
        total = macmahon(3, 3, 4)
        ops.append(_op("verify problem1 n=2",
                       ["verify", "--claim", "problem1", "--n", "2"], _PROBLEM1,
                       kind="claim", verdict="PASS", computed={
                           "ratio": "1/3", "edge": list(central_cells(3, 4)),
                           "total": str(total), "containing": str(total // 3)}))

    elif workload == "window-sweep":
        # w = 6 is swept at x and at its mirror in the band, so the total
        # number of cells swept is the same for every seed.  The w = 8
        # windows are fixed: the larger is the slowest operation, and a
        # seed-drawn x would move slowest_op_s by 13% from seed to seed.
        x = rng.randint(3, 8)
        for w, xx in ((6, x), (6, 11 - x), (8, 4), (8, 5)):
            path = _region_file(regions, f"window_w{w}_x{xx}", "AZTEC_WINDOW", x=xx, w=w)
            ops.append(_op(f"count window w={w} x={xx}",
                           ["count", "--region", path, "--method", "transfer"], _TRANSFER,
                           kind="count", value=window_count(xx, w)))
        # w = 4 is a degree-4 polynomial in x, found on 12 points; for w = 6
        # eight points cannot show a degree, and the verdict is only recorded
        for w, x_to, verdict in ((4, 12, "PASS"), (6, 8, None)):
            ops.append(_op(f"verify problem14 w={w} x_to={x_to}",
                           ["verify", "--claim", "problem14", "--w", str(w),
                            "--x-to", str(x_to)], _PROBLEM14,
                           kind="problem14", verdict=verdict,
                           counts=[str(window_count(x, w)) for x in range(1, x_to + 1)]))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    return {"workload": workload, "seed": seed, "regions": regions, "ops": ops}


def ryser_work(corpus_seed: int, cases: int = ORACLE_CASES) -> int:
    """Computed Ryser work of one oracle corpus: sum of (2^m - 1) * m over
    the cases the claim hands to the permanent (m = class size)."""
    from matchenum.claims import _CORPUS_KINDS, random_region
    from matchenum.counting import PERMANENT_LIMIT

    rng = random.Random(corpus_seed)
    work = 0
    for case in range(cases):
        _, g = random_region(rng, _CORPUS_KINDS[case % len(_CORPUS_KINDS)])
        if g.color is not None and g.is_balanced() and g.n // 2 <= PERMANENT_LIMIT:
            m = g.n // 2
            work += ((1 << m) - 1) * m
    return work


def _oracle_seeds(rng: random.Random) -> list[int]:
    lo, hi = ORACLE_WORK_BAND
    seeds: list[int] = []
    while len(seeds) < ORACLE_CORPORA:
        s = rng.randrange(1, 1 << 31)
        if s not in seeds and lo <= ryser_work(s) <= hi:
            seeds.append(s)
    return seeds


# -- checks -----------------------------------------------------------------------


def check(op: dict, code, stdout: str):
    """Compare one operation's exit code and stdout with its reference.

    Returns ``(error, verdict)``: ``error`` is None when the output is
    right, ``verdict`` is the claim verdict of a ``verify`` operation.
    """
    want = op["expect"]
    kind = want["kind"]
    if kind == "count":
        got = stdout.strip()
        if code != 0 or got != str(want["value"]):
            return f"exit {code}, printed {got[:80]!r}, expected {want['value']}", None
        return None, None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code}, stdout is not JSON: {stdout[:80]!r}", None
    if kind == "json":
        if code != 0 or doc != want["doc"]:
            return f"exit {code}, printed {doc}, expected {want['doc']}", None
        return None, None
    if kind == "spectrum":
        return _check_spectrum(want, code, doc), None

    verdict = doc.get("verdict")
    computed = doc.get("computed", {})
    if kind == "claim":
        if code != 0 or verdict != want["verdict"]:
            return f"exit {code}, verdict {verdict}, expected {want['verdict']}", verdict
        for key, value in want["computed"].items():
            if computed.get(key) != value:
                return f"computed[{key!r}] = {computed.get(key)!r}, expected {value!r}", verdict
        return None, verdict
    if kind == "problem14":
        counts = computed.get("poly", {}).get("counts")
        if counts != want["counts"]:
            return f"counts {counts}, expected {want['counts']}", verdict
        if code != (1 if verdict == "FAIL" else 0) or verdict not in (
                "PASS", "FAIL", "REPORT_ONLY"):
            return f"exit {code} with verdict {verdict}", verdict
        if want["verdict"] is not None and verdict != want["verdict"]:
            return f"verdict {verdict}, expected {want['verdict']}", verdict
        return None, verdict
    raise ValueError(f"unknown check kind {kind!r}")


def _check_spectrum(want: dict, code, doc: dict):
    count = want["value"]
    coeffs = [int(c) for c in doc.get("charpoly", [])]
    sv = doc.get("singular_values", [])
    if code != 0 or doc.get("count") != str(count) or doc.get("dimension") != want["dimension"]:
        return f"exit {code}, count {doc.get('count')}, dimension {doc.get('dimension')}"
    if len(coeffs) != want["dimension"] + 1 or coeffs[-1] != 1:
        return "charpoly is not monic of the matrix dimension"
    if abs(coeffs[0]) != count * count:
        return f"|charpoly constant| = {abs(coeffs[0])}, expected count^2 = {count * count}"
    # the singular values are report-only floating point: their product
    # must match the count to a tolerance
    if (len(sv) != want["dimension"] or sv != sorted(sv, reverse=True)
            or min(sv) <= 0
            or abs(sum(math.log(s) for s in sv) - math.log(count)) > 1e-6):
        return "singular values do not multiply to the count"
    return None
