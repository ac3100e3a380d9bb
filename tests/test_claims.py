import inspect
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from matchenum import (
    BoundError,
    RegionError,
    count_permanent,
    build_hypercube,
    verify_oracles,
    verify_problem1,
    verify_problem14,
    verify_problem19_asymptotic,
    verify_problem19_orbits,
    verify_problem19_parity,
)
from matchenum import claims, transfer
from matchenum.claims import (
    _CORPUS_KINDS,
    PERMANENT_LIMIT,
    _finish,
    count_brute,
    count_kasteleyn,
    kasteleyn_matrix,
    kk_star_charpoly,
    matching_orbits,
    random_region,
    random_spec,
)
from matchenum.counting import kasteleyn_classes
from matchenum.regions import RegionSpec, aztec_rectangle_cells


# the per-case loop that counting each distinct region once replaced, kept
# verbatim as its reference, except that ``distinct`` collects region keys
def per_case_verify_oracles(seed: int = 1, cases: int = 50):
    t0 = time.perf_counter()
    if not 1 <= cases <= 1000:
        raise BoundError("oracles desk bound is 1 <= cases <= 1000")
    rng = random.Random(seed)
    disagreements = []
    zero_cases = 0
    kind_tally: dict[str, int] = {}
    distinct = set()
    for case in range(cases):
        kind = _CORPUS_KINDS[case % len(_CORPUS_KINDS)]
        spec, g = random_region(rng, kind)
        kind_tally[kind] = kind_tally.get(kind, 0) + 1
        distinct.add(spec.cells())
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
                cp = kk_star_charpoly(kasteleyn_matrix(g, seed=1))
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


def spy_on_draws(monkeypatch):
    """Record the region key of every case drawn; the draw is unchanged."""
    keys = []

    def draw(rng, kind=None):
        spec = random_spec(rng, kind)
        keys.append(spec.cells())
        return spec

    monkeypatch.setattr(claims, "random_spec", draw)
    return keys


class TestProblem1:
    @pytest.mark.parametrize("n", [1, 2, 8])  # n = 8: the (15,15,16) hexagon, 736 rows
    def test_ratio_is_one_third(self, n):
        report = verify_problem1(n)
        assert report.verdict == "PASS"
        assert report.computed["ratio"] == "1/3"

    def test_off_center_control(self):
        report = verify_problem1(1, off_center=True)
        assert report.verdict == "REPORT_ONLY"
        assert report.expected is None
        assert Fraction(report.computed["ratio"]) != Fraction(1, 3)

    def test_desk_bound(self):
        with pytest.raises(BoundError):
            verify_problem1(14)

    def test_desk_bound_is_the_largest_n_under_the_kasteleyn_limit(self, monkeypatch):
        # the (2n-1, 2n-1, 2n, ...) hexagon has 12n^2 - 8n + 1 rows: n = 13
        # reaches the count and n = 14 is refused, and the Kasteleyn limit
        # admits 13's rows but not 14's, so changing either bound fails here
        reached = []

        def stop(g, e):
            reached.append(g)
            raise LookupError("counted")

        monkeypatch.setattr(claims, "containment_counts", stop)
        with pytest.raises(LookupError):
            verify_problem1(13)
        with pytest.raises(BoundError, match="problem1 desk bound"):
            verify_problem1(14)
        (hexagon13,) = reached
        hexagon14 = RegionSpec("HEXAGON", {"sides": [27, 27, 28, 27, 27, 28]}).build()
        assert len(kasteleyn_classes(hexagon13)[0]) == 1925
        assert len(hexagon14.classes[0]) == 2241
        with pytest.raises(BoundError, match="Kasteleyn limit"):
            kasteleyn_classes(hexagon14)


class TestProblem14:
    def test_w2_detects_finite_degree(self):
        report = verify_problem14(2, 8)
        assert report.verdict == "PASS"
        assert report.computed["poly"] == {"counts": ["8"] * 8}
        assert report.computed["certificate"]["d"] == 0

    def test_w1_reports_zero_counts(self):
        # odd w: A^j H = 0 proves the zero polynomial from x = j on
        report = verify_problem14(1, 6)
        assert report.verdict == "PASS"
        assert report.computed["poly"]["counts"] == ["1", "0", "0", "0", "0", "0"]
        assert report.computed["certificate"]["coefficients"] == ["0"]

    def test_window_too_short(self):
        # one difference table over the certificate's counts, whatever x_to
        report = verify_problem14(2, 2)
        assert report.verdict == "PASS"
        assert report.computed["poly"] == {"counts": ["8", "8"]}
        assert report.computed["certificate"]["held_out"] == [2, 3]
        with pytest.raises(RegionError):
            verify_problem14(2, 0)

    # (j, k, d): A^j (A - I)^k H = 0, and the count is a polynomial of
    # degree d <= 4(k - 1) for x >= j; even w has j = 0, and odd w is zero
    # from x = j = (w + 3) / 2 on
    CERTIFICATES = {2: (0, 1, 0), 3: (3, 0, 0), 4: (0, 2, 4), 5: (4, 0, 0),
                    6: (0, 3, 8), 7: (5, 0, 0), 8: (0, 5, 16), 9: (6, 0, 0),
                    10: (0, 7, 24)}

    @pytest.mark.parametrize("w", range(2, 11))
    def test_every_thickness_is_certified(self, w):
        report = verify_problem14(w, 3)
        cert = report.computed["certificate"]
        j, k, d = self.CERTIFICATES[w]
        assert (cert["j"], cert["k"], cert["d"]) == (j, k, d)
        onset = max(j, 1)  # the first window has x = 1
        assert cert["onset"] == onset and cert["degree_bound"] == max(4 * (k - 1), 0)
        assert cert["fit_points"] == [onset, onset + cert["degree_bound"]]
        assert cert["held_out"] == [onset + cert["degree_bound"] + 1,
                                    onset + cert["degree_bound"] + 2]
        assert len(cert["newton"]) == len(cert["coefficients"]) == d + 1
        assert report.verdict == "PASS"
        assert report.computed["degree_finite"] is True
        assert report.computed["diamond_count"] == str(2 ** (w * (w + 1) // 2))
        assert set(report.computed["poly"]) == {"counts"}
        if w % 2:
            assert cert["coefficients"] == ["0"]
        else:
            assert d == 4 * (k - 1)

    @pytest.mark.parametrize("w", range(2, 11))
    def test_every_count_from_the_onset_is_the_polynomial(self, w):
        report = verify_problem14(w, 12)
        cert = report.computed["certificate"]
        coeffs = [Fraction(c) for c in cert["coefficients"]]
        counts = report.computed["poly"]["counts"]
        assert len(counts) == 12
        assert cert["held_out"] == [cert["onset"] + cert["degree_bound"] + 1,
                                    max(12, cert["onset"] + cert["degree_bound"] + 2)]
        for x, count in enumerate(counts, start=1):
            if x >= cert["onset"]:
                assert sum(c * x**p for p, c in enumerate(coeffs)) == int(count), x

    def test_a_changed_diamond_operator_fails(self):
        # H with one entry raised: the diamond's trace((M H)^4) is off
        row = next(iter(transfer._operators(4)[0].values()))
        b = next(iter(row))
        transfer._reached.clear()  # no U(x) stepped from the unchanged H
        try:
            row[b] += 1
            report = verify_problem14(4, 12)
        finally:
            transfer._operators.cache_clear()
            transfer._reached.clear()
        assert report.verdict == "FAIL"
        assert report.computed["diamond_count"] != report.expected["diamond_count"] == "1024"
        assert verify_problem14(4, 12).verdict == "PASS"

    def test_w4_polynomial_and_its_diamond_base(self):
        # 256 (x^2 + 2x + 2)^2, proved for x >= j = 0, so its value at x = 0
        # is the order-4 diamond's 2^10 = trace(T0^4)
        cert = verify_problem14(4, 12).computed["certificate"]
        assert cert["j"] == 0
        coeffs = [Fraction(c) for c in cert["coefficients"]]
        assert coeffs == [1024, 2048, 2048, 1024, 256]
        assert coeffs[0] == 2 ** 10

    def test_w6_window_that_used_to_fail(self):
        # eight points cannot show degree 8; the certificate counts to x = 13
        report = verify_problem14(6, 8)
        assert report.verdict == "PASS"
        stored = [33554432, 314703872, 1919025152, 8589934592, 30704402432,
                  92704735232, 245650030592, 586869112832]
        assert report.computed["poly"] == {"counts": [str(c) for c in stored]}
        assert report.computed["certificate"]["held_out"] == [10, 11]
        coeffs = [Fraction(c) for c in report.computed["certificate"]["coefficients"]]
        for x, count in enumerate(stored, start=1):
            if x >= 3:
                assert sum(c * x**p for p, c in enumerate(coeffs)) == count

    def test_out_of_reach_is_refused(self):
        with pytest.raises(BoundError):
            verify_problem14(11, 8)
        with pytest.raises(RegionError):
            verify_problem14(2, 20000)

    def test_x_to_desk_bound_is_exact_and_refused_before_any_count(self, monkeypatch):
        assert verify_problem14(2, 64).verdict == "PASS"

        def fail(*args):
            raise AssertionError("a window was counted")

        monkeypatch.setattr(claims, "count_sequence", fail)
        monkeypatch.setattr(claims, "column_annihilator", fail)
        for x_to in (65, 8190):
            with pytest.raises(BoundError, match="x_to <= 64"):
                verify_problem14(2, x_to)
        with pytest.raises(RegionError, match="more than 65536 cells"):
            verify_problem14(2, 20000)


class TestProblem19Parity:
    def test_full_range(self):
        report = verify_problem19_parity(5)
        assert report.verdict == "PASS"
        assert report.computed["f"] == ["1", "2", "9", "272", "589185"]
        assert report.computed["methods_agree"] is True

    def test_three(self):
        report = verify_problem19_parity(3)
        assert report.verdict == "PASS"
        assert report.computed["f"] == ["1", "2", "9"]

    def test_one(self):
        report = verify_problem19_parity(1)
        assert report.verdict == "PASS"

    def test_bound(self):
        with pytest.raises(BoundError):
            verify_problem19_parity(6)


class TestProblem19Orbits:
    def test_two_cube(self):
        report = verify_problem19_orbits(2)
        assert report.verdict == "PASS"
        assert report.computed["orbit_sizes"] == [1, 1]
        assert report.computed["fixed_point_count"] == 2

    def test_three_cube(self):
        report = verify_problem19_orbits(3)
        assert report.verdict == "PASS"
        sizes = report.computed["orbit_sizes"]
        assert sizes.count(1) == 3
        assert sum(s for s in sizes if s > 1) == 6
        assert all(s in (1, 2, 4, 8) for s in sizes)

    def test_one_cube(self):
        report = verify_problem19_orbits(1)
        assert report.verdict == "PASS"
        assert report.computed["orbit_sizes"] == [1]

    def test_totals_equal_parity_f(self):
        parity = verify_problem19_parity(4)
        for n in (2, 3, 4):
            orbits = verify_problem19_orbits(n)
            assert orbits.computed["total"] == parity.computed["f"][n - 1]

    def test_decomposition_object(self):
        d = verify_problem19_orbits(3).computed
        assert d["total"] == "9"
        assert d["fixed_point_count"] == 3
        assert sum(d["orbit_sizes"]) == int(d["total"])
        assert all(s & (s - 1) == 0 for s in d["orbit_sizes"])

    def test_orbits_partition_matchings(self):
        orbits = matching_orbits(3)
        seen = [m for orbit in orbits for m in orbit]
        assert len(seen) == len(set(seen)) == count_permanent(build_hypercube(3))

    @pytest.mark.parametrize("n", [0, 5])
    def test_enumeration_bound_says_both_ends(self, n):
        with pytest.raises(BoundError, match="1 <= n <= 4"):
            matching_orbits(n)


class TestProblem19Asymptotic:
    def test_monotone_trend(self):
        report = verify_problem19_asymptotic(5)
        assert report.verdict == "REPORT_ONLY"
        assert report.expected is None
        table = report.computed["table"]
        gs = [row["g"] for row in table]
        assert all(b - a > 1e-9 for a, b in zip(gs, gs[1:]))
        assert table[0]["g"] == 1.0
        assert table[-1]["n_over_e"] == pytest.approx(5 / 2.718281828459045)

    def test_trend_is_exact_where_the_floats_tie(self, monkeypatch):
        # g(5) = (10^20 + 1)^(1/16) and g(4) = (10^10)^(1/8) are one float,
        # but f(5) > f(4)^2, so g still rises
        f = {1: 1, 2: 2, 3: 9, 4: 10**10, 5: 10**20 + 1}
        monkeypatch.setattr(claims, "_hypercube_count", f.__getitem__)
        report = verify_problem19_asymptotic(5)
        gs = [row["g"] for row in report.computed["table"]]
        assert gs[4] == gs[3]
        assert report.computed["strictly_increasing"] is True
        assert report.verdict == "REPORT_ONLY"
        f[5] = 10**20
        assert verify_problem19_asymptotic(5).verdict == "FAIL"

    def test_single_value(self):
        report = verify_problem19_asymptotic(1)
        assert report.verdict == "REPORT_ONLY"
        assert len(report.computed["table"]) == 1


class TestOracles:
    def test_fifty_cases_pass(self):
        report = verify_oracles(seed=1, cases=50)
        assert report.verdict == "PASS"
        assert report.computed["cases"] == 50
        # the draw repeats small regions: 25 of the 50 specs differ at seed 1,
        # and two of them are a x a rectangles, the cells of a drawn diamond
        assert report.computed["distinct_cases"] == 23
        assert set(report.computed["kinds"]) == {
            "HEXAGON", "AZTEC_DIAMOND", "AZTEC_RECTANGLE",
            "AZTEC_WINDOW", "HYPERCUBE",
        }

    def test_zero_count_cases_occur_and_agree(self):
        report = verify_oracles(seed=1, cases=50)
        assert report.computed["zero_count_cases"] > 0
        assert report.computed["all_agree"] is True

    def test_deterministic_reports(self):
        a = verify_oracles(seed=7, cases=20).to_dict()
        b = verify_oracles(seed=7, cases=20).to_dict()
        a.pop("runtime_ms")
        b.pop("runtime_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert 1 <= a["computed"]["distinct_cases"] <= a["computed"]["cases"]

    def test_cases_bound(self, monkeypatch):
        class Drawn(Exception):
            pass

        def draw(*_):
            raise Drawn

        # refused before any region is drawn; 1000 gets as far as the draw
        monkeypatch.setattr(claims, "random_spec", draw)
        for cases in (0, 1001, 10**9):
            with pytest.raises(BoundError):
                verify_oracles(seed=1, cases=cases)
        with pytest.raises(Drawn):
            verify_oracles(seed=1, cases=1000)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_report_equals_the_per_case_loop(self, seed):
        got = verify_oracles(seed=seed, cases=50).to_dict()
        want = per_case_verify_oracles(seed=seed, cases=50).to_dict()
        del got["runtime_ms"], want["runtime_ms"]
        assert json.dumps(got) == json.dumps(want)

    def test_each_distinct_region_is_counted_once(self, monkeypatch):
        keys = spy_on_draws(monkeypatch)
        calls = {}

        def spy(name):
            engine = getattr(claims, name)

            def counted(arg):
                calls.setdefault(name, []).append(keys[-1])
                return engine(arg)

            return counted

        for name in ("count_brute", "count_kasteleyn", "count_permanent",
                     "kk_star_charpoly"):
            monkeypatch.setattr(claims, name, spy(name))
        build = RegionSpec.build
        built = []

        def counted_build(spec):
            built.append(keys[-1])
            return build(spec)

        monkeypatch.setattr(RegionSpec, "build", counted_build)
        report = verify_oracles(seed=1, cases=50)
        assert report.verdict == "PASS"
        assert len(keys) == 50 and len(set(keys)) == report.computed["distinct_cases"] == 23
        assert set(calls) == {"count_brute", "count_kasteleyn", "count_permanent",
                              "kk_star_charpoly"}
        for name, specs in calls.items():
            assert max(Counter(specs).values()) == 1, name
        assert Counter(calls["count_brute"]) == Counter(set(keys))
        # only the first case of each distinct region is built
        assert Counter(built) == Counter(set(keys))

    @pytest.mark.parametrize("seed, distinct", [(1, 23), (2, 26), (3, 27)])
    def test_distinct_cases_are_distinct_graphs(self, seed, distinct):
        # every drawn region built, keyed by its labelled graph alone; at
        # these seeds no two different keys build the same graph
        rng = random.Random(seed)
        graphs = set()
        for case in range(50):
            _, g = random_region(rng, _CORPUS_KINDS[case % len(_CORPUS_KINDS)])
            graphs.add((g.labels, g.edges))
        assert verify_oracles(seed=seed, cases=50).computed["distinct_cases"] == distinct
        assert len(graphs) == distinct

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_square_rectangle_is_keyed_as_the_diamond(self, a):
        diamond = RegionSpec("AZTEC_DIAMOND", {"n": a})
        for params in ({"a": a, "b": a}, {"a": a, "b": a, "removed": []}):
            square = RegionSpec("AZTEC_RECTANGLE", params)
            assert square.cells() == diamond.cells()
        wide = RegionSpec("AZTEC_RECTANGLE", {"a": a, "b": a + 1, "removed": [[0, 0]]})
        assert wide.cells() == frozenset(aztec_rectangle_cells(a, a + 1) - {(0, 0)})

    def test_empty_hexagons_share_a_key(self):
        empty = [RegionSpec("HEXAGON", {"sides": sides})
                 for sides in ([0, 0, 3, 0, 0, 3], [3, 0, 0, 3, 0, 0])]
        assert [spec.build().n for spec in empty] == [0, 0]
        assert empty[0].cells() == empty[1].cells()

    def test_specs_share_a_key_exactly_when_they_build_one_graph(self):
        rng = random.Random(1)
        key_of, graph_of = {}, {}
        for case in range(1000):
            spec = random_spec(rng, _CORPUS_KINDS[case % len(_CORPUS_KINDS)])
            g = spec.build()
            graph, key = (g.labels, g.edges), spec.cells()
            assert key == set(g.labels), spec
            assert key_of.setdefault(graph, key) == key, spec
            assert graph_of.setdefault(key, graph) == graph, spec
        report = verify_oracles(seed=1, cases=1000)
        assert len(key_of) == report.computed["distinct_cases"] == 193

    @pytest.mark.parametrize("kind", (None,) + _CORPUS_KINDS)
    def test_random_region_is_the_spec_built(self, kind):
        for seed in range(1, 21):
            drawn, spec_rng = random.Random(seed), random.Random(seed)
            spec, g = random_region(drawn, kind)
            assert random_spec(spec_rng, kind) == spec
            assert drawn.getstate() == spec_rng.getstate()
            built = spec.build()
            assert (g.labels, g.edges, g.color) == (built.labels, built.edges, built.color)

    def test_a_repeated_region_disagrees_in_every_case(self, monkeypatch):
        keys = spy_on_draws(monkeypatch)
        q4 = {"kind": "HYPERCUBE", "params": {"n": 4}}
        target = RegionSpec.from_dict(q4).cells()

        def wrong_on_target(g):
            return count_permanent(g) + (keys[-1] == target)

        monkeypatch.setattr(claims, "count_permanent", wrong_on_target)
        report = verify_oracles(seed=1, cases=50)
        assert report.verdict == "FAIL"
        assert report.computed["all_agree"] is False
        cases = [i for i, key in enumerate(keys) if key == target]
        assert cases == [4, 29, 34, 44]
        bad = report.computed["disagreements"]
        assert [d["case"] for d in bad] == cases
        for d in bad:
            assert d["spec"] == q4
            assert d["got"] == {"brute": 272, "permanent": 273}


class TestReportShape:
    def test_schema_keys(self):
        report = verify_problem1(1)
        doc = report.to_dict()
        assert list(doc) == [
            "claim_id", "parameters", "computed", "expected",
            "verdict", "runtime_ms",
        ]
        assert isinstance(doc["runtime_ms"], int)

    def test_counts_never_serialize_as_numbers(self):
        doc = verify_problem19_parity(4).to_dict()
        assert all(isinstance(v, str) for v in doc["computed"]["f"])


class TestIntParameters:
    # each engine a claim would start with; none may run before the check
    FIRST_WORK = ("RegionSpec", "aztec_window_cell_count", "column_annihilator",
                  "count_sequence", "random_spec", "_hypercube_count", "matching_orbits")

    @pytest.mark.parametrize("claim", sorted(claims.CLAIMS))
    def test_refuses_bool_and_float_before_any_work(self, claim, monkeypatch):
        # True would pass a desk bound as 1 and be reported as true; 5.0
        # would pass it and fail later on range()
        verify = claims.CLAIMS[claim]
        ints = {name: p.default for name, p in inspect.signature(verify).parameters.items()
                if type(p.default) is int}
        assert ints

        def fail(*args, **kwargs):
            raise AssertionError("the claim started its work")

        for name in self.FIRST_WORK:
            monkeypatch.setattr(claims, name, fail)
        for name, default in ints.items():
            for value in (True, float(default)):
                with pytest.raises(TypeError, match=f"{name} must be an int"):
                    verify(**{name: value})

    def test_off_center_must_be_a_bool(self, monkeypatch):
        # "no" would be truthy and run the negative control
        def fail(*args, **kwargs):
            raise AssertionError("the claim started its work")

        monkeypatch.setattr(claims, "RegionSpec", fail)
        for value in ("no", "", 1, 0, None):
            with pytest.raises(TypeError, match="off_center must be a bool"):
                claims.verify_problem1(off_center=value)
