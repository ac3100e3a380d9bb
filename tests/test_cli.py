import functools
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from matchenum import counting
from matchenum.claims import CLAIMS, FAIL, ClaimReport
from matchenum.cli import COMMANDS, cli_main, parse_args


@pytest.fixture
def region_file(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_kasteleyn_count_prints_bare_decimal(self, capsys, region_file):
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [2, 2, 2, 2, 2, 2]},
        })
        code, out, _ = run(capsys, "count", "--region", path,
                           "--method", "kasteleyn")
        assert code == 0
        assert out.strip() == "20"

    def test_methods_agree(self, capsys, region_file):
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 2}})
        values = []
        for method in ("auto", "brute", "kasteleyn", "permanent"):
            code, out, _ = run(capsys, "count", "--region", path,
                               "--method", method)
            assert code == 0
            values.append(out.strip())
        assert values == ["8"] * 4

    def test_unequal_classes_count_zero_by_every_method(self, capsys, region_file):
        # 11 up against 12 down cells: each engine counts 0, none refuses
        path = region_file("hole.json", {
            "kind": "HEXAGON", "params": {"sides": [2, 2, 2, 2, 2, 2]},
            "holes": [[0, 0, "up"]],
        })
        for method in ("auto", "brute", "kasteleyn", "permanent"):
            code, out, err = run(capsys, "count", "--region", path, "--method", method)
            assert (code, out, err) == (0, "0\n", ""), method

    def test_transfer_on_window(self, capsys, region_file):
        path = region_file("aw.json", {"kind": "AZTEC_WINDOW",
                                       "params": {"x": 1, "w": 2}})
        code, out, _ = run(capsys, "count", "--region", path,
                           "--method", "transfer", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == "8"

    def test_method_choices_are_the_counters_and_transfer(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["count", "--help"])
        listed = re.search(r"--method \{([a-z,]+)\}", capsys.readouterr().out).group(1)
        assert sorted(listed.split(",")) == sorted([*counting.COUNTERS, "transfer"])

    def test_csv_is_a_usage_error_for_bare_values(self, capsys, region_file):
        # and for the reports: JSON is the only report format
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 1, 2, 1, 1, 2]},
        })
        for argv in (["count", "--region", path],
                     ["ratio", "--region", path, "--edge", "central"],
                     ["spectrum", "--region", path],
                     ["verify", "--claim", "problem1"]):
            with pytest.raises(SystemExit) as exc:
                cli_main([*argv, "--format", "csv"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--format" in captured.err and "csv" in captured.err

    def test_transfer_rejected_elsewhere(self, capsys, region_file):
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 2}})
        code, _, err = run(capsys, "count", "--region", path, "--method", "transfer")
        assert code == 2
        assert "AZTEC_WINDOW" in err

    @pytest.mark.parametrize("x, w", [(0, 2), (2, 0)])
    def test_transfer_on_empty_window_exits_2(self, capsys, region_file, x, w):
        path = region_file("aw.json", {"kind": "AZTEC_WINDOW",
                                       "params": {"x": x, "w": w}})
        code, out, err = run(capsys, "count", "--region", path, "--method", "transfer")
        assert code == 2
        assert out == ""
        assert "x >= 1 and w >= 1" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "count", "--region", str(path))
        assert code == 2
        assert "malformed" in err

    def test_unknown_kind(self, capsys, region_file):
        path = region_file("bad.json", {"kind": "MOEBIUS", "params": {}})
        code, _, err = run(capsys, "count", "--region", str(path))
        assert code == 2
        assert "unknown region kind" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "count", "--region", str(tmp_path / "none.json"))
        assert code == 2
        assert "cannot read" in err

    def test_bound_violation(self, capsys, region_file):
        path = region_file("q9.json", {"kind": "HYPERCUBE", "params": {"n": 9}})
        code, _, err = run(capsys, "count", "--region", path, "--method", "brute")
        assert code == 2
        assert "limit" in err

    def test_brute_node_budget_exits_2(self, capsys, region_file, monkeypatch):
        # the order-4 diamond's search tries 4404 partners
        monkeypatch.setattr(counting, "BRUTE_NODE_LIMIT", 1000)
        path = region_file("ad4.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 4}})
        code, out, err = run(capsys, "count", "--region", path, "--method", "brute")
        assert code == 2
        assert out == ""
        assert "node limit 1000" in err

    def test_auto_refuses_six_cube(self, capsys, region_file):
        # 64 vertices would pass the brute bound, but the search is unbounded
        path = region_file("q6.json", {"kind": "HYPERCUBE", "params": {"n": 6}})
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--region", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "class size 32 exceeds the permanent limit 20" in err

    def test_brute_refuses_six_cube_at_once(self, capsys, region_file):
        # Schrijver's bound puts ~1.7e12 leaves past the node budget
        path = region_file("q6.json", {"kind": "HYPERCUBE", "params": {"n": 6}})
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--region", path, "--method", "brute")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "node limit" in err and "Schrijver" in err

    def test_out_file(self, capsys, region_file, tmp_path):
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 1, 2, 1, 1, 2]},
        })
        target = tmp_path / "count.txt"
        code, out, _ = run(capsys, "count", "--region", path,
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "3"

    def test_out_into_missing_directory_exits_2(self, capsys, region_file, tmp_path):
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 2}})
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, "count", "--region", path, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output file")

    def test_non_utf8_region_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "AZTEC_DIAMOND", "params": {"n": \xff}}')
        code, _, err = run(capsys, "count", "--region", str(path))
        assert code == 2
        assert err.startswith("error: cannot read region file")

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        code, _, err = run(capsys, "count", "--region", str(path))
        assert code == 2
        assert err.startswith("error: malformed region JSON")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python parses integer literals of any length")
    def test_oversized_integer_literal_exits_2(self, capsys, tmp_path):
        # past Python's default limit of 4300 digits for int parsing
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "AZTEC_DIAMOND", "params": {"n": %s}}' % ("9" * 5000))
        code, _, err = run(capsys, "count", "--region", str(path))
        assert code == 2
        assert err.startswith("error: malformed region JSON")


class TestStrictParameters:
    @pytest.mark.parametrize("doc, message", [
        ({"kind": "AZTEC_DIAMOND", "params": {"n": 2.7}}, "'n' must be an integer"),
        ({"kind": "AZTEC_WINDOW", "params": {"x": True, "w": 2}},
         "'x' must be an integer"),
        ({"kind": "HEXAGON", "params": {"sides": 5}}, "'sides' must be a list"),
        ({"kind": "HEXAGON", "params": {"sides": [2, 2, 2, 2, 2, 2]},
          "holes": [[0, 0]]}, "each hole must be"),
    ], ids=["float-n", "bool-x", "scalar-sides", "short-hole"])
    def test_rejected_with_exit_2(self, capsys, region_file, doc, message):
        path = region_file("bad.json", doc)
        code, out, err = run(capsys, "count", "--region", path)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("doc, message", [
        ({"kind": "AZTEC_DIAMOND", "params": {"n": [0] * 200000}},
         "'n' must be an integer, got list [0, 0,"),
        ({"kind": "HEXAGON", "params": {"sides": list(range(200000))}},
         "'sides' must have 6 entries, got 200000: [0, 1,"),
        ({"kind": "M" * 200000, "params": {}}, "unknown region kind 'MMM"),
        ({"kind": "HEXAGON", "params": {"sides": [2, 2, 2, 2, 2, 2]},
          "holes": ["x" * 200000]}, "each hole must be [x, y, 'up'|'down'], got str"),
    ], ids=["list-n", "long-sides", "long-kind", "long-hole"])
    def test_huge_value_gives_a_short_message(self, capsys, region_file, doc, message):
        path = region_file("big.json", doc)
        code, out, err = run(capsys, "count", "--region", path)
        assert code == 2
        assert out == ""
        assert message in err
        assert len(err.encode()) < 400


class TestCellLimit:
    @pytest.mark.parametrize("doc, method", [
        ({"kind": "AZTEC_DIAMOND", "params": {"n": 10**6}}, "auto"),
        ({"kind": "AZTEC_RECTANGLE", "params": {"a": 10**6, "b": 10**6}}, "auto"),
        ({"kind": "AZTEC_WINDOW", "params": {"x": 10**6, "w": 2}}, "transfer"),
        ({"kind": "HEXAGON", "params": {"sides": [10**6] * 6}}, "auto"),
    ], ids=["diamond", "rectangle", "window", "hexagon"])
    def test_oversized_region_exits_2_at_once(self, capsys, region_file, doc, method):
        path = region_file("big.json", doc)
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--region", path, "--method", method)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "more than 65536 cells" in err

    def test_oversized_transfer_window_exits_2(self, capsys, region_file):
        # the transfer count never builds the window; its closed form is checked
        path = region_file("wide.json", {"kind": "AZTEC_WINDOW", "params": {"x": 16384, "w": 1}})
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--region", path, "--method", "transfer")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "more than 65536 cells" in err


class TestKasteleynLimit:
    # 65160 cells pass the cell limit; the 32580 rows of K are far past
    # the elimination's time bound, so the class size is refused before
    # any row is built, and before any face is walked
    @staticmethod
    def refuse_largest_admitted_diamond(capsys, region_file, monkeypatch, command):
        def fail(*args, **kwargs):
            raise AssertionError("the faces were walked")

        monkeypatch.setattr(counting, "kasteleyn_orient", fail)
        path = region_file("ad180.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 180}})
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--region", path)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "exceeds the Kasteleyn limit 2048" in err

    def test_largest_admitted_diamond_exits_2_at_once(self, capsys, region_file, monkeypatch):
        self.refuse_largest_admitted_diamond(capsys, region_file, monkeypatch, "count")

    def test_spectrum_of_it_exits_2_at_once(self, capsys, region_file, monkeypatch):
        self.refuse_largest_admitted_diamond(capsys, region_file, monkeypatch, "spectrum")


class TestRatio:
    def test_central_edge(self, capsys, region_file):
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 1, 2, 1, 1, 2]},
        })
        code, out, _ = run(capsys, "ratio", "--region", path, "--edge", "central",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == "1/3"
        assert doc["containing"] == "1"
        assert doc["total"] == "3"

    def test_central_edge_bare_output(self, capsys, region_file):
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 1, 2, 1, 1, 2]},
        })
        code, out, _ = run(capsys, "ratio", "--region", path, "--edge", "central")
        assert code == 0
        assert out.strip() == "1/3"

    def test_index_edge(self, capsys, region_file):
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 1}})
        code, out, _ = run(capsys, "ratio", "--region", path, "--edge", "0:1")
        assert code == 0
        assert out.strip() == "1/2"

    def test_central_needs_hexagon(self, capsys, region_file):
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 1}})
        code, _, err = run(capsys, "ratio", "--region", path, "--edge", "central")
        assert code == 2
        assert "HEXAGON" in err

    def test_bad_selector(self, capsys, region_file):
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 1}})
        code, _, err = run(capsys, "ratio", "--region", path, "--edge", "chewy")
        assert code == 2
        assert "selector" in err

    def test_non_adjacent(self, capsys, region_file):
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 2}})
        code, _, err = run(capsys, "ratio", "--region", path, "--edge", "0:11")
        assert code == 2
        assert "not adjacent" in err

    def test_selector_may_start_with_a_dash(self, capsys, region_file):
        # the token after --edge is its value, and the selector is checked
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 2}})
        code, out, err = run(capsys, "ratio", "--region", path, "--edge", "-1:2")
        assert (code, out) == (2, "")
        assert err == "error: edge selector '-1:2' out of vertex range\n"


class TestSpectrum:
    def test_json_document(self, capsys, region_file):
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 1, 2, 1, 1, 2]},
        })
        code, out, _ = run(capsys, "spectrum", "--region", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 5
        assert doc["count"] == "3"
        assert abs(int(doc["charpoly"][0])) == 9
        assert doc["charpoly"][-1] == "1"
        assert len(doc["singular_values"]) == 5

    def test_imbalanced_region(self, capsys, region_file):
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 2, 1, 2, 1, 2]},
        })
        code, _, err = run(capsys, "spectrum", "--region", path)
        assert code == 2
        assert "classes" in err

    def test_counting_identity_at_dimension_48(self, capsys, region_file):
        path = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [4, 4, 4, 4, 4, 4]},
        })
        code, out, _ = run(capsys, "spectrum", "--region", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 48
        assert doc["count"] == "232848"  # MacMahon's box formula for 4 x 4 x 4
        assert abs(int(doc["charpoly"][0])) == int(doc["count"]) ** 2
        assert len(doc["singular_values"]) == 48

    def test_oversized_region_refused(self, capsys, region_file, monkeypatch):
        # refused by its class size, before the orientation fills K
        def fail(*args, **kwargs):
            raise AssertionError("the faces were walked")

        monkeypatch.setattr(counting, "kasteleyn_orient", fail)
        for n in (12, 44):
            path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": n}})
            start = time.perf_counter()
            code, out, err = run(capsys, "spectrum", "--region", path)
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert out == ""
            assert f"K dimension {n * (n + 1)} exceeds the spectrum limit 80" in err


class TestVerify:
    def test_problem1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "problem1", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["computed"]["ratio"] == "1/3"

    def test_problem14_default_window(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "problem14")
        assert code == 0
        assert json.loads(out)["verdict"] == "PASS"

    def test_no_options_run_the_function_defaults(self, capsys):
        # every option a claim takes reaches it; one it does not take is refused
        given = {
            "problem1": {"n": ("--n", "2"), "off_center": ("--off-center",)},
            "problem14": {"w": ("--w", "3"), "x_to": ("--x-to", "7")},
            "problem19-parity": {"n_max": ("--n-max", "4")},
            "problem19-orbits": {"n": ("--n", "2")},
            "problem19-asymptotic": {"n_max": ("--n-max", "4")},
            "oracles": {"seed": ("--seed", "2"), "cases": ("--cases", "3")},
        }

        def report(*argv):
            code, out, _ = run(capsys, "verify", *argv)
            doc = json.loads(out)
            del doc["runtime_ms"]
            return code, doc

        def expected(verify, **kwargs):
            doc = verify(**kwargs).to_dict()
            del doc["runtime_ms"]
            return 1 if doc["verdict"] == "FAIL" else 0, doc

        assert set(given) == set(CLAIMS)
        for claim, verify in CLAIMS.items():
            default = expected(verify)
            assert report("--claim", claim) == default, claim
            assert set(given[claim]) == set(inspect.signature(verify).parameters), claim
            for name, argv in given[claim].items():
                value = True if len(argv) == 1 else int(argv[1])
                got = report("--claim", claim, *argv)
                assert got == expected(verify, **{name: value}), (claim, name)
                assert got != default, (claim, name)
        code, out, err = run(capsys, "verify", "--claim", "problem1", "--seed", "5")
        assert (code, out) == (2, "")
        assert "problem1" in err and "--seed" in err

    def test_options_reach_a_wrapped_claim(self, capsys, monkeypatch):
        # wrappers made by functools.wraps, as a profiler installs them, are
        # looked through for the claim's options
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return fn(*args, **kwargs)

            return traced

        monkeypatch.setitem(CLAIMS, "problem19-orbits", wrap(wrap(CLAIMS["problem19-orbits"])))
        code, out, _ = run(capsys, "verify", "--claim", "problem19-orbits", "--n", "2")
        assert code == 0 and json.loads(out)["parameters"] == {"n": 2}
        code, out, err = run(capsys, "verify", "--claim", "problem19-orbits", "--seed", "2")
        assert (code, out) == (2, "") and "--seed" in err

    def test_problem14_w6_passes_with_a_certificate(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "problem14", "--w", "6",
                           "--x-to", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        cert = doc["computed"]["certificate"]
        assert (cert["j"], cert["k"], cert["d"]) == (0, 3, 8)

    def test_problem19_family(self, capsys):
        for claim in ("problem19-parity", "problem19-orbits", "problem19-asymptotic"):
            argv = ["verify", "--claim", claim]
            if claim == "problem19-orbits":
                argv += ["--n", "3"]
            else:
                argv += ["--n-max", "3"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)["verdict"] in ("PASS", "REPORT_ONLY")

    def test_fail_verdict_exits_1(self, capsys, monkeypatch):
        report = ClaimReport("problem1", {}, {"ratio": "1/2"}, {"ratio": "1/3"}, FAIL, 0)
        monkeypatch.setitem(CLAIMS, "problem1", lambda: report)
        code, out, _ = run(capsys, "verify", "--claim", "problem1")
        assert code == 1
        assert json.loads(out) == report.to_dict()

    def test_bound_violation_exits_2(self, capsys):
        for argv in (["--claim", "problem1", "--n", "14"],
                     ["--claim", "problem14", "--w", "2", "--x-to", "8190"],
                     ["--claim", "oracles", "--cases", "1001"]):
            code, _, err = run(capsys, "verify", *argv)
            assert code == 2
            assert "bound" in err

    @pytest.mark.parametrize("claim, option, bound", [
        ("problem1", "--n", "1 <= n <= 13"),
        ("problem19-parity", "--n-max", "1 <= n_max <= 5"),
        ("problem19-orbits", "--n", "1 <= n <= 4"),
        ("problem19-asymptotic", "--n-max", "1 <= n_max <= 5"),
        ("oracles", "--cases", "1 <= cases <= 1000"),
    ])
    @pytest.mark.parametrize("end", ["low", "high"])
    def test_desk_bound_says_both_ends(self, capsys, claim, option, bound, end):
        value = "0" if end == "low" else str(int(bound.split()[-1]) + 1)
        code, out, err = run(capsys, "verify", "--claim", claim, option, value)
        assert (code, out) == (2, "")
        assert f"desk bound is {bound}" in err

    def test_off_center_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "problem1",
                           "--n", "1", "--off-center")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "REPORT_ONLY"
        assert doc["computed"]["ratio"] != "1/3"

    def test_report_written_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--claim", "problem1",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "PASS"


class TestReportBytes:
    # the exact stdout of each subcommand's JSON report, runtime_ms masked
    def test_stdout_is_pinned(self, capsys, region_file):
        diamond = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 1}})
        hexagon = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 1, 2, 1, 1, 2]},
        })
        cases = [
            (["count", "--region", diamond, "--format", "json"], """{
  "kind": "AZTEC_DIAMOND",
  "method": "auto",
  "count": "2"
}
"""),
            (["ratio", "--region", hexagon, "--edge", "central", "--format", "json"], """{
  "kind": "HEXAGON",
  "edge": [
    [
      -1,
      1,
      "down"
    ],
    [
      -1,
      1,
      "up"
    ]
  ],
  "containing": "1",
  "total": "3",
  "ratio": "1/3"
}
"""),
            (["spectrum", "--region", diamond], """{
  "kind": "AZTEC_DIAMOND",
  "dimension": 2,
  "count": "2",
  "charpoly": [
    "4",
    "-4",
    "1"
  ],
  "singular_values": [
    1.4142135623730951,
    1.4142135623730951
  ]
}
"""),
            (["verify", "--claim", "problem19-parity", "--n-max", "2"], """{
  "claim_id": "problem19-parity",
  "parameters": {
    "n_max": 2
  },
  "computed": {
    "f": [
      "1",
      "2"
    ],
    "f_mod_2": [
      1,
      0
    ],
    "methods_agree": true
  },
  "expected": {
    "f_mod_2": [
      1,
      0
    ],
    "methods_agree": true,
    "note": "1-factor count of the n-cube has the same parity as n"
  },
  "verdict": "PASS",
  "runtime_ms": 0
}
"""),
        ]
        for argv, expected in cases:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out) == expected, argv


class TestParserReuse:
    def test_one_parser_serves_every_command(self, capsys, region_file):
        # one process runs many commands on the one option table; none
        # carries state into the next, so each reads the same in any order
        diamond = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 2}})
        hexagon = region_file("hex.json", {
            "kind": "HEXAGON", "params": {"sides": [1, 1, 2, 1, 1, 2]},
        })
        commands = [
            ["count", "--region", diamond, "--method", "kasteleyn"],
            ["ratio", "--region", hexagon, "--edge", "central", "--format", "json"],
            ["count", "--region", hexagon, "--format", "json"],
            ["spectrum", "--region", diamond],
            ["verify", "--claim", "problem19-parity", "--n-max", "3"],
            ["verify", "--claim", "problem1", "--seed", "5"],  # exit 2
            ["count", "--region", diamond],
        ]

        def report(argv):
            code, out, err = run(capsys, *argv)
            return code, re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out), err

        shared = [report(argv) for argv in commands]
        reversed_order = [report(argv) for argv in reversed(commands)][::-1]
        assert shared == reversed_order
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 0]
        assert shared[0][1] == shared[-1][1] == "8\n"


# What argparse read from each argv when it parsed the CLI: every option
# given or with a default, under its attribute name.  Options not listed
# read None.
PINNED = [
    # the README examples
    (["count", "--region", "hex222.json", "--method", "kasteleyn"],
     {"region": "hex222.json", "method": "kasteleyn"}),
    (["count", "--region", "window.json", "--method", "transfer"],
     {"region": "window.json", "method": "transfer"}),
    (["ratio", "--region", "hex112.json", "--edge", "central"],
     {"region": "hex112.json", "edge": "central"}),
    (["ratio", "--region", "ad2.json", "--edge", "0:1"],
     {"region": "ad2.json", "edge": "0:1"}),
    (["spectrum", "--region", "hex112.json"],
     {"region": "hex112.json"}),
    (["verify", "--claim", "problem1"],
     {"claim": "problem1"}),
    (["verify", "--claim", "problem1", "--n", "1", "--off-center"],
     {"claim": "problem1", "n": 1, "off_center": True}),
    (["verify", "--claim", "problem14", "--w", "2", "--x-to", "8"],
     {"claim": "problem14", "w": 2, "x_to": 8}),
    (["verify", "--claim", "problem19-parity", "--n-max", "5"],
     {"claim": "problem19-parity", "n_max": 5}),
    (["verify", "--claim", "problem19-orbits", "--n", "3"],
     {"claim": "problem19-orbits", "n": 3}),
    (["verify", "--claim", "problem19-asymptotic", "--n-max", "5"],
     {"claim": "problem19-asymptotic", "n_max": 5}),
    (["verify", "--claim", "oracles", "--seed", "1", "--cases", "50"],
     {"claim": "oracles", "seed": 1, "cases": 50}),
    # CI steps
    (["verify", "--claim", "problem14", "--w", "10"],
     {"claim": "problem14", "w": 10}),
    (["verify", "--claim", "problem14", "--w", "2", "--x-to", "8190"],
     {"claim": "problem14", "w": 2, "x_to": 8190}),
    (["count", "--region", "q5.json", "--method", "permanent"],
     {"region": "q5.json", "method": "permanent"}),
    (["count", "--region", "q5.json", "--method", "brute"],
     {"region": "q5.json", "method": "brute"}),
    (["count", "--region", "hex112.json", "--out", "missing/out.txt"],
     {"region": "hex112.json", "method": "auto", "out": "missing/out.txt"}),
    (["count", "--region", "q5.json", "--format", "json"],
     {"region": "q5.json", "method": "auto", "format": "json"}),
    (["verify", "--claim", "problem1", "--format", "json"],
     {"claim": "problem1", "format": "json"}),
    (["verify", "--claim", "problem1", "--seed", "5"],
     {"claim": "problem1", "seed": 5}),
    (["verify", "--claim", "oracles", "--cases", "1001"],
     {"claim": "oracles", "cases": 1001}),
    (["count", "--region", "aztec3.json"],
     {"region": "aztec3.json", "method": "auto"}),
    # the benchmark's workloads
    (["count", "--region", "aztec12.json", "--method", "kasteleyn"],
     {"region": "aztec12.json", "method": "kasteleyn"}),
    (["ratio", "--region", "hex556.json", "--edge", "central", "--format", "json"],
     {"region": "hex556.json", "edge": "central", "format": "json"}),
    (["spectrum", "--region", "hex444.json"],
     {"region": "hex444.json"}),
    (["verify", "--claim", "oracles", "--seed", "17", "--cases", "50"],
     {"claim": "oracles", "seed": 17, "cases": 50}),
    (["verify", "--claim", "problem19-orbits", "--n", "4"],
     {"claim": "problem19-orbits", "n": 4}),
    (["verify", "--claim", "problem1", "--n", "2"],
     {"claim": "problem1", "n": 2}),
    (["count", "--region", "window_w6_x3.json", "--method", "transfer"],
     {"region": "window_w6_x3.json", "method": "transfer"}),
    (["verify", "--claim", "problem14", "--w", "4", "--x-to", "12"],
     {"claim": "problem14", "w": 4, "x_to": 12}),
    # --opt=value
    (["count", "--region=hex.json", "--method=brute"],
     {"region": "hex.json", "method": "brute"}),
    (["verify", "--claim=oracles", "--seed=3", "--cases=5"],
     {"claim": "oracles", "seed": 3, "cases": 5}),
    (["ratio", "--region=f.json", "--edge=central", "--format=json", "--out=o.json"],
     {"region": "f.json", "edge": "central", "format": "json", "out": "o.json"}),
    # unique prefixes, with and without =
    (["count", "--reg", "hex.json", "--meth", "permanent"],
     {"region": "hex.json", "method": "permanent"}),
    (["count", "--r", "hex.json", "--m", "brute", "--f", "json", "--o", "o.txt"],
     {"region": "hex.json", "method": "brute", "format": "json", "out": "o.txt"}),
    (["verify", "--cl", "problem1", "--of"],
     {"claim": "problem1", "off_center": True}),
    (["verify", "--claim", "problem14", "--x", "7"],
     {"claim": "problem14", "x_to": 7}),
    (["verify", "--claim", "problem19-parity", "--n-m", "4"],
     {"claim": "problem19-parity", "n_max": 4}),
    (["verify", "--claim", "problem1", "--se", "5"],
     {"claim": "problem1", "seed": 5}),
    (["ratio", "--region", "f.json", "--e", "0:1"],
     {"region": "f.json", "edge": "0:1"}),
    (["verify", "--claim", "problem14", "--x=7", "--w=3"],
     {"claim": "problem14", "w": 3, "x_to": 7}),
    (["count", "--reg=f.json"],
     {"region": "f.json", "method": "auto"}),
    # the last repeat wins
    (["count", "--region", "a.json", "--region", "b.json", "--method", "brute", "--method", "kasteleyn"],
     {"region": "b.json", "method": "kasteleyn"}),
    (["verify", "--claim", "problem1", "--claim", "problem14", "--w", "3", "--w", "4"],
     {"claim": "problem14", "w": 4}),
    (["verify", "--claim", "problem1", "--off-center", "--off-center"],
     {"claim": "problem1", "off_center": True}),
    # any order; values that start with '-', are empty or hold '='; int() forms
    (["count", "--method", "brute", "--region", "f.json"],
     {"region": "f.json", "method": "brute"}),
    (["verify", "--n", "3", "--claim", "problem19-orbits"],
     {"claim": "problem19-orbits", "n": 3}),
    (["verify", "--claim", "problem1", "--n", "-1"],
     {"claim": "problem1", "n": -1}),
    (["count", "--region", "-"],
     {"region": "-", "method": "auto"}),
    (["count", "--region", ""],
     {"region": "", "method": "auto"}),
    (["count", "--region", "-a b.json"],
     {"region": "-a b.json", "method": "auto"}),
    (["count", "--region=a=b.json"],
     {"region": "a=b.json", "method": "auto"}),
    (["count", "--region=--method"],
     {"region": "--method", "method": "auto"}),
    (["verify", "--claim", "problem1", "--n", " 7 "],
     {"claim": "problem1", "n": 7}),
    (["verify", "--claim", "problem1", "--n", "+3"],
     {"claim": "problem1", "n": 3}),
    (["verify", "--claim", "problem1", "--n", "1_0"],
     {"claim": "problem1", "n": 10}),
    (["verify", "--claim", "problem1", "--n=-2"],
     {"claim": "problem1", "n": -2}),
]

# every option of each command, as argparse named them
DESTS = {
    "count": {"region", "method", "format", "out"},
    "ratio": {"region", "edge", "format", "out"},
    "spectrum": {"region", "format", "out"},
    "verify": {"claim", "n", "n_max", "w", "x_to", "off_center", "seed", "cases",
               "format", "out"},
}

# argv, and the option or token its error must name
USAGE_ERRORS = [
    ([], "command"),
    (["bogus"], "bogus"),
    (["coun", "--region", "f.json"], "coun"),
    (["count", "--bogus", "x", "--region", "f.json"], "--bogus"),
    (["count", "--region", "f.json", "extra"], "extra"),
    (["count", "--region", "f.json", "--", "x"], "--"),
    (["spectrum", "--region", "f.json", "--method", "brute"], "--method"),
    (["count"], "--region"),
    (["ratio", "--region", "f.json"], "--edge"),
    (["verify", "--n", "3"], "--claim"),
    (["count", "--region", "f.json", "--method", "fast"], "--method"),
    (["count", "--region", "f.json", "--format", "csv"], "--format"),
    (["verify", "--claim", "problem2"], "--claim"),
    (["verify", "--claim", "problem1", "--n", "two"], "--n"),
    (["verify", "--claim", "problem1", "--n", "1.5"], "--n"),
    (["verify", "--claim", "problem1", "--n="], "--n"),
    (["verify", "--claim", "problem1", "--n"], "--n"),
    (["count", "--region"], "--region"),
    (["verify", "--claim", "problem1", "--off-center=1"], "--off-center"),
    (["verify", "--c", "problem1"], "--c could match --claim, --cases"),
]


class TestTableParser:
    @pytest.mark.parametrize("argv, given", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
    def test_reads_what_argparse_read(self, argv, given):
        command = argv[0]
        expected = dict.fromkeys(DESTS[command])
        expected.update(given, command=command)
        assert vars(parse_args(argv)) == expected

    @pytest.mark.parametrize("argv, named", USAGE_ERRORS,
                             ids=[" ".join(argv) or "no-argv" for argv, _ in USAGE_ERRORS])
    def test_usage_error_exits_2_naming_the_option(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith("usage: matchenum")
        assert error.startswith("matchenum") and ": error: " in error
        assert named in error

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["count", "-h"], ["count", "--h"],
        ["ratio", "--region", "f.json", "--help"], ["spectrum", "-h"], ["verify", "--help"],
        ["count", "--help", "--method", "fast"],
    ], ids=" ".join)
    def test_help_goes_to_stdout_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        command = argv[0] if argv[0] in COMMANDS else None
        assert captured.out.startswith(f"usage: matchenum {command or '[-h]'}")
        names = COMMANDS if command is None else [
            option.invocation() for option in COMMANDS[command][1]]
        for name in names:
            assert name in captured.out

    def test_verify_options_are_the_claim_parameters(self):
        # typed by each parameter's default: a bool is a flag, else an int
        kinds = {}
        for verify in CLAIMS.values():
            for name, parameter in inspect.signature(verify).parameters.items():
                kinds[name] = bool if isinstance(parameter.default, bool) else int
        options = {option.dest: option.kind for option in COMMANDS["verify"][1]}
        assert options == {"claim": str, **kinds, "format": str, "out": str}


ROOT = Path(__file__).resolve().parents[1]


class TestUnwritableStdout:
    # a fresh process: the interpreter's own flush of stdout at exit must
    # stay quiet as well
    @pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
    def test_exits_2_with_one_error_line(self, region_file, target):
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full here")
        path = region_file("ad.json", {"kind": "AZTEC_DIAMOND", "params": {"n": 2}})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
        argv = [sys.executable, "-m", "matchenum.cli", "count", "--region", path]
        if target == "closed pipe":
            # the reading end is closed before the child has imported anything
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.stderr.close()
            code = proc.wait(timeout=60)
        else:
            with open(target, "w") as full:
                done = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE,
                                      timeout=60)
            code, err = done.returncode, done.stderr.decode()
        assert code == 2
        assert err.startswith("error: cannot write to standard output: ")
        assert err.count("\n") == 1
