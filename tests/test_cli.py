import inspect
import json
import re
import sys
import time

import pytest

from matchenum import counting
from matchenum.claims import CLAIMS, FAIL, ClaimReport
from matchenum.cli import build_parser, cli_main


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
        # one process runs many commands on the parser built once; each
        # reads as it does from a parser built fresh for it
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
        assert build_parser() is build_parser()
        fresh = []
        for argv in commands:
            build_parser.cache_clear()
            fresh.append(report(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 0]
        assert shared[0][1] == shared[-1][1] == "8\n"
