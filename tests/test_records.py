"""The five value types behave as frozen dataclasses: equality by class and
fields, hashing of the field tuple, ``Name(field=value, ...)`` reprs,
refused assignment and deletion, and copies and pickles that round-trip
without running the construction checks again."""

import copy
import pickle

import pytest

from matchenum import RegionSpec, TriCell, spectra
from matchenum.claims import ClaimReport
from matchenum.spectra import CharPoly, SignedMatrix
from matchenum.transfer import PolyReport

HEX = {"sides": [1, 1, 1, 1, 1, 1]}

# (make, its fields in order, hashable)
RECORDS = {
    "RegionSpec": (lambda: RegionSpec("HEXAGON", dict(HEX)),
                   {"kind": "HEXAGON", "params": HEX, "holes": ()}, False),
    "SignedMatrix": (lambda: SignedMatrix(({0: 1, 1: 1}, {0: -1, 1: 1})),
                     {"rows": ({0: 1, 1: 1}, {0: -1, 1: 1})}, False),
    "CharPoly": (lambda: CharPoly((4, -4, 1)), {"coeffs": (4, -4, 1)}, True),
    "PolyReport": (lambda: PolyReport(0, ((2, 2), (0,))),
                   {"detected_degree": 0, "differences": ((2, 2), (0,))}, True),
    "ClaimReport": (lambda: ClaimReport("demo", {"n": 1}, {"count": "2"},
                                        {"count": "2"}, "PASS", 3),
                    {"claim_id": "demo", "parameters": {"n": 1},
                     "computed": {"count": "2"}, "expected": {"count": "2"},
                     "verdict": "PASS", "runtime_ms": 3}, False),
}

REPRS = {
    "RegionSpec": "RegionSpec(kind='HEXAGON', params={'sides': [1, 1, 1, 1, 1, 1]}, "
                  "holes=())",
    "SignedMatrix": "SignedMatrix(rows=({0: 1, 1: 1}, {0: -1, 1: 1}))",
    "CharPoly": "CharPoly(coeffs=(4, -4, 1))",
    "PolyReport": "PolyReport(detected_degree=0, differences=((2, 2), (0,)))",
    "ClaimReport": "ClaimReport(claim_id='demo', parameters={'n': 1}, "
                   "computed={'count': '2'}, expected={'count': '2'}, "
                   "verdict='PASS', runtime_ms=3)",
}

names = pytest.mark.parametrize("name", sorted(RECORDS))


@names
def test_fields_by_position_and_keyword(name):
    make, fields, _ = RECORDS[name]
    record = make()
    assert {f: getattr(record, f) for f in fields} == fields
    assert type(record)(**fields) == record
    assert type(record)(*fields.values()) == record


@names
def test_equal_by_class_and_fields(name):
    make, fields, _ = RECORDS[name]
    record = make()
    assert record == make() and not record != make()
    assert record != tuple(fields.values())
    others = [RECORDS[other][0]() for other in RECORDS if other != name]
    assert all(record != other for other in others)

    class Sub(type(record)):
        pass

    assert record != Sub(*fields.values())


def test_different_fields_are_unequal():
    assert CharPoly((4, -4, 1)) != CharPoly((4, -4, 2))
    assert PolyReport(0, ((2, 2), (0,))) != PolyReport(None, ((2, 2), (0,)))
    assert RegionSpec("HEXAGON", HEX) != RegionSpec("HEXAGON", HEX, [[0, 0, "up"]])


@names
def test_repr(name):
    assert repr(RECORDS[name][0]()) == REPRS[name]


@names
def test_hash_is_that_of_the_field_tuple(name):
    make, fields, hashable = RECORDS[name]
    if hashable:
        assert hash(make()) == hash(make()) == hash(tuple(fields.values()))
        assert len({make(), make()}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(make())


@names
def test_assignment_and_deletion_refused(name):
    make, fields, _ = RECORDS[name]
    record = make()
    for field in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert make() == record


@names
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_round_trip(name, clone):
    record = RECORDS[name][0]()
    twin = clone(record)
    assert type(twin) is type(record) and twin == record
    assert repr(twin) == repr(record)


def test_copies_skip_the_construction_checks(monkeypatch):
    k = SignedMatrix(({0: 1},))

    def refuse(rows):
        raise AssertionError("rows checked again")

    monkeypatch.setattr(spectra, "check_rows", refuse)
    assert copy.deepcopy(k) == pickle.loads(pickle.dumps(k)) == k


def test_region_holes_default_and_normalised():
    assert RegionSpec("HEXAGON", HEX).holes == ()
    spec = RegionSpec(kind="HEXAGON", params={"sides": [2] * 6}, holes=[[0, 0, "up"]])
    assert spec.holes == (TriCell(0, 0, "up"),)
    assert type(spec.holes) is tuple and type(spec.holes[0]) is TriCell
