"""Results and data are immutable records that compare and hash by field.

Every record class keeps its constructor (field names and order,
positional and keyword arguments, `RootDatum`'s defaults), refuses
assignment to a field, and equals and hashes like the tuple of its
fields.  Only `RootDatum` keeps per-instance caches, each computed once
per instance; `EvalPoint` is its integer rows and nothing else.
`Sublattice` is built from generators and keeps their Hermite rows, so
its twin is built from those rows.
"""

import inspect
import pathlib

import pytest

from repring import rootdata
from repring.completion import (LevelReport, LocalIsoReport, Presentation, PresentationReport,
                                TruncationReport, load_case_config, local_isomorphism_check,
                                truncated_quotient, validate_presentation)
from repring.groebner import GroebnerBasis, groebner
from repring.invariants import CharacterBasisReport, fundamental_character_probe
from repring.lattice import FinAbGroup, Sublattice, kernel
from repring.poly import parse_poly
from repring.rootdata import LeviDatum, RootDatum, all_roots, fundamental_group, standard_datum
from repring.spectrum import (EvalPoint, StabilizerReport, SupportDesc, parse_point,
                              stabilizer_check, support)

CASE = pathlib.Path(__file__).resolve().parent.parent / "cases" / "sl3_levi.json"

# Each record's constructor parameters, in order: its fields.
FIELDS = {
    Presentation: "rank images inverted relations",
    PresentationReport: ("images_invariant relations_vanish spans_orbit_sums degree_bound "
                         "all_passed"),
    TruncationReport: "level dimension monomials",
    LevelReport: "level dim_source dim_target surjective",
    LocalIsoReport: "levi restriction_valid levels",
    GroebnerBasis: "nvars polys",
    CharacterBasisReport: "independent spanning weights column_weights transition all_passed",
    FinAbGroup: "free_rank invariant_factors",
    RootDatum: "rank simple_roots simple_coroots name variant",
    LeviDatum: "parent kernel pairs datum saturation_applied",
    EvalPoint: "m zeta_row prime_rows",
    SupportDesc: "kernel_lattice quotient connected",
    StabilizerReport: "geometric_order ideal_order subsystem_order agree",
}
# The one record that keeps caches in an instance __dict__.
CACHING = {RootDatum}


def one_of_each():
    case = load_case_config(str(CASE))
    d, p = case["datum"], case["point"]
    report = local_isomorphism_check(d, p, case["source"], case["target"],
                                     case["restriction"], 2, case["levi"])
    records = [d, p, case["source"], case["levi"], report, report.levels[0],
               validate_presentation(case["source"], d, 1),
               truncated_quotient(case["source"], p, 2),
               groebner([parse_poly(t, ["y1", "y2"]) for t in ("y1^2 - 1", "y2 - 3")]),
               fundamental_character_probe(standard_datum("A", 2), 1),
               fundamental_group(standard_datum("A", 1, "adjoint")),
               support(parse_point("2,zeta(3)^1", 2)),
               stabilizer_check(standard_datum("C", 2), parse_point("1,2", 2))]
    assert {type(r) for r in records} == set(FIELDS)
    return records


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_unchanged(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == FIELDS[cls].split()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == ({"name": "datum", "variant": None} if cls is RootDatum else {})


def test_root_datum_defaults():
    d = RootDatum(1, ((2,),), ((1,),))
    assert (d.name, d.variant) == ("datum", None)
    assert RootDatum(rank=1, simple_roots=((2,),), simple_coroots=((1,),)) == d


@pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
def test_records_are_read_only_and_compare_by_field(record):
    cls, names = type(record), FIELDS[type(record)].split()
    values = tuple(getattr(record, n) for n in names)
    for twin in (cls(**dict(zip(names, values))), cls(*values)):
        assert twin is not record and twin == record
        try:
            expected = hash(values)
        except TypeError:
            # A field holding a polynomial is unhashable, and so is the record.
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(record) == expected
    for n in names:
        with pytest.raises(AttributeError):
            setattr(record, n, getattr(record, n))
    if cls not in CACHING:
        with pytest.raises(AttributeError):
            record.extra = 1


def test_sublattice_is_a_record_of_its_hermite_rows():
    s = kernel([[1, 1, 0], [0, 2, 2]])
    assert s._fields == ("ambient_rank", "hnf_rows")
    assert s == Sublattice(3, [[-1, 1, -1]]) and s.hnf_rows == ((1, -1, 1),)
    for twin in (Sublattice(*s), Sublattice(ambient_rank=3, generators=s.hnf_rows)):
        assert twin is not s and twin == s
        assert hash(twin) == hash(s) == hash((3, ((1, -1, 1),)))
    for n in ("ambient_rank", "hnf_rows"):
        with pytest.raises(AttributeError):
            setattr(s, n, getattr(s, n))
    with pytest.raises(AttributeError):
        s.extra = 1
    assert not hasattr(s, "__dict__")
    assert Sublattice(2, [[2, 0]]) != Sublattice(2, [[1, 0]])
    assert len({Sublattice(2, [[1, 0], [0, 1]]), Sublattice(2, [[1, 1], [0, 1]])}) == 1


def test_records_with_different_fields_differ():
    assert StabilizerReport(2, 2, 2, True) != StabilizerReport(2, 2, 1, False)
    assert FinAbGroup(0, (2,)) != FinAbGroup(0, (4,))
    assert len({FinAbGroup(0, (2,)), FinAbGroup(0, (2,)), FinAbGroup(1, ())}) == 2


def test_eval_point_fields_are_its_rows():
    p = parse_point("2,zeta(3)^1", 2)
    assert p._fields == ("m", "zeta_row", "prime_rows")
    assert p == (3, (0, 1), ((2, (1, 0)),)) and p.rank == 2
    assert not hasattr(p, "__dict__")
    twin = EvalPoint(*p)
    assert twin == p and twin is not p and hash(twin) == hash(tuple(p))
    assert EvalPoint(1, [0], []) == EvalPoint.all_ones(1) == (1, (0,), ())


def test_root_datum_closure_is_computed_once_per_datum(monkeypatch):
    calls = []
    close_roots = rootdata._close_roots

    def counted(d, cap):
        calls.append(d)
        return close_roots(d, cap)

    monkeypatch.setattr(rootdata, "_close_roots", counted)
    d = standard_datum("B", 3)
    roots = all_roots(d)
    assert all_roots(d) == roots and rootdata.weyl_order(d) == 48
    assert rootdata.positive_roots(d) and len(calls) == 1
    assert vars(d)["_closure"] is rootdata._root_closure(d)
    assert rootdata._reflections(d) is rootdata._reflections(d)
    twin = RootDatum(*(getattr(d, n) for n in FIELDS[RootDatum].split()))
    assert twin == d and "_closure" not in vars(twin)
    all_roots(twin)
    assert len(calls) == 2
