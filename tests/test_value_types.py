"""The value and record classes: equality, hash, repr and immutability of the
six value types, and the constructors and defaults of the record classes."""

import copy
import pickle

import pytest

from semiprime_lab.closures import (
    AxiomReport,
    AxiomResult,
    ClosureOperation,
    FractionalOutcome,
    Witness,
    builtin,
)
from semiprime_lab.errors import NotInRing
from semiprime_lab.ideals import IdealCanon, Ring, ShapeTag, classify_shape, ideal_from_generators
from semiprime_lab.search import SearchResult
from semiprime_lab.semigroup import NumericalSemigroup, from_generators
from semiprime_lab.series import PrimeField, TruncatedSeries

S25 = from_generators([2, 5])
F2 = PrimeField(2)
R25 = Ring(S25, F2)


# each value type's compared fields, in order
FIELDS = {
    "NumericalSemigroup": ("generators", "gaps", "frobenius", "conductor"),
    "PrimeField": ("p",),
    "Ring": ("semigroup", "field"),
    "IdealCanon": ("ring", "kind", "order", "window"),
    "ShapeTag": ("family", "order", "params", "gen_terms"),
    "TruncatedSeries": ("field", "coeffs", "semigroup"),
}
IDS = list(FIELDS)


def fresh_values():
    """One new instance of each value type, in the order of ``FIELDS``."""
    S = from_generators([2, 5])
    R = Ring(S, PrimeField(2))
    I = ideal_from_generators(R, [R.parse("t^2+t^5")])
    return [S, R.field, R, I, classify_shape(I), R.parse("t^2+t^5")]


def fields_of(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value).__name__])


@pytest.mark.parametrize("index", range(6), ids=IDS)
def test_equal_fields_give_equal_values_and_the_hash_of_the_field_tuple(index):
    a, b = fresh_values()[index], fresh_values()[index]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields_of(a))


@pytest.mark.parametrize("index", range(6), ids=IDS)
def test_a_value_never_equals_a_tuple_or_another_class(index):
    values = fresh_values()
    a = values[index]
    assert a != fields_of(a) and fields_of(a) != a
    assert a.__eq__(fields_of(a)) is NotImplemented
    for other in values[:index] + values[index + 1:]:
        assert a != other


def test_differing_fields_give_unequal_values():
    assert PrimeField(2) != PrimeField(3)
    assert Ring(S25, F2) != Ring(S25, PrimeField(3))
    assert from_generators([2, 5]) != from_generators([2, 7])
    assert R25.parse("t^2") != R25.parse("t^2+t^5")


def test_pinned_reprs():
    S = ("NumericalSemigroup(generators=(2, 5), gaps=(1, 3), frobenius=3, conductor=4)")
    assert repr(S25) == S
    assert repr(F2) == "PrimeField(p=2)"
    assert repr(R25) == f"Ring(semigroup={S}, field=PrimeField(p=2))"
    I = ideal_from_generators(R25, [R25.parse("t^2+t^5")])
    assert repr(classify_shape(I)) == (
        "ShapeTag(family='PRINCIPAL', order=2, params=(1,), gen_terms=(((2, 1), (5, 1)),))")
    assert repr(TruncatedSeries(PrimeField(3), (1, 0, 5))) == (
        "TruncatedSeries(field=PrimeField(p=3), coeffs=(1, 0, 2), semigroup=None)")


@pytest.mark.parametrize("index", range(6), ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(index):
    a = fresh_values()[index]
    fields = fields_of(a)
    name = FIELDS[IDS[index]][-1]
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) is before
    assert hash(a) == hash(fields)


@pytest.mark.parametrize("index", range(6), ids=IDS)
def test_copies_and_pickles_are_equal_values(index):
    a = fresh_values()[index]
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and hash(b) == hash(a)
        assert repr(b) == repr(a)


def test_constructor_checks_keep_their_messages():
    with pytest.raises(ValueError, match=r"^p must be a prime in \[2, 97\], got 4$"):
        PrimeField(4)
    with pytest.raises(NotInRing, match=r"^coefficient at t\^3, but 3 is a gap of <2,5>$"):
        TruncatedSeries(F2, (0, 0, 1, 1), S25)
    with pytest.raises(ValueError, match=r"^a series needs bound >= 1$"):
        TruncatedSeries(F2, ())


def test_keyword_construction_and_derived_fields():
    S = NumericalSemigroup(generators=(2, 5), gaps=(1, 3), frobenius=3, conductor=4)
    assert S == S25 and S.contains(5) and not S.contains(3)
    T = TruncatedSeries(field=PrimeField(3), coeffs=(4, -1))
    assert T.coeffs == (1, 2) and T.semigroup is None
    assert Ring(field=F2, semigroup=S25) == R25
    I = IdealCanon(R25, "unit", 0, ())
    assert IdealCanon(ring=R25, kind="unit", order=0, window=()) == I
    assert ShapeTag(family="X", order=1, params=(), gen_terms=()) == ShapeTag("X", 1, (), ())


def test_record_defaults_are_fresh_per_instance():
    a, b = AxiomResult(1), AxiomResult(2)
    assert a.witnesses is not b.witnesses
    assert (a.axiom, a.checked, a.skipped, a.witnesses) == (1, 0, 0, [])
    a.witnesses.append("w")
    assert b.witnesses == []
    assert (AxiomResult(3, checked=4, skipped=5, witnesses=["w"]).witnesses) == ["w"]


def test_record_keyword_forms_construct():
    table = {R25: R25}
    op = ClosureOperation("t", "table", table=table)
    assert (op.name, op.kind, op.fn, op.table) == ("t", "table", None, table)
    assert op(R25) is R25 and op.defined_at(R25)
    rule = ClosureOperation("r", "rule", fn=abs)
    assert rule(-2) == 2 and rule.table is None and rule.defined_at(object())
    assert builtin("identity", R25).kind == "rule"

    w = Witness(4, ("I", "J"), ("fI",), "detail", ("op", "domain"))
    assert (w.axiom, w.inputs, w.values, w.detail, w._source) == (
        4, ("I", "J"), ("fI",), "detail", ("op", "domain"))
    assert Witness(1, (), (), "d")._source is None

    report = AxiomReport("op", {}, 3)
    assert (report.op_name, report.results, report.domain_size, report.advisory) == (
        "op", {}, 3, False)
    assert AxiomReport("op", {}, 3, advisory=True).advisory and report.passed()

    out = FractionalOutcome("no_violation_found")
    assert (out.kind, out.witness, out.verified) == ("no_violation_found", None, False)
    assert out.to_json() == {"outcome": "no_violation_found", "witness": None, "verified": False}
    assert FractionalOutcome("witness", witness={"axiom": 1}, verified=True).verified

    res = SearchResult([ClosureOperation("identity", "rule", fn=abs)], {"nodes": 1})
    assert res.is_identity_only() and res.stats == {"nodes": 1}
    assert SearchResult(operations=[], stats={}).operations == []
