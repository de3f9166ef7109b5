"""Value semantics of the package's classes: equality and hash by fields,
frozen fields, the repr they print; and constructors and counting functions
that refuse a bool, a non-int or an out-of-range integer argument."""

import re
from fractions import Fraction

import pytest

from gpcount.cli import verify_all
from gpcount.ehrhart import (
    Cone,
    FullDimFan,
    HPolytope,
    count_lattice,
    em_reciprocity_check,
    multiplicity,
    normal_fan_of,
    standard_simplex,
    unit_cube,
)
from gpcount.hypergraph import Hypergraph
from gpcount.permutahedron import GPerm
from gpcount.polynomial import (
    Polynomial,
    QuasiPolynomial,
    binomial_sum,
    interpolate,
    interpolate_quasipoly,
)
from gpcount.report import CheckEntry, Report
from gpcount.setfn import SetFn, standard_perm_setfn


def _cone(sign):
    return Cone(((sign,),))


# per class: a builder, two argument tuples that differ in one field, and the
# repr of the first
CASES = {
    "SetFn": (SetFn, (1, (0, Fraction(1, 2))), (1, (0, 1)),
              "SetFn(d=1, values=(Fraction(0, 1), Fraction(1, 2)))"),
    "Hypergraph": (Hypergraph, (2, ({1, 2},)), (2, ({1},)),
                   "Hypergraph(d=2, edges=(frozenset({1, 2}),))"),
    "Polynomial": (Polynomial, ((1, Fraction(1, 2)),), ((1, 2),),
                   "Polynomial(coefficients=(Fraction(1, 1), Fraction(1, 2)))"),
    "QuasiPolynomial": (QuasiPolynomial, (1, (Polynomial((1,)),)), (1, (Polynomial((2,)),)),
                        "QuasiPolynomial(period=1, constituents="
                        "(Polynomial(coefficients=(Fraction(1, 1),)),))"),
    "HPolytope": (HPolytope, (1, (((2,), "<=", 4),), ((0, 2),)), (1, (((2,), "<=", 4),), ((0, 3),)),
                  "HPolytope(d=1, rows=(((1,), '<=', 2),), bbox=((0, 2),))"),
    "FullDimFan": (FullDimFan, (1, (_cone(1), _cone(-1))), (1, (_cone(-1), _cone(1))),
                   "FullDimFan(d=1, cones=(Cone(rows=((1,),)), Cone(rows=((-1,),))))"),
    "CheckEntry": (CheckEntry, ("t=1", 2, Fraction(2)), ("t=1", 2, 3),
                   "CheckEntry(label='t=1', lhs=2, rhs=Fraction(2, 1))"),
}
FROZEN = sorted(CASES)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_fields_give_equal_values_and_hashes(name):
    cls, args, _other, _text = CASES[name]
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_another_class_or_field_is_unequal(name):
    cls, args, other, _text = CASES[name]
    a = cls(*args)
    assert a != cls(*other)
    assert a != tuple(getattr(a, field) for field in cls._fields)
    same_fields = type("Sub" + name, (cls,), {})(*args)
    assert a != same_fields and same_fields != a


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, args, _other, _text = CASES[name]
    a = cls(*args)
    for field in cls._fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert getattr(a, field) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", FROZEN)
def test_repr_names_every_field(name):
    cls, args, _other, text = CASES[name]
    assert repr(cls(*args)) == text


def test_cached_properties_fill_past_the_guard():
    z = SetFn(2, (0, 1, 1, 1))
    assert "scaled_vertices" not in z.__dict__
    assert z.scaled_vertices == ((0, 1), (1, 0))
    assert z.__dict__["scaled_vertices"] is z.scaled_vertices
    # the cache is not a field: equality and hash still read the fields only
    assert z == SetFn(2, (0, 1, 1, 1)) and hash(z) == hash(SetFn(2, (0, 1, 1, 1)))


def test_report_is_mutable_unhashable_and_owns_its_entries():
    a, b = Report(), Report()
    assert a.entries is not b.entries
    a.check("x", 1, 1)
    assert b.entries == [] and a != b
    b.check("x", 1, 1)
    assert a == b and a != Report([CheckEntry("x", 1, 2)])
    assert a != a.entries
    with pytest.raises(TypeError):
        hash(a)
    a.entries = []
    assert a == Report()
    assert repr(b) == "Report(entries=[CheckEntry(label='x', lhs=1, rhs=1)])"
    assert repr(Report()) == "Report(entries=[])"


PI_3 = GPerm(standard_perm_setfn(3))
HEXAGON = max(PI_3.face_lattice(), key=lambda face: face.dim)
SEGMENT = standard_simplex(1)
# per integer argument: the name its refusal gives, a call that passes n to
# it and takes n = 1, and an int outside its range (None where every int is
# in range)
INTEGER_ARGUMENTS = {
    "SetFn": ("ground-set size", lambda n: SetFn(n, (0, 1)), 9),
    "Hypergraph": ("d", lambda n: Hypergraph(n, ({1},)), 0),
    "HPolytope": ("d", lambda n: HPolytope(n, (((1,), "<=", 1),), ((0, 1),)), 0),
    "QuasiPolynomial": ("period", lambda n: QuasiPolynomial(n, (Polynomial((1,)),)), 0),
    "edge node": ("edge node", lambda n: Hypergraph(2, ({n},)), 3),
    "count_k_faces": ("k", lambda n: PI_3.count_k_faces(HEXAGON, n), -1),
    "chi_count k": ("k", lambda n: PI_3.chi_count(n, 2), 3),
    "chi_count m": ("m", lambda n: PI_3.chi_count(0, n), 0),
    "reciprocity_rhs m": ("m", lambda n: PI_3.reciprocity_rhs(0, n), 0),
    "verify_reciprocity": ("m_max", lambda n: PI_3.verify_reciprocity(0, n), 0),
    "binomial_sum": ("m", lambda n: binomial_sum([1, 1], n), 0),
    "count_lattice": ("t", lambda n: count_lattice(unit_cube(2), n), 0),
    "unit_cube": ("d", unit_cube, 0),
    "standard_simplex": ("d", standard_simplex, 0),
    "multiplicity": ("coordinate of the integer point",
                     lambda n: multiplicity(normal_fan_of(PI_3), (1, n, 1)), None),
    "interpolate": ("step", lambda n: interpolate([1, 2], 1, n), 0),
    "fit degree": ("degree", lambda n: interpolate_quasipoly(lambda t: t + 1, n, 1), -1),
    "fit period": ("period", lambda n: interpolate_quasipoly(lambda t: t + 1, 1, n), 0),
    "dilation degree": ("degree", lambda n: em_reciprocity_check(SEGMENT, n, 1, 1), -1),
    "dilation period": ("period", lambda n: em_reciprocity_check(SEGMENT, 1, n, 1), 0),
    "dilation t_max": ("t_max", lambda n: em_reciprocity_check(SEGMENT, 1, 1, n), 0),
    "verify_all": ("trials", lambda n: verify_all(1, n), 0),
}
# the ids keep the names pytest gave the first six values when they were
# the only ones
NOT_INTEGERS = {"True": True, "False": False, "1.0": 1.0, "size3": Fraction(1), "1": "1",
                "None": None}
REFUSALS = [(case, value) for case in INTEGER_ARGUMENTS for value in NOT_INTEGERS] + [
    (case, "out of range") for case, (_name, _call, bad) in INTEGER_ARGUMENTS.items()
    if bad is not None]


@pytest.mark.parametrize("case, value", REFUSALS, ids=[f"{c}-{v}" for c, v in REFUSALS])
def test_constructors_refuse_a_bool_or_non_int_size(case, value):
    # a range test alone takes True for 1 and 1.0 for 1, and a missing one
    # fails later, on a TypeError or an empty loop
    name, call, bad = INTEGER_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(bad if value == "out of range" else NOT_INTEGERS[value])
    assert call(1) == call(1)
