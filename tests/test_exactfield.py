"""Tests for exact number field arithmetic and subfield lattices."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from artifact import exactfield
from artifact.errors import (
    DivisionByZero,
    NonIntegralDegree,
    NotASubfield,
    ReduciblePolynomial,
)
from artifact.exactfield import AmbientField, Subfield, span_close


def sqrt2_field():
    return AmbientField([-2, 0, 1])


def quartic_field():
    return AmbientField([-2, 0, 0, 0, 1])


def test_field_validation():
    with pytest.raises(ValueError):
        AmbientField([1, 2])  # not monic
    with pytest.raises(ValueError):
        AmbientField([1, 2, 1])  # (z+1)^2 is not square-free
    with pytest.raises(ValueError):
        AmbientField([5])  # degree zero


def test_gen_in_degree_one_field():
    q = AmbientField.rationals()
    assert q.gen() == 0
    shifted = AmbientField([-3, 1])
    assert shifted.gen() == 3


def test_sqrt2_arithmetic():
    field = sqrt2_field()
    z = field.gen()
    assert z * z == 2
    assert (z + 1) * (z - 1) == 1
    assert z.inverse() == field.element([0, Fraction(1, 2)])
    assert (3 * z - z) == 2 * z
    assert (1 + z) - z == 1
    assert z / z == 1
    assert 2 / z == z


def test_inverse_of_zero():
    field = sqrt2_field()
    with pytest.raises(DivisionByZero):
        field.zero().inverse()


def test_zero_divisor_detected():
    # z - 1 is a zero divisor mod z^2 - 1
    field = AmbientField([-1, 0, 1])
    z = field.gen()
    with pytest.raises(ReduciblePolynomial):
        (z - 1).inverse()


def test_rational_predicates():
    field = sqrt2_field()
    z = field.gen()
    assert field.from_fraction(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_fraction()


def test_evaluate_conjugation():
    field = sqrt2_field()
    z = field.gen()
    a = 1 + 2 * z
    assert a.evaluate(-z) == 1 - 2 * z
    assert a.evaluate(z) == a


def test_span_close_quartic():
    field = quartic_field()
    z = field.gen()
    rat = Subfield.rationals(field)
    sub = span_close([z * z], rat)
    assert sub.dim == 2
    assert sub.contains_num(z * z)
    assert sub.contains_num(field.from_fraction(7))
    assert not sub.contains_num(z)
    assert not sub.contains_num(z * z * z)
    full = span_close([z], rat)
    assert full.dim == 4
    assert full.contains_num(z * z * z)


def test_span_close_idempotent():
    field = quartic_field()
    z = field.gen()
    rat = Subfield.rationals(field)
    sub = span_close([z * z], rat)
    again = span_close([b for b in sub.basis], rat)
    assert again == sub
    assert span_close([], sub) == sub


def test_rel_degree_tower():
    field = quartic_field()
    z = field.gen()
    rat = Subfield.rationals(field)
    mid = span_close([z * z], rat)
    full = span_close([z], rat)
    assert exactfield.rel_degree(rat, mid) == 2
    assert exactfield.rel_degree(mid, full) == 2
    assert exactfield.rel_degree(rat, full) == 4
    assert exactfield.rel_degree(full, full) == 1


def test_rel_degree_not_contained():
    field = quartic_field()
    z = field.gen()
    rat = Subfield.rationals(field)
    mid = span_close([z * z], rat)
    full = span_close([z], rat)
    with pytest.raises(NotASubfield):
        exactfield.rel_degree(full, mid)


def test_rel_degree_non_integral():
    field = quartic_field()
    inner = Subfield(field, [[1, 0, 0, 0], [0, 1, 0, 0]], [0, 1])
    outer = Subfield(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                     [0, 1, 2])
    with pytest.raises(NonIntegralDegree):
        exactfield.rel_degree(inner, outer)


def test_contains_own_basis():
    field = quartic_field()
    full = span_close([field.gen()], Subfield.rationals(field))
    for b in full.basis:
        assert full.contains_num(b)


coord = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@given(st.lists(coord, min_size=3, max_size=3))
def test_inverse_roundtrip(coords):
    field = AmbientField([-2, 0, 0, 1])  # z^3 - 2 has no rational roots
    a = field.element(coords)
    if not a:
        return
    assert a * a.inverse() == 1


@given(st.lists(coord, min_size=2, max_size=2),
       st.lists(coord, min_size=2, max_size=2))
def test_ring_axioms_sample(u, v):
    field = sqrt2_field()
    a = field.element(u)
    b = field.element(v)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + 1) == a * b + a
