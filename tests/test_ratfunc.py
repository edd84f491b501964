"""Tests for generic polynomial and rational function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from artifact.errors import DivisionByZero
from artifact.exactfield import AmbientField
from artifact.ratfunc import (
    INFINITY,
    FractionField,
    Poly,
    PolyRing,
    RatFunc,
)


class Rationals:
    """Ring adapter for Fraction scalars."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_fraction(self, q):
        return Fraction(q)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


Q = Rationals()


def qpoly(*coeffs):
    return Poly(Q, [Fraction(c) for c in coeffs])


def test_poly_basics():
    p = qpoly(1, 1)
    q = qpoly(1, -1)
    assert p * q == qpoly(1, 0, -1)
    assert p + q == qpoly(2)
    assert p - q == qpoly(0, 2)
    assert -p == qpoly(-1, -1)
    assert (p * q).degree() == 2
    assert qpoly().degree() == -1


def test_poly_order():
    assert qpoly(0, 0, 0, 0, 1, 0, 0, 0, 0, 1).order() == 4
    assert qpoly().order() == INFINITY
    assert qpoly(3).order() == 0


def test_exact_cancellation_over_number_field():
    field = AmbientField([-2, 0, 1])
    z = field.gen()
    t = Poly.monomial(field, field.one(), 1)
    sqrt2_t = t.scale(z)
    assert (sqrt2_t * sqrt2_t - 2 * (t * t)).order() == INFINITY


def test_poly_divmod():
    num = qpoly(-1, 0, 0, 1)
    den = qpoly(-1, 1)
    quot, rem = num.pdivmod(den)
    assert quot == qpoly(1, 1, 1)
    assert not rem
    quot, rem = qpoly(1, 0, 1).pdivmod(qpoly(0, 1))
    assert quot == qpoly(0, 1)
    assert rem == qpoly(1)
    with pytest.raises(DivisionByZero):
        num.pdivmod(qpoly())


def test_poly_gcd_monic():
    a = qpoly(-1, 0, 1)  # (t-1)(t+1)
    b = qpoly(1, -2, 1)  # (t-1)^2
    assert a.gcd(b) == qpoly(-1, 1)
    assert a.gcd(qpoly()) == a
    assert qpoly(4).gcd(a) == qpoly(1)


def test_poly_exact_division():
    a = qpoly(-1, 0, 1)
    assert a / qpoly(-1, 1) == qpoly(1, 1)
    assert a / 2 == qpoly(Fraction(-1, 2), 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        qpoly(1, 1) / qpoly(0, 1)


def test_poly_evaluate_scale():
    assert qpoly(1, 2, 3).evaluate(Fraction(2)) == 17
    u = qpoly(0, 2, 4)
    assert u.scale_arg(Fraction(1, 2)) == qpoly(0, 1, 1)


def test_poly_mul_upto_is_the_cut_product():
    p = qpoly(1, 2, 0, 3)
    q = qpoly(0, 1, -1)
    full = p * q
    for bound in range(8):
        assert p.mul_upto(q, bound) == Poly(Q, full.coeffs[:bound + 1])
    assert p.mul_upto(qpoly(), 3) == qpoly()
    assert qpoly(0, 0, 1).mul_upto(qpoly(0, 1), 2) == qpoly()


def test_ratfunc_canonical_form():
    field = AmbientField([-2, 0, 1])
    z = field.gen()
    one = field.one()
    num = Poly(field, [field.zero(), z, z])  # sqrt2*t + sqrt2*t^2
    den = Poly(field, [z])
    r = RatFunc(num, den)
    assert r.num == Poly(field, [field.zero(), one, one])
    assert r.den == Poly(field, [one])


def test_ratfunc_gcd_cancellation():
    r = RatFunc(qpoly(0, 0, 1, 1), qpoly(0, 1))
    assert r.num == qpoly(0, 1, 1)
    assert r.den == qpoly(1)


def test_ratfunc_arithmetic():
    a = RatFunc(qpoly(1), qpoly(1, -1))
    b = RatFunc(qpoly(1), qpoly(1, 1))
    s = a + b
    assert s == RatFunc(qpoly(2), qpoly(1, 0, -1))
    assert a - a == RatFunc.of(qpoly())
    assert a * (1 - RatFunc.of(qpoly(0, 1))) == 1
    assert (a / b) == RatFunc(qpoly(1, 1), qpoly(1, -1))
    with pytest.raises(DivisionByZero):
        a / RatFunc.of(qpoly())


def test_ratfunc_order_and_value():
    r = RatFunc(qpoly(0, 1), qpoly(1, 1))  # t/(1+t)
    assert r.order() == 1
    assert r.value0() == 0
    assert (r / RatFunc.of(qpoly(0, 1))).value0() == 1
    assert RatFunc(qpoly(0, 0, 2), qpoly(0, 0, 1, 1)).value0() == 2
    assert RatFunc.of(qpoly()).order() == INFINITY
    with pytest.raises(DivisionByZero):
        RatFunc(qpoly(1), qpoly(0, 1)).value0()


def test_nested_rings():
    field = AmbientField([-2, 0, 1])
    cring = PolyRing(field, "c")
    c = cring.gen()
    t = Poly.monomial(cring, c, 1)  # c*t over L[c]
    sq = t * t
    assert sq.coeff(2) == c * c
    lam = FractionField(PolyRing(field, "lam"))
    x = Poly.monomial(lam, lam.one(), 2)
    y = Poly.monomial(lam, lam.gen(), 3)
    state = RatFunc.of(y) / RatFunc.of(x)
    assert state.order() == 1
    assert state.value0() == lam.zero()


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_ratfunc_field_axioms(u, v):
    a = RatFunc.of(qpoly(*u))
    b = RatFunc.of(qpoly(1, *v))  # nonzero by construction
    assert (a + b) - b == a
    assert (a * b) / b == a
    if a:
        assert a / a == 1


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_divmod_identity(u, v):
    a = qpoly(*u)
    b = qpoly(*v)
    if not b:
        return
    quot, rem = a.pdivmod(b)
    assert quot * b + rem == a
    assert rem.degree() < b.degree() or not rem
