"""Tests for generic polynomial and rational function arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import DivisionByZero
from artifact.exactfield import AlgNum, AmbientField
from artifact.ratfunc import (
    INFINITY,
    FractionField,
    Poly,
    PolyRing,
    RatFunc,
    schoolbook,
)
from artifact.resolution import _constant

from slow_paths import (
    coefficientwise,
    evaluate_poly,
    reference_poly_mul,
    reference_ratfunc_div,
    scale_arg,
    scan_low_coeff,
    scan_order,
)
from test_exactfield import FIELDS


class Rationals:
    """Ring adapter for Fraction scalars."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_fraction(self, q):
        return Fraction(q)

    def convolve(self, x, y):
        return schoolbook(Fraction(0), x, y)

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


def test_poly_evaluate_scale():
    """evaluate_poly by Horner, and slow_paths.scale_arg, p(s*t) as a
    polynomial in t: its value at t is p's at s*t, over Q and over
    Q(sqrt2), zeros below the order and inside the tail included."""
    assert evaluate_poly(qpoly(1, 2, 3), Fraction(2)) == 17
    u = qpoly(0, 2, 4)
    assert scale_arg(u, Fraction(1, 2)) == qpoly(0, 1, 1)
    r2 = SQ2.gen()
    for p, s in ((qpoly(0, 0, 3, 0, -1), Fraction(-2, 3)),
                 (Poly(SQ2, [SQ2.zero(), r2, SQ2.zero(), r2 + 1], 2),
                  1 - r2)):
        scaled = scale_arg(p, s)
        assert scaled.order() == p.order()
        for t in (Fraction(1, 2), Fraction(3)):
            assert evaluate_poly(scaled, t) == evaluate_poly(p, s * t)


def test_poly_mul_upto_is_the_cut_product():
    """schoolbook with a bound and Poly.mul_upto give the full product cut
    past the bound, for bound 0 and bounds below, at and above the degree
    of the product, over Q and over polynomials in a curvette constant;
    without a bound they give the whole product."""
    field = AmbientField([-2, 0, 1])
    z = field.gen()
    cring = PolyRing(field, "c")
    c = cring.gen()
    cases = [(Q, qpoly(1, 2, 0, 3), qpoly(0, 1, -1)),
             (cring, Poly(cring, [c + 1, cring.zero(), c * c.scale(z)]),
              Poly(cring, [cring.zero(), c, cring.from_fraction(3), c]))]
    for ring, p, q in cases:
        full = reference_poly_mul(p, q)
        for bound in range(full.degree() + 3):
            cut = Poly(ring, full.coeffs[:bound + 1])
            assert p.mul_upto(q, bound) == cut
            assert Poly(ring, schoolbook(ring.zero(), p.coeffs, q.coeffs,
                                         bound)) == cut
        assert p.mul_upto(q, None) == p * q == full
        assert schoolbook(ring.zero(), p.coeffs, q.coeffs) == \
            list(full.coeffs)
    p, q = cases[0][1:]
    assert p.mul_upto(qpoly(), 3) == qpoly()
    assert qpoly(0, 0, 1).mul_upto(qpoly(0, 1), 2) == qpoly()


def test_constant_operands_match_the_full_convolution():
    """A product with a degree-0 operand scales the other operand, and one
    with the ring's one returns the other operand itself; both equal the
    full convolution, over field coefficients, over polynomials in a
    curvette constant, and over the rational functions in one parameter
    that the states of a generic marker (case III) carry."""
    field = AmbientField([-2, 0, 1])
    z = field.gen()
    cring = PolyRing(field, "c")
    lam = FractionField(PolyRing(field, "lam"))
    rings = [
        (field, [z, field.from_fraction(Fraction(-7, 3)), 1 + z]),
        (cring, [cring.gen(), cring.gen().scale(z) + 1,
                 cring.from_fraction(3)]),
        (lam, [lam.gen(), lam.one() / (lam.gen() + 1), lam.from_scalar(z)]),
    ]
    for ring, scalars in rings:
        one, zero = ring.one(), ring.zero()
        polys = [Poly(ring, [zero, s, one, zero, s * s]) for s in scalars]
        polys += [Poly(ring, [s]) for s in scalars]
        polys += [Poly(ring, [one]), Poly(ring, [])]
        for c in [one, zero, ring.from_fraction(-1)] + scalars:
            const = Poly(ring, [c])
            for p in polys:
                want = reference_poly_mul(p, const)
                assert p * const == want and const * p == want
        for p in polys:
            assert p * -3 == reference_poly_mul(p, Poly(ring, [
                ring.from_fraction(-3)]))
        for p in polys[:-2]:
            assert p * Poly(ring, [one]) is p
            assert Poly(ring, [one]) * p is p
            assert p * 1 is p and 1 * p is p


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
    # no gcd is cancelled, so a non-reduced fraction keeps its factor and
    # still equals its reduced form
    unreduced = RatFunc(qpoly(-1, 0, 1), qpoly(1, -2, 1))  # (t+1)/(t-1)
    assert unreduced.den.degree() == 2
    assert unreduced == RatFunc(qpoly(1, 1), qpoly(-1, 1))
    assert unreduced != RatFunc(qpoly(1, 1), qpoly(1, -1))
    assert RatFunc(qpoly(1, 1), qpoly(1, 1)) == 1
    assert a * b == RatFunc(qpoly(0, 2), qpoly(0, 2, 0, -2))


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
    one_plus = lam.gen() + 1
    assert _constant(one_plus / one_plus) == 1
    assert _constant(lam.gen()) is None
    assert _constant(lam.zero()) == 0
    assert _constant(one_plus * 3 / one_plus) == 3
    assert _constant(field.gen()) == field.gen()


SQ2 = AmbientField([-2, 0, 1])
SQ2_COEFFS = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    SQ2.element)
SQ2_POLYS = st.lists(SQ2_COEFFS, max_size=4).map(lambda cs: Poly(SQ2, cs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SQ2_POLYS, SQ2_POLYS.filter(bool), SQ2_COEFFS, st.booleans(),
       st.integers(0, 2))
def test_constant_is_the_value_at_enough_sample_points(num, den, k,
                                                       proportional, shift):
    """num/den over Q(sqrt 2)[lam] is constant exactly when it takes one
    value at max(deg num, deg den) + 1 points where den is nonzero (else
    num - value * den would have more roots than its degree); _constant
    returns that value, and None otherwise. A common power of lam, which
    RatFunc cancels, does not change the answer."""
    if proportional:
        num = den.scale(k)
    power = Poly.monomial(SQ2, SQ2.one(), shift)
    f = RatFunc(num * power, den * power)
    values = []
    at = 0
    while len(values) < max(num.degree(), den.degree()) + 1:
        d = evaluate_poly(den, at)
        if d:
            values.append(evaluate_poly(num, at) / d)
        at += 1
    constant = all(v == values[0] for v in values)
    got = _constant(f)
    assert (got is not None) == constant
    if constant:
        assert got == values[0]


SQ2_LAM = PolyRing(SQ2, "lam")
SPARSE_SQ2_COEFFS = st.one_of(st.just(SQ2.zero()), SQ2_COEFFS)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6), st.lists(SPARSE_SQ2_COEFFS, max_size=4),
       st.lists(st.tuples(st.integers(0, 3),
                          st.lists(SPARSE_SQ2_COEFFS, max_size=3)),
                max_size=4))
def test_order_and_low_coeff_equal_a_scan(run, field_cs, lam_terms):
    """Poly.order and low_coeff, read off the shift and the tail, equal a
    scan from the low end, on the zero polynomial and after a run of
    zero coefficients, over Q(sqrt 2) and over Q(sqrt 2)[lam], whichever
    is called first, and again on a repeat."""
    def polys():
        return (Poly(SQ2, [SQ2.zero()] * run + field_cs),
                Poly(SQ2_LAM, [SQ2_LAM.zero()] * run + [
                    Poly(SQ2, [SQ2.zero()] * shift + cs)
                    for shift, cs in lam_terms]),
                Poly(SQ2, []), Poly(SQ2_LAM, []))

    for p in polys():
        assert p.order() == scan_order(p)
        assert p.low_coeff() == scan_low_coeff(p)
        assert p.order() == scan_order(p)
        assert (p.order() is INFINITY) == (not p)
    for p in polys():
        assert p.low_coeff() == scan_low_coeff(p)
        assert p.order() == scan_order(p)


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


def form(x):
    """The exact form of a field element, Poly or RatFunc, down to the
    integer numerators and denominator of each field element."""
    if isinstance(x, RatFunc):
        return ("/", form(x.num), form(x.den))
    if isinstance(x, Poly):
        return tuple(form(c) for c in x.coeffs)
    return (x.num, x.den)


def half_integers(k, n):
    """n coordinates in -3, -5/2, .., 3 read off the base-13 digits of k,
    0 for the digit 0 (one draw per element or lam polynomial keeps
    generation cheap)."""
    out = []
    for _ in range(n):
        k, d = divmod(k, 13)
        out.append(Fraction(d // 2 if d % 2 == 0 else -(d + 1) // 2, 2))
    return out


def ratfunc_cases(field, over_lam):
    """A RatFunc a, a nonzero RatFunc b and a scalar, in tau over the
    field or over the rational functions in lam over it, with zero
    coefficients inside and at the low end."""
    n = field.degree

    def lam_poly(k):
        """The polynomial of degree < 2 in lam whose coordinates are
        half_integers(k, 2n)."""
        coords = half_integers(k, 2 * n)
        return Poly(field, [field.element(coords[:n]),
                            field.element(coords[n:])])

    ring = field
    scalar = st.integers(0, 13 ** n - 1).map(
        lambda k: field.element(half_integers(k, n)))
    if over_lam:
        ring = FractionField(PolyRing(field, "lam"))
        # a k > 0 has a nonzero digit, so the denominator is nonzero
        scalar = st.tuples(st.integers(0, 13 ** (2 * n) - 1),
                           st.integers(1, 13 ** (2 * n) - 1)).map(
            lambda nd: RatFunc(lam_poly(nd[0]), lam_poly(nd[1])))
    poly = st.tuples(st.integers(0, 2),
                     st.lists(st.one_of(scalar, st.just(ring.zero())),
                              min_size=1, max_size=3)).map(
        lambda t: Poly(ring, [ring.zero()] * t[0] + t[1]))
    nonzero = poly.filter(bool)
    ratfunc = st.tuples(poly, nonzero).map(lambda nd: RatFunc(*nd))
    return st.tuples(ratfunc, st.tuples(nonzero, nonzero).map(
        lambda nd: RatFunc(*nd)), scalar)


# over the ten test fields, and over lam over each of them
RATFUNC_CASES = {
    over_lam: st.sampled_from([ratfunc_cases(AmbientField(p), over_lam)
                               for p in FIELDS]).flatmap(lambda s: s)
    for over_lam in (False, True)}
OVER_LAM = pytest.mark.parametrize("over_lam", [False, True],
                                   ids=["field", "lam"])


@OVER_LAM
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_division_equals_the_cross_multiplied_quotient(over_lam, data):
    """a / b, a times the reciprocal b keeps, has the numerator and
    denominator coefficients of the cross-multiplied quotient, the first
    time and again; the reciprocal is formed once and does not point back
    to b. A zero divisor raises. (Over lam the coefficients are compared
    as values: they are rational functions in lam that no gcd reduces.)"""
    a, b, _scalar = data.draw(RATFUNC_CASES[over_lam])
    zero = b - b
    for divide in (reference_ratfunc_div, operator.truediv):
        with pytest.raises(DivisionByZero):
            divide(a, zero)
    with pytest.raises(DivisionByZero):
        1 / zero

    def coeffs(q):
        return q.num.coeffs, q.den.coeffs

    want = coeffs(reference_ratfunc_div(a, b))
    assert coeffs(a / b) == want
    inv = b._inv
    assert inv is not None and inv._inv is None
    assert coeffs(a / b) == want
    assert b._inv is inv
    one = RatFunc.of(Poly(a.num.ring, [a.num.ring.one()]))
    assert coeffs(1 / b) == coeffs(reference_ratfunc_div(one, b))


@OVER_LAM
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_scalar_subtraction_keeps_the_denominator(over_lam, data):
    """a - c for a scalar c has the form of a minus the constant RatFunc c,
    over the very denominator of a; a Poly operand takes the general
    route, to the same form."""
    a, _b, c = data.draw(RATFUNC_CASES[over_lam])
    ring = a.num.ring
    for scalar, value in ((c, c), (ring.one(), ring.one()),
                          (3, ring.from_fraction(3)),
                          (Fraction(-1, 2), ring.from_fraction(
                              Fraction(-1, 2)))):
        constant = Poly(ring, [value])
        got = a - scalar
        assert form(got) == form(a - RatFunc.of(constant))
        assert got.den is a.den or not got
        assert form(a - constant) == form(got)


@OVER_LAM
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sum_and_difference_equal_the_coefficientwise_route(over_lam, data):
    """Poly + and - over the two coefficient tuples, zero terms skipped,
    give the form of the route through Poly.coeff at every index."""
    a, b, _c = data.draw(RATFUNC_CASES[over_lam])
    for p, q in ((a.num, b.num), (b.num, a.num), (a.den, a.num),
                 (a.num, a.num)):
        assert form(p + q) == form(coefficientwise(p, q, operator.add))
        assert form(p - q) == form(coefficientwise(p, q, operator.sub))


def test_each_division_by_one_divisor_takes_no_inverse_after_the_first(
        monkeypatch):
    """Dividing by b takes one field inverse, that of the lowest
    coefficient of b's numerator, when b's reciprocal is formed; each
    later division by b takes none, since both factors of the product
    have denominators whose lowest coefficient is one."""
    field = AmbientField([-2, 0, 1])
    z = field.gen()
    b = RatFunc(Poly(field, [field.zero(), z + 1, z]),
                Poly(field, [field.one(), z]))
    numerators = [Poly(field, [z, field.from_fraction(3), z - 2]),
                  Poly(field, [field.one()]),
                  Poly(field, [field.zero(), field.zero(), 2 * z])]
    inverses = []
    inverse = AlgNum.inverse

    def counted(self):
        inverses.append(self)
        return inverse(self)

    monkeypatch.setattr(AlgNum, "inverse", counted)
    quotients = [RatFunc.of(num) / b for num in numerators]
    monkeypatch.undo()
    assert inverses == [z + 1]
    for num, got in zip(numerators, quotients):
        assert form(got) == form(reference_ratfunc_div(RatFunc.of(num), b))


# --- Poly as a shift and a tail, against dense coefficient lists

Z2M1 = AmbientField([-1, 0, 1])   # Q x Q: z - 1 and z + 1 are zero divisors


def _field_scalars(field):
    """Small elements; z - 1 and z + 1, the zero divisors over z^2 - 1,
    are drawn most often."""
    z = field.gen()
    return st.sampled_from([field.zero(), field.one(), -field.one(), z,
                            2 * z + 3, field.from_fraction(Fraction(1, 2))]
                           + [z - 1, z + 1] * 3)


def _poly_scalars(field):
    ring = PolyRing(field, "c")
    return ring, st.lists(_field_scalars(field), max_size=3).map(
        lambda cs: Poly(field, cs))


def _lam_scalars(field):
    ring = FractionField(PolyRing(field, "lam"))
    polys = st.lists(_field_scalars(field), max_size=2).map(
        lambda cs: Poly(field, cs))
    return ring, st.tuples(polys, polys.filter(bool)).map(
        lambda nd: RatFunc(*nd))


# (ring, scalars, whether the ring is a field)
POLY_RINGS = [(Z2M1, _field_scalars(Z2M1), False),
              (SQ2, _field_scalars(SQ2), True),
              _poly_scalars(Z2M1) + (False,),
              _lam_scalars(SQ2) + (True,)]


def dense(p):
    """The coefficient list of p after checking its form: a tail whose
    first and last terms are nonzero, or zero as shift 0 and no tail."""
    if p.tail:
        assert p.tail[0] and p.tail[-1], p
    else:
        assert p.shift == 0
    return list(p.coeffs)


def trimmed(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def termwise(x, y, op, zero):
    n = max(len(x), len(y))
    x, y = x + [zero] * (n - len(x)), y + [zero] * (n - len(y))
    return trimmed([op(a, b) for a, b in zip(x, y)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_shift_and_tail_arithmetic_equals_the_dense_lists(data):
    """Over z^2 - 1, Q(sqrt 2), polynomials in c over z^2 - 1 and the
    rational functions in lam: sums, and differences that cancel the low
    or the high end; products, products of zero divisors among them
    (reference_poly_mul); mul_upto at bounds below, at and past the two
    shifts; scale; and over the fields, RatFunc's
    cancellation of the common power of tau and its rescale. Each result
    is in form and has the coefficients of the dense route."""
    ring, scalar, is_field = data.draw(st.sampled_from(POLY_RINGS))
    zero = ring.zero()
    poly = st.tuples(st.integers(0, 3), st.lists(scalar, max_size=4)).map(
        lambda t: Poly(ring, [zero] * t[0] + t[1]))
    p, q, s = data.draw(poly), data.draw(poly), data.draw(scalar)
    x, y = dense(p), dense(q)
    assert dense(p + q) == termwise(x, y, operator.add, zero)
    assert dense(p - q) == termwise(x, y, operator.sub, zero)
    if p:
        for end in (p.order(), p.degree()):
            cut = Poly.monomial(ring, p.coeff(end), end)
            assert dense(p - cut) == termwise(x, dense(cut), operator.sub,
                                              zero)
            assert dense(p + (-cut)) == dense(p - cut)
    assert dense(p - p) == []
    product = list(reference_poly_mul(p, q).coeffs)
    assert dense(p * q) == product == dense(q * p)
    for bound in range(p.shift + q.shift + 4):
        assert dense(p.mul_upto(q, bound)) == trimmed(product[:bound + 1])
    assert dense(p.mul_upto(q, None)) == product
    assert dense(p.scale(s)) == trimmed([c * s for c in x])
    k = data.draw(st.integers(0, 3))
    if is_field and q:
        t_k = Poly.monomial(ring, ring.one(), k)
        f = RatFunc(p * t_k, q * t_k)
        num, den = [], [ring.one()]
        if p:
            common = min(p.order(), q.order())
            num, den = x[common:], y[common:]
        inv = ring.one() / next(c for c in den if c)
        assert dense(f.num) == trimmed([c * inv for c in num])
        assert dense(f.den) == trimmed([c * inv for c in den])


def test_a_product_of_zero_divisors_drops_its_zero_ends():
    """((z-1) + (z+1)t) ((z+1) + (z-1)t) = 4t over z^2 - 1: the product
    of the constant terms and that of the leading terms vanish."""
    z = Z2M1.gen()
    a, b = Poly(Z2M1, [z - 1, z + 1]), Poly(Z2M1, [z + 1, z - 1])
    for got in (a * b, a.mul_upto(b, None), a.mul_upto(b, 5)):
        assert (got.shift, got.tail) == (1, (Z2M1.from_fraction(4),))
    assert (a * b).coeffs == reference_poly_mul(a, b).coeffs
