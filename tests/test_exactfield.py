"""Tests for exact number field arithmetic and subfield lattices."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from artifact import exactfield
from artifact.errors import (
    DivisionByZero,
    NonIntegralDegree,
    NotASubfield,
    ReduciblePolynomial,
)
from artifact.exactfield import AlgNum, AmbientField, Subfield, span_close
from artifact.oracle import _keyed_table
from artifact.ratfunc import Poly, PolyRing

from slow_paths import (
    _pmul,
    evaluate_algnum,
    reduce_against,
    reference_algnum_inverse,
    reference_algnum_mul,
    reference_fold_table,
    reference_poly_mul,
    reference_is_squarefree,
    reference_span_close,
)


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
    q = AmbientField([0, 1])
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


def test_evaluate_conjugation():
    field = sqrt2_field()
    z = field.gen()
    a = 1 + 2 * z
    assert evaluate_algnum(a, -z) == 1 - 2 * z
    assert evaluate_algnum(a, z) == a


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
    inner = Subfield(field, [[1, 0, 0, 0], [0, 1, 0, 0]])
    outer = Subfield(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
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


# The ambient fields of bench/workloads.py (Q, Q(sqrt2), Q(sqrt3), golden,
# cube root of 2, BIQ, fourth root of 2), two fields whose fold table needs
# a scale above one, and a degree-1 field whose fold table is empty.
FIELDS = [
    [0, 1], [-2, 0, 1], [-3, 0, 1], [-1, -1, 1], [-2, 0, 0, 1],
    [1, 0, -10, 0, 1], [-2, 0, 0, 0, 1],
    [Fraction(-1, 2), 0, 1],
    [Fraction(5, 7), Fraction(-1, 3), 0, 1],
    [Fraction(-3, 2), 1],
]
FIELD_IDS = ["Q", "sqrt2", "sqrt3", "golden", "cbrt2", "BIQ", "qrt2",
             "z2-1/2", "z3-z/3+5/7", "z-3/2"]

wide_coord = st.fractions(min_value=-40, max_value=40, max_denominator=60)


@st.composite
def element_pairs(draw):
    field = AmbientField(draw(st.sampled_from(FIELDS)))
    vec = st.lists(wide_coord, min_size=field.degree, max_size=field.degree)
    return field.element(draw(vec)), field.element(draw(vec))


def test_fold_table_scales():
    scales = dict(zip(FIELD_IDS, (AmbientField(p)._scale for p in FIELDS)))
    assert scales == (dict.fromkeys(FIELD_IDS, 1)
                      | {"z2-1/2": 2, "z3-z/3+5/7": 21})
    assert AmbientField(FIELDS[-1])._fold == ()


@given(element_pairs(), wide_coord)
def test_arithmetic_equals_fraction_reference(pair, q):
    a, b = pair
    one = a.field.one().coords
    assert (a * b).coords == reference_algnum_mul(a, b)
    assert (a * q).coords == tuple(x * q for x in a.coords)
    assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
    assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
    assert (-a).coords == tuple(-x for x in a.coords)
    if a:
        assert reference_algnum_mul(a, a.inverse()) == one


def assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.coords == tuple(Fraction(v, x.den) for v in x.num)


@given(element_pairs())
def test_each_value_has_one_form(pair):
    a, b = pair
    field = a.field
    prod = a * b
    for x in (a, b, prod, a + b, a - b, -a, field.zero()):
        assert_canonical(x)
    routes = [b * a, field.element(reference_algnum_mul(a, b)),
              (prod + b) - b, -(-prod)]
    if prod:
        routes += [prod.inverse().inverse(), prod / b * b]
        assert_canonical(prod.inverse())
    for x in routes:
        assert (x.num, x.den, hash(x)) == (prod.num, prod.den, hash(prod))


# The test fields and a degree-1 field whose z is the nonzero constant -3.
KERNEL_FIELDS = FIELDS + [[3, 1]]
huge_coord = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                       st.integers(1, 10 ** 25))


@st.composite
def coefficient_lists(draw):
    """A field and two coefficient lists over it, with zero coefficients
    inside, at the low end and at the high end, and coordinates of up to
    40 digits over denominators of up to 25."""
    field = AmbientField(draw(st.sampled_from(KERNEL_FIELDS)))
    coord = st.one_of(st.just(Fraction(0)), wide_coord, huge_coord)
    element = st.lists(coord, min_size=field.degree,
                       max_size=field.degree).map(field.element)
    entry = st.one_of(st.just(field.zero()), element)

    def coefficients():
        zeros = st.integers(0, 2).map(lambda k: [field.zero()] * k)
        return st.tuples(zeros, st.lists(entry, min_size=1, max_size=5),
                         zeros).map(lambda parts: sum(parts, []))
    return field, draw(coefficients()), draw(coefficients())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(coefficient_lists())
def test_convolve_equals_the_schoolbook_product(case):
    """AmbientField.convolve, the integer kernel Poly.__mul__ hands its
    products to, equals the product summed one AlgNum product at a time,
    coefficient by coefficient and each in its one form."""
    field, x, y = case
    got = field.convolve(x, y)
    assert len(got) == len(x) + len(y) - 1
    for c in got:
        assert c.field is field
        assert_canonical(c)
    want = reference_poly_mul(Poly(field, x), Poly(field, y))
    assert Poly(field, got) == want
    assert Poly(field, x) * Poly(field, y) == want


def test_rational_elements_hash_like_the_number():
    for p in FIELDS:
        field = AmbientField(p)
        for q in (0, 3, -7, Fraction(1, 2), Fraction(-22, 7)):
            x = field.from_fraction(q)
            assert x == q and hash(x) == hash(q)
            assert {q: "q"}[x] == "q"
    z = sqrt2_field().gen()
    assert z * z == 2 and hash(z * z) == hash(2)
    assert z / (2 * z) == Fraction(1, 2)
    assert hash(z / (2 * z)) == hash(Fraction(1, 2))


@pytest.mark.parametrize("p", FIELDS, ids=FIELD_IDS)
def test_ring_operations_create_no_fractions(monkeypatch, p):
    """Building the field makes only the Fractions that reading p makes;
    +, -, unary - and * of two field elements, the inverse, the product of
    two polynomials over the field, the subfield echelon and the oracle's
    multiplication tables run in integers."""
    created = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    field = AmbientField(p)
    monkeypatch.undo()
    assert len(created) == len(p) == field.degree + 1
    n = field.degree
    a = field.element([Fraction(2 * k + 1, k + 2) for k in range(n)])
    b = field.element([Fraction(k - 3, 7) for k in range(n)])
    branch = Poly(field, [field.zero(), a, b])
    cring = PolyRing(field, "c")
    curvette = Poly(cring, [cring.zero(), Poly(field, [b, a]),
                            Poly(field, [a])])
    created.clear()
    monkeypatch.setattr(Fraction, "__new__", counted)
    results = [a * b, a + b, a - b, -a, a.inverse(), branch * branch]
    rat = Subfield.rationals(field)
    full = span_close([a, b], rat)
    member = [full.contains_num(a), rat.contains_num(a)]
    # c-degree at most 1: a tau level's keys b*n + k' stay below W = 2n
    W = 2 * n
    tables = [_keyed_table(s, 2, field, W) for s in (branch, curvette)]
    monkeypatch.undo()
    assert created == []
    assert results[0].coords == reference_algnum_mul(a, b)
    assert results[4] == reference_algnum_inverse(a)
    assert results[5] == reference_poly_mul(branch, branch)
    assert member == [True, n == 1]
    # row k of a table lists z^k times s, its term at tau^e, c^b and
    # coordinate k' keyed offset + k = e*W + b*n + k', all rows times one
    # positive D
    for s, table in zip((branch, curvette), tables):
        ratios = set()
        for k, row in enumerate(table):
            zk = field.element([int(i == k) for i in range(n)])
            prods = [(e, c * zk) for e, c in enumerate(s.coeffs)]
            want = {(e, b, k2): q for e, prod in prods
                    for b, alg in enumerate(prod.coeffs if isinstance(
                        prod, Poly) else (prod,))
                    for k2, q in enumerate(alg.coords) if q}
            got = {}
            for offset, q in row:
                e, at = divmod(offset + k, W)
                got[(e, *divmod(at, n))] = q
            assert got.keys() == want.keys()
            ratios |= {got[key] / want[key] for key in got}
        assert len(ratios) == 1 and min(ratios) > 0


def field_build(p):
    """(_scale, _fold) of the field of p, or None when p is refused as
    not square-free."""
    try:
        field = AmbientField(p)
    except ValueError as exc:
        assert str(exc) == "defining polynomial must be square-free"
        return None
    return field._scale, field._fold


def reference_build(p):
    return reference_fold_table(p) if reference_is_squarefree(p) else None


def random_monic(rng, degree):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(degree)] + [1]


def square_multiples(rng):
    """(z^2 - 2)^2, z (z - 1)^2 and seeded products q r^2 with r of
    degree >= 1: none is square-free."""
    out = [[4, 0, -4, 0, 1], [0, 1, -2, 1]]
    for _ in range(40):
        q = random_monic(rng, rng.randint(0, 3))
        r = random_monic(rng, rng.randint(1, 3))
        out.append(_pmul(q, _pmul(r, r)))
    return out


def test_field_build_equals_long_division_and_euclid():
    """The fold table from the monic recurrence and the square-free
    verdict from the rank of multiplication by p' equal the long-division
    table and the Euclid verdict: on FIELDS (which hold the seven corpus
    fields), on 300 seeded random monic rational polynomials of degree
    1-8 and on seeded products q r^2."""
    rng = random.Random(1402)
    randoms = [random_monic(rng, rng.randint(1, 8)) for _ in range(300)]
    squares = square_multiples(rng)
    for p in FIELDS + randoms + squares:
        assert field_build(p) == reference_build(p), p
    assert all(field_build(p) is None for p in squares)
    assert sum(field_build(p) is None for p in randoms) < 10


# The ambient fields above, plus two of high degree: the inverse solves an
# n x n integer system, so its cost grows fastest with n.
INVERSE_FIELDS = FIELDS + [[5, 1] + [0] * 14 + [1], [-3] + [0] * 31 + [1]]
INVERSE_FIELD_IDS = FIELD_IDS + ["z16+z+5", "z32-3"]


def random_element(rng, field, bound=40):
    while True:
        a = field.element([Fraction(rng.randint(-bound, bound),
                                    rng.randint(1, bound))
                           for _ in range(field.degree)])
        if a:
            return a


@pytest.mark.parametrize("p", INVERSE_FIELDS, ids=INVERSE_FIELD_IDS)
def test_inverse_equals_euclid_reference(p):
    field = AmbientField(p)
    rng = random.Random(1309 + field.degree)
    # the reference takes about a second per dense element of degree 32
    samples = [random_element(rng, field, 9) for _ in range(3)] \
        if field.degree > 8 else [random_element(rng, field) for _ in range(40)]
    # sparse and rational elements too: few nonzero coordinates
    z = field.gen()
    samples += [field.from_fraction(Fraction(-7, 3)), z, 1 - 2 * z * z]
    for a in samples:
        if not a:
            continue
        inv = a.inverse()
        ref = reference_algnum_inverse(a)
        assert (inv.num, inv.den) == (ref.num, ref.den)
        assert a * inv == 1


@pytest.mark.parametrize("p", FIELDS, ids=FIELD_IDS)
def test_rational_operands_match_the_fraction_reference(p):
    """A product with a rational factor only scales the other factor's
    numerators, and the inverse of a rational element swaps numerator and
    denominator: each gives the reference value in canonical form, with
    the rational on either side, as an element or as a plain number."""
    field = AmbientField(p)
    rng = random.Random(1701 + field.degree)
    z = field.gen()
    others = [random_element(rng, field) for _ in range(6)]
    others += [z, 1 - 2 * z * z, field.from_fraction(Fraction(5, 6)),
               field.one(), field.zero()]
    for q in (0, 1, -1, Fraction(-7, 3)):
        r = field.from_fraction(q)
        for a in others:
            want = reference_algnum_mul(a, r)
            for prod in (a * r, r * a, a * q, q * a):
                assert prod.coords == want
                assert_canonical(prod)
        if not q:
            with pytest.raises(DivisionByZero):
                r.inverse()
            continue
        inv = r.inverse()
        ref = reference_algnum_inverse(r)
        assert (inv.num, inv.den) == (ref.num, ref.den)
        assert inv == 1 / Fraction(q)
        assert_canonical(inv)


@pytest.mark.parametrize("p", FIELDS, ids=FIELD_IDS)
def test_prebuilt_zero_and_one_are_canonical(p):
    field = AmbientField(p)
    assert field.zero() is field.zero() and field.one() is field.one()
    for x, q in ((field.zero(), 0), (field.one(), 1)):
        assert_canonical(x)
        assert x.field is field
        assert x == q and hash(x) == hash(q)
        built = field.from_fraction(q)
        assert (x.num, x.den) == (built.num, built.den)
    z = field.gen()
    assert (field.one() * z, z * field.one(), field.zero() * z) == \
        (z, z, field.zero())
    assert field.one().inverse() == field.one()


def zero_divisor_message(fn, a):
    with pytest.raises(ReduciblePolynomial) as info:
        fn(a)
    return str(info.value)


def test_zero_divisors_report_the_gcd_degree():
    """Over a reducible modulus the integer inverse raises exactly what the
    Euclid reference raises: the degree of gcd(a, p) is n minus the rank of
    multiplication by a."""
    field = AmbientField([-1, 0, 0, 0, 1])  # z^4 - 1
    z = field.gen()
    for a, degree in ((z - 1, 1), (z * z - 1, 2), (z * z + 1, 2),
                      ((z - 1) * (z + 1) * (z * z + 1) + z - 1, 1)):
        message = zero_divisor_message(AlgNum.inverse, a)
        assert message == zero_divisor_message(reference_algnum_inverse, a)
        assert message.endswith("has degree %d" % degree)
    assert (z + 2).inverse() == reference_algnum_inverse(z + 2)
    # (z^2 - 2)(z^2 - 3)(z - 1/2): products of random elements with factors
    field = AmbientField([-3, 6, Fraction(5, 2), -5, Fraction(-1, 2), 1])
    z = field.gen()
    rng = random.Random(13)
    for factor in (z * z - 2, z * z - 3, 2 * z - 1, (z * z - 3) * (z * z - 2)):
        for _ in range(5):
            a = factor * random_element(rng, field, 9)
            assert zero_divisor_message(AlgNum.inverse, a) == \
                zero_divisor_message(reference_algnum_inverse, a)


def test_high_degree_inverses_stay_within_budget():
    """The Euclid reference took about 0.8 s for these five inverses."""
    field = AmbientField([-3] + [0] * 31 + [1])
    rng = random.Random(32)
    samples = [random_element(rng, field) for _ in range(5)]
    start = time.perf_counter()
    inverses = [a.inverse() for a in samples]
    assert time.perf_counter() - start < 2.0
    assert all(a * inv == 1 for a, inv in zip(samples, inverses))


def subfield_generators(rng, field):
    """Generator sets of subfields of several sizes: elements whose
    coordinates sit only at multiples of d, for each d dividing n, and
    their pairs."""
    n = field.degree
    out = []
    for d in (d for d in range(1, n + 1) if n % d == 0):
        gen = [field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              if k % d == 0 else 0 for k in range(n)])
               for _ in range(2)]
        out += [gen[:1], gen]
    return out


@pytest.mark.parametrize("p", FIELDS, ids=FIELD_IDS)
def test_subfields_equal_fraction_reference(p):
    field = AmbientField(p)
    rng = random.Random(2026 + field.degree)
    rat = Subfield.rationals(field)
    for gens in subfield_generators(rng, field):
        sub = span_close(gens, rat)
        rows, pivots = reference_span_close(gens, rat)
        assert sub.dim == len(rows)
        # the integer rows are the Fraction rref rows, scaled to pivot 1
        assert [[Fraction(a, r[c]) for a in r]
                for r, c in zip(sub.rows, sub.pivots)] == rows
        assert all(r[c] > 0 and gcd(*r) == 1
                   for r, c in zip(sub.rows, sub.pivots))
        inside = [sum((rng.randint(-5, 5) * b for b in sub.basis),
                      field.zero()) for _ in range(3)]
        for a in inside + [random_element(rng, field) for _ in range(5)]:
            expected = not any(reduce_against(a.coords, rows, pivots))
            assert sub.contains_num(a) == expected
        assert all(sub.contains_num(a) for a in inside)
        assert span_close(gens[1:], sub) == sub


def count_span_close_products(monkeypatch, gens, base):
    """span_close(gens, base) and the number of field products it made."""
    calls = []
    mul = AlgNum.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(AlgNum, "__mul__", counted)
        patch.setattr(AlgNum, "__rmul__", counted)
        sub = span_close(gens, base)
    return sub, len(calls)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_span_close_makes_one_product_per_dimension(monkeypatch, n):
    """K(c) = K + Kc + Kc^2 + ...: closing Q by a dense generator of
    z^n = 3 makes exactly n products (pairwise closure made 60, 205 and
    750)."""
    field = AmbientField([-3] + [0] * (n - 1) + [1])
    rng = random.Random(n)
    top = 1 if n == 32 else 9
    a = field.element([Fraction(rng.randint(-top, top), rng.randint(1, 5))
                       for _ in range(n)])
    sub, products = count_span_close_products(
        monkeypatch, [a], Subfield.rationals(field))
    assert sub.dim == n
    assert products == n


def test_span_close_over_a_subfield_makes_one_product_per_dimension(
        monkeypatch):
    """Over K = Q(z^4) of dimension 2 in z^8 = 3, a generator of Q(z^2)
    costs [Q(z^2):Q] = 4 products, and one of the whole field 8."""
    field = AmbientField([-3] + [0] * 7 + [1])
    z = field.gen()
    rat = Subfield.rationals(field)
    base = span_close([z * z * z * z], rat)
    assert base.dim == 2
    rng = random.Random(4)
    for step, dim in ((2, 4), (1, 8)):
        c = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           if k % step == 0 else 0 for k in range(8)])
        sub, products = count_span_close_products(monkeypatch, [c], base)
        assert sub == span_close([c], rat)
        assert sub.dim == dim
        assert products == dim


def test_generator_sets_of_one_subfield_give_one_subfield():
    """Q(sqrt2), Q(sqrt3) and Q(sqrt6) inside Q(sqrt2, sqrt3), with
    z = sqrt2 + sqrt3: each reached from different generator sets compares
    and hashes equal."""
    field = AmbientField([1, 0, -10, 0, 1])
    z = field.gen()
    rat = Subfield.rationals(field)
    sqrt6 = (z * z - 5) / 2
    sqrt2 = (z * z * z - 9 * z) / 2
    sqrt3 = z - sqrt2
    for root, other in ((sqrt2, 3 * sqrt2 - 1), (sqrt3, sqrt3 / 7 + 2),
                        (sqrt6, z * z)):
        assert root * root in (2, 3, 6)
        one = span_close([root], rat)
        two = span_close([other, root * 5, rat.basis[0]], rat)
        three = span_close(one.basis, rat)
        assert one.dim == 2
        assert one == two == three
        assert len({hash(one), hash(two), hash(three)}) == 1
    assert span_close([sqrt2, sqrt3], rat) == span_close([z], rat)
    assert span_close([sqrt2], rat) != span_close([sqrt3], rat)


@pytest.mark.parametrize("p", FIELDS, ids=FIELD_IDS)
def test_membership_equals_the_reduction_on_subfields_of_every_dimension(
        monkeypatch, p):
    """Subfield.contains_num equals the reduction of the numerators
    against the rows (exactfield._reduce) on subfields of every dimension
    that divides [L:Q], for elements inside and outside; Q and the whole
    field answer without a reduction."""
    field = AmbientField(p)
    n = field.degree
    rng = random.Random(77 + n)
    rat = Subfield.rationals(field)
    subs = {rat, span_close([field.gen()], rat)}
    subs |= {span_close(gens, rat)
             for gens in subfield_generators(rng, field)}
    assert {sub.dim for sub in subs} == {d for d in range(1, n + 1)
                                        if n % d == 0}
    reduce = exactfield._reduce
    for sub in subs:
        inside = [sum((rng.randint(-5, 5) * b for b in sub.basis),
                      field.zero()) for _ in range(3)]
        elements = inside + [field.zero(), field.one(), field.gen()] + [
            random_element(rng, field) for _ in range(5)]
        expected = [not any(reduce(a.num, sub.rows, sub.pivots))
                    for a in elements]
        if sub.dim in (1, n):
            monkeypatch.setattr(exactfield, "_reduce", None)
        assert [sub.contains_num(a) for a in elements] == expected
        monkeypatch.undo()
        assert all(expected[:len(inside)])
        if sub.dim < n:
            assert not all(expected)
