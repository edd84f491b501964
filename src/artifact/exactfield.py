"""Exact arithmetic in Q[z]/(p(z)) and its Q-subfields.

The ambient coefficient field is presented by a monic square-free rational
polynomial p; elements are coordinate vectors on the power basis
1, z, ..., z^(n-1). Irreducibility of p is deliberately not checked up front:
inversion discovers a factor exactly when one matters and reports it as
ReduciblePolynomial. Subfields are plain Q-subspaces with a canonical echelon
basis; that is all the Galois-quotient bookkeeping downstream needs.
"""

from fractions import Fraction

from . import linalg
from .errors import (
    DivisionByZero,
    NonIntegralDegree,
    NotASubfield,
    ReduciblePolynomial,
)


# --- dense rational polynomials in the field generator, lowest degree first


def _ptrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _padd(p, q):
    n = max(len(p), len(q))
    return _ptrim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(n)])


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _ptrim(out)


def _pdivmod(p, q):
    p = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    inv = 1 / q[-1]
    while len(p) >= len(q):
        f = p[-1] * inv
        k = len(p) - len(q)
        quot[k] = f
        for j, b in enumerate(q):
            p[k + j] -= f * b
        _ptrim(p)
        if not p:
            break
    return _ptrim(quot), p


def _pgcd(p, q):
    p, q = list(p), list(q)
    while q:
        p, q = q, _pdivmod(p, q)[1]
    if p:
        inv = 1 / p[-1]
        p = [a * inv for a in p]
    return p


def _pderiv(p):
    return _ptrim([i * a for i, a in enumerate(p)][1:])


class AmbientField:
    """The field L = Q[z]/(p(z)) for a monic square-free p."""

    def __init__(self, min_poly):
        coeffs = [Fraction(a) for a in min_poly]
        coeffs = _ptrim(list(coeffs))
        if len(coeffs) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        g = _pgcd(coeffs, _pderiv(coeffs))
        if len(g) > 1:
            raise ValueError("defining polynomial must be square-free")
        self.min_poly = tuple(coeffs)
        self.degree = len(coeffs) - 1

    def element(self, coords):
        coords = [Fraction(a) for a in coords]
        if len(coords) != self.degree:
            raise ValueError(
                "expected %d coordinates, got %d" % (self.degree, len(coords)))
        return AlgNum(self, tuple(coords))

    def from_fraction(self, q):
        coords = [Fraction(q)] + [Fraction(0)] * (self.degree - 1)
        return AlgNum(self, tuple(coords))

    def zero(self):
        return self.from_fraction(0)

    def one(self):
        return self.from_fraction(1)

    def gen(self):
        """The class of z (equals 0 when the degree is 1)."""
        if self.degree == 1:
            # z is congruent to the negated constant term
            return self.from_fraction(-self.min_poly[0])
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return AlgNum(self, tuple(coords))

    @staticmethod
    def rationals():
        """Q presented as Q[z]/(z)."""
        return AmbientField([0, 1])

    def __eq__(self, other):
        return isinstance(other, AmbientField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return "AmbientField(%s)" % (list(self.min_poly),)


class AlgNum:
    """An element of an AmbientField, stored on the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, AlgNum):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgNum(self.field,
                      tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgNum(self.field,
                      tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return AlgNum(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = _pmul(list(self.coords), list(other.coords))
        _, rem = _pdivmod(prod, list(self.field.min_poly))
        rem = rem + [Fraction(0)] * (self.field.degree - len(rem))
        return AlgNum(self.field, tuple(rem))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended euclidean algorithm."""
        if not self:
            raise DivisionByZero("cannot invert zero")
        # invariants: r0 = s0 * self (mod p), r1 = s1 * self (mod p)
        r0, s0 = list(self.field.min_poly), []
        r1, s1 = _ptrim(list(self.coords)), [Fraction(1)]
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _padd(s0, [-a for a in _pmul(q, s1)])
        if len(r0) > 1:
            raise ReduciblePolynomial(
                "zero divisor: gcd with the modulus has degree %d" % (len(r0) - 1))
        inv_lead = 1 / r0[0]
        s0 = [a * inv_lead for a in s0]
        _, rem = _pdivmod(s0, list(self.field.min_poly))
        rem = rem + [Fraction(0)] * (self.field.degree - len(rem))
        return AlgNum(self.field, tuple(rem))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        return (isinstance(other, AlgNum) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def __bool__(self):
        return any(self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("element is not rational: %r" % (self,))
        return self.coords[0]

    def evaluate(self, at):
        """Evaluate the representing polynomial at another element."""
        acc = at.field.zero()
        for c in reversed(self.coords):
            acc = acc * at + at.field.from_fraction(c)
        return acc

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*z" % c if c != 1 else "z")
            else:
                parts.append("%s*z^%d" % (c, i) if c != 1 else "z^%d" % i)
        return "<%s>" % (" + ".join(parts) if parts else "0")


class Subfield:
    """A Q-subspace of the ambient field closed under products.

    The basis is kept in reduced echelon form, which makes membership a
    reduction and equality a tuple comparison.
    """

    def __init__(self, field, rows, pivots):
        self.field = field
        self._rows = tuple(tuple(r) for r in rows)
        self._pivots = tuple(pivots)
        self.basis = tuple(field.element(r) for r in self._rows)
        self.dim = len(self._rows)

    @staticmethod
    def rationals(field):
        one = [Fraction(1)] + [Fraction(0)] * (field.degree - 1)
        return Subfield(field, [one], [0])

    def contains_num(self, a):
        if not isinstance(a, AlgNum) or a.field != self.field:
            raise ValueError("element does not live in this ambient field")
        rem = linalg.reduce_against(list(a.coords), self._rows, self._pivots)
        return not any(rem)

    def __eq__(self, other):
        return (isinstance(other, Subfield) and self.field == other.field
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self._rows))

    def __repr__(self):
        return "Subfield(dim=%d of %d)" % (self.dim, self.field.degree)


def span_close(gens, base):
    """Smallest product-closed Q-subspace containing base and the generators.

    Repeatedly extends the linear span by pairwise products of basis vectors
    until the dimension stabilizes; the ambient degree bounds the loop.
    """
    field = base.field
    vecs = [list(b.coords) for b in base.basis]
    one = field.one()
    vecs.append(list(one.coords))
    for g in gens:
        if g.field != field:
            raise ValueError("generator outside the ambient field")
        vecs.append(list(g.coords))
    rows, pivots = linalg.rref(vecs)
    while True:
        elems = [field.element(r) for r in rows]
        fresh = []
        for i, a in enumerate(elems):
            for b in elems[i:]:
                prod = a * b
                rem = linalg.reduce_against(list(prod.coords), rows, pivots)
                if any(rem):
                    fresh.append(list(prod.coords))
        if not fresh:
            return Subfield(field, rows, pivots)
        rows, pivots = linalg.rref(list(rows) + fresh)


def rel_degree(inner, outer):
    """Degree of outer over inner, checked for inclusion and integrality."""
    if inner.field != outer.field:
        raise NotASubfield("different ambient fields")
    for b in inner.basis:
        if not outer.contains_num(b):
            raise NotASubfield("claimed subfield is not contained")
    if outer.dim % inner.dim:
        raise NonIntegralDegree(
            "dimension %d does not divide %d" % (inner.dim, outer.dim))
    return outer.dim // inner.dim
