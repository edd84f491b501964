"""Dense univariate polynomials and rational functions over exact scalars.

Coefficients are duck-typed: anything with +, -, *, ==, bool (and / where a
fraction field is needed) works. A small ring adapter supplies zero(), one()
and from_fraction(); AmbientField already satisfies that protocol for number
field scalars, and the adapters below cover the nested constructions used
elsewhere: polynomials in one extra variable (generic curvette constants)
and their fraction fields (one-parameter families).

RatFunc requires its coefficient ring to be a field adapter; quotients of
polynomials over a mere PolyRing are never formed.
"""

from fractions import Fraction

from .errors import DivisionByZero

INFINITY = float("inf")


class PolyRing:
    """Adapter presenting R[var]; its scalars are Poly instances over R."""

    def __init__(self, ring, var="c"):
        self.ring = ring
        self.var = var

    def zero(self):
        return Poly(self.ring, [])

    def one(self):
        return Poly(self.ring, [self.ring.one()])

    def from_fraction(self, q):
        return Poly(self.ring, [self.ring.from_fraction(q)])

    def gen(self):
        return Poly(self.ring, [self.ring.zero(), self.ring.one()])

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.ring == other.ring
                and self.var == other.var)

    def __hash__(self):
        return hash(("PolyRing", self.ring, self.var))

    def __repr__(self):
        return "PolyRing(%r, %r)" % (self.ring, self.var)


class FractionField:
    """Adapter for the fraction field of a PolyRing; scalars are RatFunc."""

    def __init__(self, polyring):
        self.polyring = polyring

    def zero(self):
        return RatFunc(self.polyring.zero(), self.polyring.one())

    def one(self):
        return RatFunc(self.polyring.one(), self.polyring.one())

    def from_fraction(self, q):
        return RatFunc(self.polyring.from_fraction(q), self.polyring.one())

    def from_scalar(self, s):
        """Embed a scalar of the underlying coefficient ring."""
        return RatFunc(Poly(self.polyring.ring, [s]), self.polyring.one())

    def gen(self):
        return RatFunc(self.polyring.gen(), self.polyring.one())

    def __eq__(self, other):
        return isinstance(other, FractionField) and self.polyring == other.polyring

    def __hash__(self):
        return hash(("FractionField", self.polyring))

    def __repr__(self):
        return "FractionField(%r)" % (self.polyring,)


class Poly:
    """Dense polynomial, coefficient list lowest degree first."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @staticmethod
    def monomial(ring, coeff, exp):
        return Poly(ring, [ring.zero()] * exp + [coeff])

    def degree(self):
        return len(self.coeffs) - 1

    def order(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return INFINITY

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def low_coeff(self):
        for c in self.coeffs:
            if c:
                return c
        return self.ring.zero()

    def _coerce(self, other):
        if isinstance(other, Poly) and other.ring == self.ring:
            return other
        if isinstance(other, (int, Fraction)):
            return Poly(self.ring, [self.ring.from_fraction(other)])
        return Poly(self.ring, [other])

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring,
                    [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring,
                    [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return Poly(self.ring, [])
        out = [self.ring.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def mul_upto(self, other, bound):
        """self * other up to the variable's power bound; the products of
        terms past it are skipped. Cutting is a ring map, so the kept
        coefficients are those of the full product."""
        out = [self.ring.zero()] * min(
            len(self.coeffs) + len(other.coeffs) - 1, bound + 1)
        for i, a in enumerate(self.coeffs[:bound + 1]):
            if a:
                for j, b in enumerate(other.coeffs[:bound + 1 - i]):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    def scale(self, s):
        return Poly(self.ring, [c * s for c in self.coeffs])

    def scale_arg(self, s):
        """The polynomial p(s*t) as a polynomial in t."""
        out = []
        power = self.ring.one()
        for k, c in enumerate(self.coeffs):
            if k:
                power = power * s
            out.append(c * power)
        return Poly(self.ring, out)

    def evaluate(self, at):
        acc = self.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc

    def pdivmod(self, other):
        """Quotient and remainder; the divisor's leading coefficient must
        be invertible (field scalars)."""
        if not other.coeffs:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        n = len(other.coeffs)
        if len(rem) < n:
            return Poly(self.ring, []), self
        inv = self.ring.one() / other.coeffs[-1]
        quot = [self.ring.zero()] * (len(rem) - n + 1)
        while len(rem) >= n:
            if not rem[-1]:
                rem.pop()
                continue
            f = rem[-1] * inv
            k = len(rem) - n
            quot[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - f * b
            rem.pop()
        return Poly(self.ring, quot), Poly(self.ring, rem)

    def gcd(self, other):
        a, b = self, other
        while b.coeffs:
            a, b = b, a.pdivmod(b)[1]
        if a.coeffs:
            lead = a.coeffs[-1]
            if lead != self.ring.one():
                a = a.scale(self.ring.one() / lead)
        return a

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.degree() == 0:
            return self.scale(self.ring.one() / other.coeffs[0])
        quot, rem = self.pdivmod(other)
        if rem.coeffs:
            raise ValueError("inexact polynomial division")
        return quot

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly) and other.ring != self.ring:
            return NotImplemented
        other = self._coerce(other)
        return self.coeffs == other.coeffs

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)


class RatFunc:
    """Quotient of two Polys over a field adapter, kept canonical.

    Canonical form: gcd cancelled, and the denominator's lowest nonzero
    coefficient is one. Zero is 0/1. Equality is then structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not den:
            raise DivisionByZero("zero denominator")
        ring = num.ring
        if not num:
            self.num = num
            self.den = Poly(ring, [ring.one()])
            return
        if den.degree() > 0:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num / g
                den = den / g
        low = den.low_coeff()
        if low != ring.one():
            inv = ring.one() / low
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @staticmethod
    def of(poly):
        return RatFunc(poly, Poly(poly.ring, [poly.ring.one()]))

    def order(self):
        no = self.num.order()
        if no is INFINITY:
            return INFINITY
        return no - self.den.order()

    def value0(self):
        """Value of the power series at the origin (order must be >= 0)."""
        o = self.order()
        ring = self.num.ring
        if o is INFINITY or o > 0:
            return ring.zero()
        if o < 0:
            raise DivisionByZero("pole at the origin")
        return self.num.coeff(self.num.order()) / self.den.coeff(self.den.order())

    def _coerce(self, other):
        if isinstance(other, RatFunc) and other.num.ring == self.num.ring:
            return other
        num = self.num._coerce(other)
        return RatFunc(num, Poly(self.num.ring, [self.num.ring.one()]))

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.num:
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RatFunc) and other.num.ring != self.num.ring:
            return NotImplemented
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        if self.den.degree() == 0:
            return "RatFunc(%r)" % (self.num,)
        return "RatFunc(%r / %r)" % (self.num, self.den)
