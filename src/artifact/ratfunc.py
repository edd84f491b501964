"""Dense univariate polynomials and rational functions over exact scalars.

Coefficients are duck-typed: anything with +, -, *, ==, bool (and / where a
fraction field is needed) works. A small ring adapter supplies zero(), one()
and from_fraction(), the first two prebuilt once (no code mutates a scalar,
so they are shared), and the product kernel convolve(x, y): the coefficient
list of the product of two polynomials of degree at least one, given as
their coefficient lists. AmbientField already satisfies that protocol for
number field scalars, with one integer convolution per product; the
adapters below cover the nested constructions used elsewhere: polynomials
in one extra variable (generic curvette constants) and their fraction
fields (one-parameter families), whose convolve is the schoolbook loop.
The same loop, given a bound, skips the products past that power of the
variable: Poly.mul_upto, the cut product of the generic curvettes.

RatFunc requires its coefficient ring to be a field adapter; quotients of
polynomials over a mere PolyRing are never formed, and no gcd is taken:
Euclid over a number field swells its coefficients (Langemyr & McCallum,
J. Symbolic Comput. 8, 1989). A RatFunc keeps its reciprocal in a slot
once formed, and division is the product with that reciprocal, so
dividing by one value again and again takes one field inverse.
"""

from fractions import Fraction

from .errors import DivisionByZero

INFINITY = float("inf")


def schoolbook(zero, x, y, bound=None):
    """The coefficients of the product of two polynomials given as
    coefficient lists x and y, one scalar product and one sum at a time;
    zero coefficients are skipped. With a bound, the products past the
    variable's power bound are skipped too, and the list stops there."""
    size = len(x) + len(y) - 1
    if bound is not None:
        x = x[:bound + 1]
        size = min(size, bound + 1)
    out = [zero] * size
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y if bound is None else y[:bound + 1 - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
    return out


class PolyRing:
    """Adapter presenting R[var]; its scalars are Poly instances over R."""

    def __init__(self, ring, var="c"):
        self.ring = ring
        self.var = var
        self._zero = Poly(ring, [])
        self._one = Poly(ring, [ring.one()])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_fraction(self, q):
        return Poly(self.ring, [self.ring.from_fraction(q)])

    def convolve(self, x, y):
        return schoolbook(self._zero, x, y)

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
        self._zero = RatFunc(polyring.zero(), polyring.one())
        self._one = RatFunc(polyring.one(), polyring.one())

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_fraction(self, q):
        return RatFunc(self.polyring.from_fraction(q), self.polyring.one())

    def convolve(self, x, y):
        return schoolbook(self._zero, x, y)

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
    """Dense polynomial, coefficient list lowest degree first. A Poly is
    never mutated, so its order is found once, on first use."""

    __slots__ = ("ring", "coeffs", "_order")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)
        self._order = None

    @staticmethod
    def monomial(ring, coeff, exp):
        return Poly(ring, [ring.zero()] * exp + [coeff])

    def degree(self):
        return len(self.coeffs) - 1

    def order(self):
        order = self._order
        if order is None:
            order = INFINITY
            for i, c in enumerate(self.coeffs):
                if c:
                    order = i
                    break
            self._order = order
        return order

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def low_coeff(self):
        order = self.order()
        if order is INFINITY:
            return self.ring.zero()
        return self.coeffs[order]

    def _coerce(self, other):
        if isinstance(other, Poly) and (other.ring is self.ring
                                        or other.ring == self.ring):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly(self.ring, [self.ring.from_fraction(other)])
        return Poly(self.ring, [other])

    def __add__(self, other):
        """Coefficientwise, over the two coefficient tuples: the longer
        one is copied and each nonzero term of the other added in."""
        x, y = self.coeffs, self._coerce(other).coeffs
        if len(x) < len(y):
            x, y = y, x
        out = list(x)
        for i, b in enumerate(y):
            if b:
                out[i] = out[i] + b
        return Poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        """Coefficientwise, as __add__: each nonzero term of other within
        the length of self is subtracted, and the terms past it negated."""
        x, y = self.coeffs, self._coerce(other).coeffs
        out = list(x)
        for i, b in enumerate(y[:len(x)]):
            if b:
                out[i] = out[i] - b
        out.extend(-b for b in y[len(x):])
        return Poly(self.ring, out)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        """The convolution of the coefficients, by the ring's convolve. A
        degree-0 operand (most often a RatFunc's denominator one) scales
        the other operand instead, and the ring's one returns the other
        operand itself."""
        other = self._coerce(other)
        x, y = self.coeffs, other.coeffs
        if not x or not y:
            return Poly(self.ring, [])
        if len(x) == 1 or len(y) == 1:
            one = (self.ring.one(),)
            if y == one:
                return self
            if x == one:
                return other
            return self.scale(y[0]) if len(y) == 1 else other.scale(x[0])
        return Poly(self.ring, self.ring.convolve(x, y))

    __rmul__ = __mul__

    def mul_upto(self, other, bound):
        """self * other up to the variable's power bound, by schoolbook;
        bound None gives the whole product. Cutting is a ring map, so the
        kept coefficients are those of the full product."""
        return Poly(self.ring, schoolbook(self.ring.zero(), self.coeffs,
                                          other.coeffs, bound))

    def scale(self, s):
        return Poly(self.ring, [c * s if c else c for c in self.coeffs])

    def scale_arg(self, s):
        """The polynomial p(s*t) as a polynomial in t."""
        out = []
        power = self.ring.one()
        for k, c in enumerate(self.coeffs):
            if k:
                power = power * s
            out.append(c * power if c else c)
        return Poly(self.ring, out)

    def pdivmod(self, other):
        """Quotient and remainder; the divisor's leading coefficient must
        be invertible (field scalars). Only gcd calls it."""
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
        """Monic gcd by Euclid. The runtime never calls it (see RatFunc);
        the tests use it as the reference, the benchmark's tracer by name."""
        a, b = self, other
        while b.coeffs:
            a, b = b, a.pdivmod(b)[1]
        if a.coeffs:
            lead = a.coeffs[-1]
            if lead != self.ring.one():
                a = a.scale(self.ring.one() / lead)
        return a

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly) and other.ring is not self.ring \
                and other.ring != self.ring:
            return NotImplemented
        other = self._coerce(other)
        return self.coeffs == other.coeffs

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)


class RatFunc:
    """Quotient of two Polys over a field adapter.

    Form: the common power of the variable is cancelled, and the
    denominator's lowest nonzero coefficient is one. Zero is 0/1. No other
    common factor is sought, so equality is value equality, by
    cross-multiplication. The resolution needs no more: a chart step maps
    coprime forms to coprime forms (resolution._tail_ok), so its states are
    already reduced.

    A RatFunc is never mutated, so its reciprocal is formed once, on first
    use, and kept in _inv; the reciprocal does not point back, which would
    make a reference cycle. a / b is a times the reciprocal of b. Both
    factors' denominators have lowest coefficient one, so the product's
    has too, and the product needs no inverse and no rescaling: the one
    inverse is that of b's lowest numerator coefficient, taken when b's
    reciprocal is formed. The resolution divides by one state again and
    again (chart A divides by the same u at each step, and chart B's u / w
    forms 1 / w, the next u's reciprocal).
    """

    __slots__ = ("num", "den", "_inv")

    def __init__(self, num, den):
        if not den:
            raise DivisionByZero("zero denominator")
        ring = num.ring
        self._inv = None
        if not num:
            self.num = num
            self.den = Poly(ring, [ring.one()])
            return
        k = min(num.order(), den.order())
        if k:
            num = Poly(ring, num.coeffs[k:])
            den = Poly(ring, den.coeffs[k:])
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
        """Value of the power series at the origin (order must be >= 0):
        the numerator's lowest coefficient, since the form makes the
        denominator's lowest coefficient one."""
        o = self.order()
        if o is INFINITY or o > 0:
            return self.num.ring.zero()
        if o < 0:
            raise DivisionByZero("pole at the origin")
        return self.num.low_coeff()

    def _coerce(self, other):
        ring = self.num.ring
        if isinstance(other, RatFunc) and (other.num.ring is ring
                                           or other.num.ring == ring):
            return other
        return RatFunc(self.num._coerce(other), Poly(ring, [ring.one()]))

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        """A scalar c (an int, a Fraction or a coefficient; not a Poly or a
        RatFunc over this ring) is subtracted as c*den from the numerator,
        over the same denominator."""
        ring = self.num.ring
        if isinstance(other, Poly) or (
                isinstance(other, RatFunc)
                and (other.num.ring is ring or other.num.ring == ring)):
            other = self._coerce(other)
            return RatFunc(self.num * other.den - other.num * self.den,
                           self.den * other.den)
        return RatFunc(self.num - self.num._coerce(other) * self.den,
                       self.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv = self._inv
        if inv is None:
            if not self.num:
                raise DivisionByZero(
                    "division by the zero rational function")
            inv = self._inv = RatFunc(self.den, self.num)
        return inv

    def __truediv__(self, other):
        return self * self._coerce(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        ring = self.num.ring
        if isinstance(other, RatFunc) and other.num.ring is not ring \
                and other.num.ring != ring:
            return NotImplemented
        other = self._coerce(other)
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        if self.den.degree() == 0:
            return "RatFunc(%r)" % (self.num,)
        return "RatFunc(%r / %r)" % (self.num, self.den)
