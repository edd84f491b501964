"""Univariate polynomials and rational functions over exact scalars.

A polynomial is a power of the variable times a dense tail whose first
and last coefficients are nonzero (Poly), so its order and lowest
coefficient are read off, not scanned for, and a product or a quotient by
a power of the variable costs what the tails cost, whatever the exponents.
Coefficients are duck-typed: anything with +, -, *, ==, bool (and / where a
fraction field is needed) works. A small ring adapter supplies zero(), one()
and from_fraction(), the first two prebuilt once (no code mutates a scalar,
so they are shared), and the product kernel convolve(x, y): the coefficient
list of the product of two polynomials given as coefficient lists of two
terms or more (Poly hands it the tails). AmbientField already satisfies
that protocol for number field scalars, with one integer convolution per
product; the adapters below cover the nested constructions used
elsewhere: polynomials in one extra variable (generic curvette constants)
and their fraction fields (one-parameter families), whose convolve is the
schoolbook loop.
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


def _poly(ring, shift, tail):
    """The Poly t^shift times tail, with no scan: tail is a tuple whose
    first and last entries are nonzero, or empty with shift 0."""
    p = object.__new__(Poly)
    p.ring, p.shift, p.tail = ring, shift, tail
    return p


class Poly:
    """A power of the variable, shift, times a tail: the coefficients from
    the lowest nonzero one to the highest, lowest first; zero is shift 0
    and an empty tail. A Poly is never mutated.

    Poly(ring, coeffs, shift) is t^shift times the dense list coeffs, with
    the zeros at both ends dropped: a scan of a dense list, two tests when
    the ends are nonzero. Sums and products build through it, since a
    cancellation, or a product of zero divisors (over z^2 - 1, say), can
    zero an end. coeffs is the dense view, zeros below the order included.
    """

    __slots__ = ("ring", "shift", "tail")

    def __init__(self, ring, coeffs, shift=0):
        coeffs = tuple(coeffs)
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        self.ring = ring
        self.shift = shift + lo if lo < hi else 0
        self.tail = coeffs[lo:hi]

    @staticmethod
    def monomial(ring, coeff, exp):
        return _poly(ring, exp, (coeff,)) if coeff else Poly(ring, ())

    @property
    def coeffs(self):
        return (self.ring.zero(),) * self.shift + self.tail

    def degree(self):
        return self.shift + len(self.tail) - 1 if self.tail else -1

    def order(self):
        return self.shift if self.tail else INFINITY

    def coeff(self, i):
        i -= self.shift
        return self.tail[i] if 0 <= i < len(self.tail) else self.ring.zero()

    def low_coeff(self):
        return self.tail[0] if self.tail else self.ring.zero()

    def _coerce(self, other):
        if isinstance(other, Poly) and (other.ring is self.ring
                                        or other.ring == self.ring):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly(self.ring, [self.ring.from_fraction(other)])
        return Poly(self.ring, [other])

    def _combine(self, other, negate):
        """self + other, or self - other when negate, over the two tails:
        self's tail is laid into the span of both, each nonzero term of
        other added to (subtracted from) it within self's tail and copied
        (negated) outside it."""
        if not other.tail:
            return self
        if not self.tail:
            return -other if negate else other
        zero = self.ring.zero()
        lo = min(self.shift, other.shift)
        a = self.shift - lo
        b = a + len(self.tail)
        out = [zero] * a + list(self.tail)
        out.extend([zero] * (other.shift - lo + len(other.tail) - b))
        for i, c in enumerate(other.tail, other.shift - lo):
            if c:
                if a <= i < b:
                    out[i] = out[i] - c if negate else out[i] + c
                else:
                    out[i] = -c if negate else c
        return Poly(self.ring, out, lo)

    def __add__(self, other):
        return self._combine(self._coerce(other), False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self._coerce(other), True)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _poly(self.ring, self.shift, tuple(-c for c in self.tail))

    def __mul__(self, other):
        """The shifts added and the tails convolved, by the ring's
        convolve. A one-term tail (most often a RatFunc's denominator one)
        scales the other tail instead, and the ring's one returns the
        other operand itself, or its tail at the summed shift."""
        other = self._coerce(other)
        x, y = self.tail, other.tail
        if not x or not y:
            return Poly(self.ring, ())
        shift = self.shift + other.shift
        if len(x) == 1 or len(y) == 1:
            one = (self.ring.one(),)
            if y == one:
                return _poly(self.ring, shift, x) if other.shift else self
            if x == one:
                return _poly(self.ring, shift, y) if self.shift else other
            p, s, by = (self, y[0], other.shift) if len(y) == 1 \
                else (other, x[0], self.shift)
            p = p.scale(s)
            return _poly(self.ring, p.shift + by, p.tail) if by and p else p
        return Poly(self.ring, self.ring.convolve(x, y), shift)

    __rmul__ = __mul__

    def mul_upto(self, other, bound):
        """self * other up to the variable's power bound, by schoolbook
        over the tails, cut at bound minus the two shifts; bound None gives
        the whole product. Cutting is a ring map, so the kept coefficients
        are those of the full product."""
        shift = self.shift + other.shift
        if bound is not None and bound < shift:
            return Poly(self.ring, ())
        return Poly(self.ring, schoolbook(
            self.ring.zero(), self.tail, other.tail,
            None if bound is None else bound - shift), shift)

    def scale(self, s):
        return Poly(self.ring, [c * s if c else c for c in self.tail],
                    self.shift)

    def pdivmod(self, other):
        """Quotient and remainder; the divisor's leading coefficient must
        be invertible (field scalars). Only gcd calls it."""
        if not other:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        n = len(div)
        if len(rem) < n:
            return Poly(self.ring, []), self
        inv = self.ring.one() / div[-1]
        quot = [self.ring.zero()] * (len(rem) - n + 1)
        while len(rem) >= n:
            if not rem[-1]:
                rem.pop()
                continue
            f = rem[-1] * inv
            k = len(rem) - n
            quot[k] = f
            for j, b in enumerate(div):
                rem[k + j] = rem[k + j] - f * b
            rem.pop()
        return Poly(self.ring, quot), Poly(self.ring, rem)

    def gcd(self, other):
        """Monic gcd by Euclid. The runtime never calls it (see RatFunc);
        the tests use it as the reference, the benchmark's tracer by name."""
        a, b = self, other
        while b:
            a, b = b, a.pdivmod(b)[1]
        if a:
            lead = a.tail[-1]
            if lead != self.ring.one():
                a = a.scale(self.ring.one() / lead)
        return a

    def __bool__(self):
        return bool(self.tail)

    def __eq__(self, other):
        if isinstance(other, Poly) and other.ring is not self.ring \
                and other.ring != self.ring:
            return NotImplemented
        other = self._coerce(other)
        return self.shift == other.shift and self.tail == other.tail

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)


class RatFunc:
    """Quotient of two Polys over a field adapter.

    Form: the common power of the variable is cancelled (the smaller
    shift is subtracted from both), and the denominator's lowest nonzero
    coefficient is one. Zero is 0/1. No other common factor is sought, so
    equality is value equality, by cross-multiplication. The resolution
    needs no more: a chart step maps coprime forms to coprime forms
    (resolution._tail_ok), so its states are already reduced.

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
            self.den = _poly(ring, 0, (ring.one(),))
            return
        k = min(num.shift, den.shift)
        if k:
            num = _poly(ring, num.shift - k, num.tail)
            den = _poly(ring, den.shift - k, den.tail)
        low = den.tail[0]
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

    def __pow__(self, e):
        """self^e, e >= 1, by squaring; e = 1 gives self and its reciprocal."""
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return out

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
