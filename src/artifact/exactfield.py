"""Exact arithmetic in Q[z]/(p(z)) and its Q-subfields.

The ambient coefficient field is presented by a monic square-free rational
polynomial p. An element is an integer vector on the power basis
1, z, ..., z^(n-1) over one positive denominator, kept in lowest terms, so
arithmetic runs in integers. A product is an integer convolution whose high
coefficients fold back through a table of z^n, ..., z^(2n-2) mod p,
tabulated once per field by the integer recurrence that p, being monic,
gives. Two polynomials over the field multiply the same way, as one
integer convolution in the variable and z over each operand's common
denominator, folded once per output coefficient (AmbientField.convolve,
the product kernel of ratfunc.Poly). The integer matrix of multiplication
by an element (AmbientField.mul_matrix, column k its product with z^k) is
read by three jobs: an inverse solves it with fraction-free elimination,
its rank for p' checks that p is square-free (p' is a unit mod p exactly
then), and the oracle reads its tables of x and y off it.
Rational elements (zero past the constant coordinate), which are most of
the operands the resolution meets, take shortcuts: a product with one
scales the other factor's numerators, and the inverse of one swaps its
numerator and denominator. Each field keeps one prebuilt zero and one;
no code mutates an element, so they are shared.
Irreducibility of p is deliberately not checked up front: inversion
discovers a factor exactly when one matters (the matrix is singular) and
reports it as ReduciblePolynomial. Subfields are plain Q-subspaces with a
canonical echelon basis of primitive integer rows; that is all the
Galois-quotient bookkeeping downstream needs. A subfield K and an element
c close to K(c) = K + Kc + Kc^2 + ... by powers of c (span_close), in
[K(c):Q] products.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    NonIntegralDegree,
    NotASubfield,
    ReduciblePolynomial,
)
from .record import Record


# --- integer rows: elimination and the canonical echelon of a span


def _eliminate(row, piv, col):
    """row cross-multiplied against piv so that its entry at col (the
    positive pivot of piv) vanishes, divided by its content. row is scaled
    by a positive factor, so its own pivot keeps its sign."""
    g = gcd(piv[col], row[col])
    a, b = piv[col] // g, row[col] // g
    row = [a * x - b * y for x, y in zip(row, piv)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(row, rows, pivots):
    """An integer multiple of row minus a combination of the echelon rows,
    zero at every pivot column: it vanishes exactly when row lies in
    their span."""
    for piv, col in zip(rows, pivots):
        if row[col]:
            row = _eliminate(row, piv, col)
    return row


def _echelon(vectors):
    """The canonical basis of the span of integer vectors: primitive rows
    in reduced echelon form with positive pivots, in pivot order, with
    their pivot columns. Zero vectors are dropped."""
    rows, pivots = [], []
    for vec in vectors:
        vec = _reduce(vec, rows, pivots)
        lead = next((j for j, a in enumerate(vec) if a), None)
        if lead is None:
            continue
        g = gcd(*vec) if vec[lead] > 0 else -gcd(*vec)
        vec = [a // g for a in vec]
        rows = [_eliminate(r, vec, lead) if r[lead] else r for r in rows]
        rows.append(vec)
        pivots.append(lead)
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[i] for i in order], [pivots[i] for i in order]


class AmbientField:
    """The field L = Q[z]/(p(z)) for a monic square-free p.

    _fold[k] holds _scale times the power-basis coordinates of z^(n+k) mod p
    for k = 0 .. n-2, with _scale the least positive integer that makes
    every entry an integer.
    """

    def __init__(self, min_poly):
        coeffs = [Fraction(a) for a in min_poly]
        if len(coeffs) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        self.min_poly = tuple(coeffs)
        self.degree = n = len(coeffs) - 1
        # With d the least common denominator of p and c = d*(p_0..p_(n-1)),
        # z^n = -c/d, so z^(n+k) = r_k / d^(k+1) for integer vectors with
        # r_0 = -c and r_(k+1) = d*shift(r_k) - top(r_k)*c.
        d = lcm(*(a.denominator for a in coeffs))
        c = [a.numerator * (d // a.denominator) for a in coeffs[:n]]
        rows = []
        r = [-a for a in c]
        for _ in range(n - 1):
            rows.append(r)
            top = r[-1]
            r = [-top * c[0]] + [d * a - top * b for a, b in zip(r, c[1:])]
        # over the common denominator d^(n-1), in lowest terms
        rows = [[a * d ** (n - 2 - k) for a in row]
                for k, row in enumerate(rows)]
        g = gcd(d ** (n - 1), *(a for row in rows for a in row))
        self._scale = d ** (n - 1) // g
        self._fold = tuple(tuple(a // g for a in row) for row in rows)
        # p is square-free exactly when p' is a unit mod p, that is when
        # multiplication by d*p' has full rank
        deriv = [i * a for i, a in enumerate(c[1:], 1)] + [n * d]
        if len(_echelon(self.mul_matrix(deriv))[1]) < n:
            raise ValueError("defining polynomial must be square-free")
        self._zero = AlgNum(self, (0,) * n, 1)
        self._one = AlgNum(self, (1,) + (0,) * (n - 1), 1)

    def mul_matrix(self, num):
        """The rows of the integer n x n matrix whose column k holds _scale
        times the coordinates of num * z^k, read off num and _fold: the
        matrix of multiplication by the integer vector num. For an element
        num/den, column k over _scale * den is that element times z^k."""
        n = self.degree
        scale = self._scale
        rows = [[0] * n for _ in range(n)]
        for i, a in enumerate(num):
            if a:
                for k in range(n):
                    if i + k < n:
                        rows[i + k][k] += scale * a
                    else:
                        for j, f in enumerate(self._fold[i + k - n]):
                            rows[j][k] += a * f
        return rows

    def element(self, coords):
        coords = [Fraction(a) for a in coords]
        if len(coords) != self.degree:
            raise ValueError(
                "expected %d coordinates, got %d" % (self.degree, len(coords)))
        den = lcm(*(a.denominator for a in coords))
        return AlgNum(self, tuple(a.numerator * (den // a.denominator)
                                  for a in coords), den)

    def from_fraction(self, q):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return AlgNum(self, (q.numerator,) + (0,) * (self.degree - 1),
                      q.denominator)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def convolve(self, x, y):
        """The coefficients of the product of two polynomials over L,
        given as lists x and y of elements, as one integer convolution.

        Each operand comes to one denominator, the lcm of its dens, and its
        nonzero integer numerators sit at index i*w + k for the coefficient
        of t^i z^k, with w = 2n - 1 the width of a product of two
        coordinate vectors; the convolution of the two sparse lists then
        holds the coefficient of t^i z^k of the product at i*w + k. Each
        output coefficient folds z^n .. z^(2n-2) back through _fold once
        and becomes one element, in lowest terms.
        """
        n = self.degree
        w = 2 * n - 1
        dx = lcm(*(a.den for a in x))
        dy = lcm(*(a.den for a in y))
        xs = [(i * w + k, v * (dx // a.den))
              for i, a in enumerate(x) for k, v in enumerate(a.num) if v]
        ys = [(j * w + k, v * (dy // b.den))
              for j, b in enumerate(y) for k, v in enumerate(b.num) if v]
        conv = [0] * ((len(x) + len(y) - 1) * w)
        for p, a in xs:
            for q, b in ys:
                conv[p + q] += a * b
        scale, fold = self._scale, self._fold
        den = dx * dy * scale
        out = []
        for start in range(0, len(conv), w):
            num = conv[start:start + n]
            if scale != 1:
                num = [c * scale for c in num]
            for row, c in zip(fold, conv[start + n:start + w]):
                if c:
                    for i, f in enumerate(row):
                        num[i] += c * f
            out.append(AlgNum(self, num, den) if any(num) else self._zero)
        return out

    def gen(self):
        """The class of z (equals 0 when the degree is 1)."""
        if self.degree == 1:
            # z is congruent to the negated constant term
            return self.from_fraction(-self.min_poly[0])
        return AlgNum(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def __eq__(self, other):
        return isinstance(other, AmbientField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return "AmbientField(%s)" % (list(self.min_poly),)


class AlgNum:
    """An element of an AmbientField: the integers num on the power basis
    over the positive integer den, in lowest terms (zero is 0/1), so each
    value has exactly one form."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    @property
    def coords(self):
        """The rational coordinates on the power basis."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def _coerce(self, other):
        if isinstance(other, AlgNum):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        return AlgNum(self.field, [a * db + b * da for a, b in
                                   zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        return AlgNum(self.field, [a * db - b * da for a, b in
                                   zip(self.num, other.num)], da * db)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return AlgNum(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        """Integer convolution of the numerators; each coefficient of
        z^(n+k) folds back through _fold[k], and the denominator takes
        the field's _scale. When either factor is rational, the other
        factor's numerators are scaled by it instead, in O(n)."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        x, y = self.num, other.num
        den = self.den * other.den
        if not any(y[1:]):
            return AlgNum(field, [a * y[0] for a in x], den)
        if not any(x[1:]):
            return AlgNum(field, [x[0] * b for b in y], den)
        n = field.degree
        conv = [0] * (2 * n - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    conv[i + j] += a * b
        scale = field._scale
        out = [c * scale for c in conv[:n]]
        for row, c in zip(field._fold, conv[n:]):
            if c:
                for i, f in enumerate(row):
                    out[i] += c * f
        return AlgNum(field, out, den * scale)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, in integers.

        The rows of the integer matrix of multiplication by num
        (AmbientField.mul_matrix), augmented by _scale times e_0, go
        through fraction-free Gauss-Jordan elimination (_echelon:
        cross-multiplication plus content stripping), which leaves
        d_i e_i | r_i when the matrix has full rank, so coordinate i of
        1/num is r_i/d_i. A rank r < n means a shares a factor of degree
        n - r with the modulus (the kernel of multiplication by a has the
        degree of gcd(a, p) when p is square-free), reported as
        ReduciblePolynomial.

        A rational element q/d needs none of this: its inverse is d/q,
        with the sign moved to the numerator.
        """
        if not self:
            raise DivisionByZero("cannot invert zero")
        field = self.field
        q, rest = self.num[0], self.num[1:]
        if not any(rest):
            return AlgNum(field, (self.den if q > 0 else -self.den,) + rest,
                          abs(q))
        n = field.degree
        rows = field.mul_matrix(self.num)
        for i, row in enumerate(rows):
            row.append(field._scale * (i == 0))
        rows, pivots = _echelon(rows)
        rank = sum(col < n for col in pivots)
        if rank < n:
            raise ReduciblePolynomial(
                "zero divisor: gcd with the modulus has degree %d" % (n - rank))
        den = lcm(*(row[i] for i, row in enumerate(rows)))
        return AlgNum(field, [self.den * row[n] * (den // row[i])
                              for i, row in enumerate(rows)], den)

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
        return (isinstance(other, AlgNum)
                and (self.field is other.field or self.field == other.field)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        # a rational value hashes like the int or Fraction it equals
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field, self.num, self.den))

    def __bool__(self):
        return any(self.num)

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


class Subfield(Record):
    """A Q-subspace of the ambient field closed under products.

    The basis is kept as primitive integer rows in reduced echelon form
    with positive pivots, a form each subspace has exactly once, which
    makes membership an integer reduction and equality a tuple comparison.
    pivots, the column of each row's first nonzero entry, is derived here
    and not accepted by the constructor.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        self._assign(field, rows,
                     tuple(next(i for i, x in enumerate(r) if x)
                           for r in rows))

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        return tuple(AlgNum(self.field, r, 1) for r in self.rows)

    @staticmethod
    def rationals(field):
        return Subfield(field, [[1] + [0] * (field.degree - 1)])

    def contains_num(self, a):
        """Whether a lies in the subfield. Q (dimension 1: its one basis
        element e has e*e = q*e for a rational q, so e = q) holds the
        elements that are zero past the constant coordinate, and the
        whole field (dimension [L:Q]) holds every element; any other
        subfield reduces the numerators against its rows (membership is
        invariant under scaling)."""
        field = self.field
        if not isinstance(a, AlgNum) or (a.field is not field
                                         and a.field != field):
            raise ValueError("element does not live in this ambient field")
        dim = len(self.rows)
        if dim == 1:
            return not any(a.num[1:])
        if dim == field.degree:
            return True
        return not any(_reduce(a.num, self.rows, self.pivots))


def span_close(gens, base):
    """Smallest product-closed Q-subspace containing the subfield base and
    the generators, one generator c at a time: K(c) = K + Kc + Kc^2 + ...
    The basis of K is multiplied by c, then each step multiplies by c the
    remainders that the previous step added against the span, and the first
    step that adds nothing leaves a span closed under c and under K. The
    remainders of a step are independent modulo the span before it, so c
    costs exactly [K(c):Q] products. The span is spanned by the numerators,
    so the echelon works in integers.
    """
    field = base.field
    rows, pivots = list(base.rows), list(base.pivots)
    for g in gens:
        if g.field is not field and g.field != field:
            raise ValueError("generator outside the ambient field")
        fresh = rows
        while fresh:
            rems = (_reduce((AlgNum(field, r, 1) * g).num, rows, pivots)
                    for r in fresh)
            fresh = [rem for rem in rems if any(rem)]
            if fresh:
                rows, pivots = _echelon(rows + fresh)
    return Subfield(field, rows)


def rel_degree(inner, outer):
    """Degree of outer over inner, checked for inclusion and integrality."""
    if inner.field is not outer.field and inner.field != outer.field:
        raise NotASubfield("different ambient fields")
    for b in inner.basis:
        if not outer.contains_num(b):
            raise NotASubfield("claimed subfield is not contained")
    if outer.dim % inner.dim:
        raise NonIntegralDegree(
            "dimension %d does not divide %d" % (inner.dim, outer.dim))
    return outer.dim // inner.dim
