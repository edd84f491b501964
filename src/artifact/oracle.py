"""Brute-force ground truth for valuation orders and filtration dimensions.

Everything here works by direct substitution: a polynomial in the two base
coordinates is evaluated on a parametrization (or on a transversal curve with
an indeterminate constant) and the resulting power series in tau is inspected
coefficient by coefficient. No product formula or semigroup reasoning enters;
the module exists so that the closed forms elsewhere in the package can be
checked against something that cannot share their mistakes.

Two kinds of questions are answered:

* orders: value_of gives the vanishing order of f along a branch (with the
  leading coefficient), divisorial_value the least tau-order with a nonzero
  polynomial-in-c coefficient on a generic transversal curve;
* dimensions: filtration_dims and divisorial_filtration_dims compute, for
  each level v, the rational dimension of the space of polynomials of value
  exactly v modulo those of higher value, by exact rank computations on the
  coefficient matrix of the substitution map. Each monomial column of that
  matrix is cleared of denominators once, right after substitution, so the
  elimination runs over the integers only.

All arithmetic is exact; a zero is a proven zero.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import GenericCenter
from .linalg import SparseRowSpace
from .ratfunc import INFINITY, Poly
from . import resolution as _res


# --- polynomials in the base coordinates -------------------------------------

def _canon_terms(terms):
    bucket = {}
    for i, j, q in terms:
        i = int(i)
        j = int(j)
        if i < 0 or j < 0:
            raise ValueError("monomial exponents must be non-negative")
        q = Fraction(q)
        bucket[(i, j)] = bucket.get((i, j), Fraction(0)) + q
    return tuple((i, j, q) for (i, j), q in sorted(bucket.items()) if q)


class PolyXY:
    """Polynomial in the two base coordinates with rational coefficients.

    terms is a normalized tuple of (x exponent, y exponent, coefficient):
    exponents sorted lexicographically, duplicates merged, zeros dropped.
    Addition and multiplication are provided so tests can build products and
    sums of corpus elements; the heavy lifting happens after substitution.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = _canon_terms(terms)

    @staticmethod
    def monomial(i, j, coeff=1):
        return PolyXY([(i, j, coeff)])

    @property
    def degree(self):
        """Largest total degree of a term; -1 for the zero polynomial."""
        return max((i + j for i, j, _q in self.terms), default=-1)

    def __add__(self, other):
        if not isinstance(other, PolyXY):
            return NotImplemented
        return PolyXY(self.terms + other.terms)

    def __neg__(self):
        return PolyXY([(i, j, -q) for i, j, q in self.terms])

    def __sub__(self, other):
        if not isinstance(other, PolyXY):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyXY):
            return NotImplemented
        prods = []
        for i1, j1, q1 in self.terms:
            for i2, j2, q2 in other.terms:
                prods.append((i1 + i2, j1 + j2, q1 * q2))
        return PolyXY(prods)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, PolyXY) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return "PolyXY(%s)" % (list(self.terms),)


@dataclass(frozen=True)
class FiltrationReport:
    """Levelwise dimensions of a value filtration, computed by brute force.

    dims[v] is the rational dimension of the space of polynomial classes of
    value exactly v, for v = 0..V. mode tells which kind of valuation
    produced the numbers.
    """

    V: int
    dims: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in ("curve", "divisorial"):
            raise ValueError("mode must be 'curve' or 'divisorial'")
        if len(self.dims) != self.V + 1:
            raise ValueError("need one dimension per level 0..V")
        if any(a < 0 for a in self.dims):
            raise ValueError("dimensions must be non-negative")


# --- substitution -------------------------------------------------------------

def _poly_one(ring):
    return Poly(ring, [ring.one()])


def _mul_upto(a, b, bound):
    """a * b up to tau^bound; the products of terms past it are skipped."""
    ring = a.ring
    out = [ring.zero()] * min(len(a.coeffs) + len(b.coeffs) - 1, bound + 1)
    for i, ca in enumerate(a.coeffs[:bound + 1]):
        if ca:
            for j, cb in enumerate(b.coeffs[:bound + 1 - i]):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
    return Poly(ring, out)


def _powers(base, top, bound=None):
    """[base^0, .., base^top], each truncated past tau^bound when given."""
    out = [_poly_one(base.ring)]
    for _ in range(top):
        out.append(out[-1] * base if bound is None
                   else _mul_upto(out[-1], base, bound))
    return out


def _substitute(f, x, y, lift_fraction):
    """f(x, y) as an exact tau-polynomial.

    x and y are the coordinate images, lift_fraction embeds the rational
    coefficients of f into their coefficient ring.
    """
    imax = max((i for i, _j, _q in f.terms), default=0)
    jmax = max((j for _i, j, _q in f.terms), default=0)
    xs = _powers(x, imax)
    ys = _powers(y, jmax)
    acc = Poly(x.ring, [])
    for i, j, q in f.terms:
        acc = acc + (xs[i] * ys[j]).scale(lift_fraction(q))
    return acc


def value_of(f, branch):
    """Vanishing order and leading coefficient of f along the branch.

    Substitutes the parametrization into f exactly and reads off the least
    tau-order with a nonzero coefficient; returns (order, coefficient) with
    the coefficient in the ambient field. f vanishing identically on the
    branch gives (INFINITY, None); since the parametrization is polynomial
    the substitution result is a polynomial and the zero test is exact, no
    truncation threshold is involved.

    A branch marked with a generic coefficient is handled transparently: the
    marker becomes a fresh indeterminate and the returned coefficient lives
    in the rational-function field in that indeterminate.
    """
    strat = _res._strategy_for(branch)
    u, w = _res._initial_state(branch, strat)
    ambient = branch.ambient

    def lift_fraction(q):
        return strat.lift(ambient.from_fraction(q))

    total = _substitute(f, u.num, w.num, lift_fraction)
    order = total.order()
    if order is INFINITY:
        return INFINITY, None
    return order, total.coeff(order)


def divisorial_value(f, gc):
    """Value of f for the divisorial valuation behind a generic curvette.

    gc carries the transversal curve at the chosen component with the
    constant kept as the indeterminate c; the value is the least tau-order
    whose coefficient is nonzero as a polynomial in c. Zero-testing is
    polynomial identity, never sampling, so an accidental vanishing at
    special constants cannot fool the order. Only the zero polynomial gives
    INFINITY.
    """
    total = _substitute(f, gc.x, gc.y, gc.ring.from_fraction)
    order = total.order()
    if order is INFINITY:
        return INFINITY
    return order


# --- filtration dimensions by rank growth ------------------------------------

def _coords(c):
    """Rational coordinates of one tau-coefficient as (key, Fraction) pairs.

    An ambient-field element gives its power-basis coordinates; a polynomial
    in the curvette constant c gives one pair per (c power, field
    coordinate).
    """
    if isinstance(c, Poly):
        return [((cpow, k), q) for cpow, alg in enumerate(c.coeffs)
                for k, q in enumerate(alg.coords)]
    return enumerate(c.coords)


def _monomial_columns(x, y, bound):
    """Integer columns of the substitution map, one per coordinate monomial
    x^i y^j of value <= bound, in lexicographic (i, j) order.

    A column lists the nonzero (tau order, coordinate key, integer) entries
    of the image x^i y^j up to tau^bound, every entry multiplied by the one
    lcm of the column's denominators. Scaling a column by a nonzero integer
    changes the rank of no stack of row blocks, so every dimension
    difference is kept. Monomials of larger value are omitted: their images
    vanish to order beyond the bound, so they lie in every kernel under
    inspection and cannot change any dimension difference.
    """
    ox = x.order()
    oy = y.order()
    if ox is INFINITY or ox < 1:
        raise ValueError("x image must vanish at the origin")
    imax = bound // ox
    jmax = 0 if oy is INFINITY else bound // oy
    xs = _powers(x, imax, bound)
    ys = _powers(y, jmax, bound)
    for i in range(imax + 1):
        rest = bound - i * ox
        jtop = 0 if oy is INFINITY else rest // oy
        for j in range(jtop + 1):
            image = _mul_upto(xs[i], ys[j], bound)
            entries = [(v, key, q) for v, c in enumerate(image.coeffs)
                       for key, q in _coords(c) if q]
            scale = lcm(*(q.denominator for _v, _key, q in entries))
            yield [(v, key, q.numerator * (scale // q.denominator))
                   for v, key, q in entries]


def _filtration(x, y, V, mode):
    """Levelwise rank growth of the stacked tau-coefficient blocks.

    The map from polynomial coefficients to the first v tau-coefficients of
    the substitution has one block of rows per tau-order, one row per
    rational coordinate key; the dimension of value-v classes equals
    rank(first v+1 blocks) - rank(first v blocks), i.e. the number of
    independent rows the tau^v block adds. Rows are fed in sorted key order
    so the profile is deterministic.
    """
    V = int(V)
    if V < 0:
        raise ValueError("max order must be non-negative")
    blocks = [{} for _ in range(V + 1)]
    for ci, column in enumerate(_monomial_columns(x, y, V)):
        for v, key, a in column:
            blocks[v].setdefault(key, {})[ci] = a
    space = SparseRowSpace()
    dims = []
    for rows in blocks:
        added = 0
        for key in sorted(rows):
            if space.add(rows[key]):
                added += 1
        dims.append(added)
    return FiltrationReport(V=V, dims=tuple(dims), mode=mode)


def filtration_dims(branch, V):
    """Dimensions of the value filtration of the branch, levels 0..V.

    Assembles the rational-linear map sending a polynomial in the base
    coordinates to the first tau-coefficients of its restriction to the
    branch, each coefficient an ambient-field element read as a rational
    vector. The dimension at level v is the rank added by the tau^v
    coefficient block, computed by exact integer elimination. The branch
    must be concrete: a generic coefficient marker has no rational
    coordinate matrix.
    """
    if branch.has_generic:
        raise GenericCenter("filtration dimensions need a concrete branch")
    strat = _res._PlainScalars(branch.ambient)
    u, w = _res._initial_state(branch, strat)
    return _filtration(u.num, w.num, V, "curve")


def divisorial_filtration_dims(gc, V):
    """Dimensions of the divisorial value filtration, levels 0..V.

    Same construction as filtration_dims, with the generic curvette in place
    of a branch: each tau-coefficient of the substitution is a polynomial in
    the indeterminate constant c with ambient-field coefficients, and
    "value > v" means every c-coefficient vanishes. The rows of one tau-block
    are therefore indexed by (c power, field coordinate) pairs.
    """
    return _filtration(gc.x, gc.y, V, "divisorial")


def observed_semigroup(branch, V):
    """Values v <= V attained by the branch valuation on polynomials.

    Reads the levels with a positive filtration dimension; by exactness of
    the rank computation this is the degree-V-certified part of the value
    semigroup over the rationals.
    """
    report = filtration_dims(branch, V)
    return {v for v, a in enumerate(report.dims) if a}
