"""Checks of the package's outputs that the tests run and the CLI does not.

Two kinds live here. The substitution valuations read an order off a
polynomial in x and y by substituting a parametrization into it: value_of
on a branch, divisorial_value on a generic curvette, whose constant stays
the indeterminate c. observed_semigroup reads the values the oracle's
filtration reaches. The structural checks take a series apart: the
semigroup series and the partial-stage series, membership and gaps of a
numerical semigroup, the minimal-generator test, the coefficient symmetry
around the stabilization order, and the binomial refactorization of an
expansion, which refuses to certify closure from a truncated infinite
product. The acceptance gate and the unit tests compare the runtime with
these; the runtime's series and oracle take none of them.

The three error classes are raised only here, and derive from the
package's ArtifactError as every deliberate failure does.

Not named checks.py: pytest puts both tests/ and bench/ on sys.path, and
bench/checks.py would shadow it.
"""

from fractions import Fraction

from artifact.errors import ArtifactError
from artifact.oracle import filtration_dims
from artifact.poincare import _times_binomial_power, classical_series
from artifact.ratfunc import INFINITY, Poly
from artifact.record import Record
from artifact.resolution import coordinates


class TruncationTooShort(ArtifactError):
    """A finite expansion does not reach far enough for the requested check."""


class TruncationInconclusive(ArtifactError):
    """Factorization cannot certify closure from finitely many terms."""

    def __init__(self, message, factors=None):
        super().__init__(message)
        self.factors = factors


class IndexOutOfRange(ArtifactError):
    """Partial-series index outside 1..s+1."""


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


class PolyXY(Record):
    """Polynomial in the two base coordinates with rational coefficients.

    terms is a normalized tuple of (x exponent, y exponent, coefficient):
    exponents sorted lexicographically, duplicates merged, zeros dropped.
    Addition and multiplication are provided so tests can build products and
    sums of corpus elements; the heavy lifting happens after substitution.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self._assign(_canon_terms(terms))

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


# --- substitution valuations -------------------------------------------------

def _powers(base, top):
    """[base^0, .., base^top]."""
    out = [Poly(base.ring, [base.ring.one()])]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _substitute(f, x, y):
    """f(x, y) as an exact tau-polynomial.

    x and y are the coordinate images; the rational coefficients of f enter
    through their coefficient ring's from_fraction.
    """
    imax = max((i for i, _j, _q in f.terms), default=0)
    jmax = max((j for _i, j, _q in f.terms), default=0)
    xs = _powers(x, imax)
    ys = _powers(y, jmax)
    acc = Poly(x.ring, [])
    for i, j, q in f.terms:
        acc = acc + (xs[i] * ys[j]).scale(x.ring.from_fraction(q))
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
    total = _substitute(f, *coordinates(branch))
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
    return _substitute(f, gc.x, gc.y).order()


def observed_semigroup(branch, V):
    """Values v <= V attained by the branch valuation on polynomials.

    Reads the levels with a positive filtration dimension; by exactness of
    the rank computation this is the degree-V-certified part of the value
    semigroup over the rationals.
    """
    report = filtration_dims(branch, V)
    return {v for v, a in enumerate(report.dims) if a}


# --- partial-stage series ----------------------------------------------------

def partial_series(nd, j):
    """Intermediate series with only the first j - 1 jump factors: j = 1
    gives the semigroup series, j = s + 1 the full filtration series. Each
    is exact even on partial data (the prefix is known)."""
    s = len(nd.splitting)
    if not 1 <= j <= s + 1:
        raise IndexOutOfRange("stage %d outside 1..%d" % (j, s + 1))
    return classical_series(nd.replace(splitting=nd.splitting[:j - 1],
                                       partial=False))


def semigroup_series(nd):
    """Characteristic series of the semigroup generated by M_sigma:
    product of (1 - t^{M_tau_i}) over the ruptures divided by the product
    of (1 - t^{M_sigma_i}) over the dead ends."""
    return partial_series(nd, 1)


# --- symmetry and semigroup utilities ----------------------------------------

def symmetry_check(co, Delta, ell_total):
    """True when the coefficients co of an expansion pair up as a_v +
    a_{Delta-1-v} = ell_total below Delta, stay at ell_total from Delta
    on, and the last pre-stable coefficient sits strictly below
    ell_total."""
    n = len(co) - 1
    if n < Delta:
        raise TruncationTooShort(
            "expansion reaches %d but the stabilization order is %d"
            % (n, Delta))
    for v in range(Delta):
        if co[v] + co[Delta - 1 - v] != ell_total:
            return False
    for v in range(Delta, n + 1):
        if co[v] != ell_total:
            return False
    if Delta >= 1 and not co[Delta - 1] < ell_total:
        return False
    return True


def _sieve(gens, limit):
    gens = sorted({int(g) for g in gens})
    if any(g < 1 for g in gens):
        raise ValueError("semigroup generators must be positive")
    reach = [False] * (limit + 1)
    if limit >= 0:
        reach[0] = True
    for n in range(1, limit + 1):
        for g in gens:
            if g > n:
                break
            if reach[n - g]:
                reach[n] = True
                break
    return reach


def membership(gens, v):
    """True when v is a sum of generators (0 included as the empty sum)."""
    if v < 0:
        return False
    return _sieve(gens, v)[v]


def gaps(gens, bound):
    """Positive integers below bound outside the generated semigroup."""
    if bound <= 1:
        return []
    reach = _sieve(gens, bound - 1)
    return [n for n in range(1, bound) if not reach[n]]


class GeneratorCheck(Record):
    """Outcome of the minimal-generator test; falsy on failure, with the
    first failing (rule, index, value) as witness."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness=None):
        self._assign(ok, witness)

    def __bool__(self):
        return self.ok


def minimal_generator_check(M_sigma, N):
    """Check every later generator against the subsemigroup of the earlier
    ones: (N_i - 1) M_i stays outside, N_i M_i falls inside, and the
    previous scaled generator N_{i-1} M_{i-1} stays below M_i."""
    M = [int(x) for x in M_sigma]
    Ns = [int(x) for x in N]
    if len(Ns) != len(M) - 1:
        raise ValueError("need one quotient per generator after the first")
    for i in range(1, len(M)):
        n_i = Ns[i - 1]
        head = M[:i]
        outside = (n_i - 1) * M[i]
        if membership(head, outside):
            return GeneratorCheck(False, ("excluded", i, outside))
        inside = n_i * M[i]
        if not membership(head, inside):
            return GeneratorCheck(False, ("included", i, inside))
        scaled = (Ns[i - 2] if i >= 2 else 1) * M[i - 1]
        if not scaled < M[i]:
            return GeneratorCheck(False, ("ordered", i, scaled))
    return GeneratorCheck(True, None)


# --- binomial refactorization ------------------------------------------------

class BinomialFactorization(Record):
    """factors: the unique (m, s_m) with m within the expansion order;
    is_cyclotomic: True when a finite product source certifies closure,
    None when no source was given (finitely many terms can never certify
    on their own)."""

    __slots__ = ("factors", "is_cyclotomic")

    def __init__(self, factors, is_cyclotomic=None):
        self._assign(factors, is_cyclotomic)


def binomial_factorization(coeffs, source=None):
    """Peel the unique binomial powers (1 - t^m)^{s_m} out of the
    coefficients of an expansion.

    The s_m for m up to the truncation order are recovered iteratively and
    are unique. Closure (cyclotomicity) is only certified when source, the
    product the expansion came from, is supplied, is not a partial-product
    truncation, and has no factor beyond the truncation order; otherwise
    TruncationInconclusive carries the peeled prefix in .factors.
    """
    co = list(coeffs)
    if co[0] != 1:
        raise ValueError("factorization needs constant term 1")
    n = len(co) - 1
    out = []
    for m in range(1, n + 1):
        s_m = -co[m]
        if s_m == 0:
            continue
        out.append((m, s_m))
        _times_binomial_power(co, m, -s_m)
    factors = tuple(out)
    if source is None:
        return BinomialFactorization(factors, None)
    if source.partial:
        raise TruncationInconclusive(
            "source is a truncation of an infinite product; closure cannot "
            "be read off %d terms" % (n + 1), factors=factors)
    if any(a > n for a, _s in source.factors):
        raise TruncationInconclusive(
            "source has a factor beyond the expansion order %d" % n,
            factors=factors)
    if factors != source.factors:
        raise ValueError("expansion does not match the claimed source")
    return BinomialFactorization(factors, True)
