"""Brute-force ground truth for valuation orders and filtration dimensions.

Everything here works by direct substitution: a polynomial in the two base
coordinates is evaluated on a parametrization (or on a transversal curve with
an indeterminate constant) and the resulting power series in tau is inspected
coefficient by coefficient. No product formula or semigroup reasoning enters;
the module exists so that the closed forms elsewhere in the package can be
checked against something that cannot share their mistakes. The one
shortcut is linear algebra on the same substitution map: on a branch whose
x has a nonzero rational lowest coefficient, every level v has dimension
at most that of U_(v mod ord x), the rational span of the products of
coefficients of x and y whose tau powers sum to v mod ord(x)
(_residue_dims), and once ord(x) consecutive levels reach that bound,
multiplication by x fills every later level to it, so the computation
stops there (the argument is in _filtration). The bound is [L:Q] at every
level once one of the spans is all of L, as over Q.

Two kinds of questions are answered:

* orders: value_of gives the vanishing order of f along a branch (with the
  leading coefficient), divisorial_value the least tau-order with a nonzero
  polynomial-in-c coefficient on a generic transversal curve;
* dimensions: filtration_dims and divisorial_filtration_dims compute, for
  each level v, the rational dimension of the space of polynomials of value
  exactly v modulo those of higher value, by exact rank computations on the
  coefficient matrix of the substitution map. Only what levels 0..V read is
  computed, and in integers: x and y (a branch parametrization or a
  curvette alike) are tabulated once each, as one keyed integer table of
  multiplication on the rational coordinates read off the integer matrix
  of multiplication (AmbientField.mul_matrix) of each nonzero coefficient,
  with no field product (_keyed_table). The monomials x^i y^j are taken in
  increasing (weight, i) order, a monomial order (weight i*ox + j*oy, with
  ox and oy the orders of x and y); the vector fed for each is x (or, for
  i = 0, y) times the vector that the echelon stored for its predecessor,
  cut past tau^V; the echelon divides it by its content. That adds to the
  span what the image of the monomial adds, because x times what came
  earlier came earlier too (the argument is in _filtration). The echelon
  is an integer column echelon keyed by lead, whose leads per level are
  the dimensions. A vector is a dict from one integer key, v*W + a*n + k
  for the tau^v coefficient's c power a and field coordinate k (n = [L:Q],
  W the width of a level, derived in _filtration), to an integer; W
  exceeds every a*n + k that can occur, so the integer order of the keys
  is the (v, a, k) order and lead // W is the level of a lead.

All arithmetic is exact; a zero is a proven zero.
"""

from fractions import Fraction
from math import lcm

from .errors import GenericCenter
from .exactfield import AlgNum
from .linalg import SparseRowSpace
from .ratfunc import INFINITY, Poly
from .record import Record
from .resolution import coordinates


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


class FiltrationReport(Record):
    """Levelwise dimensions of a value filtration, computed by brute force.

    dims[v] is the rational dimension of the space of polynomial classes of
    value exactly v, for v = 0..V. mode tells which kind of valuation
    produced the numbers.
    """

    __slots__ = ("V", "dims", "mode")

    def __init__(self, V, dims, mode):
        self._assign(V, dims, mode)
        if mode not in ("curve", "divisorial"):
            raise ValueError("mode must be 'curve' or 'divisorial'")
        if len(dims) != V + 1:
            raise ValueError("need one dimension per level 0..V")
        if any(a < 0 for a in dims):
            raise ValueError("dimensions must be non-negative")


# --- substitution -------------------------------------------------------------

def _poly_one(ring):
    return Poly(ring, [ring.one()])


def _powers(base, top):
    """[base^0, .., base^top]."""
    out = [_poly_one(base.ring)]
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
    total = _substitute(f, gc.x, gc.y)
    order = total.order()
    if order is INFINITY:
        return INFINITY
    return order


# --- filtration dimensions by rank growth ------------------------------------

def _terms(s, V, field):
    """The nonzero coefficients of the tau-polynomial s up to tau^V, as
    (e, b, alg, rows): alg is the ambient-field element at tau^e and c
    power b, and rows its integer matrix of multiplication
    (AmbientField.mul_matrix). A coefficient s_e is an ambient-field
    element (b = 0), or a polynomial in the curvette constant c with one
    element per c power b. The matrices are read here once, for both
    _keyed_table and _residue_dims."""
    return [(e, b, alg, field.mul_matrix(alg.num))
            for e, c in enumerate(s.tail[:max(0, V + 1 - s.shift)], s.shift)
            for b, alg in (enumerate(c.tail, c.shift) if isinstance(c, Poly)
                           else ((0, c),)) if alg]


def _keyed_table(terms, n, W):
    """Multiplication by D*s on integer-keyed vectors, for the
    tau-polynomial s with the terms _terms lists and a positive integer D,
    as table[k] for each field coordinate k < n = [L:Q]: the (key offset,
    integer) terms of z^k times the tau-coefficients s_e, by increasing
    offset.

    Column k of the matrix of multiplication by an element num/den is its
    product with z^k, over the field's _scale times den; each is brought
    to D = _scale times the lcm of the den, so the table reads one matrix
    per nonzero (tau power, c power) coefficient and makes no field
    product. A vector entry at tau^v, c power a and field coordinate k is
    keyed v*W + a*n + k (W from _filtration), so the product term at
    coordinate k' of z^k times the c^b part of s_e lands at offset
    e*W + b*n + k' - k from it."""
    scale = lcm(*(alg.den for _e, _b, alg, _rows in terms))
    table = [[] for _ in range(n)]
    for e, b, alg, rows in terms:
        f = scale // alg.den
        at = e * W + b * n
        for k2, row in enumerate(rows):
            for k, a in enumerate(row):
                if a:
                    table[k].append((at + k2 - k, a * f))
    return table


def _residue_dims(terms, ox, n):
    """The dimensions of U_0 .. U_(ox-1) on a branch, or None once one of
    them is n = [L:Q]. U_r is the rational span of the products of
    coefficients of x and y (the terms, as _terms lists them) whose tau
    powers sum to r mod ox, the empty product 1 in U_0.

    A closure over residue blocks: a vector of U_r is keyed r*n + k by
    field coordinate k, 1 starts in block 0, and each vector the echelon
    stores is multiplied by each term, by its integer matrix, into block
    (r + e) % ox. A rational term only moves the vector to that block,
    and one with e = 0 mod ox is skipped, since it moves it nowhere. Over
    Q, U_0 holds 1 and is all of L, so no vector is formed."""
    if n == 1:
        return None
    space = SparseRowSpace()
    ranks = [0] * ox
    todo = [(0, {0: 1})]
    while todo:
        r, u = todo.pop()
        u = space.add(u)
        if not u:
            continue
        ranks[r] += 1
        if ranks[r] == n:
            return None
        lo = r * n
        for e, _b, alg, rows in terms:
            s = (r + e) % ox
            if any(alg.num[1:]):
                todo.append((s, {s * n + k2: sum(row[c - lo] * m
                                                 for c, m in u.items())
                                 for k2, row in enumerate(rows)}))
            elif s != r:
                todo.append((s, {c + (s - r) * n: m for c, m in u.items()}))
    return ranks


def _c_degree(s, V):
    """The largest c power among the tau-coefficients of s up to tau^V;
    0 on a branch, whose coefficients are constants."""
    return max((c.degree() for c in s.tail[:max(0, V + 1 - s.shift)]
                if isinstance(c, Poly)), default=0)


def _times(column, table, limit):
    """The column times the keyed table of a tau-polynomial (_keyed_table),
    with the terms keyed limit = (V + 1)*W and beyond cut: a sparse
    integer convolution. Key c reads its field coordinate as c % n. The
    product keys increase along a table row, and the first key of level
    V + 1 is limit, so the row stops at the first term past it. The
    content is left for SparseRowSpace.add to strip."""
    n = len(table)
    out = {}
    get = out.get
    for c, m in column.items():
        for offset, q in table[c % n]:
            at = c + offset
            if at >= limit:
                break
            out[at] = get(at, 0) + m * q
    return out


def _filtration(x, y, V, mode, field):
    """Levelwise dimensions from a column echelon of the substitution map.

    Row (v, a, k) of the map holds field coordinate k of the c^a part of
    the tau^v coefficient (a = 0 on a branch), keyed by the integer
    v*W + a*n + k (_keyed_table), so the rows of levels <= v come first in
    key order. The dimension of value-v classes is rank(rows of levels <=
    v) - rank(rows of levels < v). Column operations keep every such rank,
    and in a column echelon (distinct least rows, the leads) the rank of
    the rows of levels <= v is the number of leads at those levels; so
    dims[v] is the number of leads at level v, lead // W. The leads of an
    echelon depend only on its span. W = n*(imax*bx + jmax*by + 1), with
    bx and by the largest c powers of x and y up to tau^V (_c_degree) and
    x^imax, y^jmax the largest powers of x and y of value <= V. Every
    vector formed is a combination of images of monomials x^i y^j of value
    <= V, whose c-degree is at most i*bx + j*by, so a*n + k < W: the
    integer order of the keys is the (v, a, k) order.

    The span is that of the images of the monomials x^i y^j of weight
    i*ox + j*oy <= V (ox, oy the orders of x and y), cut past tau^V. A
    monomial of larger weight has an image of order beyond V, which cuts
    to zero. The monomials are fed in increasing (weight, i) order, a
    monomial order: m < m' gives x*m < x*m' and y*m < y*m'. The vector
    fed for x^i y^j is x*r, where r is the vector stored for its
    predecessor x^(i-1) y^j (y*r, with r stored for y^(j-1), when i = 0),
    multiplied by the integer table of x or y (_times) and cut past tau^V
    (cutting is a ring map); add divides it by its content. The unit 1
    starts. A monomial joins the heads of its weight only once its
    predecessor stored a vector, and the weights are taken in increasing
    order, each sorted by i: every monomial joins while a smaller weight
    is taken (ox, oy >= 1), so the sort sees all of its weight. The chains
    (fixed j, rising i, and the y^j chain itself) thus end at their first
    monomial that adds nothing, and the adds run in (weight, i) order.

    Why the span after each monomial m is the span of the images of the
    monomials up to m. By induction, the vector stored for the predecessor
    p is a nonzero rational multiple of the image of p plus a combination
    of images of monomials before p. Times x (or y), that is a nonzero
    multiple of the image of m plus images of x (or y) times monomials
    before p; in a monomial order those come before m, and they are
    already in the span (or cut to zero). So feeding x*r adds what the
    image of m would add. When p left no vector (its image lies in the
    span of the earlier ones), neither does m, by the same argument, and
    m never joins the heads. Reducing x*r, whose earlier part is
    already reduced, takes a few steps where the raw image of m takes
    many.

    The full-level stop, when the lowest coefficient a of x is a nonzero
    rational (then W = n, as the coefficients are field elements). Let
    U_r, for r mod ox, be the rational span of the products of the
    tau-coefficients of x and y up to tau^V whose tau powers sum to r mod
    ox, with 1 in U_0. The tau^v coefficient of a polynomial in x and y is
    a sum of such products, so the level v classes lie in U_(v mod ox) (in
    any commutative ring, z^2 - 1 included), and cap_r = dim U_r bounds
    dims[v] for v = r mod ox (_residue_dims; cap_r = n for every r once
    one U_r is all of L). Call level w full when it has cap_(w mod ox)
    leads once the heads of weight w are processed. When the ox levels
    ending at w are full, dims[v] = cap_(v mod ox) for every v past w, and
    the heads of larger weight are skipped. This is exact:
    - The leads at levels <= w are final once weight w is done. A later
      monomial has weight > w, the vector fed for it has order at least
      its weight (x or y times a stored vector of order at least the
      predecessor's weight), and reduction only raises a lead.
    - Let S be the final span. Cutting is a ring map, so cut(x*S) lies in
      S.
    - The tau^(v+ox) coefficient of x*f, for f of order v, is a times the
      tau^v coefficient of f; so the level v+ox classes of S contain a
      times the level v classes. A full level v has all of U_(v mod ox)
      as its classes, a is rational and nonzero, so a*U_r = U_r and level
      v+ox is full too; the ox full levels ending at w fill every later
      level by induction.
    Only the leads at levels <= w are counted: vectors stored before the
    stop may have leads above w, and counting them would count those
    levels twice. The rational test matters over a ring with zero
    divisors: over Q[z]/(z^2 - 1), a = (1 - z)/2 maps a full level onto a
    line. A curvette's coefficients are polynomials in c, so the
    divisorial oracle never stops early.
    """
    V = int(V)
    if V < 0:
        raise ValueError("max order must be non-negative")
    ox = x.order()
    oy = y.order()
    if ox < 1:
        raise ValueError("x image must vanish at the origin")
    if oy < 1:
        raise ValueError("y image must vanish at the origin")
    imax = 0 if ox is INFINITY else V // ox
    jmax = 0 if oy is INFINITY else V // oy
    n = field.degree
    W = n * (imax * _c_degree(x, V) + jmax * _c_degree(y, V) + 1)
    x_terms = _terms(x, V, field)
    y_terms = _terms(y, V, field)
    x_keyed = _keyed_table(x_terms, n, W)
    y_keyed = _keyed_table(y_terms, n, W)
    limit = (V + 1) * W
    space = SparseRowSpace()
    # heads[v]: the live monomials x^i y^j of weight v, each as its i, the
    # vector stored for its predecessor and the table to multiply it by;
    # no two share an i, so sorting them never compares the vectors
    heads = [[] for _ in range(V + 1)]

    def follow(weight, i, r):
        if r:
            if weight + ox <= V:
                heads[weight + ox].append((i + 1, r, x_keyed))
            if not i and weight + oy <= V:
                heads[weight + oy].append((0, r, y_keyed))

    # the full-level stop: stop full levels in a row end the run at top,
    # level v full when it has caps[v % ox] leads; stop is 0 when the
    # lowest coefficient of x is not a nonzero rational, or when ox > V,
    # where a stop would fill no level, and then no bound is formed
    rows = space.rows
    a = x.low_coeff()
    stop = ox if ox <= V and isinstance(a, AlgNum) and a and \
        not any(a.num[1:]) else 0
    caps = stop and (_residue_dims(x_terms + y_terms, ox, n) or [W] * ox)
    full = 0
    top = V
    follow(0, 0, space.add({0: 1}))
    for weight, level in enumerate(heads):
        level.sort()
        for i, r, table in level:
            follow(weight, i, space.add(_times(r, table, limit)))
        if stop:
            lo = weight * W
            leads = sum(map(rows.__contains__, range(lo, lo + W)))
            full = full + 1 if leads == caps[weight % ox] else 0
            if full == stop:
                top = weight
                break
    dims = [0] * (V + 1)
    for lead in rows:
        if lead // W <= top:
            dims[lead // W] += 1
    for v in range(top + 1, V + 1):
        dims[v] = caps[v % ox]
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
    return _filtration(*coordinates(branch), V, "curve", branch.ambient)


def divisorial_filtration_dims(gc, V):
    """Dimensions of the divisorial value filtration, levels 0..V.

    Same construction as filtration_dims, with the generic curvette in place
    of a branch: each tau-coefficient of the substitution is a polynomial in
    the indeterminate constant c with ambient-field coefficients, and
    "value > v" means every c-coefficient vanishes. The rows of one tau-block
    are therefore indexed by (c power, field coordinate) pairs. A curvette
    cut past tau^V (generic_curvette with bound=V) gives the same dims.
    """
    return _filtration(gc.x, gc.y, V, "divisorial", gc.ambient)


def observed_semigroup(branch, V):
    """Values v <= V attained by the branch valuation on polynomials.

    Reads the levels with a positive filtration dimension; by exactness of
    the rank computation this is the degree-V-certified part of the value
    semigroup over the rationals.
    """
    report = filtration_dims(branch, V)
    return {v for v, a in enumerate(report.dims) if a}
