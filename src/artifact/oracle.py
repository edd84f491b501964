"""Brute-force ground truth for filtration dimensions.

filtration_dims and divisorial_filtration_dims compute, for each level v,
the rational dimension of the space of polynomials in the two base
coordinates of value exactly v modulo those of higher value, by exact
rank computations on the coefficient matrix of the substitution map: a
polynomial goes to the power series in tau that it becomes on a
parametrization (or on a transversal curve with an indeterminate
constant c). No product formula or semigroup reasoning enters; the module
exists so that the closed forms elsewhere in the package can be checked
against something that cannot share their mistakes. The one shortcut is
linear algebra on the same substitution map: where the lowest coefficient
of x has a nonzero rational constant term (in c, on a curvette),
multiplying by x shifts every lead by ord(x) levels, so the span is
closed as a Q[x]-module, one generator per lead class (the argument is
in _filtration). Each returns a FiltrationReport, which holds only the
tuple dims of levels 0..V; the caller knows V and the kind of valuation.

Only what levels 0..V read is computed, and in integers: x and y (a
branch parametrization or a curvette alike) are tabulated once each, as
one keyed integer table of multiplication on the rational coordinates
read off the integer matrix of multiplication (AmbientField.mul_matrix)
of each nonzero coefficient, with no field product (_keyed_table). The
vector fed for y^j is y times the vector that the echelon stored for
y^(j-1), cut past tau^V; the echelon divides it by its content. Where x
does not shift the leads, the vector stored for each power of y is
followed by its x-chain, x times the vector stored last, until one adds
nothing or cuts to zero, before y steps again. Either way the span grows
by what the power of y, or x times the vector before, adds (the argument
is in _filtration). The echelon is an integer column echelon keyed by
lead, whose leads per level are the dimensions. A vector is a dict from
one integer key, v*W + a*n + k for the tau^v coefficient's c power a and
field coordinate k (n = [L:Q], W the width of a level, derived in
_filtration), to an integer; W exceeds every a*n + k that can occur, so
the integer order of the keys is the (v, a, k) order and lead // W is
the level of a lead.

All arithmetic is exact; a zero is a proven zero.
"""

from math import lcm

from .errors import GenericCenter
from .linalg import SparseRowSpace
from .ratfunc import INFINITY, Poly
from .record import Record
from .resolution import coordinates


class FiltrationReport(Record):
    """Levelwise dimensions of a value filtration, computed by brute force.

    dims[v] is the rational dimension of the space of polynomial classes of
    value exactly v, for v = 0..V, so V is len(dims) - 1. The caller knows
    which kind of valuation it asked for.
    """

    __slots__ = ("dims",)

    def __init__(self, dims):
        self._assign(dims)
        if any(a < 0 for a in dims):
            raise ValueError("dimensions must be non-negative")


# --- filtration dimensions by rank growth ------------------------------------

def _keyed_table(s, V, field, W):
    """Multiplication by D*s on integer-keyed vectors, for the
    tau-polynomial s cut past tau^V and a positive integer D, as table[k]
    for each field coordinate k < n = [L:Q]: the (key offset, integer)
    terms of z^k times the tau-coefficients s_e, by increasing offset. A
    coefficient s_e is an ambient-field element, or a polynomial in the
    curvette constant c with one element per c power b (b = 0 on a
    branch).

    Column k of the integer matrix of multiplication
    (AmbientField.mul_matrix) by an element num/den is its product with
    z^k, over the field's _scale times den; each is brought to D = _scale
    times the lcm of the den, so the table reads one matrix per nonzero
    (tau power, c power) coefficient and makes no field product. A vector
    entry at tau^v, c power a and field coordinate k is keyed v*W + a*n +
    k (W from _filtration), so the product term at coordinate k' of z^k
    times the c^b part of s_e lands at offset e*W + b*n + k' - k from
    it."""
    n = field.degree
    terms = [(e, b, alg)
             for e, c in enumerate(s.tail[:max(0, V + 1 - s.shift)], s.shift)
             for b, alg in (enumerate(c.tail, c.shift) if isinstance(c, Poly)
                            else ((0, c),)) if alg]
    scale = lcm(*(alg.den for _e, _b, alg in terms))
    table = [[] for _ in range(n)]
    for e, b, alg in terms:
        f = scale // alg.den
        at = e * W + b * n
        for k2, row in enumerate(field.mul_matrix(alg.num)):
            for k, a in enumerate(row):
                if a:
                    table[k].append((at + k2 - k, a * f))
    return table


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


class _XModule(SparseRowSpace):
    """The echelon of _filtration as a Q[x]-module, where x shifts every
    lead by P = ord(x)*W: rows maps a lead class mod P to (lead, [g, x*g,
    x^2*g, ..]), its one generator g, which has that lead, and the
    x-multiples of g formed so far (_times by x's keyed table, cut at
    limit). x^k*g has lead lead(g) + k*P, the pivot of that lead. Every
    vector fed lies at levels above every stored lead (_filtration), so a
    vector stored lands in a class with no generator."""

    def __init__(self, x_keyed, P, limit):
        super().__init__()
        self.x_keyed = x_keyed
        self.P = P
        self.limit = limit

    def pivot(self, lead):
        gen = self.rows.get(lead % self.P)
        if gen is None:
            return None
        k = (lead - gen[0]) // self.P
        shifts = gen[1]
        while len(shifts) <= k:
            shifts.append(_times(shifts[-1], self.x_keyed, self.limit))
        return shifts[k]

    def store(self, lead, work):
        self.rows[lead % self.P] = (lead, [work])


def _filtration(x, y, V, field):
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
    to zero. Cutting is a ring map, so the span is the Q[x]-module that
    the cut powers of y generate.

    One loop feeds the echelon, the unit 1 first. Before each y step the
    span is M_j, the Q[x]-module of 1, y, .., y^j, and it is closed
    under x. The vector r_j stored for y^j is a nonzero rational
    multiple of y^j plus an element of M_(j-1), and y*M_(j-1) lies in
    M_j, so y*r_j adds exactly what y^(j+1) adds. Following the x-chain
    of the vector stored (x*s fed, with s the vector stored last) until
    it reduces to zero, or until its order plus ox passes V and x*s cuts
    to zero, closes the span under x again: x times any earlier vector
    is already in it. If y*r_j reduces to zero, y*M_j lies in M_j, and
    every later power of y is already in the span. In a SparseRowSpace,
    dims[v] is the number of leads at level v. Reducing x*s or y*r_j,
    whose earlier part is already reduced, takes a few steps where the
    raw image of a monomial takes many.

    Where the lowest coefficient a of x has a nonzero rational c^0 term
    (a itself on a branch), no x-chain is walked. The tau^(v+ox)
    coefficient of x*g, for g of order v, is a times the tau^v coefficient
    g_v of g. The c^0 term of a is a nonzero rational, so it keeps every
    key of g_v, and the c^j terms of a raise the c power; so x*g has lead
    lead(g) + P, P = ox*W, or cuts to zero. _XModule keeps one generator
    per lead class mod P; the x^k*g then have distinct leads, so they are
    an echelon of the module the generators span, already closed under x,
    and dims[v] is the number of generators whose level lead // W is at
    most v and congruent to v mod ox. The order of y*r_j exceeds the level
    of r_j, and reduction only raises a lead, so the stored leads rise
    from one power to the next: a vector is reduced against the generator
    of its class, whose lead is smaller, and it is stored only in a class
    that has none. The rational test matters over a ring with zero
    divisors: over Q[z]/(z^2 - 1), a = (1 - z)/2 can kill the lead of g_v.
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
    x_keyed = _keyed_table(x, V, field, W)
    y_keyed = _keyed_table(y, V, field, W)
    limit = (V + 1) * W
    dims = [0] * (V + 1)
    a = x.low_coeff()
    if isinstance(a, Poly):
        a = a.coeff(0)
    shifts = a and not any(a.num[1:])
    space = _XModule(x_keyed, ox * W, limit) if shifts else SparseRowSpace()
    r = space.add({0: 1})
    while r:
        s = r
        while not shifts and s and min(s) // W + ox <= V:  # else x*s cuts to 0
            s = space.add(_times(s, x_keyed, limit))
        r = space.add(_times(r, y_keyed, limit))
    if shifts:
        for lead, _xs in space.rows.values():
            for v in range(lead // W, V + 1, ox):
                dims[v] += 1
    else:
        for lead in space.rows:
            dims[lead // W] += 1
    return FiltrationReport(tuple(dims))


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
    return _filtration(*coordinates(branch), V, branch.ambient)


def divisorial_filtration_dims(gc, V):
    """Dimensions of the divisorial value filtration, levels 0..V.

    Same construction as filtration_dims, with the generic curvette in place
    of a branch: each tau-coefficient of the substitution is a polynomial in
    the indeterminate constant c with ambient-field coefficients, and
    "value > v" means every c-coefficient vanishes. The rows of one tau-block
    are therefore indexed by (c power, field coordinate) pairs. A curvette
    cut past tau^V (generic_curvette with bound=V) gives the same dims.
    """
    return _filtration(gc.x, gc.y, V, gc.ambient)
