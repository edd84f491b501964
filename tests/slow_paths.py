"""Reference routes that the tests compare the runtime against.

The CLI and the series pipeline run none of this. The runtime reads
multiplicities and values off the proximity relation of the blow-up records
(resolution.curvette_mults and resolution.proximity_sums); these routes
recompute them on exact states: single blow-ups, joint replays of two
branches, curvettes with a concrete constant, the intersection matrix,
conjugation and the proximity equalities. Noether's sum per component, one
curvette at a time, is here too (the runtime sums m and M in one pass per
weight).
The raw oracle route lives here as well: every monomial column built in
full, keyed by (tau order, (c power, field coordinate)) tuples, and
reduced against the echelon (the runtime reduces x times the vector
stored for the predecessor instead, keyed by one integer), with the
tables of x and y built from Fraction products of field elements (the
runtime reads them off the integer matrix of multiplication). Horner
evaluation of polynomials and of field elements lives here too: the
concrete curvettes and conjugation use it, the runtime does not. So do
the Fraction routes of field arithmetic: the product of field elements,
a polynomial product and long division by the minimal polynomial (the
runtime multiplies integer numerators and folds the high powers through a
table, and only scales them when a factor is rational); that table itself
by long division of z^n .. z^(2n-2) (the runtime runs the integer
recurrence of the monic p); the square-free check of p by Euclid on p and
p' (the runtime takes the rank of multiplication by p'); the inverse by the
extended Euclidean algorithm (the runtime eliminates on the integer matrix
of multiplication); and the reduced row echelon over Fraction with the
product closure of subfields built on it (the runtime keeps primitive
integer rows).
The full convolution of two Polys is here too: the runtime scales instead
when an operand is a constant, and returns the other operand when that
constant is the ring's one. So are the order and the lowest coefficient
of a Poly by a scan of its dense coefficients on each call (the runtime
reads them off its shift and tail), and the sum and difference of two
Polys one index at a time through Poly.coeff (the runtime walks the two
tails and skips zero terms). The resolution with one blow-up per chart
step is here too (the runtime takes a chart-A row at center 0 as one
division where no point inside it can stop the run), and it reads its
graph with the earlier builder: a breadth-first search over sorted
neighbours for the geodesic, the attach points of the side chains
checked and the chains sorted after every walk (the runtime walks
adjacency lists once from vertex 0 and reads the geodesic back along
the parent links).
So is the division of RatFuncs by cross-multiplication, whose product
denominator is rescaled by the inverse of its lowest coefficient (the
runtime multiplies by the divisor's kept reciprocal), and the resolution's
tail test with tau always rescaled, each form in full by the substitution
p(s*t) before any coefficient is tested (the runtime skips the rescale
when the lowest coefficient of u already lies in the subfield, reads the
inverse off u's kept reciprocal, and rescales and tests the coefficients
in one pass that returns at the first one outside the subfield), with
membership by the Fraction rref (the runtime answers Q and the whole field
without a reduction). The oracle's monomials listed and sorted in full,
each skipped at the add when its predecessor left no vector, are here too
(the runtime feeds the powers of y, each followed by the x-chain of its
reduced vector, or by none where x shifts the leads of a Q[x]-module
echelon), and so are the dimensions of the spans that bound its levels
by residue mod ord(x), closed by Fraction products (the tests check that
no level of the runtime's dims exceeds them).
The package's records (frozen values with equality, hashing and a repr) are
rebuilt here as frozen dataclasses with the same fields and defaults; the
runtime shares one hand-written base class instead, which imports nothing.
The argparse parser of the four commands is here too: the runtime reads
the four documented forms directly and builds its own argparse parser only
for any other line, so this one checks both routes.

Not named reference.py: pytest puts both tests/ and bench/ on sys.path, and
bench/reference.py would shadow it.
"""

import argparse
import dataclasses
from fractions import Fraction
from math import gcd, lcm, prod

from artifact.errors import (
    ArtifactError,
    DivisionByZero,
    GenericCenter,
    ReduciblePolynomial,
    ResolutionStuck,
)
from artifact.exactfield import AlgNum, Subfield, rel_degree, span_close
from artifact.linalg import SparseRowSpace
from artifact.ratfunc import INFINITY, FractionField, Poly, RatFunc
from artifact.resolution import (
    AT_INFINITY,
    GENERIC,
    BranchParam,
    InfNearRecord,
    QuotientGraph,
    Vertex,
    _chart_step,
    _constant,
    _default_cap,
    _landing_info,
    _shift,
    coordinates,
    curvette_mults,
    generic_curvette,
    normalize,
)


def evaluate_poly(p, at):
    """p(at) by Horner's rule, in the coefficient ring of p."""
    acc = p.ring.zero()
    for c in reversed(p.coeffs):
        acc = acc * at + c
    return acc


def evaluate_algnum(a, at):
    """The polynomial in z that represents a, evaluated at another element
    of the field."""
    acc = at.field.zero()
    for c in reversed(a.coords):
        acc = acc * at + at.field.from_fraction(c)
    return acc


def _ptrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _pdivmod(p, q):
    """Quotient and remainder of dense Fraction polynomials, lowest degree
    first."""
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


def reference_fold_table(min_poly):
    """(scale, fold) by long division: fold[k] is scale times the
    coordinates of z^(n+k) mod p for k = 0 .. n-2, and scale the least
    positive integer that makes every entry an integer."""
    p = _ptrim([Fraction(a) for a in min_poly])
    n = len(p) - 1
    powers = []
    for k in range(n, 2 * n - 1):
        rem = _pdivmod([Fraction(0)] * k + [Fraction(1)], p)[1]
        powers.append(rem + [Fraction(0)] * (n - len(rem)))
    scale = lcm(*(c.denominator for row in powers for c in row))
    return scale, tuple(tuple(int(c * scale) for c in row) for row in powers)


def reference_is_squarefree(min_poly):
    """Whether gcd(p, p') is a constant, by Euclid on Fraction
    polynomials."""
    p = _ptrim([Fraction(a) for a in min_poly])
    q = _ptrim([i * a for i, a in enumerate(p)][1:])
    while q:
        p, q = q, _pdivmod(p, q)[1]
    return len(p) == 1


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


def reference_poly_mul(p, q):
    """p * q by the full convolution of the coefficients, whatever the
    degrees of p and q."""
    if not p.coeffs or not q.coeffs:
        return Poly(p.ring, [])
    out = [p.ring.zero()] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a:
            for j, b in enumerate(q.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
    return Poly(p.ring, out)


def coefficientwise(p, q, op):
    """op(p_i, q_i) for every index below the longer length, each
    coefficient read through Poly.coeff, as one Poly."""
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly(p.ring, [op(p.coeff(i), q.coeff(i)) for i in range(n)])


def reference_ratfunc_div(a, b):
    """a / b as the cross-multiplied quotient a.num*b.den / (a.den*b.num),
    which RatFunc brings to its form by the inverse of the lowest
    denominator coefficient, on every call."""
    if not b.num:
        raise DivisionByZero("division by the zero rational function")
    return RatFunc(a.num * b.den, a.den * b.num)


def reference_contains(sub, a):
    """Whether the field element a lies in the subfield sub: its rational
    coordinates reduced against the Fraction rref of sub's basis."""
    rows, pivots = rref(b.coords for b in sub.basis)
    return not any(reduce_against(a.coords, rows, pivots))


def scale_arg(p, s):
    """The polynomial p(s*t) as a polynomial in t: the coefficient of t^e
    of the dense list times s^e, each power the one below times s."""
    power, out = p.ring.one(), []
    for c in p.coeffs:
        out.append(c * power if c else c)
        power = power * s
    return Poly(p.ring, out)


def reference_tail_ok(u, w, sub):
    """resolution._tail_ok with tau always rescaled by the inverse of the
    lowest coefficient of u, one included (over lam that inverse is
    reference_ratfunc_div's), each of the four forms in full by scale_arg
    before any coefficient is tested, and membership by
    reference_contains."""
    if not w:
        return True
    one, d = u.num.ring.one(), u.num.low_coeff()
    inv = reference_ratfunc_div(one, d) if isinstance(d, RatFunc) \
        else one / d
    for poly in [scale_arg(f, inv) for f in (u.num, u.den, w.num, w.den)]:
        for c in poly.coeffs:
            if c:
                k = _constant(c)
                if k is None or not reference_contains(sub, k):
                    return False
    return True


def scan_order(p):
    """The least power of p with a nonzero coefficient, by a scan from the
    low end on every call (Poly.order finds it once and keeps it);
    INFINITY for the zero polynomial."""
    for i, c in enumerate(p.coeffs):
        if c:
            return i
    return INFINITY


def scan_low_coeff(p):
    """The coefficient at scan_order(p), or the ring's zero."""
    for c in p.coeffs:
        if c:
            return c
    return p.ring.zero()


def reference_algnum_mul(a, b):
    """The coordinates of a*b in Fractions: the product of the coordinate
    polynomials, reduced mod the minimal polynomial."""
    field = a.field
    prod = _pmul(list(a.coords), list(b.coords))
    rem = _pdivmod(prod, list(field.min_poly))[1]
    return tuple(rem + [Fraction(0)] * (field.degree - len(rem)))


def reference_algnum_inverse(a):
    """The inverse of a by the extended Euclidean algorithm on Fraction
    coordinate polynomials; a zero divisor raises ReduciblePolynomial with
    the degree of its gcd with the modulus."""
    if not a:
        raise DivisionByZero("cannot invert zero")
    # invariants: r0 = s0 * a (mod p), r1 = s1 * a (mod p)
    r0, s0 = list(a.field.min_poly), []
    r1, s1 = _ptrim(list(a.coords)), [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, [-c for c in _pmul(q, s1)])
    if len(r0) > 1:
        raise ReduciblePolynomial(
            "zero divisor: gcd with the modulus has degree %d" % (len(r0) - 1))
    inv_lead = 1 / r0[0]
    s0 = [c * inv_lead for c in s0]
    _, rem = _pdivmod(s0, list(a.field.min_poly))
    rem = rem + [Fraction(0)] * (a.field.degree - len(rem))
    return a.field.element(rem)


def rref(rows):
    """Reduced row echelon form over Fraction.

    Takes an iterable of rows (sequences of Fraction-coercible values) and
    returns (basis_rows, pivot_cols) with pivot entries normalized to 1 and
    cleared above and below. Zero rows are dropped.
    """
    basis = []
    pivots = []
    for row in rows:
        row = [Fraction(x) for x in row]
        for piv, col in zip(basis, pivots):
            if row[col]:
                f = row[col]
                row = [a - f * b for a, b in zip(row, piv)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [a / inv for a in row]
        for i, (piv, col) in enumerate(zip(basis, pivots)):
            if piv[lead]:
                f = piv[lead]
                basis[i] = [a - f * b for a, b in zip(piv, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def reduce_against(row, basis, pivots):
    """Reduce a Fraction row against an rref basis; returns the remainder."""
    row = list(row)
    for piv, col in zip(basis, pivots):
        if row[col]:
            f = row[col]
            row = [a - f * b for a, b in zip(row, piv)]
    return row


def reference_span_close(gens, base):
    """The product closure of the subfield base and the generators as a
    Fraction rref (rows, pivots): the span of the coordinates is extended
    by the products of pairs of basis vectors until no product leaves it."""
    field = base.field
    vecs = [list(b.coords) for b in base.basis]
    vecs.append(list(field.one().coords))
    vecs += [list(g.coords) for g in gens]
    rows, pivots = rref(vecs)
    while True:
        elems = [field.element(r) for r in rows]
        fresh = []
        for i, a in enumerate(elems):
            for b in elems[i:]:
                prod = list((a * b).coords)
                if any(reduce_against(prod, rows, pivots)):
                    fresh.append(prod)
        if not fresh:
            return rows, pivots
        rows, pivots = rref(list(rows) + fresh)


class BadConstant(ArtifactError):
    """Curvette constant collides with a recorded point or leaves the field."""


class UnrepresentableCurvette(ArtifactError):
    """The blow-down exists but has no finite Puiseux form over the field."""


class NotARoot(ArtifactError):
    """Conjugation target does not satisfy the defining polynomial."""


def initial_state(p):
    """The branch as given (no coordinate swap) as the state pair (u, w)
    of rational functions that the blow-up replay starts from."""
    return tuple(map(RatFunc.of, coordinates(p)))


def blow_up_once(p):
    """One blow-up of the origin: (center on the new component, AT_INFINITY
    in the second chart; translated strict transform; multiplicity at the
    blown point). Raises GenericCenter at a GENERIC-dependent center and
    UnrepresentableCurvette when the x part is not an exact monomial."""
    u, w = initial_state(p)
    mult = int(min(u.order(), w.order()))
    chart, c_scal, u2, w2, _steps = _chart_step(u, w)
    center = _constant(c_scal)
    if center is None:
        raise GenericCenter("blown-up center carries the generic coefficient")
    if chart != "A":
        center = AT_INFINITY
    return center, _state_to_param(u2, w2, p.ambient), mult


def _geodesic_path(n_vertices, edges, start, goal):
    adj = {i: [] for i in range(n_vertices)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {start: None}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        if cur == goal:
            break
        for nb in sorted(adj[cur]):
            if nb not in parent:
                parent[nb] = cur
                queue.append(nb)
    if goal not in parent:
        raise ArtifactError("vertex %d is not connected to vertex %d"
                            % (goal, start))
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return list(reversed(path)), adj


def _assign_tags(n, edges, splittings):
    """Tag sets per vertex, derived from the finished tree shape."""
    tags = [set() for _ in range(n)]
    for j, (vid, _ell) in enumerate(splittings, start=1):
        tags[vid].add(("SPLITTING", j))
    geodesic, adj = _geodesic_path(n, edges, 0, n - 1)
    geo_set = set(geodesic)
    # every vertex a walk has entered; in a tree no walk enters one twice
    # or comes back to the geodesic, so a cycle stops the walk
    seen = set(geodesic)
    chains = []
    for gv in geodesic:
        for nb in adj[gv]:
            if nb in geo_set:
                continue
            walk = []
            prev, cur = gv, nb
            while True:
                if cur in seen:
                    raise ArtifactError("side branch at vertex %d is not a "
                                        "chain" % gv)
                seen.add(cur)
                walk.append(cur)
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    break
                if len(nxt) != 1:
                    raise ArtifactError("side branch at vertex %d is not a "
                                        "chain" % gv)
                prev, cur = cur, nxt[0]
            chains.append((gv, walk))
    attach_points = [gv for gv, _ in chains]
    if len(attach_points) != len(set(attach_points)):
        raise ArtifactError("several dead-end chains at one vertex")
    chains.sort(key=lambda c: geodesic.index(c[0]))
    for i, (gv, walk) in enumerate(chains, start=1):
        tags[gv].add(("RUPTURE", i))
        tags[walk[-1]].add(("DEAD_END", i))
    tags[0].add(("INITIAL",))
    tags[0].add(("DEAD_END", 0))
    tags[n - 1].add(("DELTA",))
    for t in tags:
        if not t:
            t.add(("PLAIN",))
    return tags, geodesic


def reference_graph_of(records, n_case3, terminal, branch):
    """resolution._graph_of with a breadth-first search over sorted
    neighbours for the geodesic, a check of the attach points after every
    side walk and a sort of the chains by geodesic position: the quotient
    graph, its shape read off the records.

    Point k creates component k with self-intersection -1; each component
    hosting point k loses one more and gains an edge to k, and a point on
    two components separates them. A splitting (k - 1, ell) sits where
    point k is the first with a larger subfield, of degree ell over the
    subfield of point k - 1.
    """
    n = len(records)
    selfints = [-1] * n
    edges = set()
    splittings = []
    for k, rec in enumerate(records):
        hosts = rec.host_components
        for h in hosts:
            selfints[h] -= 1
            edges.add((h, k))
        if len(hosts) == 2:
            edges.discard(tuple(sorted(hosts)))
        before = records[k - 1].field_after if k else rec.field_after
        if rec.field_after is not before:
            splittings.append((k - 1, rel_degree(before, rec.field_after)))
    tags, geodesic = _assign_tags(n, edges, splittings)
    vertices = [Vertex(id=k, tags=frozenset(tags[k]), self_int=selfints[k],
                       field_dim=rec.field_after.dim)
                for k, rec in enumerate(records)]
    return QuotientGraph(vertices, edges, geodesic, n_case3, splittings,
                         terminal, branch)


def reference_resolve(p, extra_steps=0):
    """resolution.resolve one blow-up per chart step, with the stop test
    reference_tail_ok asked at every point that can stop the run: resolve
    takes a chart-A row at center 0 in one division when no point inside
    it can stop the run, and asks its own _tail_ok only until it first
    holds."""
    p = normalize(p)
    max_steps = _default_cap(p, extra_steps)
    u, w = initial_state(p)
    sub = Subfield.rationals(p.ambient)
    records = []
    labels = (None, None)
    pending = InfNearRecord(None, sub, ())
    extra_left = extra_steps
    case3_n = None
    for _ in range(max_steps):
        i = len(records)
        if i >= 1 and pending.field_after is records[-1].field_after \
                and len(pending.host_components) == 1 \
                and u.order() == 1 and reference_tail_ok(u, w, sub):
            if extra_left == 0:
                terminal = pending
                break
            extra_left -= 1
        records.append(pending)
        chart, c_scal, u, w, _steps = _chart_step(u, w)
        center = _constant(c_scal)
        if center is None:
            case3_n = int(u.order())
            terminal = InfNearRecord(GENERIC, sub, (i,), chart)
            break
        if chart == "A":
            if not sub.contains_num(center):
                sub = span_close([center], sub)
            second = labels[1] if not center else None
        else:
            center = AT_INFINITY
            second = labels[0]
        labels = (i, second)
        pending = InfNearRecord(center, sub,
                                (i,) if second is None else labels, chart)
    else:
        raise ResolutionStuck(
            "no stable point within %d blow-ups" % max_steps)
    return reference_graph_of(records, case3_n, terminal, p), records


def _state_to_param(u, w, ambient):
    if u.den.degree() != 0 or w.den.degree() != 0:
        raise UnrepresentableCurvette(
            "strict transform is not polynomial in tau")
    ring = u.num.ring
    lam = ring.gen() if isinstance(ring, FractionField) else None

    def down(scalar):
        value = _constant(scalar)
        if value is None:
            if lam is not None and scalar == lam:
                return GENERIC
            raise UnrepresentableCurvette(
                "coefficient mixes the generic marker with field elements")
        return value

    xpoly = u.num
    if sum(1 for c in xpoly.coeffs if c) != 1:
        raise UnrepresentableCurvette(
            "x part %r is not an exact monomial" % (xpoly,))
    x_order = xpoly.order()
    x_coeff = down(xpoly.coeff(x_order))
    terms = [(e, down(c)) for e, c in enumerate(w.num.coeffs) if c]
    return BranchParam(ambient, x_order, terms, x_coeff=x_coeff)


def constant_collision(graph, recs, sigma, c):
    """Why c cannot give a curvette at component sigma, or None. Read in the
    coordinate of generic_curvette, c must avoid the branch's landing point
    and, for sigma >= 1, the corner with the older component."""
    _chart, shift = _landing_info(graph, recs, sigma)
    eff = c + shift if shift else c
    # a shift is the center of the landing point
    if shift is not None and isinstance(shift, AlgNum) and eff == shift:
        return "constant hits the branch's landing point"
    if sigma >= 1 and not eff:
        return "constant hits the corner with an older component"
    return None


def _curvette_state(graph, recs, sigma, constant):
    """Exact state (x(tau), y(tau)) of the section {w = constant} in the
    chart of component sigma, blown down to the base coordinates: the
    generic curvette with the constant substituted."""
    gc = generic_curvette(graph, recs, sigma)

    def at(poly):
        return RatFunc.of(Poly(graph.ambient,
                               [evaluate_poly(coeff, constant)
                                for coeff in poly.coeffs]))

    return at(gc.x), at(gc.y)


def curvette_param(graph, recs, sigma, c):
    """Parametrization of the transversal curve {w = c} at component sigma,
    blown down to the base coordinates. c must lie in the subfield of sigma
    and pass constant_collision."""
    ambient = graph.ambient
    if isinstance(c, (int, Fraction)):
        c = ambient.from_fraction(c)
    if not recs[sigma].field_after.contains_num(c):
        raise BadConstant("constant %r outside the component's subfield" % (c,))
    reason = constant_collision(graph, recs, sigma, c)
    if reason is not None:
        raise BadConstant(reason)
    x, y = _curvette_state(graph, recs, sigma, c)
    return _state_to_param(x, y, ambient)


def _replay_step(u, w, chart, shift_scalar):
    """Transform a state through a recorded blow-up; returns the new state or
    None when the carrier does not pass through the recorded point: its own
    blow-up lands in the other chart, or (when a shift is given) at another
    point of the chart."""
    chart2, c, u2, w2, _steps = _chart_step(u, w)
    if chart2 != chart or (shift_scalar is not None and c != shift_scalar):
        return None
    return u2, w2


def _strict_mults_state(u, w, recs):
    out = [int(min(u.order(), w.order()))]
    for rec in recs[1:]:
        nxt = _replay_step(u, w, rec.chart, _shift(rec))
        if nxt is None:
            out.extend([0] * (len(recs) - len(out)))
            break
        u, w = nxt
        out.append(int(min(u.order(), w.order())))
    return out


def strict_mults(carrier, reference):
    """Multiplicities of the carrier's strict transforms at the reference
    branch's blown-up points; 0 from the first point not shared on.

    The carrier is replayed exactly as given (no coordinate swap), so axes
    such as (tau, 0) and (0, tau) keep their geometric meaning relative to
    the reference.
    """
    if carrier.has_generic:
        raise GenericCenter("strict multiplicities need a concrete carrier")
    u, w = initial_state(carrier)
    return _strict_mults_state(u, w, reference)


def _intersect_states(ua, wa, ub, wb, bound):
    """Joint replay along the first state's own blow-up chain; returns the
    accumulated product sum, or INFINITY once it exceeds bound."""
    total = 0
    while True:
        ma = min(ua.order(), wa.order())
        mb = min(ub.order(), wb.order())
        total += int(ma) * int(mb)
        if total > bound:
            return INFINITY
        chart, ca, ua, wa, _steps = _chart_step(ua, wa)
        nxt = _replay_step(ub, wb, chart, ca)
        if nxt is None:
            return total
        ub, wb = nxt


def intersect_noether(a, b):
    """Intersection number of two branches as the sum over shared infinitely
    near points of the multiplicity products; INFINITY when they are the
    same branch (certified by exceeding the degree bound of two distinct
    local curves). Both arguments are taken literally, without coordinate
    swaps."""
    if a.has_generic or b.has_generic:
        raise ValueError("intersection of generic-marker branches is not "
                         "defined here")
    if a.ambient != b.ambient:
        raise ValueError("branches live over different ambient fields")
    na = a.y_terms[-1][0] if a.y_terms else a.x_order
    nb = b.y_terms[-1][0] if b.y_terms else b.x_order
    bound = (a.x_order + na) * (b.x_order + nb)
    ua, wa = initial_state(a)
    ub, wb = initial_state(b)
    return _intersect_states(ua, wa, ub, wb, bound)


def intersection_matrix(graph):
    """Integer matrix of component self-intersections and adjacencies."""
    n = len(graph.vertices)
    mat = [[0] * n for _ in range(n)]
    for v in graph.vertices:
        mat[v.id][v.id] = v.self_int
    for a, b in graph.edges:
        mat[a][b] = 1
        mat[b][a] = 1
    return mat


def is_negative_definite(matrix):
    """A symmetric matrix is negative definite exactly when every pivot of
    elimination without row exchanges is negative (the k-th pivot is the
    ratio of the k-th and (k-1)-th leading principal minors)."""
    work = [[Fraction(a) for a in row] for row in matrix]
    n = len(work)
    for col in range(n):
        pivot = work[col][col]
        if pivot >= 0:
            return False
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] / pivot
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return True


def determinant(matrix):
    """Exact determinant by Fraction elimination with row exchanges."""
    work = [[Fraction(a) for a in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(work)):
        row = next((r for r in range(col, len(work)) if work[r][col]), None)
        if row is None:
            return 0
        if row != col:
            work[col], work[row] = work[row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, len(work)):
            if work[r][col]:
                f = work[r][col] / pivot
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def conjugate_param(p, root_image):
    """Apply the coefficient map sending the field generator to another root
    of the defining polynomial."""
    ambient = p.ambient
    acc = ambient.zero()
    for coeff in reversed(ambient.min_poly):
        acc = acc * root_image + ambient.from_fraction(coeff)
    if acc:
        raise NotARoot("%r is not a root of the defining polynomial"
                       % (root_image,))

    def mapped(c):
        if c is GENERIC:
            return c
        return evaluate_algnum(c, root_image)

    return BranchParam(ambient, p.x_order,
                       [(e, mapped(c)) for e, c in p.y_terms],
                       x_coeff=mapped(p.x_coeff))


def noether_m_values(graph, recs):
    """m per component by Noether's sum, one curvette at a time: the
    multiplicity products of curvettes at w and at the last component over
    the points 0..w."""
    last = curvette_mults(recs, graph.delta())
    return {v.id: sum(a * b for a, b in zip(curvette_mults(recs, v.id), last))
            for v in graph.vertices}


def noether_big_M(graph, recs, m_map, tower):
    """M per component, with each shared-chain sum taken over the
    curvette multiplicities of that component and of the last one
    (poincare.big_M's formula, one component at a time)."""
    last = curvette_mults(recs, graph.delta())
    out = {}
    for v in graph.vertices:
        w = v.id
        below = [(rho, ell) for rho, ell in tower if rho < w]
        total = int(m_map[w])
        mults = curvette_mults(recs, w)
        for j, (rho, ell) in enumerate(below):
            later = 1
            for _rho_q, ell_q in below[j + 1:]:
                later *= ell_q
            total += (ell - 1) * later * sum(
                last[i] * mults[i] for i in range(rho + 1))
        out[w] = total
    return out


def proximity_check(graph, recs, mults=None):
    """Each point's multiplicity equals the sum of the multiplicities at the
    points lying on the component it creates. mults lists the branch's
    multiplicities at the blown-up points and then at the terminal, the
    first point not blown up, which lies on the last component; by default
    they are replayed through the recorded blow-ups (strict_mults)."""
    if mults is None:
        mults = strict_mults(graph.branch, list(recs) + [graph.terminal])
    r = len(recs)
    for i in range(r):
        total = sum(mults[k] for k in range(i + 1, r)
                    if i in recs[k].host_components)
        if i == r - 1:
            total += mults[r]
        if mults[i] != total:
            return False
    return True


def reference_table(s, bound, field):
    """Multiplication by D*s on the rational coordinates, for the
    tau-polynomial s cut past tau^bound and a positive integer D, as
    table[k] for each power-basis index k: the (tau order e, c power b,
    field coordinate k', integer) entries of z^k times the c^b part of
    s_e, by increasing (e, b, k'). A coefficient s_e is an ambient-field
    element (b = 0) or a polynomial in c over the field. Each product is
    the Fraction route reference_algnum_mul, and D is the least common
    denominator of all the entries."""
    n = field.degree
    basis = [field.element([int(i == k) for i in range(n)])
             for k in range(n)]
    table = [[(e, b, k2, q) for e, c in enumerate(s.coeffs[:bound + 1])
              for b, alg in enumerate(c.coeffs if isinstance(c, Poly)
                                      else (c,))
              for k2, q in enumerate(reference_algnum_mul(zk, alg)) if q]
             for zk in basis]
    scale = lcm(*(q.denominator for row in table for *_at, q in row))
    return [[(e, b, k2, int(q * scale)) for e, b, k2, q in row]
            for row in table]


def tuple_times(column, table, bound):
    """The {(tau order, (c power, field coordinate)): int} column times the
    tau-polynomial tabled by reference_table, cut past tau^bound and
    divided by its content: the product oracle._times forms on integer
    keys (where the echelon strips the content)."""
    out = {}
    for (v, (a, k)), m in column.items():
        for e, b, k2, q in table[k]:
            if v + e > bound:
                break
            at = (v + e, (a + b, k2))
            out[at] = out.get(at, 0) + m * q
    g = gcd(*out.values())
    return {at: m // g for at, m in out.items() if m}


def _monomial_columns(x, y, bound, field):
    """Integer columns of the substitution map, one per coordinate monomial
    x^i y^j of value <= bound, in reverse lexicographic (i, j) order.

    A column is a {(tau order, (c power, field coordinate)): int} dict of
    the nonzero entries of the image x^i y^j up to tau^bound; on a branch
    the c power is 0. Every column is one sparse integer step from a
    neighbour (tuple_times with the reference tables of x and y): x^i from
    x^(i-1), x^i y^j from x^i y^(j-1), each a positive integer multiple of
    the cut image. For i descending, the block x^i, x^i y, .., x^i y^jtop
    is built upward and fed downward.
    """
    ox = x.order()
    oy = y.order()
    if ox < 1:
        raise ValueError("x image must vanish at the origin")
    x_table = reference_table(x, bound, field)
    y_table = reference_table(y, bound, field)
    xs = [{(0, (0, 0)): 1}]
    for _ in range(0 if ox is INFINITY else bound // ox):
        xs.append(tuple_times(xs[-1], x_table, bound))
    for i in reversed(range(len(xs))):
        x_value = i * ox if i else 0
        jtop = 0 if oy is INFINITY else (bound - x_value) // oy
        block = [xs[i]]
        for _ in range(jtop):
            block.append(tuple_times(block[-1], y_table, bound))
        yield from reversed(block)


def reference_filtration_dims(x, y, V, field):
    """dims[v] for v = 0..V: the leads per level of the echelon of the raw
    monomial columns (_monomial_columns), each reduced in full."""
    space = SparseRowSpace()
    for column in _monomial_columns(x, y, V, field):
        space.add(column)
    dims = [0] * (V + 1)
    for level, _key in space.rows:
        dims[level] += 1
    return tuple(dims)


def keyed_times(column, table, limit):
    """The integer-keyed column times a keyed table (as oracle._times reads
    one), every product term tested against the cut at limit, with no
    content taken out."""
    n = len(table)
    out = {}
    for c, m in column.items():
        for offset, q in table[c % n]:
            if c + offset < limit:
                out[c + offset] = out.get(c + offset, 0) + m * q
    return out


def sorted_monomial_adds(x, y, V, field):
    """The weight-ordered monomial loop that oracle._filtration ran before
    it walked the x-chain of each power of y, for every input, with no
    Q[x]-module shortcut: the dims, the leads per level of the echelon
    that the vectors it feeds SparseRowSpace.add leave. Every monomial of
    weight <= V is listed and sorted by (weight, i); a monomial whose
    predecessor stored no vector is skipped at its turn. x and y must vanish at the origin.
    The tables are reference_table's, keyed by v*W + a*n + k with W =
    n*(imax*bx + jmax*by + 1), bx and by their largest c powers: the entry
    (e, b, k', q) of row k becomes the key offset e*W + b*n + k' - k. Over
    a field whose minimal polynomial has integer coefficients, their D is
    the oracle's, so the vectors are the very ones that loop fed."""
    ox, oy = x.order(), y.order()
    imax = 0 if ox is INFINITY else V // ox
    jmax = 0 if oy is INFINITY else V // oy
    n = field.degree
    tables = [reference_table(s, V, field) for s in (x, y)]
    bx, by = (max((b for row in t for _e, b, _k, _q in row), default=0)
              for t in tables)
    W = n * (imax * bx + jmax * by + 1)
    x_keyed, y_keyed = ([[(e * W + b * n + k2 - k, q) for e, b, k2, q in row]
                         for k, row in enumerate(t)] for t in tables)
    limit = (V + 1) * W
    monomials = []
    for i in range(imax + 1):
        x_value = i * ox if i else 0
        jtop = 0 if oy is INFINITY else (V - x_value) // oy
        monomials.extend((x_value + j * oy if j else x_value, i, j)
                         for j in range(jtop + 1))
    monomials.sort()
    space = SparseRowSpace()
    stored = {(0, 0): space.add({0: 1})}
    for _weight, i, j in monomials[1:]:
        r = stored.get((i - 1, j) if i else (0, j - 1))
        if r:
            stored[(i, j)] = space.add(
                keyed_times(r, x_keyed if i else y_keyed, limit))
    dims = [0] * (V + 1)
    for lead in space.rows:
        dims[lead // W] += 1
    return tuple(dims)



def reference_residue_dims(x, y, V, field):
    """[dim U_0, .., dim U_(ox-1)] for the branch images x and y, ox the
    order of x: U_r is the rational span of the products of the
    tau-coefficients of x and y up to tau^V whose tau powers sum to r mod
    ox, the empty product 1 in U_0. Closed by Fraction products of
    coordinate polynomials, reduced mod the minimal polynomial, each kept
    when reduce_against leaves a remainder; every coefficient multiplies
    every vector kept, with no shortcut for a rational one."""
    ox = x.order()
    modulus = list(field.min_poly)
    coeffs = [(e, list(c.coords)) for s in (x, y)
              for e, c in enumerate(s.coeffs[:V + 1]) if c]
    blocks = [([], []) for _ in range(ox)]
    todo = [(0, [Fraction(1)] + [Fraction(0)] * (field.degree - 1))]
    while todo:
        r, u = todo.pop()
        basis, pivots = blocks[r]
        if not any(reduce_against(u, basis, pivots)):
            continue
        blocks[r] = rref(basis + [u])
        for e, c in coeffs:
            rem = _pdivmod(_pmul(u, c), modulus)[1]
            todo.append(((r + e) % ox,
                         rem + [Fraction(0)] * (field.degree - len(rem))))
    return [len(basis) for basis, _pivots in blocks]

# --- records as frozen dataclasses ---------------------------------------------

def _numerical_derived(self):
    """e, N, ell_total, c_conductor and Delta of NumericalData: the gcd
    tower of M_sigma, its quotients, the product of the ell, the conductor
    sum (N_i - 1) M_i - M_0 + 1 and the conductor plus (ell - 1) M_rho."""
    e = [self.M_sigma[0]]
    for M in self.M_sigma[1:]:
        e.append(gcd(e[-1], M))
    N = tuple(a // b for a, b in zip(e, e[1:]))
    c = (sum((n - 1) * M for n, M in zip(N, self.M_sigma[1:]))
         - self.M_sigma[0] + 1)
    derived = {"e": tuple(e), "N": N,
               "ell_total": prod(ell for _M, ell in self.splitting),
               "c_conductor": c,
               "Delta": c + sum((ell - 1) * M for M, ell in self.splitting)}
    for name, value in derived.items():
        object.__setattr__(self, name, value)


def _subfield_derived(self):
    """pivots of Subfield: the column of each row's first nonzero entry."""
    object.__setattr__(self, "pivots", tuple(
        min(i for i, x in enumerate(row) if x) for row in self.rows))


def _reference_record(name, fields, defaults=(), derived=(), post_init=None):
    spec = ([(f, object) for f in fields]
            + [(f, object, dataclasses.field(default=v)) for f, v in defaults]
            + [(f, object, dataclasses.field(init=False)) for f in derived])
    namespace = {"__post_init__": post_init} if post_init else {}
    return dataclasses.make_dataclass(name, spec, frozen=True,
                                      namespace=namespace)


# The fields of each record class, in order, with the defaults of the
# constructor's trailing arguments and the fields it does not accept.
REFERENCE_RECORDS = {cls.__name__: cls for cls in (
    _reference_record("InputDoc", ["min_poly", "x_order", "y_terms",
                                   "mode"],
                      [("extra_steps", 0), ("splitting_prefix", ()),
                       ("truncate", None)]),
    _reference_record("Analysis", ["doc", "graph", "recs", "nd", "series"]),
    _reference_record("FiltrationReport", ["dims"]),
    _reference_record("NumericalData", ["m_sigma", "M_sigma", "M_tau",
                                        "splitting"],
                      [("M_delta", None), ("partial", False)],
                      ["e", "N", "ell_total", "c_conductor", "Delta"],
                      _numerical_derived),
    _reference_record("SeriesProduct", ["factors"], [("partial", False)]),
    _reference_record("InfNearRecord", ["center", "field_after",
                                        "host_components"],
                      [("chart", None)]),
    _reference_record("Vertex", ["id", "tags", "self_int", "field_dim"]),
    _reference_record("BranchParam", ["ambient", "x_order", "y_terms"],
                      [("x_coeff", None)]),
    _reference_record("QuotientGraph", ["vertices", "edges", "geodesic",
                                        "n_case3", "splittings", "terminal",
                                        "branch"]),
    _reference_record("GenericCurvette", ["x", "y"]),
    _reference_record("Subfield", ["field", "rows"], derived=["pivots"],
                      post_init=_subfield_derived),
)}


# --- the command line through argparse -------------------------------------------

def build_arg_parser():
    """The four commands as argparse subparsers; parse_args returns a
    namespace with command, path, truncate or max_order, and dot or
    as_json, or raises SystemExit."""
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Exact invariants and series of plane branch "
                    "singularities over number fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="human-readable report")
    analyze.add_argument("path")
    analyze.add_argument("--truncate", type=int, default=None,
                         help="expansion length (default: Delta + 10 for "
                              "complete formulas, else 40)")
    verify = sub.add_parser("verify", help="differential oracle check")
    verify.add_argument("path")
    verify.add_argument("--max-order", type=int, default=30,
                        dest="max_order")
    graph = sub.add_parser("graph", help="quotient graph as DOT")
    graph.add_argument("path")
    graph.add_argument("--dot", action="store_true", required=True)
    report = sub.add_parser("report", help="JSON report, stable key order")
    report.add_argument("path")
    report.add_argument("--json", action="store_true", required=True,
                        dest="as_json")
    report.add_argument("--truncate", type=int, default=None)
    return parser
