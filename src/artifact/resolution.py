"""Resolution of parametrized plane branches by iterated point blow-ups.

A branch is given by an exact parametrization x = x_coeff * tau^m,
y = sum of c_e * tau^e over a declared number field. The resolver replays the
blow-up process on exact rational-function states, tracking for every
infinitely near point its chart, its coordinate on the new exceptional
component, the subfield generated by all coordinates seen so far, and the
components through which the strict transform passes. The process deliberately
continues past the point where the curve itself is resolved: it stops only
once no future center can enlarge the coordinate subfield, so the quotient
graph it emits already accounts for conjugate branches without materializing
them.

Coordinates that do not lie in the ambient field are admitted through a
single GENERIC marker; the resolver then works over rational functions in a
transcendental parameter and truncates the run at the first parameter-
dependent center, which is the divisorial reduction of such a family.
"""

from fractions import Fraction
from math import gcd

from . import linalg
from .errors import (
    ArtifactError,
    NotIrreducibleParam,
    ResolutionStuck,
)
from .exactfield import Subfield, rel_degree, span_close
from .ratfunc import FractionField, Poly, PolyRing, RatFunc
from .record import Record


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


GENERIC = _Sentinel("GENERIC")
AT_INFINITY = _Sentinel("AT_INFINITY")


class BranchParam(Record):
    """Parametrization x = x_coeff * tau^m, y = sum of coeff * tau^exp.

    y coefficients live in the ambient field or are the GENERIC marker
    (at most one). x_coeff is an exact scalar, 1 for ordinary input; it
    exists so that blow-downs of constant sections can be returned exactly,
    and x_coeff = 0 encodes carriers inside the y-axis such as (0, tau).
    """

    __slots__ = ("ambient", "x_order", "y_terms", "x_coeff")

    def __init__(self, ambient, x_order, y_terms, x_coeff=None):
        if x_order < 1:
            raise ValueError("x order must be positive")
        terms = []
        for exp, coeff in y_terms:
            if exp < 1:
                raise ValueError("y exponents must be positive")
            if coeff is GENERIC:
                terms.append((exp, GENERIC))
                continue
            if isinstance(coeff, (int, Fraction)):
                coeff = ambient.from_fraction(coeff)
            if coeff.field is not ambient and coeff.field != ambient:
                raise ValueError("y coefficient outside the ambient field")
            if coeff:
                terms.append((exp, coeff))
        terms.sort(key=lambda t: t[0])
        for a, b in zip(terms, terms[1:]):
            if a[0] == b[0]:
                raise ValueError("duplicate y exponent %d" % a[0])
        if sum(1 for _, c in terms if c is GENERIC) > 1:
            raise ValueError("at most one generic coefficient is supported")
        if x_coeff is None:
            x_coeff = ambient.one()
        elif isinstance(x_coeff, (int, Fraction)):
            x_coeff = ambient.from_fraction(x_coeff)
        if not x_coeff and not terms:
            raise ValueError("parametrization is identically zero")
        self._assign(ambient, x_order, tuple(terms), x_coeff)

    @property
    def has_generic(self):
        return any(c is GENERIC for _, c in self.y_terms)


def normalize(p):
    """Reorder so that ord x <= ord y and check the exponent gcd.

    The role swap is performed only when y is a single monic term (then the
    swap is exact); other shapes would need root extractions outside the
    ambient field and are rejected.
    """
    if p.y_terms and (not p.x_coeff or p.y_terms[0][0] < p.x_order):
        exp, coeff = p.y_terms[0]
        if len(p.y_terms) != 1 or coeff is GENERIC or coeff != 1:
            raise ValueError(
                "cannot exactly swap coordinates: y must be a single monic "
                "term to take the x role")
        p = BranchParam(p.ambient, exp, [(p.x_order, p.x_coeff)])
    g = p.x_order
    for exp, _ in p.y_terms:
        g = gcd(g, exp)
    if g != 1:
        raise NotIrreducibleParam(
            "gcd of tau exponents is %d; the parametrization traverses the "
            "branch %d times" % (g, g))
    return p


# --- state coefficients: the ambient field, or rational functions in lam


def _constant(scalar):
    """The ambient-field value of a state coefficient, None when it depends
    on lam. A RatFunc is constant exactly when num * d0 = den * n0 for the
    constant terms n0, d0 (RatFunc cancelled the common power of lam); its
    value is then n0, since the form makes d0 one."""
    if not isinstance(scalar, RatFunc):
        return scalar
    n0 = scalar.num.coeff(0)
    same = scalar.num.scale(scalar.den.coeff(0)) == scalar.den.scale(n0)
    return n0 if same else None


def coordinates(p):
    """x = x_coeff*tau^m and y of the branch as given (normalize may swap
    them), as Polys over the coefficient ring of the states: the ambient
    field, or the rational functions in one transcendental parameter lam,
    which stands for the GENERIC coefficient."""
    ring = p.ambient
    if p.has_generic:
        ring = FractionField(PolyRing(ring, "lam"))

    def lift(coeff):
        if coeff is GENERIC:
            return ring.gen()
        return coeff if ring is p.ambient else ring.from_scalar(coeff)

    low = p.y_terms[0][0] if p.y_terms else 0
    tail = [ring.zero()] * (p.y_terms[-1][0] + 1 - low if p.y_terms else 0)
    for exp, coeff in p.y_terms:
        tail[exp - low] = lift(coeff)
    return (Poly.monomial(ring, lift(p.x_coeff), p.x_order),
            Poly(ring, tail, low))


def _chart_step(u, w, most=1):
    """Blow-ups chosen so the strict transform stays at finite distance:
    one, or a chart-A row of up to most of them.

    Returns (chart, c, u2, w2, steps): steps blow-ups were made, the last
    exceptional set is {u2 = 0}, c is the last landing coordinate (always
    0 in chart B) and w2 is already translated by c, so the new point is
    again the origin. When ord u < ord w, the next q = ceil(ord w / ord u)
    - 1 blow-ups are all chart A at center 0 and keep u; the row, cut at
    most, is the one division w / u^q. Coprime forms stay coprime (see
    _tail_ok).
    """
    if u.order() > w.order():
        chart, u2, w2, steps = "B", w, u / w, 1
    else:
        steps = max(1, min(most, -(-w.order() // u.order()) - 1)) if w else 1
        chart, u2, w2 = "A", u, w / u ** steps
    c = w2.value0()
    if c:
        w2 = w2 - c
    return chart, c, u2, w2, steps


def _tail_ok(u, w, sub):
    """True when no future center can leave sub.

    w == 0 is immediate (every later center is 0). Otherwise rescale tau so
    the lowest coefficient d of u becomes 1 (centers are invariant under
    this) and demand that every coefficient of the reduced fraction forms of
    u and w lies in sub: those coefficients generate the field of the whole
    remaining expansion.

    The rescale multiplies the coefficient of tau^e by d^-e. When d is a
    constant in sub (d = 1 among them), that keeps every membership, since
    sub is a field and d^-e a nonzero element of it, and keeps every
    constant a constant; so the rescale is skipped. Only a d outside sub,
    or one that depends on lam, is worth rescaling by. d^-1 is the lowest
    numerator coefficient of u's reciprocal, since the form makes u's
    denominator start at one; RatFunc keeps that reciprocal, and the
    chart-A division w / u that follows, where the run goes on, reads it
    again, so the inverse of d is formed once per u. One pass walks the nonzero
    coefficients of the four forms, each rescaled by a power from one
    table shared by the four and extended as the exponents need, and
    returns at the first one outside sub.

    RatFunc's forms are reduced here without a gcd. With u = A/B and
    w = C/D, gcd(A, B) = gcd(C, D) = gcd(A, C) = gcd(B, D) = 1 up to powers
    of tau, which RatFunc cancels: at the start A = a*tau^m, B = D = 1.
    Chart A gives (A/B, (CB - cDA)/(DA)): a prime dividing DA and CB - cDA
    divides CB, so it divides one of the coprime pairs. Chart B gives
    (C/D, AD/(BC)), c = 0, and the same pairs rule out a common prime
    (the Hamburger-Noether process; Casas-Alvero, Singularities of Plane
    Curves, 2000).
    """
    if not w:
        return True
    d = u.num.low_coeff()
    k = _constant(d)
    powers = None if k is not None and sub.contains_num(k) \
        else [u.num.ring.one(), u._reciprocal().num.low_coeff()]  # d^-e
    for poly in (u.num, u.den, w.num, w.den):
        for e, c in enumerate(poly.tail, poly.shift):
            if c:
                if powers is not None and e:
                    while len(powers) <= e:
                        powers.append(powers[-1] * powers[1])
                    c = c * powers[e]
                k = _constant(c)
                if k is None or not sub.contains_num(k):
                    return False
    return True


class InfNearRecord(Record):
    """One blown-up infinitely near point of the branch.

    chart and center describe the blow-up that CREATED this point's
    component: the standard chart the strict transform landed in and its
    coordinate there (AT_INFINITY in chart B; both None for the seed point).
    field_after is the coordinate subfield once the point is reached, and
    host_components lists the components the point lies on; they give
    multiplicities by proximity (curvette_mults), so none is stored.
    """

    __slots__ = ("center", "field_after", "host_components", "chart")

    def __init__(self, center, field_after, host_components, chart=None):
        # center: AlgNum | AT_INFINITY | None (seed point);
        # chart: "A" | "B" | None
        self._assign(center, field_after, host_components, chart)


class QuotientGraph(Record):
    """Quotient dual graph of the run: a tree of exceptional components.

    Component k is vertex k, created by the k-th record, and its subfield
    is that record's field_after. self_ints lists the self-intersections;
    dead_ends lists sigma_0..sigma_g (vertex 0, then the far end of each
    side chain in geodesic order) and ruptures tau_1..tau_g (the geodesic
    vertex each side chain leaves). splittings lists (vertex, field
    degree) in creation order. For a run stopped at a parameter-dependent
    center, case is "III" and n_case3 is the contact order of the family
    with the last component (else case is "I" and n_case3 None).
    terminal is the InfNearRecord of the first point not blown up and
    branch the normalized parametrization. All of it is read off the
    records once the run ends (_graph_of).
    """

    __slots__ = ("self_ints", "edges", "geodesic", "dead_ends", "ruptures",
                 "n_case3", "splittings", "terminal", "branch")

    def __init__(self, self_ints, edges, geodesic, dead_ends, ruptures,
                 n_case3, splittings, terminal, branch):
        self._assign(tuple(self_ints),
                     frozenset(tuple(sorted(e)) for e in edges),
                     tuple(geodesic), tuple(dead_ends), tuple(ruptures),
                     n_case3, tuple(splittings), terminal, branch)

    @property
    def case(self):
        return "I" if self.n_case3 is None else "III"

    @property
    def ambient(self):
        return self.branch.ambient

    def delta(self):
        return len(self.self_ints) - 1


def _default_cap(p, extra_steps):
    top = p.y_terms[-1][0] if p.y_terms else p.x_order
    return 50 + 10 * (p.x_order + top + p.ambient.degree) + extra_steps


def _graph_of(records, n_case3, terminal, branch):
    """The quotient graph, its shape read off the records.

    Point k creates component k with self-intersection -1; each component
    hosting point k loses one more and gains an edge to k, and a point on
    two components separates them. So the graph is a tree: each new
    component attaches to its hosts, and a satellite point replaces the
    edge between its two hosts. The geodesic from 0 to n - 1 is the one
    path between them, and no neighbour order is needed to find it. The
    dead ends are vertex 0 and the far ends of the side chains, and the
    ruptures the geodesic vertices the chains leave, both in geodesic
    order. A splitting (k - 1, ell) sits where point k is the first with a
    larger subfield, of degree ell over the subfield of point k - 1.
    """
    n = len(records)
    selfints = [-1] * n
    adj = [[] for _ in range(n)]
    splittings = []
    for k, rec in enumerate(records):
        hosts = rec.host_components
        for h in hosts:
            selfints[h] -= 1
            adj[h].append(k)
            adj[k].append(h)
        if len(hosts) == 2:
            a, b = hosts
            adj[a].remove(b)
            adj[b].remove(a)
        before = records[k - 1].field_after if k else rec.field_after
        if rec.field_after is not before:
            splittings.append((k - 1, rel_degree(before, rec.field_after)))
    geodesic, chains = _geodesic_and_chains(adj)
    edges = [(a, b) for a, nbs in enumerate(adj) for b in nbs if a < b]
    return QuotientGraph(selfints, edges, geodesic,
                         [0] + [leaf for _gv, leaf in chains],
                         [gv for gv, _leaf in chains], n_case3, splittings,
                         terminal, branch)


def _geodesic_and_chains(adj):
    """The geodesic from vertex 0 to the last vertex of the tree given by
    its adjacency lists, and the side chains in geodesic order, each as
    (the geodesic vertex it leaves, its far end).

    A walk from 0 sets parent links, breadth first, so that on an input
    with a cycle the geodesic is a shortest path and a cycle it reaches
    stops a side walk.
    """
    last = len(adj) - 1
    parent = [None] * len(adj)
    parent[0] = 0
    order = [0]
    for cur in order:   # also visits the vertices appended on the way
        for nb in adj[cur]:
            if parent[nb] is None:
                parent[nb] = cur
                order.append(nb)
    if parent[last] is None:
        raise ArtifactError("vertex %d is not connected to vertex 0" % last)
    geodesic = [last]
    while geodesic[-1]:
        geodesic.append(parent[geodesic[-1]])
    geodesic.reverse()
    on_path = set(geodesic)
    # every vertex a walk has entered; in a tree no walk enters one twice
    # or comes back to the geodesic
    seen = set(geodesic)
    chains = []
    for gv in geodesic:
        for nb in adj[gv]:
            if nb in on_path:
                continue
            if chains and chains[-1][0] == gv:
                raise ArtifactError("several dead-end chains at one vertex")
            prev, cur = gv, nb
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if cur in seen or len(nxt) > 1:
                    raise ArtifactError("side branch at vertex %d is not a "
                                        "chain" % gv)
                seen.add(cur)
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
            chains.append((gv, cur))
    return geodesic, chains


def resolve(p, extra_steps=0):
    """Run the blow-up process to its field-aware end.

    Returns (QuotientGraph, records). Records list exactly the blown-up
    points and are all the run keeps; the graph's shape is read off them
    (_graph_of), and graph.terminal is the InfNearRecord of the final,
    never-blown point. No multiplicity is measured (see curvette_mults). A
    splitting index j is attached to the component hosting the first center
    outside the current subfield, and the subfield tower is extended there.
    extra_steps > 0 prolongs the run by that many further blow-ups at the
    strict transform's intersection point (divisorial targets past the last
    needed component). A chart-A row at center 0 is one _chart_step when
    no point inside it can stop the run (ord u >= 2, or satellite points),
    and its inner points are recorded as the one-step run records them.

    Once _tail_ok holds at a point it is not asked again, since every later
    point would answer true. There ord u = 1 and the translated w has order
    >= 1, so the step is chart A: it keeps u, hence d, and w / u - c has
    order >= 1 again, so every later step is chart A as well. Rescaling tau
    is a ring map that fixes constant terms, so the center c, the constant
    term of w / u, lies in sub, and sub never grows. With the notation of
    _tail_ok, the new forms are (CB - cDA, DA) times one scalar and a power
    of tau. Their denominator starts at tau^0 with coefficient one, before
    and after the rescale, so the scalar is the inverse of a coefficient of
    the rescaled DA, which lies in sub, and the rescaled forms stay in
    sub[tau]. A chart-A step from a free point lands on a free point, so
    every later point keeps the subfield, one host and ord u = 1, and its
    stop test would answer true; a local flag stands in for the call. The
    saving shows where the run goes past the stop (divisorial
    extra_steps >= 1).

    With a GENERIC coefficient the run stops at the first parameter-dependent
    center: graph.case == "III", graph.n_case3 is the contact order of the
    family with the final component, the terminal's center is GENERIC,
    and no terminal translation exists. Such a run ignores extra_steps:
    they are spent only once the stop test holds, which it never does
    before that center, and past it no single component exists.
    """
    p = normalize(p)
    max_steps = _default_cap(p, extra_steps)
    u, w = map(RatFunc.of, coordinates(p))
    sub = Subfield.rationals(p.ambient)

    records = []
    labels = (None, None)
    pending = InfNearRecord(None, sub, ())
    extra_left = extra_steps
    case3_n = None
    settled = False   # _tail_ok held at an earlier point

    while len(records) < max_steps:
        i = len(records)
        # stop only at a point that did not just enlarge the subfield
        if i >= 1 and pending.field_after is records[-1].field_after \
                and len(pending.host_components) == 1 \
                and u.order() == 1 and (settled or _tail_ok(u, w, sub)):
            settled = True
            if extra_left == 0:
                terminal = pending
                break
            extra_left -= 1
        records.append(pending)
        # a chart-A row is one step while no point inside it can stop the
        # run: it has ord u >= 2, or its points are satellites
        most = 1 if u.order() == 1 and labels[1] is None else max_steps - i
        chart, c_scal, u, w, steps = _chart_step(u, w, most)
        center = _constant(c_scal)
        for j in range(i, i + steps - 1):   # the points inside a row
            hosts = (j,) if labels[1] is None else (j, labels[1])
            records.append(InfNearRecord(center, sub, hosts, "A"))
        i += steps - 1
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
    return _graph_of(records, case3_n, terminal, p), records


# --- curvettes: blow-downs of constant sections


def _shift(point):
    """Translation applied where a blow-up lands: the center in chart A,
    None (no translation) in chart B and at the seed point."""
    return point.center if point.chart == "A" else None


def _landing_info(graph, recs, sigma):
    """(chart, shift or None) of the point where the branch lands on
    component sigma: record sigma+1, or past the last record graph.terminal,
    the InfNearRecord of the never-blown point. shift is the point's center
    in chart A; None means the raw chart is used (chart B, or a landing
    outside K_sigma)."""
    point = recs[sigma + 1] if sigma + 1 < len(recs) else graph.terminal
    shift = _shift(point)
    if shift is GENERIC or (shift is not None and
                            not recs[sigma].field_after.contains_num(shift)):
        shift = None
    return point.chart, shift


class GenericCurvette(Record):
    """Transversal section at a component with an indeterminate constant.

    x and y are polynomials in tau whose coefficients are polynomials in
    the constant c over ambient; substituting any concrete admissible
    value specializes it. The component is the one its caller asked
    generic_curvette for.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self._assign(x, y)

    @property
    def ambient(self):
        return self.x.ring.ring


def generic_curvette(graph, recs, sigma=None, bound=None):
    """Curvette at sigma (default: the last component) with the constant kept
    as an indeterminate, for exact divisorial value computations.

    The section (u, w) = (tau, c) in the coordinate of _landing_info is
    blown down from sigma's own blow-up to the first: w is translated back
    by the center, then (u, w) -> (u, u*w) in chart A, (u*w, u) in chart B.

    With a bound, x and y are the curvette's coordinates cut past
    tau^bound, which is all the filtration dimensions of levels 0..bound
    read; the value of one polynomial needs the whole curvette (no
    bound). Each product is cut at the precision the rest of the chain
    reads, in two passes over the steps:
    - forward, lower bounds (ou, ow) on the orders of u and of the
      translated w before each step: (1, 0) at the start, ow = 0 after a
      nonzero translation, ow = ou + ow after chart A, and (ou + ow, ou)
      after chart B;
    - backward from (Nu, Nw) = (bound + 1, bound + 1), the powers of tau
      below which u and w are needed after each step: chart A forms w
      mod tau^Nw and needs (max(Nu, Nw - ow), Nw - ou) before it; chart B
      forms u mod tau^Nu and needs (max(Nu - ow, Nw), Nu - ou).
    This is exact: ab - a'b' = (a - a')b + a'(b - b') for a' = a mod
    tau^Na and b' = b mod tau^Nb, so the product mod tau^N depends only on
    each factor mod tau^(N - the other factor's order). Lower bounds only
    raise the precision kept, so that holds over zero divisors too. The
    needs are bound + 1 after the last step and never above it, so x and
    y are exactly the whole curvette's coordinates cut past tau^bound."""
    if sigma is None:
        sigma = graph.delta()
    ambient = graph.ambient
    cring = PolyRing(ambient, "c")
    chart, shift = _landing_info(graph, recs, sigma)
    steps = [(chart, shift)] + [(recs[k].chart, _shift(recs[k]))
                                for k in range(sigma, 0, -1)]
    cuts = [bound] * len(steps)   # step k's product is cut past cuts[k]
    if bound is not None:
        orders, ou, ow = [], 1, 0
        for chart, shift in steps:
            ow = 0 if shift else ow
            orders.append((ou, ow))
            ou, ow = (ou, ou + ow) if chart == "A" else (ou + ow, ou)
        nu = nw = bound + 1
        for k in range(len(steps) - 1, -1, -1):
            ou, ow = orders[k]
            if steps[k][0] == "A":
                cuts[k], nu, nw = nw - 1, max(nu, nw - ow), nw - ou
            else:
                cuts[k], nu, nw = nu - 1, max(nu - ow, nw), nu - ou
    # u = tau cut past tau^bound; w = c needs no cut: bound >= 0
    u = Poly.monomial(cring, cring.one() if bound != 0 else cring.zero(), 1)
    w = Poly(cring, [cring.gen()])
    for (chart, shift), cut in zip(steps, cuts):
        if shift:
            w = w + Poly(cring, [Poly(ambient, [shift])])
        if chart == "A":
            w = u.mul_upto(w, cut)
        else:
            u, w = u.mul_upto(w, cut), u
    return GenericCurvette(u, w)


# --- value maps and intersection matrices from the recorded graph


def curvette_mults(recs, w):
    """Multiplicities of a curvette at component w at the points 0..w.

    The curvette is smooth at point w and meets its component at a general
    point; below that, the proximity equalities give each point's
    multiplicity as the sum over the points proximate to it, the later
    points lying on the component it creates (Casas-Alvero, Singularities
    of Plane Curves, 2000).
    """
    x = [0] * (w + 1)
    x[w] = 1
    for j in range(w, 0, -1):
        for h in recs[j].host_components:
            x[h] += x[j]
    return x


def proximity_sums(recs, weights):
    """s[v] = weights[v] + the sum of s[h] over the components h hosting
    point v, for every point v, in one pass over the records.

    Since curvette_mults(recs, v) is the unit vector at v plus the sum of
    curvette_mults(recs, h) over those hosts, s[v] is the sum of
    curvette_mults(recs, v)[i] * weights[i] over the points i = 0..v.
    """
    s = []
    for v, rec in enumerate(recs):
        s.append(weights[v] + sum(s[h] for h in rec.host_components))
    return s


def m_values(graph, recs):
    """Value of the last component's valuation on a curvette at each
    component: Noether's sum of multiplicity products over the shared
    points 0..w of curvettes at w and at the last component. With the
    last component's multiplicities as weights, that is the proximity
    sum m[w] = last[w] + sum of m[h] over the components h hosting w.

    A fully resolved branch has the multiplicities of a curvette at the
    last component, so the same numbers are its own values in curve mode.
    They also form the last column of minus the inverse intersection
    matrix. Returns a tuple: m[k] is the value at vertex k.
    """
    return tuple(proximity_sums(recs, curvette_mults(recs, graph.delta())))


def minus_inverse(mat):
    """Negated exact inverse of the intersection matrix; its delta column
    equals m_values, by Gauss-Jordan elimination instead of proximity.

    Only the tests call it. It stays because the benchmark's tracer
    (bench/spans.py) looks it up by name, until the benchmark is revised."""
    inv = linalg.invert(mat)
    return [[-x for x in row] for row in inv]
