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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import (
    ArtifactError,
    GenericCenter,
    NotIrreducibleParam,
    ResolutionStuck,
)
from .exactfield import Subfield, rel_degree, span_close
from .ratfunc import FractionField, Poly, PolyRing, RatFunc


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


GENERIC = _Sentinel("GENERIC")
AT_INFINITY = _Sentinel("AT_INFINITY")


class BranchParam:
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
            if coeff.field != ambient:
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
        self.ambient = ambient
        self.x_order = x_order
        self.y_terms = tuple(terms)
        self.x_coeff = x_coeff

    @property
    def has_generic(self):
        return any(c is GENERIC for _, c in self.y_terms)

    def __eq__(self, other):
        return (isinstance(other, BranchParam) and self.ambient == other.ambient
                and self.x_order == other.x_order
                and self.y_terms == other.y_terms
                and self.x_coeff == other.x_coeff)

    def __repr__(self):
        return "BranchParam(x=%r*tau^%d, y=%r)" % (
            self.x_coeff, self.x_order, list(self.y_terms))


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


# --- scalar strategies: plain number field vs one transcendental parameter


class _PlainScalars:
    """States carry coefficients directly in the ambient field."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.ring = ambient

    def lift(self, coeff):
        if coeff is GENERIC:
            raise GenericCenter("generic coefficient in a concrete run")
        return coeff

    @staticmethod
    def is_generic(scalar):
        return False

    def as_algnum(self, scalar):
        return scalar

    def in_field(self, scalar, sub):
        return sub.contains_num(scalar)


class _OneParamScalars:
    """States carry rational functions in one transcendental parameter."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.ring = FractionField(PolyRing(ambient, "lam"))

    def lift(self, coeff):
        if coeff is GENERIC:
            return self.ring.gen()
        return self.ring.from_scalar(coeff)

    def is_generic(self, scalar):
        return scalar.num.degree() > 0 or scalar.den.degree() > 0

    def as_algnum(self, scalar):
        return scalar.num.coeff(0) / scalar.den.coeff(0)

    def in_field(self, scalar, sub):
        if self.is_generic(scalar):
            return False
        return sub.contains_num(self.as_algnum(scalar))


def _strategy_for(p):
    return _OneParamScalars(p.ambient) if p.has_generic else _PlainScalars(p.ambient)


def _initial_state(p, strat):
    ring = strat.ring
    u = RatFunc.of(Poly.monomial(ring, strat.lift(p.x_coeff), p.x_order))
    if p.y_terms:
        coeffs = [ring.zero()] * (p.y_terms[-1][0] + 1)
        for exp, coeff in p.y_terms:
            coeffs[exp] = strat.lift(coeff)
        w = RatFunc.of(Poly(ring, coeffs))
    else:
        w = RatFunc.of(Poly(ring, []))
    return u, w


def _chart_step(u, w, is_generic):
    """One blow-up, chosen so the strict transform stays at finite distance.

    Returns (chart, c, u2, w2): the new exceptional set is {u2 = 0}, c is
    the landing coordinate (always 0 in chart B) and w2 is already
    translated by c, so the new point is again the origin. A center for
    which is_generic(c) holds ends every run, so w2 is left untranslated
    there: that translation would be arithmetic in the parameter field
    whose result no caller reads.
    """
    if u.order() <= w.order():
        chart, u2, w2 = "A", u, w / u
    else:
        chart, u2, w2 = "B", w, u / w
    c = w2.value0()
    if c and not is_generic(c):
        w2 = w2 - c
    return chart, c, u2, w2


def _tail_ok(u, w, sub, strat):
    """True when no future center can leave sub.

    w == 0 is immediate (every later center is 0). Otherwise rescale tau so
    the lowest coefficient of u becomes 1 (centers are invariant under this)
    and demand that every coefficient of the canonical fraction forms of u
    and w lies in sub: those coefficients generate the field of the whole
    remaining expansion.
    """
    if not w:
        return True
    d = u.num.low_coeff() / u.den.low_coeff()
    inv = strat.ring.one() / d
    for poly in (u.num, u.den, w.num, w.den):
        for c in poly.scale_arg(inv).coeffs:
            if c and not strat.in_field(c, sub):
                return False
    return True


@dataclass(frozen=True)
class InfNearRecord:
    """One blown-up infinitely near point of the branch.

    chart and center describe the blow-up that CREATED this point's
    component: the standard chart the strict transform landed in and its
    coordinate there (AT_INFINITY in chart B; both None for the seed point).
    field_after is the coordinate subfield once the point is reached, and
    host_components lists the components the point lies on.
    """

    center: object          # AlgNum | AT_INFINITY | None (seed point)
    branch_mult: int
    field_after: Subfield
    host_components: tuple
    chart: object = None    # "A" | "B" | None


@dataclass(frozen=True)
class TerminalData:
    """Landing data of the first point that is not blown up: its chart, its
    center (GENERIC at a parameter-dependent stop) and the branch's
    multiplicity there (None at a generic stop)."""

    chart: object
    mult: object            # int | None (generic stop)
    center: object


@dataclass(frozen=True)
class Vertex:
    id: int
    tags: frozenset
    self_int: int
    field_dim: int


class QuotientGraph:
    """Quotient dual graph of the run: a tree of exceptional components.

    Vertex tags are sets of tuples: ("INITIAL",), ("DEAD_END", i),
    ("RUPTURE", i), ("SPLITTING", j), ("DELTA",), ("PLAIN",); several tags can
    sit on one vertex. splittings lists (vertex id, field degree) in creation
    order. For a run stopped at a parameter-dependent center, case is "III"
    and n_case3 is the contact order of the family with the last component.
    terminal is the landing data of the first point not blown up, branch the
    normalized parametrization and ambient its field. The subfield of
    component k is the field_after of the k-th record.
    """

    def __init__(self, vertices, edges, geodesic, case, n_case3, splittings,
                 terminal, branch, ambient):
        self.vertices = tuple(vertices)
        self.edges = frozenset(tuple(sorted(e)) for e in edges)
        self.geodesic = tuple(geodesic)
        self.case = case
        self.n_case3 = n_case3
        self.splittings = tuple(splittings)
        self.terminal = terminal
        self.branch = branch
        self.ambient = ambient

    def delta(self):
        return len(self.vertices) - 1

    def dead_end_leaves(self):
        """Vertex ids sigma_0..sigma_g ordered by dead-end index."""
        found = {}
        for v in self.vertices:
            for tag in v.tags:
                if tag[0] == "DEAD_END":
                    found[tag[1]] = v.id
        return [found[i] for i in sorted(found)]

    def ruptures(self):
        """Vertex ids tau_1..tau_g ordered by rupture index."""
        found = {}
        for v in self.vertices:
            for tag in v.tags:
                if tag[0] == "RUPTURE":
                    found[tag[1]] = v.id
        return [found[i] for i in sorted(found)]

    def __repr__(self):
        return "QuotientGraph(%d vertices, case %s)" % (
            len(self.vertices), self.case)


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
    chains = []
    for gv in geodesic:
        for nb in adj[gv]:
            if nb in geo_set:
                continue
            walk = []
            prev, cur = gv, nb
            while True:
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


def _default_cap(p, extra_steps):
    top = p.y_terms[-1][0] if p.y_terms else p.x_order
    return 50 + 10 * (p.x_order + top + p.ambient.degree) + extra_steps


def resolve(p, extra_steps=0):
    """Run the blow-up process to its field-aware end.

    Returns (QuotientGraph, records). Records list exactly the blown-up
    points; the landing data of the final, never-blown point sits on
    graph.terminal. A splitting index j is attached to the component hosting
    the first center outside the current subfield, and the subfield tower is
    extended there. extra_steps > 0 prolongs the run by that many further
    blow-ups at the strict transform's intersection point (divisorial
    targets past the last needed component).

    With a GENERIC coefficient the run stops at the first parameter-dependent
    center: graph.case == "III", graph.n_case3 is the contact order of the
    family with the final component, and no terminal translation exists.
    """
    p = normalize(p)
    strat = _strategy_for(p)
    max_steps = _default_cap(p, extra_steps)
    u, w = _initial_state(p, strat)
    ambient = p.ambient
    sub = Subfield.rationals(ambient)

    records = []
    selfints = []
    edges = set()
    splittings = []
    labels = (None, None)
    mult0 = min(u.order(), w.order())
    pending = InfNearRecord(center=None, branch_mult=int(mult0),
                            field_after=sub, host_components=())
    jumped = False
    extra_left = extra_steps
    case3_n = None
    terminal = None

    for _ in range(max_steps):
        i = len(records)
        if i >= 1 and not jumped and len(pending.host_components) == 1 \
                and u.order() == 1 and _tail_ok(u, w, sub, strat):
            if extra_left == 0:
                terminal = TerminalData(chart=pending.chart,
                                        mult=pending.branch_mult,
                                        center=pending.center)
                break
            extra_left -= 1
        records.append(pending)
        new_id = i
        selfints.append(-1)
        hosts = pending.host_components
        for h in hosts:
            selfints[h] -= 1
            edges.add(tuple(sorted((h, new_id))))
        if len(hosts) == 2:
            edges.discard(tuple(sorted(hosts)))
        chart, c_scal, u, w = _chart_step(u, w, strat.is_generic)
        if strat.is_generic(c_scal):
            case3_n = int(u.order())
            terminal = TerminalData(chart=chart, mult=None, center=GENERIC)
            break
        jumped = False
        if chart == "A":
            center = strat.as_algnum(c_scal)
            if not strat.in_field(c_scal, sub):
                grown = span_close([center], sub)
                splittings.append((new_id, rel_degree(sub, grown)))
                sub = grown
                jumped = True
            second = labels[1] if not center else None
        else:
            center = AT_INFINITY
            second = labels[0]
        labels = (new_id, second)
        hosts_next = (new_id,) if second is None else (new_id, second)
        mult = min(u.order(), w.order())
        pending = InfNearRecord(center=center, branch_mult=int(mult),
                                field_after=sub, host_components=hosts_next,
                                chart=chart)
    else:
        raise ResolutionStuck(
            "no stable point within %d blow-ups" % max_steps)

    n = len(selfints)
    tags, geodesic = _assign_tags(n, edges, splittings)
    vertices = [Vertex(id=k, tags=frozenset(tags[k]), self_int=selfints[k],
                       field_dim=records[k].field_after.dim)
                for k in range(n)]
    case = "III" if case3_n is not None else "I"
    graph = QuotientGraph(vertices, edges, geodesic, case, case3_n,
                          splittings, terminal, p, ambient)
    return graph, records


# --- curvettes: blow-downs of constant sections


def _shift(point):
    """Translation applied where a blow-up lands: the center in chart A,
    None (no translation) in chart B and at the seed point."""
    return point.center if point.chart == "A" else None


def _landing_info(graph, recs, sigma):
    """(chart, shift or None, center) of the point where the branch lands on
    component sigma: record sigma+1, or the terminal past the last record.
    shift None means the raw chart is used (chart B, or a landing outside
    K_sigma)."""
    point = recs[sigma + 1] if sigma + 1 < len(recs) else graph.terminal
    shift = _shift(point)
    if shift is GENERIC or (shift is not None and
                            not recs[sigma].field_after.contains_num(shift)):
        shift = None
    return point.chart, shift, point.center


class GenericCurvette:
    """Transversal section at a component with an indeterminate constant.

    x and y are polynomials in tau whose coefficients are polynomials in the
    constant; substituting any concrete admissible value specializes it.
    """

    __slots__ = ("x", "y", "ring", "ambient", "component")

    def __init__(self, x, y, ring, ambient, component):
        self.x = x
        self.y = y
        self.ring = ring
        self.ambient = ambient
        self.component = component


def generic_curvette(graph, recs, sigma=None, bound=None):
    """Curvette at sigma (default: the last component) with the constant kept
    as an indeterminate, for exact divisorial value computations.

    The section (u, w) = (tau, c) in the coordinate of _landing_info is
    blown down from sigma's own blow-up to the first: w is translated back
    by the center, then (u, w) -> (u, u*w) in chart A, (u*w, u) in chart B.

    With a bound, x and y are the curvette's coordinates cut past
    tau^bound, which is all the filtration dimensions of levels 0..bound
    read; divisorial_value needs the whole curvette (no bound). Cutting is
    a ring map, so the coefficients up to tau^bound are exact."""
    if sigma is None:
        sigma = graph.delta()
    ambient = graph.ambient
    cring = PolyRing(ambient, "c")
    chart, shift, _center = _landing_info(graph, recs, sigma)
    steps = [(chart, shift)] + [(recs[k].chart, _shift(recs[k]))
                                for k in range(sigma, 0, -1)]
    u = Poly.monomial(cring, cring.one(), 1)
    w = Poly(cring, [cring.gen()])
    if bound is not None:   # w = c needs no cut: bound >= 0
        u = Poly(cring, u.coeffs[:bound + 1])

    def mul(p, q):
        return p * q if bound is None else p.mul_upto(q, bound)

    for chart, shift in steps:
        if shift:
            w = w + Poly(cring, [Poly(ambient, [shift])])
        if chart == "A":
            w = mul(u, w)
        else:
            u, w = mul(u, w), u
    return GenericCurvette(u, w, cring, ambient, sigma)


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


def m_values(graph, recs):
    """Value of the last component's valuation on a curvette at each
    component: Noether's sum of multiplicity products over the shared
    points 0..w of curvettes at w and at the last component.

    A fully resolved branch has the multiplicities of a curvette at the
    last component, so the same numbers are its own values in curve mode.
    They also form the last column of minus the inverse intersection
    matrix.
    """
    last = curvette_mults(recs, graph.delta())
    return {v.id: sum(a * b for a, b in zip(curvette_mults(recs, v.id), last))
            for v in graph.vertices}


def minus_inverse(mat):
    """Negated exact inverse of the intersection matrix; its delta column
    equals m_values, by Gauss-Jordan elimination instead of proximity.

    Only the tests call it. It stays because the benchmark's tracer
    (bench/spans.py) looks it up by name, until the benchmark is revised."""
    inv = linalg.invert(mat)
    return [[-x for x in row] for row in inv]
