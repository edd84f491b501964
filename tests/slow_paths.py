"""Reference routes that the tests compare the runtime against.

The CLI and the series pipeline run none of this. The runtime reads
multiplicities and values off the proximity relation of the blow-up records
(resolution.curvette_mults); these routes recompute them on exact states:
single blow-ups, joint replays of two branches, curvettes with a concrete
constant, the intersection matrix, conjugation and the proximity equalities.

Not named reference.py: pytest puts both tests/ and bench/ on sys.path, and
bench/reference.py would shadow it.
"""

from fractions import Fraction

from artifact.errors import ArtifactError, GenericCenter
from artifact.exactfield import AlgNum
from artifact.ratfunc import INFINITY, Poly, RatFunc
from artifact.resolution import (
    AT_INFINITY,
    GENERIC,
    BranchParam,
    _OneParamScalars,
    _PlainScalars,
    _chart_step,
    _initial_state,
    _landing_info,
    _shift,
    _strategy_for,
    generic_curvette,
)


class BadConstant(ArtifactError):
    """Curvette constant collides with a recorded point or leaves the field."""


class UnrepresentableCurvette(ArtifactError):
    """The blow-down exists but has no finite Puiseux form over the field."""


class NotARoot(ArtifactError):
    """Conjugation target does not satisfy the defining polynomial."""


def blow_up_once(p):
    """One blow-up of the origin: (center on the new component, AT_INFINITY
    in the second chart; translated strict transform; multiplicity at the
    blown point). Raises GenericCenter at a GENERIC-dependent center and
    UnrepresentableCurvette when the x part is not an exact monomial."""
    strat = _strategy_for(p)
    u, w = _initial_state(p, strat)
    mult = int(min(u.order(), w.order()))
    chart, c_scal, u2, w2 = _chart_step(u, w, strat.is_generic)
    if strat.is_generic(c_scal):
        raise GenericCenter("blown-up center carries the generic coefficient")
    center = strat.as_algnum(c_scal) if chart == "A" else AT_INFINITY
    return center, _state_to_param(u2, w2, p.ambient, strat), mult


def _state_to_param(u, w, ambient, strat):
    if u.den.degree() != 0 or w.den.degree() != 0:
        raise UnrepresentableCurvette(
            "strict transform is not polynomial in tau")
    lam = strat.ring.gen() if isinstance(strat, _OneParamScalars) else None

    def down(scalar):
        if strat.is_generic(scalar):
            if lam is not None and scalar == lam:
                return GENERIC
            raise UnrepresentableCurvette(
                "coefficient mixes the generic marker with field elements")
        return strat.as_algnum(scalar)

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
    _chart, shift, center = _landing_info(graph, recs, sigma)
    eff = c + shift if shift else c
    if shift is not None and isinstance(center, AlgNum) and eff == center:
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
        return RatFunc.of(Poly(graph.ambient, [coeff.evaluate(constant)
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
    return _state_to_param(x, y, ambient, _PlainScalars(ambient))


def _replay_step(u, w, chart, shift_scalar):
    """Transform a state through a recorded blow-up; returns the new state or
    None when the carrier does not pass through the recorded point: its own
    blow-up lands in the other chart, or (when a shift is given) at another
    point of the chart."""
    chart2, c, u2, w2 = _chart_step(u, w, _PlainScalars.is_generic)
    if chart2 != chart or (shift_scalar is not None and c != shift_scalar):
        return None
    return u2, w2


def _strict_mults_state(u, w, recs, strat):
    out = [int(min(u.order(), w.order()))]
    for rec in recs[1:]:
        shift = _shift(rec)
        if shift is not None:
            shift = strat.lift(shift)
        nxt = _replay_step(u, w, rec.chart, shift)
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
    strat = _PlainScalars(carrier.ambient)
    u, w = _initial_state(carrier, strat)
    return _strict_mults_state(u, w, reference, strat)


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
        chart, ca, ua, wa = _chart_step(ua, wa, _PlainScalars.is_generic)
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
    strat = _PlainScalars(a.ambient)
    ua, wa = _initial_state(a, strat)
    ub, wb = _initial_state(b, strat)
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
        return c.evaluate(root_image)

    return BranchParam(ambient, p.x_order,
                       [(e, mapped(c)) for e, c in p.y_terms],
                       x_coeff=mapped(p.x_coeff))


def proximity_check(recs, terminal):
    """Each point's multiplicity equals the sum of the multiplicities at the
    points lying on the component it creates (the final one contributed by
    the terminal landing)."""
    r = len(recs)
    for i in range(r):
        total = sum(rec.branch_mult for rec in recs[i + 1:]
                    if i in rec.host_components)
        if i == r - 1:
            total += terminal.mult
        if recs[i].branch_mult != total:
            return False
    return True
