"""Tests for the blow-up resolver, curvettes, and intersection data.

All expected graphs, records, and intersection numbers below were derived by
replaying the blow-up charts by hand on the exact states; the comments next
to each fixture say what the branch is, the asserts freeze the replay.
"""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import (
    ArtifactError,
    GenericCenter,
    NotIrreducibleParam,
    ResolutionStuck,
)
from artifact import cli, resolution
from artifact.exactfield import AlgNum, AmbientField, Subfield
from artifact.ratfunc import INFINITY, FractionField, Poly, PolyRing, RatFunc
from artifact.resolution import (
    AT_INFINITY,
    QuotientGraph,
    _geodesic_and_chains,
    _shift,
    _tail_ok,
    GENERIC,
    BranchParam,
    coordinates,
    generic_curvette,
    m_values,
    minus_inverse,
    normalize,
    resolve,
)

from test_chart_states import FIELDS, WORKLOADS, random_branch, run_to_end
from test_exit_codes import time_limit

from slow_paths import (
    BadConstant,
    NotARoot,
    UnrepresentableCurvette,
    blow_up_once,
    conjugate_param,
    curvette_param,
    intersect_noether,
    intersection_matrix,
    is_negative_definite,
    proximity_check,
    reference_graph_of,
    reference_kinds,
    reference_tail_ok,
    strict_mults,
)

Q = AmbientField([0, 1])
SQ2 = AmbientField([-2, 0, 1])


def biquadratic():
    """Field containing sqrt2 and sqrt3: minimal polynomial of their sum."""
    field = AmbientField([1, 0, -10, 0, 1])
    z = field.gen()
    s2 = (z * z * z - 9 * z) * field.from_fraction(Fraction(1, 2))
    s3 = z - s2
    assert s2 * s2 == 2 and s3 * s3 == 3
    return field, s2, s3


def cusp():
    return BranchParam(Q, 2, [(3, 1)])


def tag_sets(graph):
    """The roles the report names on each vertex, as tag tuples: a role
    NAME(i) is (NAME, i), and a role NAME is (NAME,)."""
    return [{tuple(int(x) if x.isdigit() else x
                   for x in role.rstrip(")").split("("))
             for role in kind.split(",")} for kind in cli._kinds(graph)]


# --- parametrization plumbing


def test_branch_param_validation():
    with pytest.raises(ValueError):
        BranchParam(Q, 0, [(1, 1)])
    with pytest.raises(ValueError):
        BranchParam(Q, 1, [(0, 1)])
    with pytest.raises(ValueError):
        BranchParam(Q, 1, [(2, 1), (2, 3)])
    with pytest.raises(ValueError):
        BranchParam(Q, 1, [(2, GENERIC), (3, GENERIC)])
    with pytest.raises(ValueError):
        BranchParam(Q, 1, [], x_coeff=0)
    with pytest.raises(ValueError):
        BranchParam(Q, 1, [(1, SQ2.gen())])
    dropped = BranchParam(Q, 2, [(3, 0)])
    assert dropped.y_terms == ()
    axis = BranchParam(Q, 1, [(1, 1)], x_coeff=0)
    assert not axis.x_coeff and axis.y_terms == ((1, Q.one()),)
    assert BranchParam(Q, 1, [(2, GENERIC)]).has_generic


def test_normalize_swaps_single_monic_y():
    assert normalize(BranchParam(Q, 3, [(2, 1)])) == cusp()
    swapped = normalize(BranchParam(Q, 3, [(2, 1)], x_coeff=5))
    assert swapped == BranchParam(Q, 2, [(3, 5)])
    assert normalize(BranchParam(Q, 1, [(1, 1)], x_coeff=0)) == \
        BranchParam(Q, 1, [])
    assert normalize(cusp()) == cusp()


def test_normalize_rejections():
    with pytest.raises(ValueError):
        normalize(BranchParam(Q, 3, [(2, 2)]))
    with pytest.raises(ValueError):
        normalize(BranchParam(Q, 3, [(2, 1), (4, 1)]))
    with pytest.raises(NotIrreducibleParam):
        normalize(BranchParam(Q, 2, [(4, 1)]))
    with pytest.raises(NotIrreducibleParam):
        normalize(BranchParam(Q, 2, []))


@pytest.mark.parametrize("p", [
    BranchParam(Q, 2, [(3, GENERIC)]),
    BranchParam(SQ2, 2, [(3, GENERIC), (4, SQ2.gen())], x_coeff=3)],
    ids=["cusp", "sq2_scaled_x"])
def test_resolve_starts_from_the_public_coordinates(monkeypatch, p):
    """The first state resolve blows up is RatFunc.of of coordinates(p),
    whose ring on a generic branch is the rational functions in lam."""
    states = []
    chart_step = resolution._chart_step

    def recording(u, w, most=1):
        states.append((u, w))
        return chart_step(u, w, most)

    monkeypatch.setattr(resolution, "_chart_step", recording)
    resolve(p)
    x, y = coordinates(p)
    assert x.ring == y.ring == FractionField(PolyRing(p.ambient, "lam"))
    assert states[0] == (RatFunc.of(x), RatFunc.of(y))


def test_series_order():
    t = Poly.monomial(Q, Q.one(), 1)
    assert (t * t * t * t + Poly.monomial(Q, Q.one(), 9)).order() == 4
    assert (t - t).order() == INFINITY
    z = SQ2.gen()
    s = Poly.monomial(SQ2, z, 1)
    tt = Poly.monomial(SQ2, SQ2.one(), 1)
    assert (s * s - 2 * (tt * tt)).order() == INFINITY
    assert (RatFunc.of(s) / RatFunc.of(tt * tt)).order() == -1


# --- single blow-ups


def test_blow_up_once_cusp():
    center, nxt, mult = blow_up_once(cusp())
    assert center == 0 and mult == 2
    assert nxt == BranchParam(Q, 2, [(1, 1)])


def test_blow_up_once_irrational_center():
    z = SQ2.gen()
    center, nxt, mult = blow_up_once(BranchParam(SQ2, 1, [(1, z)]))
    assert center == z and mult == 1
    assert nxt == BranchParam(SQ2, 1, [])
    center, nxt, mult = blow_up_once(BranchParam(SQ2, 2, [(2, z), (5, 1)]))
    assert center == z and mult == 2
    assert nxt == BranchParam(SQ2, 2, [(3, 1)])


def test_blow_up_once_second_chart():
    center, nxt, mult = blow_up_once(BranchParam(Q, 2, [(1, 1)]))
    assert center is AT_INFINITY and mult == 1
    assert nxt == BranchParam(Q, 1, [(1, 1)])


def test_blow_up_once_generic():
    with pytest.raises(GenericCenter):
        blow_up_once(BranchParam(Q, 1, [(1, GENERIC)]))
    center, nxt, mult = blow_up_once(BranchParam(Q, 2, [(3, GENERIC)]))
    assert center == 0 and mult == 2
    assert nxt == BranchParam(Q, 2, [(1, GENERIC)])


def test_blow_up_chain_keeps_exponent_gcd():
    p = cusp()
    for _ in range(3):
        exps = [p.x_order] + [e for e, _ in p.y_terms]
        g = 0
        for e in exps:
            g = gcd(g, e)
        assert g == 1
        _, p, _ = blow_up_once(p)


# --- full resolutions, frozen by hand replay


def test_resolve_smooth_line():
    graph, recs = resolve(BranchParam(Q, 1, []))
    assert graph.case == "I"
    assert len(graph.self_ints) == 1
    assert graph.self_ints[0] == -1
    assert graph.geodesic == (0,)
    assert tag_sets(graph) == [{("INITIAL",), ("DEAD_END", 0), ("DELTA",)}]
    assert len(recs) == 1
    assert recs[0].center is None and recs[0].host_components == ()
    assert strict_mults(graph.branch, recs) == [1]
    assert graph.terminal.chart == "A" and graph.terminal.center == 0
    assert proximity_check(graph, recs)


def test_resolve_cusp():
    graph, recs = resolve(cusp())
    assert graph.case == "I" and graph.splittings == ()
    assert list(graph.self_ints) == [-3, -2, -1]
    assert graph.edges == {(0, 2), (1, 2)}
    assert graph.geodesic == (0, 2)
    assert tag_sets(graph) == [
        {("INITIAL",), ("DEAD_END", 0)},
        {("DEAD_END", 1)},
        {("RUPTURE", 1), ("DELTA",)},
    ]
    assert [r.field_after.dim for r in recs] == [1, 1, 1]
    assert strict_mults(cusp(), recs) == [2, 1, 1]
    assert [r.host_components for r in recs] == [(), (0,), (1, 0)]
    assert recs[1].center == 0 and recs[2].center is AT_INFINITY
    assert [r.chart for r in recs] == [None, "A", "B"]
    # chart A translates by the center, chart B not at all
    assert [_shift(r) for r in recs] == [None, 0, None]
    assert graph.terminal.chart == "A" and _shift(graph.terminal) == 1
    assert graph.delta() == 2
    assert graph.dead_ends == (0, 1)
    assert graph.ruptures == (2,)
    assert proximity_check(graph, recs)


def test_resolve_sqrt2_line():
    z = SQ2.gen()
    graph, recs = resolve(BranchParam(SQ2, 1, [(1, z)]))
    assert len(graph.self_ints) == 2
    assert graph.splittings == ((0, 2),)
    assert [r.field_after.dim for r in recs] == [1, 2]
    assert list(graph.self_ints) == [-2, -1]
    assert graph.edges == {(0, 1)}
    assert graph.geodesic == (0, 1)
    assert tag_sets(graph) == [
        {("INITIAL",), ("DEAD_END", 0), ("SPLITTING", 1)},
        {("DELTA",)},
    ]
    assert recs[1].chart == "A" and recs[1].center == z
    assert recs[1].field_after.dim == 2
    assert graph.terminal.chart == "A" and graph.terminal.center == 0
    assert proximity_check(graph, recs)


def test_resolve_sqrt2_tangent_line():
    z = SQ2.gen()
    graph, recs = resolve(BranchParam(SQ2, 1, [(2, z)]))
    assert len(graph.self_ints) == 3
    assert graph.splittings == ((1, 2),)
    assert [r.field_after.dim for r in recs] == [1, 1, 2]
    assert list(graph.self_ints) == [-2, -2, -1]
    assert graph.edges == {(0, 1), (1, 2)}
    assert tag_sets(graph) == [
        {("INITIAL",), ("DEAD_END", 0)},
        {("SPLITTING", 1)},
        {("DELTA",)},
    ]
    assert recs[1].center == 0 and recs[2].center == z
    assert proximity_check(graph, recs)


def test_resolve_sqrt2_cusp_stays_rational():
    z = SQ2.gen()
    graph, recs = resolve(BranchParam(SQ2, 2, [(3, z)]))
    assert graph.splittings == ()
    assert [r.field_after.dim for r in recs] == [1, 1, 1]
    assert list(graph.self_ints) == [-3, -2, -1]
    assert graph.edges == {(0, 2), (1, 2)}
    assert strict_mults(graph.branch, recs) == [2, 1, 1]
    assert recs[1].center == 0 and recs[2].center is AT_INFINITY
    assert graph.terminal.center == Fraction(1, 2)
    assert proximity_check(graph, recs)


def test_resolve_cusp_with_sqrt2_tail():
    z = SQ2.gen()
    graph, recs = resolve(BranchParam(SQ2, 2, [(3, 1), (4, z)]))
    assert len(graph.self_ints) == 5
    assert list(graph.self_ints) == [-3, -2, -2, -2, -1]
    assert graph.edges == {(0, 2), (1, 2), (2, 3), (3, 4)}
    assert graph.geodesic == (0, 2, 3, 4)
    assert graph.splittings == ((3, 2),)
    assert [r.field_after.dim for r in recs] == [1, 1, 1, 1, 2]
    assert tag_sets(graph) == [
        {("INITIAL",), ("DEAD_END", 0)},
        {("DEAD_END", 1)},
        {("RUPTURE", 1)},
        {("SPLITTING", 1)},
        {("DELTA",)},
    ]
    assert strict_mults(graph.branch, recs) == [2, 1, 1, 1, 1]
    assert [r.chart for r in recs] == [None, "A", "B", "A", "A"]
    assert recs[3].center == 1 and recs[4].center == -2 * z
    assert recs[4].field_after.dim == 2
    assert graph.terminal.chart == "A" and graph.terminal.center == 10
    assert proximity_check(graph, recs)


def test_resolve_two_rupture_branch():
    graph, recs = resolve(BranchParam(Q, 4, [(6, 1), (7, 1)]))
    assert len(graph.self_ints) == 5
    assert list(graph.self_ints) == [-3, -2, -3, -2, -1]
    assert graph.edges == {(0, 2), (1, 2), (2, 4), (3, 4)}
    assert graph.geodesic == (0, 2, 4)
    assert tag_sets(graph) == [
        {("INITIAL",), ("DEAD_END", 0)},
        {("DEAD_END", 1)},
        {("RUPTURE", 1)},
        {("DEAD_END", 2)},
        {("RUPTURE", 2), ("DELTA",)},
    ]
    assert strict_mults(graph.branch, recs) == [4, 2, 2, 1, 1]
    assert graph.dead_ends == (0, 1, 3)
    assert graph.ruptures == (2, 4)
    assert graph.terminal.center == Fraction(1, 4)
    assert proximity_check(graph, recs)


def test_resolve_biquadratic_tower():
    field, s2, s3 = biquadratic()
    graph, recs = resolve(BranchParam(field, 1, [(1, s2), (2, s3)]))
    assert len(graph.self_ints) == 3
    assert graph.splittings == ((0, 2), (1, 2))
    assert [r.field_after.dim for r in recs] == [1, 2, 4]
    assert list(graph.self_ints) == [-2, -2, -1]
    assert graph.edges == {(0, 1), (1, 2)}
    assert tag_sets(graph) == [
        {("INITIAL",), ("DEAD_END", 0), ("SPLITTING", 1)},
        {("SPLITTING", 2)},
        {("DELTA",)},
    ]
    assert recs[1].center == s2 and recs[2].center == s3
    assert [r.chart for r in recs] == [None, "A", "A"]
    assert graph.terminal.center == 0
    assert proximity_check(graph, recs)


def test_resolve_extra_steps_extends_chain():
    graph, recs = resolve(cusp(), extra_steps=2)
    assert len(graph.self_ints) == 5
    assert list(graph.self_ints) == [-3, -2, -2, -2, -1]
    assert graph.edges == {(0, 2), (1, 2), (2, 3), (3, 4)}
    assert tag_sets(graph)[3] == {("PLAIN",)}
    assert tag_sets(graph)[4] == {("DELTA",)}
    assert strict_mults(cusp(), recs) == [2, 1, 1, 1, 1]
    assert graph.terminal.center == 0
    assert m_values(graph, recs) == (2, 3, 6, 7, 8)
    assert proximity_check(graph, recs)


def test_resolve_rejects_multiple_cover():
    with pytest.raises(NotIrreducibleParam):
        resolve(BranchParam(Q, 2, [(4, 1)]))


def test_resolve_step_cap(monkeypatch):
    monkeypatch.setattr("artifact.resolution._default_cap", lambda *a: 2)
    with pytest.raises(ResolutionStuck):
        resolve(cusp())


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def test_assign_tags_rejects_trees_of_no_branch():
    # a side branch that forks, then two dead-end chains at one vertex
    with pytest.raises(ArtifactError, match="not a chain"):
        _geodesic_and_chains(adjacency(
            6, {(0, 1), (1, 5), (1, 2), (2, 3), (2, 4)}))
    with pytest.raises(ArtifactError, match="several dead-end chains"):
        _geodesic_and_chains(adjacency(5, {(0, 1), (1, 4), (1, 2), (1, 3)}))


# Edge sets that are no tree: one cycle through every vertex, a cycle cut
# off from the last vertex, and two separate edges.
NOT_TREES = {
    "cycle": (4, {(0, 3), (3, 1), (1, 2), (2, 0)}),
    "cycle_apart": (5, {(0, 1), (1, 2), (2, 0), (3, 4)}),
    "disconnected": (4, {(0, 1), (2, 3)}),
}


@pytest.mark.parametrize("name", sorted(NOT_TREES))
def test_tags_and_geodesic_refuse_edge_sets_of_no_tree(name):
    """The walk ends in ArtifactError, not in a KeyError or an endless
    loop: the cycle through every vertex has a geodesic, 0-3, and its
    side walk comes back to vertex 0; the other two never reach the last
    vertex."""
    n, edges = NOT_TREES[name]
    with time_limit(5, sorted(edges)):
        if name == "cycle":
            with pytest.raises(ArtifactError,
                               match="side branch at vertex 0 is not a "
                                     "chain"):
                _geodesic_and_chains(adjacency(n, edges))
        else:
            with pytest.raises(ArtifactError,
                               match="vertex %d is not connected to vertex 0"
                                     % (n - 1)):
                _geodesic_and_chains(adjacency(n, edges))


def test_graph_equals_the_sorted_search_reference(monkeypatch):
    """On the records of every resolve call of the four workloads at seed
    1, and of 400 seeded random branches over six fields at extra_steps 0
    and 2, the graph read off in one walk over adjacency lists has every
    field equal to the one the breadth-first search over sorted
    neighbours gives, and the report's kind text of every vertex is the
    reference's tag set, sorted and joined. Graphs with two or more
    ruptures and case III graphs are among them."""
    runs = []

    def recorded(p, extra_steps=0):
        runs.append(resolve(p, extra_steps=extra_steps))
        return runs[-1]

    monkeypatch.setattr(cli, "resolve", recorded)
    for workload in sorted(WORKLOADS.GENERATORS):
        for item in WORKLOADS.generate(workload, 1):
            run_to_end(lambda: cli.build_analysis(
                cli.parse_input(item["doc"])))
    monkeypatch.undo()
    assert len(runs) >= 60
    rng = random.Random(20261021)
    for k in range(400):
        p = random_branch(rng, AmbientField(FIELDS[sorted(FIELDS)[k % 6]]))
        for extra in (0, 2):
            run_to_end(lambda: runs.append(resolve(p, extra_steps=extra)))
    for graph, recs in runs:
        want = reference_graph_of(recs, graph.n_case3, graph.terminal,
                                  graph.branch)
        for name in QuotientGraph.__slots__:
            assert getattr(graph, name) == getattr(want, name), (name, recs)
        assert cli._kinds(graph) == reference_kinds(recs), recs
    assert len(runs) >= 680
    assert sum(len(graph.ruptures) >= 2 for graph, _ in runs) >= 20
    assert sum(graph.case == "III" for graph, _ in runs) >= 100


# --- strict multiplicities and intersection numbers


def test_strict_mults_against_cusp():
    _, recs = resolve(cusp())
    assert strict_mults(cusp(), recs) == [2, 1, 1]
    assert strict_mults(BranchParam(Q, 1, []), recs) == [1, 1, 0]
    y_axis = BranchParam(Q, 1, [(1, 1)], x_coeff=0)
    assert strict_mults(y_axis, recs) == [1, 0, 0]
    assert strict_mults(BranchParam(Q, 1, [(1, 1)]), recs) == [1, 0, 0]


def test_intersect_noether_basics():
    assert intersect_noether(cusp(), BranchParam(Q, 1, [])) == 3
    y_axis = BranchParam(Q, 1, [(1, 1)], x_coeff=0)
    assert intersect_noether(cusp(), y_axis) == 2
    assert intersect_noether(BranchParam(Q, 1, [(2, 1)]),
                             BranchParam(Q, 1, [(2, -1)])) == 2
    assert intersect_noether(BranchParam(Q, 1, [(2, 1)]),
                             BranchParam(Q, 1, [(2, 1), (5, 1)])) == 5
    assert intersect_noether(cusp(), BranchParam(Q, 2, [(3, 1), (4, 1)])) == 7


def test_intersect_noether_same_branch():
    assert intersect_noether(cusp(), cusp()) is INFINITY
    # same curve traced with tau -> -tau
    assert intersect_noether(cusp(), BranchParam(Q, 2, [(3, -1)])) is INFINITY


def test_intersect_noether_rejections():
    with pytest.raises(ValueError):
        intersect_noether(cusp(), BranchParam(Q, 1, [(1, GENERIC)]))
    with pytest.raises(ValueError):
        intersect_noether(cusp(), BranchParam(SQ2, 2, [(3, 1)]))


# --- curvettes


def test_curvette_at_initial_component():
    graph, recs = resolve(BranchParam(Q, 1, []))
    assert curvette_param(graph, recs, 0, 1) == BranchParam(Q, 1, [(1, 1)])


def test_curvette_at_cusp_delta():
    graph, recs = resolve(cusp())
    cv = curvette_param(graph, recs, 2, 1)
    assert cv == BranchParam(Q, 2, [(3, 2)], x_coeff=2)
    assert strict_mults(cv, recs) == [2, 1, 1]
    assert intersect_noether(cusp(), cv) == 6
    assert m_values(graph, recs) == (2, 3, 6)


def test_curvette_constants_validated():
    graph, recs = resolve(cusp())
    with pytest.raises(BadConstant):
        curvette_param(graph, recs, 2, 0)   # the branch itself
    with pytest.raises(BadConstant):
        curvette_param(graph, recs, 2, -1)  # corner with the older component
    z = SQ2.gen()
    sgraph, srecs = resolve(BranchParam(SQ2, 2, [(3, z)]))
    with pytest.raises(BadConstant):
        curvette_param(sgraph, srecs, 2, z)  # outside the component subfield


def test_curvette_raw_chart_on_splitting_component():
    z = SQ2.gen()
    graph, recs = resolve(BranchParam(SQ2, 1, [(1, z)]))
    # the landing coordinate sqrt2 is outside K_0 = Q: raw chart is used
    assert curvette_param(graph, recs, 0, 1) == BranchParam(SQ2, 1, [(1, 1)])
    assert curvette_param(graph, recs, 1, 1) == \
        BranchParam(SQ2, 1, [(1, z), (2, 1)])
    assert m_values(graph, recs) == (1, 2)


def test_curvette_coefficients_stay_in_component_subfield():
    field, s2, s3 = biquadratic()
    graph, recs = resolve(BranchParam(field, 1, [(1, s2), (2, s3)]))
    assert curvette_param(graph, recs, 0, 1) == BranchParam(field, 1, [(1, 1)])
    assert curvette_param(graph, recs, 1, 1) == \
        BranchParam(field, 1, [(1, s2), (2, 1)])
    assert curvette_param(graph, recs, 2, 1) == \
        BranchParam(field, 1, [(1, s2), (2, s3), (3, 1)])
    with pytest.raises(BadConstant):
        curvette_param(graph, recs, 0, s2)
    assert m_values(graph, recs) == (1, 2, 3)


def test_curvette_unrepresentable_x_part():
    graph, recs = resolve(BranchParam(Q, 4, [(6, 1), (7, 1)]))
    with pytest.raises(UnrepresentableCurvette):
        curvette_param(graph, recs, 4, 1)
    assert m_values(graph, recs) == (4, 6, 12, 13, 26)


def test_generic_curvette_cusp():
    graph, recs = resolve(cusp())
    gc = generic_curvette(graph, recs)
    assert gc == generic_curvette(graph, recs, sigma=graph.delta())
    ring = gc.x.ring
    assert ring == PolyRing(Q, "c")
    c = ring.gen()
    one = ring.one()
    assert gc.x == Poly.monomial(ring, c + one, 2)
    assert gc.y == Poly.monomial(ring, c + one, 3)


def test_generic_curvette_smooth_extension():
    graph, recs = resolve(BranchParam(Q, 1, []), extra_steps=1)
    assert intersection_matrix(graph) == [[-2, 1], [1, -1]]
    assert minus_inverse(intersection_matrix(graph)) == [[1, 1], [1, 2]]
    gc = generic_curvette(graph, recs)
    ring = gc.x.ring
    c = ring.gen()
    assert gc.x == Poly.monomial(ring, ring.one(), 1)
    assert gc.y == Poly.monomial(ring, c, 2)
    gc0 = generic_curvette(graph, recs, 0)
    assert gc0.y == Poly.monomial(ring, c, 1)


# --- intersection matrices


def test_intersection_matrix_smooth():
    graph, _ = resolve(BranchParam(Q, 1, []))
    assert intersection_matrix(graph) == [[-1]]
    assert minus_inverse([[-1]]) == [[1]]


def test_intersection_matrix_cusp():
    graph, recs = resolve(cusp())
    mat = intersection_matrix(graph)
    assert mat == [[-3, 0, 1], [0, -2, 1], [1, 1, -1]]
    inv = minus_inverse(mat)
    assert [row[2] for row in inv] == [2, 3, 6]
    assert is_negative_definite(mat)


def test_is_negative_definite_small_matrices():
    assert is_negative_definite([])
    assert is_negative_definite([[-2, 1], [1, -1]])
    # indefinite: leading minors -1, -3
    assert not is_negative_definite([[-1, 2], [2, -1]])
    # zero leading minor, although the whole determinant is negative
    assert not is_negative_definite([[0, 1], [1, 0]])
    # zero second minor, the first is negative
    assert not is_negative_definite([[-1, 1, 0], [1, -1, 0],
                                     [0, 0, -1]])
    # positive definite
    assert not is_negative_definite([[2, 1], [1, 2]])
    assert not is_negative_definite([[1]])


def test_minus_inverse_delta_column_matches_curvette_values():
    field, s2, s3 = biquadratic()
    branches = [
        BranchParam(Q, 1, []),
        cusp(),
        BranchParam(SQ2, 1, [(1, SQ2.gen())]),
        BranchParam(SQ2, 2, [(3, 1), (4, SQ2.gen())]),
        BranchParam(Q, 4, [(6, 1), (7, 1)]),
        BranchParam(field, 1, [(1, s2), (2, s3)]),
    ]
    runs = [resolve(p) for p in branches]
    # divisorial runs: past the resolution, and a generic-marker family
    runs.append(resolve(cusp(), extra_steps=2))
    runs.append(resolve(BranchParam(Q, 2, [(3, 1), (5, GENERIC)])))
    for graph, recs in runs:
        mat = intersection_matrix(graph)
        assert is_negative_definite(mat)
        inv = minus_inverse(mat)
        m = m_values(graph, recs)
        delta = graph.delta()
        assert tuple(row[delta] for row in inv) == m


# --- generic-coefficient reductions


def test_case_iii_transverse_line():
    graph, _ = resolve(BranchParam(Q, 1, [(1, GENERIC)]))
    assert graph.case == "III" and graph.n_case3 == 1
    assert len(graph.self_ints) == 1
    assert tag_sets(graph) == [{("INITIAL",), ("DEAD_END", 0), ("DELTA",)}]
    assert graph.terminal.center is GENERIC


def test_case_iii_cusp_prefix():
    graph, _ = resolve(BranchParam(Q, 2, [(3, GENERIC)]))
    assert graph.n_case3 == 1
    assert list(graph.self_ints) == [-3, -2, -1]
    assert graph.edges == {(0, 2), (1, 2)}
    assert tag_sets(graph)[2] == {("RUPTURE", 1), ("DELTA",)}


def test_case_iii_past_the_cusp():
    graph, _ = resolve(BranchParam(Q, 2, [(3, 1), (5, GENERIC)]))
    assert graph.n_case3 == 1
    assert len(graph.self_ints) == 5
    assert list(graph.self_ints) == [-3, -2, -2, -2, -1]
    assert graph.edges == {(0, 2), (1, 2), (2, 3), (3, 4)}
    assert tag_sets(graph)[3] == {("PLAIN",)}


def test_case_iii_higher_contact():
    graph, _ = resolve(BranchParam(Q, 4, [(6, GENERIC), (7, 1)]))
    assert graph.n_case3 == 2
    assert len(graph.self_ints) == 3
    assert list(graph.self_ints) == [-3, -2, -1]


def test_case_iii_requires_generic():
    assert resolve(cusp())[0].case == "I"
    graph, _ = resolve(BranchParam(Q, 2, [(3, GENERIC)]))
    assert graph.case == "III"


# --- conjugation


def test_conjugate_param_maps_coefficients():
    z = SQ2.gen()
    p = BranchParam(SQ2, 1, [(1, z)])
    assert conjugate_param(p, z) == p
    assert conjugate_param(p, -z) == BranchParam(SQ2, 1, [(1, -z)])
    q = BranchParam(SQ2, 2, [(3, 1), (4, z)])
    assert conjugate_param(q, -z) == BranchParam(SQ2, 2, [(3, 1), (4, -z)])
    with pytest.raises(NotARoot):
        conjugate_param(p, z + 1)
    with pytest.raises(NotARoot):
        conjugate_param(p, SQ2.one())
    r = BranchParam(SQ2, 2, [(3, GENERIC), (4, z)])
    assert conjugate_param(r, -z) == BranchParam(SQ2, 2,
                                                 [(3, GENERIC), (4, -z)])


def test_conjugate_resolution_invariants():
    z = SQ2.gen()
    p = BranchParam(SQ2, 2, [(3, 1), (4, z)])
    graph, recs = resolve(p)
    cgraph, crecs = resolve(conjugate_param(p, -z))
    assert cgraph.self_ints == graph.self_ints
    assert cgraph.dead_ends == graph.dead_ends
    assert cgraph.ruptures == graph.ruptures
    assert [r.field_after.dim for r in crecs] == \
        [r.field_after.dim for r in recs]
    assert cgraph.edges == graph.edges
    assert cgraph.geodesic == graph.geodesic
    assert cgraph.splittings == graph.splittings
    assert m_values(cgraph, crecs) == m_values(graph, recs)
    assert crecs[4].center == 2 * z


# --- record-level invariants


def test_proximity_check_detects_tampering():
    graph, recs = resolve(cusp())
    mults = strict_mults(cusp(), recs + [graph.terminal])
    assert mults == [2, 1, 1, 1] and proximity_check(graph, recs, mults)
    assert not proximity_check(graph, recs, [3] + mults[1:])


@st.composite
def small_branches(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n_terms = draw(st.integers(min_value=0, max_value=2))
    terms = {}
    for _ in range(n_terms):
        exp = draw(st.integers(min_value=m, max_value=m + 8))
        coeff = draw(st.integers(min_value=-3, max_value=3))
        terms[exp] = coeff
    items = sorted((e, c) for e, c in terms.items() if c)
    g = m
    for e, _ in items:
        g = gcd(g, e)
    if g != 1:
        # m*k + 1 is coprime to every multiple of g, so this restores gcd 1
        items.append((m * draw(st.integers(min_value=1, max_value=2)) + 1, 1))
    return m, tuple(items)


@settings(max_examples=25, deadline=None)
@given(small_branches())
def test_resolution_invariants_on_random_branches(data):
    m, items = data
    terms = {}
    for e, c in items:
        terms[e] = c
    p = normalize(BranchParam(Q, m, sorted(terms.items())))
    graph, recs = resolve(p)
    n = len(graph.self_ints)
    assert len(graph.edges) == n - 1 or n == 1
    mat = intersection_matrix(graph)
    assert is_negative_definite(mat)
    assert proximity_check(graph, recs)
    inv = minus_inverse(mat)
    m_map = m_values(graph, recs)
    assert [row[graph.delta()] for row in inv] == \
        [m_map[v] for v in range(n)]


# --- the tail test: the rescale of tau is skipped where it cannot matter


def test_tail_rescale_decides_a_root_two_coefficient():
    """u = w = sqrt2*tau over Q(sqrt2) with sub = Q: sqrt2 is not
    rational, so only the rescale tau -> tau/sqrt2, which makes u = w =
    tau, shows that no center leaves Q. A tail test that never rescaled
    would answer False."""
    r2 = SQ2.gen()
    u = w = RatFunc.of(Poly(SQ2, [SQ2.zero(), r2]))
    rat = Subfield.rationals(SQ2)
    assert not rat.contains_num(r2)
    assert _tail_ok(u, w, rat) is True
    assert reference_tail_ok(u, w, rat) is True


TAIL_OK = _tail_ok.__code__


def rescale_products(monkeypatch):
    """A list that gets the two operands of each product AlgNum or RatFunc
    forms in _tail_ok's own frame while the patch holds. The only products
    there are the rescale's: a coefficient times a power of the inverse of
    the lowest coefficient d of u, and a power of it times that inverse,
    which extends the table; so the list is empty when tau is not
    rescaled."""
    products = []

    def traced(mul):
        def product(self, other):
            if sys._getframe(1).f_code is TAIL_OK:
                products.append((self, other))
            return mul(self, other)
        return product

    for cls in (AlgNum, RatFunc):
        monkeypatch.setattr(cls, "__mul__", traced(cls.__mul__))
    return products


def is_power_of_inverse(b, d, top=8):
    """Whether b = d^-e for some e in 1..top."""
    for _ in range(top):
        b = b * d
        if b == 1:
            return True
    return False


def test_tail_skips_the_rescale_by_an_element_of_the_subfield(monkeypatch):
    """A lowest coefficient of u in sub (2 in Q, sqrt2 in Q(sqrt2), the
    constant 2 over lam) leaves the answer as the rescale gives it, and
    _tail_ok multiplies nothing; outside sub (sqrt2 over Q), or not a
    constant (lam + 1), the rescale runs, and each product it forms is by
    a power of the inverse of that coefficient. A coefficient of w's
    denominator outside sub makes the answer False, rescaled or not."""
    r2 = SQ2.gen()
    rat = Subfield.rationals(SQ2)
    full = Subfield(SQ2, [[1, 0], [0, 1]])
    lam = FractionField(PolyRing(SQ2, "lam"))

    def state(ring, *coeffs):
        return RatFunc.of(Poly(ring, [ring.zero()] + list(coeffs)))

    def over(num, *den):
        return RatFunc(num.num, Poly(SQ2, list(den)))

    one, two = SQ2.one(), SQ2.from_fraction(2)
    cases = [
        (state(SQ2, two), state(SQ2, two, 3 * two), rat, True, False),
        (state(SQ2, two), state(SQ2, two, r2), rat, False, False),
        (state(SQ2, r2, two), state(SQ2, r2, r2), full, True, False),
        (state(SQ2, r2), state(SQ2, r2, two), rat, True, True),
        (state(SQ2, r2), state(SQ2, r2, r2), rat, False, True),
        (state(lam, lam.gen() + 1), state(lam, lam.gen() + 1), rat, True,
         True),
        (state(lam, lam.from_scalar(two)), state(lam, lam.gen()), rat, False,
         False),
        (state(SQ2, one), over(state(SQ2, one), one, r2), rat, False, False),
        (state(SQ2, r2), over(state(SQ2, r2), one, two), rat, False, True),
        (state(SQ2, r2), over(state(SQ2, r2), one, r2), rat, True, True),
    ]
    for u, w, sub, answer, rescales in cases:
        assert reference_tail_ok(u, w, sub) is answer
        with monkeypatch.context() as patch:
            products = rescale_products(patch)
            assert _tail_ok(u, w, sub) is answer
        assert bool(products) is rescales
        d = u.num.low_coeff()
        assert all(is_power_of_inverse(b, d) for _a, b in products)


def test_tail_ok_equals_the_always_rescaled_reference(monkeypatch):
    """On every call the resolution makes over the four workloads at
    seeds 1 and 2, _tail_ok answers as the reference that always
    rescales tau and tests membership by the Fraction rref; the calls
    include both answers, with and without a rescale, and no run asks
    again once the test has held."""
    answers = []
    rescaled = []
    tail_ok = resolution._tail_ok
    products = rescale_products(monkeypatch)
    runs = []
    resolve = cli.resolve

    def counted_resolve(p, extra_steps=0):
        runs.append([])
        return resolve(p, extra_steps=extra_steps)

    def checked(u, w, sub):
        before = len(products)
        got = tail_ok(u, w, sub)
        rescaled.append(len(products) > before)
        assert got is reference_tail_ok(u, w, sub)
        answers.append(got)
        runs[-1].append(got)
        return got

    monkeypatch.setattr(resolution, "_tail_ok", checked)
    monkeypatch.setattr(cli, "resolve", counted_resolve)
    for workload in sorted(WORKLOADS.GENERATORS):
        for seed in (1, 2):
            for item in WORKLOADS.generate(workload, seed):
                run_to_end(lambda: cli.build_analysis(
                    cli.parse_input(item["doc"])))
    assert answers.count(True) > 100 and answers.count(False) > 20
    assert True in rescaled and rescaled.count(False) > 100
    assert all(True not in run[:-1] for run in runs)
