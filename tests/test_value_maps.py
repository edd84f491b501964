"""Value maps against the blow-down replay they replaced.

The runtime reads m and M off the proximity relation of the blow-up records
(resolution.curvette_mults and resolution.proximity_sums). This module
keeps the older route of slow_paths, which shares none of that arithmetic,
as the reference: a curvette at each component is blown down to exact base
coordinates, then replayed jointly with the branch (Noether's formula on
exact states) and through the recorded blow-ups (strict multiplicities).
The one-pass sums are also checked against Noether's sum taken one
curvette at a time.
"""

from math import prod

import pytest

from artifact import resolution
from artifact.exactfield import AmbientField
from artifact.poincare import big_M, value_maps
from artifact.ratfunc import INFINITY
from artifact.resolution import (
    BranchParam,
    curvette_mults,
    m_values,
    resolve,
)

from slow_paths import (
    _curvette_state,
    _intersect_states,
    _strict_mults_state,
    constant_collision,
    initial_state,
    noether_big_M,
    noether_m_values,
    strict_mults,
)
from test_acceptance import CORPUS, DIVISORIAL_TARGETS, GENERIC_FAMILIES

Q = AmbientField([0, 1])
SQ2 = AmbientField([-2, 0, 1])
_Z2 = SQ2.gen()

CUSPS = [("cusp_k%d" % k,
          BranchParam(Q, 2, [(2 * k + 1, 1), (2 * k + 2, 1), (2 * k + 3, 1)]))
         for k in range(6, 19)]

MULTIPAIR = [
    ("sq2_x4_r6_7", BranchParam(SQ2, 4, [(6, _Z2), (7, 1)])),
    ("sq2_x4_6_7_r8", BranchParam(SQ2, 4, [(6, 1), (7, 1), (8, _Z2)])),
    ("sq2_x6_9_r10_11", BranchParam(SQ2, 6, [(9, 1), (10, _Z2), (11, 1)])),
    ("q_x8_12_14_15", BranchParam(Q, 8, [(12, 1), (14, 1), (15, 1)])),
]


def replay_curvette(graph, recs, sigma):
    """Exact state of a curvette at sigma, blown down to the base; its
    constant is the least positive integer that constant_collision admits."""
    c = 1
    while constant_collision(graph, recs, sigma,
                             graph.ambient.from_fraction(c)):
        c += 1
    return _curvette_state(graph, recs, sigma, graph.ambient.from_fraction(c))


def degree_bound(u, w):
    """Degree of x plus degree of y for a polynomial state; two distinct
    branches meet with at most the product of these, the bound that
    slow_paths.intersect_noether uses."""
    return u.num.degree() + max(w.num.degree(), 0)


def replay_m_values(graph, recs):
    """m by joint replay of the branch against each curvette. A curvette
    that meets the branch past the degree bound ends the replay as
    INFINITY, so a wrong curvette fails the test instead of hanging it."""
    out = []
    for w in range(len(recs)):
        ub, wb = replay_curvette(graph, recs, w)
        ua, wa = initial_state(graph.branch)
        val = _intersect_states(ua, wa, ub, wb, bound=degree_bound(ua, wa)
                                * degree_bound(ub, wb))
        assert val is not INFINITY, "curvette coincides with the branch"
        out.append(val)
    return tuple(out)


def replay_big_M(graph, recs, m_map, mults):
    """Orbit sums M over the conjugates parting at each jump below w, each
    shared chain weighted by the replayed multiplicities of curvettes at w
    and at the last component."""
    last = mults[graph.delta()]
    out = []
    for w in range(len(recs)):
        below = [(rho, ell) for rho, ell in graph.splittings if rho < w]
        total = m_map[w]
        for j, (rho, ell) in enumerate(below):
            later = prod(ell_q for _rho, ell_q in below[j + 1:])
            shared = sum(last[i] * mults[w][i] for i in range(rho + 1))
            total += (ell - 1) * later * shared
        out.append(total)
    return tuple(out)


@pytest.mark.parametrize("name,p", CORPUS + CUSPS + MULTIPAIR,
                         ids=[name for name, _p in CORPUS + CUSPS + MULTIPAIR])
def test_value_maps_match_the_blow_down_replay(name, p):
    graph, recs = resolve(p)
    m = m_values(graph, recs)
    assert m == replay_m_values(graph, recs)
    # the branch is a curvette at the last component
    assert strict_mults(graph.branch, recs) == \
        curvette_mults(recs, graph.delta())
    mults = []
    for w in range(len(recs)):
        replayed = _strict_mults_state(*replay_curvette(graph, recs, w),
                                       recs)
        assert replayed == curvette_mults(recs, w) + \
            [0] * (len(recs) - w - 1)
        mults.append(replayed)
    assert big_M(graph, recs, m) == replay_big_M(graph, recs, m, mults)


EXTENDED = [(name, p, extra) for name, p, extra in DIVISORIAL_TARGETS] + [
    ("biq_two_jumps_x3", dict(CORPUS)["biq_two_jumps"], 3),
    ("sq2_x6_9_r10_11_x5", dict(MULTIPAIR)["sq2_x6_9_r10_11"], 5),
] + [("generic_%d" % k, p, 0) for k, p in enumerate(GENERIC_FAMILIES)]


@pytest.mark.parametrize(
    "name,p,extra",
    [(name, p, 0) for name, p in CORPUS + CUSPS + MULTIPAIR] + EXTENDED,
    ids=[name for name, _p in CORPUS + CUSPS + MULTIPAIR]
    + [name for name, _p, _x in EXTENDED])
def test_proximity_sums_equal_noether_sums(name, p, extra):
    graph, recs = resolve(p, extra_steps=extra)
    m = m_values(graph, recs)
    assert m == noether_m_values(graph, recs)
    tower = graph.splittings
    for order in (tower, tower[::-1]):
        assert big_M(graph.replace(splittings=order), recs, m) == \
            noether_big_M(graph, recs, m, order)


def test_value_maps_take_one_curvette(monkeypatch):
    """x = t^999, y = t^1000 with 1000 extra blow-ups has 2000 components;
    m and M come from proximity sums, not from one curvette per component
    (which took 2000 and more curvette_mults calls)."""
    graph, recs = resolve(BranchParam(Q, 999, [(1000, 1)]), extra_steps=1000)
    calls = []
    mults = resolution.curvette_mults

    def counted(recs, w):
        calls.append(w)
        return mults(recs, w)

    monkeypatch.setattr(resolution, "curvette_mults", counted)
    m, M = value_maps(graph, recs)
    assert len(calls) <= 1
    assert len(m) == len(recs) == 2000 and m == M
