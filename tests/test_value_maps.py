"""Value maps against the blow-down replay they replaced.

The runtime reads m and M off the proximity relation of the blow-up records
(resolution.curvette_mults). This module keeps the older route of
slow_paths, which shares none of that arithmetic, as the reference: a
curvette at each component is blown down to exact base coordinates, then
replayed jointly with the branch (Noether's formula on exact states) and
through the recorded blow-ups (strict multiplicities).
"""

from math import prod

import pytest

from artifact.exactfield import AmbientField
from artifact.poincare import big_M
from artifact.ratfunc import INFINITY
from artifact.resolution import (
    BranchParam,
    _PlainScalars,
    _initial_state,
    curvette_mults,
    m_values,
    resolve,
)

from slow_paths import (
    _curvette_state,
    _intersect_states,
    _strict_mults_state,
    constant_collision,
)
from test_acceptance import CORPUS

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


def replay_m_values(graph, recs):
    """m by joint replay of the branch against each curvette."""
    strat = _PlainScalars(graph.ambient)
    out = {}
    for v in graph.vertices:
        ub, wb = replay_curvette(graph, recs, v.id)
        ua, wa = _initial_state(graph.branch, strat)
        val = _intersect_states(ua, wa, ub, wb, bound=10 ** 9)
        assert val is not INFINITY, "curvette coincides with the branch"
        out[v.id] = val
    return out


def replay_big_M(graph, recs, m_map, mults):
    """Orbit sums M over the conjugates parting at each jump below w."""
    out = {}
    for v in graph.vertices:
        w = v.id
        below = [(rho, ell) for rho, ell in graph.splittings if rho < w]
        total = m_map[w]
        for j, (rho, ell) in enumerate(below):
            later = prod(ell_q for _rho, ell_q in below[j + 1:])
            shared = sum(recs[i].branch_mult * mults[w][i]
                         for i in range(rho + 1))
            total += (ell - 1) * later * shared
        out[w] = total
    return out


@pytest.mark.parametrize("name,p", CORPUS + CUSPS + MULTIPAIR,
                         ids=[name for name, _p in CORPUS + CUSPS + MULTIPAIR])
def test_value_maps_match_the_blow_down_replay(name, p):
    graph, recs = resolve(p)
    strat = _PlainScalars(graph.ambient)
    m = m_values(graph, recs)
    assert m == replay_m_values(graph, recs)
    # the branch is a curvette at the last component
    assert [rec.branch_mult for rec in recs] == \
        curvette_mults(recs, graph.delta())
    mults = {}
    for v in graph.vertices:
        replayed = _strict_mults_state(*replay_curvette(graph, recs, v.id),
                                       recs, strat)
        mults[v.id] = curvette_mults(recs, v.id)
        assert replayed == mults[v.id] + [0] * (len(recs) - v.id - 1)
    assert big_M(graph, recs, m, graph.splittings) == \
        replay_big_M(graph, recs, m, mults)
