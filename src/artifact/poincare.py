"""Numerical invariants and exact generating series of a resolved branch.

A resolved branch hands over its quotient graph and blow-up records; this
module extracts the numbers that drive the generating series:

* m: value of the valuation on a transversal curve at each component,
* M: the same value summed over the Galois orbit of the component,
* the gcd tower e_i with quotients N_i read off the dead-end values,
* one (M_rho, ell) pair per field jump.

m and M are integer sums over curvette multiplicities, which the proximity
relation of the recorded blow-ups gives: each is a proximity sum
s[v] = weight[v] + sum of s[h] over the components h hosting point v
(resolution.proximity_sums), one pass over the records per sum. m weights
by the multiplicities of a curvette at the last component, and each field
jump adds one sum weighted by the same multiplicities up to the jump.
No blow-up is replayed and no matrix is inverted. NumericalData is given the
values at the dead ends, ruptures, jumps and last component, and derives the
gcd tower e, N, the product ell_total, the conductor c and the
stabilization order Delta from them itself.

From these it assembles two series as exact products of binomials
(1 - t^a)^s: the dimension series of the valuation filtration on the local
ring, which is the characteristic series of the rational semigroup of
values times one factor per field jump, and the analogue for the
divisorial valuation of the last component. expand turns a product into
its first coefficients, a plain tuple of integers, by an exact integer
computation; the product keeps the partial flag.
"""

from math import gcd

from .errors import BadSemigroupData, MissingDelta
from .record import Record
from . import resolution as _res


# --- numerical data ---------------------------------------------------------

def char_invariants(m_sigma):
    """gcd tower e_0..e_g and quotients N_1..N_g of a generator list.

    e_i is the gcd of the first i + 1 entries; N_i = e_{i-1} / e_i. The list
    must be strictly gcd-refining (every later entry drops the gcd, as the
    dead-end values of a resolved branch always do) and end at gcd 1.
    """
    seq = [int(x) for x in m_sigma]
    if not seq or any(x < 1 for x in seq):
        raise BadSemigroupData("generators must be positive integers")
    e = []
    running = 0
    for x in seq:
        running = gcd(running, x)
        e.append(running)
    if e[-1] != 1:
        raise BadSemigroupData(
            "gcd of all generators is %d, not 1" % e[-1])
    N = []
    for prev, cur in zip(e, e[1:]):
        if prev == cur:
            raise BadSemigroupData(
                "generator list is not strictly gcd-refining at gcd %d"
                % cur)
        N.append(prev // cur)
    return tuple(e), tuple(N)


def big_M(graph, recs, m_map):
    """Galois-orbit value sums M per component, from representative values m.

    graph.splittings lists (vertex id, degree) for the components hosting
    the field jumps, in creation order. A component sitting above j
    jump points has an orbit of ell_1 * .. * ell_j conjugates of its
    transversal curve; a conjugate that parts ways at jump j shares only the
    blown-up points up to the jump with a curvette at the last component,
    so its value is the Noether sum over that shared chain. Grouping the
    conjugates by the first jump where the chains part ways turns the orbit
    sum into

        M = m + sum over jumps j below the component of
                (ell_j - 1) * (product of ell_q for later jumps below)
                            * sum(mult of curvette at the last component
                                  * mult of transversal curve
                                  at each blown-up point up to rho_j)

    and the shared-chain sums vanish for jumps the component does not sit
    above, so only those actually below it contribute. With a curvette at
    the last component's multiplicities up to rho_j as weights (a resolved
    branch's own; a case III family's are n_case3 times them), each
    shared-chain sum is a proximity sum (resolution.proximity_sums), so
    each jump takes one pass over the records, and a running product per
    component gives the product of the later ell.
    """
    out = {v.id: int(m_map[v.id]) for v in graph.vertices}
    later = dict.fromkeys(out, 1)
    last = _res.curvette_mults(recs, graph.delta()) if graph.splittings else ()
    for rho, ell in reversed(graph.splittings):
        shared = _res.proximity_sums(
            recs, last[:rho + 1] + [0] * (len(last) - rho - 1))
        for w_id in out:
            if rho < w_id:
                out[w_id] += (ell - 1) * later[w_id] * shared[w_id]
                later[w_id] *= ell
    return out


def _conductor_pair(M_sigma, N, splitting):
    """The conductor c = sum of (N_i - 1) M_i - M_0 + 1 and the order
    Delta = c + sum of (ell_j - 1) M_rho_j, with 0 <= c <= Delta.

    The bound holds for every list NumericalData accepts: e_i divides M_i
    and N_i = e_(i-1) / e_i, so (N_i - 1) M_i >= e_(i-1) - e_i, and the sum
    telescopes to at least e_0 - e_g = M_0 - 1; every splitting term is
    positive.
    """
    c = sum((n - 1) * M for n, M in zip(N, M_sigma[1:])) - M_sigma[0] + 1
    delta = c + sum((ell - 1) * M_rho for M_rho, ell in splitting)
    return c, delta


class NumericalData(Record):
    """Invariant bundle of one branch (or one divisorial target).

    Given: m_sigma / M_sigma: representative and orbit-summed values at the
    dead ends sigma_0..sigma_g; M_tau: orbit sums at the rupture components
    tau_1..tau_g; splitting: one (M_rho, ell) pair per field jump, in
    creation order; M_delta: orbit sum at the last component (divisorial
    targets only); partial: the splitting list is a finite prefix of an
    infinite one, so products built from it are truncations.

    Derived here, once, and not accepted by the constructor: e, N: gcd tower
    and quotients of M_sigma; ell_total: product of the ell_j; c_conductor:
    conductor of the semigroup of the M_sigma; Delta: c_conductor plus sum
    of (ell_j - 1) M_rho_j, the order from which the filtration dimensions
    stabilize at ell_total.
    """

    __slots__ = ("m_sigma", "M_sigma", "M_tau", "splitting", "M_delta",
                 "partial", "e", "N", "ell_total", "c_conductor", "Delta")

    def __init__(self, m_sigma, M_sigma, M_tau, splitting, M_delta=None,
                 partial=False):
        g = len(M_tau)
        if len(m_sigma) != g + 1 or len(M_sigma) != g + 1:
            raise BadSemigroupData("dead-end and rupture counts disagree")
        if any(x < 1 for x in m_sigma + M_sigma + M_tau):
            raise BadSemigroupData("values must be positive")
        e, N = char_invariants(M_sigma)
        for i, n in enumerate(N):
            if M_tau[i] != n * M_sigma[i + 1]:
                raise BadSemigroupData(
                    "rupture value is not the quotient times the dead-end "
                    "value")
        ell = 1
        for M_rho, l_j in splitting:
            if M_rho < 1 or l_j < 2:
                raise BadSemigroupData("invalid splitting entry")
            ell *= l_j
        c, delta = _conductor_pair(M_sigma, N, splitting)
        if M_delta is not None and M_delta < 1:
            raise BadSemigroupData("divisor value must be positive")
        self._assign(m_sigma, M_sigma, M_tau, splitting, M_delta, partial, e,
                     N, ell, c, delta)


def value_maps(graph, recs):
    """Per-vertex value maps (m, M).

    m is the value of a transversal curve at each component, from the
    proximity relation of the records (resolution.m_values). One formula
    serves every valuation: a fully resolved branch is a curvette at the
    last component, whose divisorial valuation is the one of that
    component. M weights m with the conjugate-orbit contributions below
    each field jump.
    """
    m_map = _res.m_values(graph, recs)
    return m_map, big_M(graph, recs, m_map)


def numerical_data(graph, recs, mode="curve"):
    """Assemble the NumericalData of a resolved branch.

    mode "curve": values of the branch's own valuation; needs a fully
    resolved branch (case I graph from a plain run, no extra blow-ups).

    mode "divisorial": values of the divisorial valuation at the graph's
    last component, which also covers extended runs and reduced graphs of
    generic-coefficient families.

    Both take m and M from value_maps; the modes differ only in whether
    M_delta is kept.
    """
    if mode not in ("curve", "divisorial"):
        raise ValueError("mode must be 'curve' or 'divisorial'")
    if mode == "curve" and graph.case != "I":
        raise ValueError(
            "a generic marker leaves a reduced family graph (case III), "
            "which has only divisorial data")
    m_map, M_map = value_maps(graph, recs)
    sigmas = graph.dead_end_leaves()
    M_delta = int(M_map[graph.delta()]) if mode == "divisorial" else None
    return NumericalData(
        m_sigma=tuple(int(m_map[v]) for v in sigmas),
        M_sigma=tuple(int(M_map[v]) for v in sigmas),
        M_tau=tuple(int(M_map[v]) for v in graph.ruptures()),
        splitting=tuple((int(M_map[rho]), int(ell))
                        for rho, ell in graph.splittings),
        M_delta=M_delta)


def case_II_data(nd, prefix):
    """Append abstract (M_rho, ell) jump factors known only as a finite
    prefix of an infinite list; the result is flagged partial, so series
    built from it are truncations of the true products."""
    extra = tuple((int(M_rho), int(ell)) for M_rho, ell in prefix)
    return nd.replace(splitting=nd.splitting + extra, partial=True)


# --- series as binomial products --------------------------------------------

class SeriesProduct(Record):
    """Finite product of binomials (1 - t^a)^s, normalized: exponents a
    ascending and pairwise distinct, powers s nonzero. The empty product is
    the constant series 1. partial marks a truncation of an infinite
    product (its expansion is only trusted below the first missing
    factor)."""

    __slots__ = ("factors", "partial")

    def __init__(self, factors, partial=False):
        self._assign(factors, partial)
        last = 0
        for a, s in factors:
            if a <= last or s == 0:
                raise ValueError("factors must be normalized: ascending "
                                 "distinct exponents, nonzero powers")
            last = a

    @staticmethod
    def of(pairs, partial=False):
        acc = {}
        for a, s in pairs:
            a = int(a)
            s = int(s)
            if a < 1:
                raise ValueError("binomial exponent must be positive")
            acc[a] = acc.get(a, 0) + s
        factors = tuple(sorted((a, s) for a, s in acc.items() if s))
        return SeriesProduct(factors, partial)


def _semigroup_pairs(nd):
    return ([(M, 1) for M in nd.M_tau] + [(M, -1) for M in nd.M_sigma])


def _splitting_pairs(splitting):
    pairs = []
    for M_rho, ell in splitting:
        pairs.append((ell * M_rho, 1))
        pairs.append((M_rho, -1))
    return pairs


def classical_series(nd):
    """Dimension series of the valuation filtration: the semigroup series
    times one factor (1 - t^{ell M_rho}) / (1 - t^{M_rho}) per field
    jump."""
    return SeriesProduct.of(_semigroup_pairs(nd)
                            + _splitting_pairs(nd.splitting),
                            partial=nd.partial)


def divisorial_series(nd):
    """Dimension series for the divisorial valuation of the last component:
    the semigroup series times 1 / (1 - t^{M_delta}) times the jump
    factors."""
    if nd.M_delta is None:
        raise MissingDelta("numerical data carries no divisor value")
    return SeriesProduct.of(_semigroup_pairs(nd) + [(nd.M_delta, -1)]
                            + _splitting_pairs(nd.splitting),
                            partial=nd.partial)


def expand(sp, order):
    """The exact integer coefficients a_0..a_order of the product, as a
    tuple; whether they truncate an infinite product is sp.partial."""
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    co = [0] * (order + 1)
    co[0] = 1
    for a, s in sp.factors:
        _times_binomial_power(co, a, s)
    return tuple(co)


def _times_binomial_power(co, a, s):
    """co times (1 - t^a)^s in place, cut past its last coefficient: s
    multiplications by 1 - t^a (descending), or -s divisions (ascending)."""
    top = len(co) - 1
    for _ in range(abs(s)):
        if s > 0:
            for v in range(top, a - 1, -1):
                co[v] -= co[v - a]
        else:
            for v in range(a, top + 1):
                co[v] += co[v - a]
