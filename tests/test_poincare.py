"""Tests for numerical invariants and the generating-series toolkit.

Every expected value below was derived by hand: graph values by replaying
the blow-up charts on the exact states, orbit sums by the Noether pairing
on the shared point chains, expansions by elementary power-series
arithmetic. The asserts freeze those derivations.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import BadSemigroupData
from artifact.exactfield import AmbientField
from artifact.poincare import (
    NumericalData,
    SeriesProduct,
    big_M,
    case_II_data,
    char_invariants,
    classical_series,
    expand,
    numerical_data,
)
from artifact.resolution import (
    GENERIC,
    BranchParam,
    m_values,
    normalize,
    resolve,
)

from output_checks import (
    IndexOutOfRange,
    TruncationInconclusive,
    TruncationTooShort,
    binomial_factorization,
    gaps,
    membership,
    minimal_generator_check,
    partial_series,
    semigroup_series,
    stage_data,
    symmetry_check,
)

Q = AmbientField([0, 1])
SQ2 = AmbientField([-2, 0, 1])
CBRT2 = AmbientField([-2, 0, 0, 1])


def biquadratic():
    """Field containing sqrt2 and sqrt3: minimal polynomial of their sum."""
    field = AmbientField([1, 0, -10, 0, 1])
    z = field.gen()
    s2 = (z * z * z - 9 * z) * field.from_fraction(Fraction(1, 2))
    s3 = z - s2
    return field, s2, s3


def cusp():
    return BranchParam(Q, 2, [(3, 1)])


def sqrt2_line():
    # (t, sqrt2 t): two conjugate smooth branches with distinct tangents.
    return BranchParam(SQ2, 1, [(1, SQ2.gen())])


def sqrt2_cusp():
    # (t^2, sqrt2 t^3): the blow-up centers all stay rational.
    return BranchParam(SQ2, 2, [(3, SQ2.gen())])


def cusp_sqrt2_tail():
    # (t^2, t^3 + sqrt2 t^4): the jump happens after the cusp is resolved.
    return BranchParam(SQ2, 2, [(3, 1), (4, SQ2.gen())])


def tangent_cusp():
    # (t^2, sqrt2 t^2 + t^3): a cusp tangent to an irrational line, so the
    # dead ends of the pair sit above the field jump.
    return BranchParam(SQ2, 2, [(2, SQ2.gen()), (3, 1)])


def two_pair_sqrt2():
    # (t^4, sqrt2 t^6 + t^7): two characteristic pairs, jump at the second
    # rupture component.
    return BranchParam(SQ2, 4, [(6, SQ2.gen()), (7, 1)])


def tower_line():
    # (t, sqrt2 t + sqrt3 t^2): two nested field jumps.
    field, s2, s3 = biquadratic()
    return BranchParam(field, 1, [(1, s2), (2, s3)])


def cbrt2_line():
    # (t, 2^(1/3) t): one field jump of degree three.
    return BranchParam(CBRT2, 1, [(1, CBRT2.gen())])


def curve_nd(p):
    graph, recs = resolve(p)
    return numerical_data(graph, recs)


def divisor_nd(p, extra=0):
    graph, recs = resolve(p, extra_steps=extra)
    return numerical_data(graph, recs, mode="divisorial")


# --- gcd tower ---------------------------------------------------------------

def test_char_invariants_examples():
    assert char_invariants((2, 3)) == ((2, 1), (2,))
    assert char_invariants((1,)) == ((1,), ())
    assert char_invariants((4, 6, 13)) == ((4, 2, 1), (2, 2))
    assert char_invariants((6, 4, 3)) == ((6, 2, 1), (3, 2))


def test_char_invariants_rejects_bad_input():
    with pytest.raises(BadSemigroupData):
        char_invariants((4, 6))          # gcd never reaches 1
    with pytest.raises(BadSemigroupData):
        char_invariants((2, 4, 3))       # second entry does not drop the gcd
    with pytest.raises(BadSemigroupData):
        char_invariants((0,))
    with pytest.raises(BadSemigroupData):
        char_invariants(())


# --- semigroup membership ----------------------------------------------------

def test_membership_and_gaps():
    assert membership((2, 3), 0)
    assert not membership((2, 3), 1)
    assert membership((2, 3), 2)
    assert not membership((2, 3), -1)
    assert gaps((2, 3), 10) == [1]
    assert gaps((1,), 10) == []
    assert gaps((4, 6, 13), 16) == [1, 2, 3, 5, 7, 9, 11, 15]
    assert not membership((4, 6, 13), 15)
    assert membership((4, 6, 13), 16)


def test_minimal_generator_check_passes():
    assert minimal_generator_check((2, 3), (2,))
    assert minimal_generator_check((4, 6, 13), (2, 2))
    assert minimal_generator_check((2, 5), (2,))
    assert minimal_generator_check((1,), ()).witness is None


def test_minimal_generator_check_witnesses():
    res = minimal_generator_check((2, 3), (3,))
    assert not res and res.witness == ("excluded", 1, 6)
    res = minimal_generator_check((3, 4), (2,))
    assert not res and res.witness == ("included", 1, 8)
    res = minimal_generator_check((2, 1), (2,))
    assert not res and res.witness == ("ordered", 1, 2)
    with pytest.raises(ValueError):
        minimal_generator_check((2, 3), ())


# --- orbit sums --------------------------------------------------------------

def test_big_M_without_jumps_is_the_plain_value():
    graph, recs = resolve(cusp())
    m = m_values(graph, recs)
    assert graph.splittings == ()
    assert big_M(graph, recs, m) == m == (2, 3, 6)


def test_big_M_orbit_sums():
    cases = [
        (sqrt2_line(), (1, 3)),
        (tower_line(), (1, 3, 7)),
        (cusp_sqrt2_tail(), (2, 3, 6, 7, 15)),
        (cbrt2_line(), (1, 4)),
        (tangent_cusp(), (2, 5, 10)),
    ]
    for p, expected in cases:
        graph, recs = resolve(p)
        m = m_values(graph, recs)
        assert big_M(graph, recs, m) == expected


# --- numerical data, curve mode ----------------------------------------------

def test_numerical_data_cusp():
    nd = curve_nd(cusp())
    assert nd.m_sigma == (2, 3)
    assert nd.M_sigma == (2, 3)
    assert nd.M_tau == (6,)
    assert nd.e == (2, 1) and nd.N == (2,)
    assert nd.splitting == () and nd.ell_total == 1
    assert (nd.c_conductor, nd.Delta) == (2, 2)
    assert nd.M_delta is None and not nd.partial
    assert len(nd.M_tau) == 1 and len(nd.splitting) == 0


def test_numerical_data_rationalizing_centers_lose_the_jump():
    # (t^2, sqrt2 t^3) has the same graph and values as the plain cusp.
    assert curve_nd(sqrt2_cusp()) == curve_nd(cusp())


def test_numerical_data_with_jumps():
    nd = curve_nd(sqrt2_line())
    assert (nd.m_sigma, nd.M_sigma, nd.M_tau) == ((1,), (1,), ())
    assert nd.splitting == ((1, 2),) and nd.ell_total == 2
    assert (nd.c_conductor, nd.Delta) == (0, 1)

    nd = curve_nd(cusp_sqrt2_tail())
    assert (nd.m_sigma, nd.M_sigma, nd.M_tau) == ((2, 3), (2, 3), (6,))
    assert nd.splitting == ((7, 2),) and nd.ell_total == 2
    assert (nd.c_conductor, nd.Delta) == (2, 9)

    nd = curve_nd(tower_line())
    assert (nd.m_sigma, nd.M_sigma, nd.M_tau) == ((1,), (1,), ())
    assert nd.splitting == ((1, 2), (3, 2)) and nd.ell_total == 4
    assert (nd.c_conductor, nd.Delta) == (0, 4)

    nd = curve_nd(cbrt2_line())
    assert nd.splitting == ((1, 3),) and nd.ell_total == 3
    assert (nd.c_conductor, nd.Delta) == (0, 2)


def test_numerical_data_dead_ends_above_the_jump():
    nd = curve_nd(tangent_cusp())
    assert nd.m_sigma == (2, 3)
    assert nd.M_sigma == (2, 5)
    assert nd.M_tau == (10,)
    assert nd.splitting == ((2, 2),) and nd.ell_total == 2
    assert (nd.c_conductor, nd.Delta) == (4, 6)

    nd = curve_nd(two_pair_sqrt2())
    assert nd.M_sigma == (4, 6, 13)
    assert nd.M_tau == (12, 26)
    assert nd.splitting == ((26, 2),) and nd.ell_total == 2
    assert (nd.c_conductor, nd.Delta) == (16, 42)


def test_numerical_data_rejects_unresolved_family_in_curve_mode():
    graph, recs = resolve(BranchParam(Q, 2, [(3, GENERIC)]))
    with pytest.raises(ValueError):
        numerical_data(graph, recs, mode="curve")
    with pytest.raises(ValueError):
        numerical_data(graph, recs, mode="bogus")


def test_numerical_data_validation_catches_tampering():
    nd = curve_nd(cusp())
    with pytest.raises(BadSemigroupData):
        nd.replace(M_tau=(5,))
    with pytest.raises(BadSemigroupData):
        nd.replace(M_delta=0)
    with pytest.raises(BadSemigroupData):
        nd.replace(M_tau=(3,))
    # the derived values cannot be passed in, so they cannot disagree
    for name, value in (("e", (3, 1)), ("N", (1,)), ("ell_total", 3),
                        ("c_conductor", 2), ("Delta", 5)):
        with pytest.raises(ValueError):
            nd.replace(**{name: value})
        with pytest.raises(TypeError):
            NumericalData(m_sigma=nd.m_sigma, M_sigma=nd.M_sigma,
                          M_tau=nd.M_tau, splitting=nd.splitting,
                          **{name: value})


# --- numerical data, divisorial mode -----------------------------------------

def test_divisorial_data_smooth_targets():
    nd = divisor_nd(BranchParam(Q, 1, []))
    assert (nd.M_sigma, nd.M_tau, nd.M_delta) == ((1,), (), 1)
    nd = divisor_nd(BranchParam(Q, 1, []), extra=1)
    assert (nd.M_sigma, nd.M_tau, nd.M_delta) == ((1,), (), 2)


def test_divisorial_data_cusp_targets():
    nd = divisor_nd(cusp())
    assert (nd.M_sigma, nd.M_tau, nd.M_delta) == ((2, 3), (6,), 6)
    nd = divisor_nd(cusp(), extra=2)
    assert (nd.M_sigma, nd.M_tau, nd.M_delta) == ((2, 3), (6,), 8)


def test_divisorial_data_past_a_jump():
    nd = divisor_nd(sqrt2_line())
    assert (nd.M_sigma, nd.M_tau, nd.M_delta) == ((1,), (), 3)
    assert nd.splitting == ((1, 2),)


def test_divisorial_data_generic_families():
    nd = divisor_nd(BranchParam(Q, 2, [(3, GENERIC)]))
    assert (nd.M_sigma, nd.M_tau, nd.M_delta) == ((2, 3), (6,), 6)
    nd = divisor_nd(BranchParam(Q, 1, [(1, GENERIC)]))
    assert (nd.M_sigma, nd.M_tau, nd.M_delta) == ((1,), (), 1)


# --- series products ---------------------------------------------------------

def test_series_product_normalization():
    sp = SeriesProduct.of([(3, 1), (2, -1), (3, -1)])
    assert sp.factors == ((2, -1),)
    assert SeriesProduct.of([]).factors == ()
    with pytest.raises(ValueError):
        SeriesProduct.of([(0, 1)])
    with pytest.raises(ValueError):
        SeriesProduct(((2, -1), (2, 1)))     # duplicate exponent
    with pytest.raises(ValueError):
        SeriesProduct(((3, 1), (2, 1)))      # not ascending
    with pytest.raises(ValueError):
        SeriesProduct(((2, 0),))             # zero power


def test_series_product_multiplication():
    """The product of two series is SeriesProduct.of on their joined
    factor lists: equal exponents add their powers and cancel at zero."""
    a = SeriesProduct.of([(2, -1), (6, 1)])
    b = SeriesProduct.of([(3, -1), (6, -1)])
    ab = SeriesProduct.of(a.factors + b.factors)
    assert ab.factors == ((2, -1), (3, -1))
    assert expand(ab, 8) == tuple(
        sum(x * y for x, y in zip(expand(a, v)[::-1], expand(b, v)))
        for v in range(9))


def test_semigroup_and_classical_series_products():
    assert semigroup_series(curve_nd(cusp())).factors == \
        ((2, -1), (3, -1), (6, 1))
    assert classical_series(curve_nd(cusp())).factors == \
        ((2, -1), (3, -1), (6, 1))
    nd = curve_nd(sqrt2_line())
    assert semigroup_series(nd).factors == ((1, -1),)
    assert classical_series(nd).factors == ((1, -2), (2, 1))
    assert classical_series(curve_nd(cusp_sqrt2_tail())).factors == \
        ((2, -1), (3, -1), (6, 1), (7, -1), (14, 1))
    assert classical_series(curve_nd(tower_line())).factors == \
        ((1, -2), (2, 1), (3, -1), (6, 1))
    assert classical_series(curve_nd(cbrt2_line())).factors == \
        ((1, -2), (3, 1))
    nd = curve_nd(tangent_cusp())
    assert semigroup_series(nd).factors == ((2, -1), (5, -1), (10, 1))
    assert classical_series(nd).factors == \
        ((2, -2), (4, 1), (5, -1), (10, 1))
    assert classical_series(curve_nd(two_pair_sqrt2())).factors == \
        ((4, -1), (6, -1), (12, 1), (13, -1), (52, 1))


def test_divisorial_series_products():
    assert classical_series(divisor_nd(BranchParam(Q, 1, []))).factors == \
        ((1, -2),)
    assert classical_series(
        divisor_nd(BranchParam(Q, 1, []), extra=1)).factors == \
        ((1, -1), (2, -1))
    assert classical_series(divisor_nd(cusp())).factors == \
        ((2, -1), (3, -1))
    assert classical_series(divisor_nd(cusp(), extra=2)).factors == \
        ((2, -1), (3, -1), (6, 1), (8, -1))
    assert classical_series(divisor_nd(sqrt2_line())).factors == \
        ((1, -2), (2, 1), (3, -1))
    assert classical_series(
        divisor_nd(BranchParam(Q, 2, [(3, GENERIC)]))).factors == \
        ((2, -1), (3, -1))


def test_divisorial_series_needs_a_divisor_value():
    """The factor 1 / (1 - t^M_delta) comes only with a divisor value: the
    cusp's curve data gives the semigroup series, and the same data with
    the M_delta of its last component gives the divisorial series."""
    nd = curve_nd(cusp())
    assert nd.M_delta is None
    assert classical_series(nd).factors == ((2, -1), (3, -1), (6, 1))
    assert classical_series(nd.replace(M_delta=6)) == \
        classical_series(divisor_nd(cusp()))
    assert classical_series(nd.replace(M_delta=8)).factors == \
        ((2, -1), (3, -1), (6, 1), (8, -1))


def test_partial_series_stages():
    nd = curve_nd(tower_line())
    assert partial_series(nd, 1) == semigroup_series(nd)
    assert partial_series(nd, 2).factors == ((1, -2), (2, 1))
    assert partial_series(nd, 3) == classical_series(nd)
    with pytest.raises(IndexOutOfRange):
        partial_series(nd, 0)
    with pytest.raises(IndexOutOfRange):
        partial_series(nd, 4)


# --- expansion ---------------------------------------------------------------

def test_expand_basics():
    assert expand(SeriesProduct.of([(1, -1)]), 3) == (1, 1, 1, 1)
    assert expand(SeriesProduct.of([]), 3) == (1, 0, 0, 0)
    assert expand(SeriesProduct.of([(2, 1)]), 5) == \
        (1, 0, -1, 0, 0, 0)
    with pytest.raises(ValueError):
        expand(SeriesProduct.of([(1, -1)]), -1)
    assert type(expand(SeriesProduct.of([(1, -1)]), 0)) is tuple


def test_expand_frozen_series():
    assert expand(semigroup_series(curve_nd(cusp())), 6) == \
        (1, 0, 1, 1, 1, 1, 1)
    assert expand(classical_series(curve_nd(sqrt2_line())), 4) == \
        (1, 2, 2, 2, 2)
    assert expand(classical_series(curve_nd(tower_line())), 7) == \
        (1, 2, 2, 3, 4, 4, 4, 4)
    assert expand(classical_series(curve_nd(cbrt2_line())), 5) == \
        (1, 2, 3, 3, 3, 3)
    assert expand(classical_series(curve_nd(cusp_sqrt2_tail())), 12) \
        == (1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2)
    assert expand(classical_series(curve_nd(tangent_cusp())), 11) == \
        (1, 0, 2, 0, 2, 1, 2, 2, 2, 2, 2, 2)
    assert expand(semigroup_series(curve_nd(tangent_cusp())), 10) == \
        (1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1)


def test_expand_frozen_divisorial_series():
    assert expand(classical_series(divisor_nd(BranchParam(Q, 1, []))),
                  3) == (1, 2, 3, 4)
    assert expand(classical_series(
        divisor_nd(BranchParam(Q, 1, []), extra=1)), 4) == \
        (1, 1, 2, 2, 3)
    assert expand(classical_series(divisor_nd(cusp())), 6) == \
        (1, 0, 1, 1, 1, 1, 2)
    assert expand(classical_series(divisor_nd(cusp(), extra=2)), 8) \
        == (1, 0, 1, 1, 1, 1, 1, 1, 2)
    assert expand(classical_series(divisor_nd(sqrt2_line())), 4) == \
        (1, 2, 2, 3, 4)


def test_series_expansion_validation():
    """An expansion has at least the constant term: expand refuses a
    negative order, and order 0 gives the constant term alone."""
    with pytest.raises(ValueError):
        expand(SeriesProduct.of([(1, -1)]), -1)
    assert expand(SeriesProduct.of([(1, -1)]), 0) == (1,)
    assert len(expand(SeriesProduct.of([(2, 1)]), 1)) == 2


# --- conductor and symmetry --------------------------------------------------

def test_conductor_delta_frozen_values():
    for p, want in [(BranchParam(Q, 1, []), (0, 0)), (cusp(), (2, 2)),
                    (sqrt2_line(), (0, 1)), (tower_line(), (0, 4)),
                    (cbrt2_line(), (0, 2)), (cusp_sqrt2_tail(), (2, 9)),
                    (tangent_cusp(), (4, 6)), (two_pair_sqrt2(), (16, 42))]:
        nd = curve_nd(p)
        assert (nd.c_conductor, nd.Delta) == want


def test_symmetry_check_on_corpus():
    for p in [cusp(), sqrt2_line(), tower_line(), cbrt2_line(),
              cusp_sqrt2_tail(), tangent_cusp(), two_pair_sqrt2()]:
        nd = curve_nd(p)
        se = expand(classical_series(nd), nd.Delta + 5)
        assert symmetry_check(se, nd.Delta, nd.ell_total)


def test_symmetry_check_failures():
    with pytest.raises(TruncationTooShort):
        symmetry_check(expand(classical_series(curve_nd(cusp())), 1), 2, 1)
    assert not symmetry_check((1, 1, 1, 1), 2, 1)
    # paired below Delta, but the coefficient at Delta itself is not ell
    assert not symmetry_check((1, 1, 5, 2, 2), 2, 2)
    # Delta = 1: a_0 pairs with itself and reaches ell = 0 already
    assert not symmetry_check((0, 0, 0), 1, 0)


# --- structural invariants ---------------------------------------------------

def all_curve_branches():
    return [BranchParam(Q, 1, []), cusp(), sqrt2_line(), sqrt2_cusp(),
            cusp_sqrt2_tail(), tower_line(), cbrt2_line(), tangent_cusp(),
            two_pair_sqrt2(), BranchParam(Q, 4, [(6, 1), (7, 1)])]


def test_semigroup_expansion_is_the_membership_indicator():
    for p in all_curve_branches():
        nd = curve_nd(p)
        se = expand(semigroup_series(nd), nd.Delta + 10)
        for v, a in enumerate(se):
            assert a in (0, 1)
            assert bool(a) == membership(nd.M_sigma, v)


def test_partial_series_convolution_steps():
    for p in [sqrt2_line(), tower_line(), cbrt2_line(), cusp_sqrt2_tail(),
              tangent_cusp(), two_pair_sqrt2()]:
        nd = curve_nd(p)
        N = nd.Delta + 5
        for j in range(1, len(nd.splitting) + 1):
            lo = expand(partial_series(nd, j), N)
            hi = expand(partial_series(nd, j + 1), N)
            M_rho, ell = nd.splitting[j - 1]
            conv = [sum(lo[v - k * M_rho] for k in range(ell)
                        if v - k * M_rho >= 0) for v in range(N + 1)]
            assert list(hi) == conv


def test_no_jump_means_equal_series():
    for p in [BranchParam(Q, 1, []), cusp(), sqrt2_cusp(),
              BranchParam(Q, 4, [(6, 1), (7, 1)])]:
        nd = curve_nd(p)
        assert nd.splitting == ()
        assert semigroup_series(nd) == classical_series(nd)


def test_gcd_tower_agrees_between_plain_and_orbit_values():
    for p in all_curve_branches():
        nd = curve_nd(p)
        assert char_invariants(nd.m_sigma) == char_invariants(nd.M_sigma)


def test_minimal_generator_check_on_corpus():
    for p in all_curve_branches():
        nd = curve_nd(p)
        assert minimal_generator_check(nd.M_sigma, nd.N)


def tree_path(graph, a, b):
    nbrs = [[] for _ in graph.self_ints]
    for x, y in graph.edges:
        nbrs[x].append(y)
        nbrs[y].append(x)
    stack = [(a, [a])]
    seen = {a}
    while stack:
        cur, path = stack.pop()
        if cur == b:
            return path
        for n in nbrs[cur]:
            if n not in seen:
                seen.add(n)
                stack.append((n, path + [n]))
    raise AssertionError("no path in tree")


def assert_segment_values_divide(graph, recs, M_map):
    """Orbit sums along each segment from a dead end to its rupture are
    positive multiples of the dead-end value, increasing toward the
    rupture."""
    sigmas = graph.dead_ends
    taus = graph.ruptures
    for i, tau in enumerate(taus):
        for leaf in (sigmas[0], sigmas[i + 1]) if i == 0 else \
                (sigmas[i + 1],):
            base = M_map[leaf]
            values = [M_map[v] for v in tree_path(graph, leaf, tau)]
            assert values[0] == base
            assert all(v % base == 0 for v in values)
            assert all(a < b for a, b in zip(values, values[1:]))


def test_segment_values_divide_the_dead_end_value():
    for p in all_curve_branches():
        graph, recs = resolve(p)
        m = m_values(graph, recs)
        M_map = big_M(graph, recs, m)
        assert_segment_values_divide(graph, recs, M_map)


# --- truncated jump lists ----------------------------------------------------

def test_case_II_data_marks_products_partial():
    nd = case_II_data(curve_nd(cusp()),
                      [(7, 2), (11, 2), (13, 2), (17, 2), (19, 2)])
    assert nd.partial and len(nd.splitting) == 5
    assert nd.ell_total == 32
    assert (nd.c_conductor, nd.Delta) == (2, 69)
    # the staged prefixes are exact objects even on truncated data
    assert not stage_data(nd, 1).partial and not stage_data(nd, 6).partial
    assert partial_series(nd, 6) == classical_series(nd)


# --- binomial refactorization ------------------------------------------------

def test_binomial_factorization_without_source():
    bf = binomial_factorization(expand(SeriesProduct.of([(1, -1)]), 3))
    assert bf.factors == ((1, -1),)
    assert bf.is_cyclotomic is None
    bf = binomial_factorization(
        expand(SeriesProduct.of([(1, -2), (2, 1)]), 4))
    assert bf.factors == ((1, -2), (2, 1))
    with pytest.raises(ValueError):
        binomial_factorization((2, 1))


def test_binomial_factorization_round_trips_products():
    nds = [curve_nd(p) for p in all_curve_branches()]
    sources = [stage_data(nd, 1) for nd in nds] + nds
    sources += [divisor_nd(p, extra=e)
                for p, e in [(cusp(), 0), (cusp(), 2), (sqrt2_line(), 0),
                             (BranchParam(Q, 1, []), 1)]]
    for nd in sources:
        sp = classical_series(nd)
        order = max((a for a, _s in sp.factors), default=1)
        bf = binomial_factorization(expand(sp, order), source=nd)
        assert bf.factors == sp.factors
        assert bf.is_cyclotomic is True


def test_binomial_factorization_flags_short_truncations():
    nd = curve_nd(cusp())
    with pytest.raises(TruncationInconclusive) as exc:
        binomial_factorization(expand(classical_series(nd), 4), source=nd)
    assert exc.value.factors == ((2, -1), (3, -1))


def test_binomial_factorization_refuses_closure_on_partial_products():
    nd = case_II_data(curve_nd(cusp()),
                      [(7, 2), (11, 2), (13, 2), (17, 2), (19, 2)])
    sp = classical_series(nd)
    with pytest.raises(TruncationInconclusive) as exc:
        binomial_factorization(expand(sp, 40), source=nd)
    assert exc.value.factors == sp.factors


def test_binomial_factorization_rejects_wrong_source():
    nd = curve_nd(BranchParam(Q, 1, []))
    assert classical_series(nd).factors == ((1, -1),)
    se = expand(SeriesProduct.of([(1, -2), (2, 1)]), 4)
    with pytest.raises(ValueError):
        binomial_factorization(se, source=nd)


# --- random rational branches ------------------------------------------------

@st.composite
def small_branches(draw):
    from math import gcd
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
def test_series_invariants_on_random_rational_branches(data):
    m, items = data
    p = normalize(BranchParam(Q, m, list(items)))
    graph, recs = resolve(p)
    nd = numerical_data(graph, recs)
    assert nd.splitting == () and nd.ell_total == 1
    assert semigroup_series(nd) == classical_series(nd)
    se = expand(semigroup_series(nd), nd.Delta + 6)
    for v, a in enumerate(se):
        assert a in (0, 1)
        assert bool(a) == membership(nd.M_sigma, v)
    assert symmetry_check(se, nd.Delta, 1)
    assert minimal_generator_check(nd.M_sigma, nd.N)
    sp = semigroup_series(nd)
    order = max((a for a, _s in sp.factors), default=1)
    bf = binomial_factorization(expand(sp, order), source=nd)
    assert bf.factors == sp.factors and bf.is_cyclotomic is True
    assert_segment_values_divide(graph, recs, m_values(graph, recs))


@st.composite
def valid_numerical_inputs(draw):
    """Arguments NumericalData accepts: M_sigma strictly gcd-refining down
    to 1 (e_(i-1) = N_i e_i, M_i = k_i e_i with k_i prime to N_i),
    M_tau = N * M_sigma[1:], and any splitting pairs."""
    from math import gcd
    Ns = draw(st.lists(st.integers(min_value=2, max_value=5), max_size=3))
    e = [1]
    for n in reversed(Ns):
        e.insert(0, n * e[0])
    M_sigma = [e[0]]
    for n, e_i in zip(Ns, e[1:]):
        k = draw(st.integers(min_value=1, max_value=12).filter(
            lambda k, n=n: gcd(k, n) == 1))
        M_sigma.append(k * e_i)
    M_tau = tuple(n * M for n, M in zip(Ns, M_sigma[1:]))
    splitting = tuple(draw(st.lists(st.tuples(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=2, max_value=4)), max_size=3)))
    return tuple(M_sigma), M_tau, splitting


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(valid_numerical_inputs())
def test_conductor_lies_between_zero_and_delta(data):
    """No accepted input gives a negative conductor or a Delta below it,
    which is why the constructor has no check for either."""
    M_sigma, M_tau, splitting = data
    nd = NumericalData(M_sigma, M_sigma, M_tau, splitting)
    assert nd.e[-1] == 1 and nd.M_tau == M_tau
    assert 0 <= nd.c_conductor <= nd.Delta
