"""Tests for the brute-force valuation and filtration oracle.

Expected orders come from substituting the parametrizations by hand;
expected dimension tables from row-reducing the small coefficient matrices
by hand (levels of ambient-field branches split into one rational row per
field coordinate). The longer frozen tables were additionally cross-checked
against the independent binomial-product pipeline, which is exercised
explicitly in the differential tests at the bottom.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import GenericCenter
from artifact.exactfield import AmbientField
from artifact.linalg import SparseRowSpace, rref
from artifact.oracle import (
    FiltrationReport,
    PolyXY,
    _monomial_columns,
    divisorial_filtration_dims,
    divisorial_value,
    filtration_dims,
    observed_semigroup,
    value_of,
)
from artifact.poincare import (
    classical_series,
    divisorial_series,
    expand,
    membership,
    numerical_data,
)
from artifact.ratfunc import INFINITY, Poly
from artifact.resolution import (
    GENERIC,
    BranchParam,
    generic_curvette,
    resolve,
)

from slow_paths import conjugate_param
from test_acceptance import CORPUS, DIVISORIAL_TARGETS

Q = AmbientField([0, 1])
SQ2 = AmbientField([-2, 0, 1])

X = PolyXY.monomial(1, 0)
Y = PolyXY.monomial(0, 1)


def cusp():
    return BranchParam(Q, 2, [(3, 1)])


def smooth_line():
    return BranchParam(Q, 1, [])


def sqrt2_line():
    return BranchParam(SQ2, 1, [(1, SQ2.gen())])


def sqrt2_cusp():
    return BranchParam(SQ2, 2, [(3, SQ2.gen())])


def cusp_sqrt2_tail():
    return BranchParam(SQ2, 2, [(3, 1), (4, SQ2.gen())])


def tangent_cusp():
    return BranchParam(SQ2, 2, [(2, SQ2.gen()), (3, 1)])


def two_pair_sqrt2():
    return BranchParam(SQ2, 4, [(6, SQ2.gen()), (7, 1)])


def curvette_at_end(p, extra=0):
    graph, recs = resolve(p, extra_steps=extra)
    return graph, recs, generic_curvette(graph, recs)


# --- polynomials in the base coordinates --------------------------------------

def test_polyxy_normalizes_terms():
    f = PolyXY([(0, 1, 2), (1, 0, 1), (0, 1, -2), (2, 2, 0)])
    assert f.terms == ((1, 0, Fraction(1)),)
    assert PolyXY([]).terms == ()
    assert not PolyXY([])
    assert bool(f)
    assert PolyXY([(0, 0, "1/2")]).terms == ((0, 0, Fraction(1, 2)),)
    with pytest.raises(ValueError):
        PolyXY([(-1, 0, 1)])


def test_polyxy_arithmetic():
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert -(X - Y) == Y - X
    assert (X * Y).degree == 2
    assert PolyXY([]).degree == -1
    assert PolyXY.monomial(2, 1, 3).terms == ((2, 1, Fraction(3)),)
    assert hash(X * Y) == hash(PolyXY([(1, 1, 1)]))
    assert X + (-X) == PolyXY([])


# --- sparse exact rank bookkeeping --------------------------------------------

def test_sparse_row_space_tracks_rank():
    space = SparseRowSpace()
    assert space.rank == 0
    assert space.add({0: 1, 2: 3})
    assert space.add({0: 2, 1: 1})
    # 2 (first) - (second), i.e. the row {1: -1/2, 2: 3} scaled by 2
    assert not space.add({1: -1, 2: 6})
    assert not space.add({})
    assert not space.add({0: 0, 5: 0})
    assert space.add({5: 7})
    assert space.rank == 3
    # dependent on all three
    assert not space.add({0: 3, 1: 1, 2: 3, 5: 14})


def test_sparse_row_space_rejects_exact_combinations():
    # the rows {0: 1/3, 1: 1} and {1: 2/7, 2: 1} scaled by 3 and 7; the
    # probe 14 (first) + 6 (second) is 6 times the sum of the unscaled rows,
    # scaled by 7, and the last probe changes one of its entries
    space = SparseRowSpace()
    space.add({0: 1, 1: 3})
    space.add({1: 2, 2: 7})
    assert not space.add({0: 14, 1: 54, 2: 42})
    assert space.add({0: 14, 1: 54, 2: 35})


def test_column_echelon_counts_leads_per_level():
    # keys are (level, coordinate); the second column shares the first's
    # lead and is twice it up to level 1, so it is stored at level 2; the
    # fourth loses its lead (1, 0) to the third and keeps level 1
    columns = [
        {(0, 0): 1, (1, 0): 2, (1, 1): 1},
        {(0, 0): 2, (1, 0): 4, (1, 1): 2, (2, 1): 3},
        {(1, 0): 1, (2, 0): 5},
        {(1, 0): 3, (1, 1): 1, (2, 0): 15},
    ]
    space = SparseRowSpace()
    assert [space.add(c) for c in columns] == [True] * 4
    assert sorted(space.rows) == [(0, 0), (1, 0), (1, 1), (2, 1)]
    assert space.rows[(2, 1)] == {(2, 1): 1}
    leads = Counter(level for level, _key in space.rows)
    keys = sorted({k for c in columns for k in c})
    ranks = [len(rref([[c.get(k, 0) for c in columns]
                       for k in keys if k[0] <= v])[0]) for v in range(3)]
    assert [leads[v] for v in range(3)] == \
        [ranks[0], ranks[1] - ranks[0], ranks[2] - ranks[1]] == [1, 2, 1]
    assert not space.add({(1, 0): 1, (1, 1): 1, (2, 0): 5, (2, 1): 7})


# --- report validation ---------------------------------------------------------

def test_filtration_report_validates():
    FiltrationReport(V=1, dims=(1, 0), mode="curve")
    with pytest.raises(ValueError):
        FiltrationReport(V=1, dims=(1, 0), mode="orbifold")
    with pytest.raises(ValueError):
        FiltrationReport(V=2, dims=(1, 0), mode="curve")
    with pytest.raises(ValueError):
        FiltrationReport(V=1, dims=(1, -1), mode="divisorial")


# --- orders along a branch -----------------------------------------------------

def test_value_of_reads_order_and_leading_coefficient():
    assert value_of(Y, cusp()) == (3, Q.one())
    assert value_of(X, cusp()) == (2, Q.one())
    assert value_of(X + Y, cusp()) == (2, Q.one())
    assert value_of(PolyXY([(0, 1, Fraction(3, 2))]), cusp()) == \
        (3, Q.from_fraction(Fraction(3, 2)))
    assert value_of(Y, sqrt2_cusp()) == (3, SQ2.gen())
    # y^2 - x^3 picks up the tail term: (t^3 + s t^4)^2 - t^6 = 2s t^7 + ...
    assert value_of(Y * Y - X * X * X, cusp_sqrt2_tail()) == \
        (7, SQ2.gen() + SQ2.gen())
    assert value_of(PolyXY([(0, 0, 5)]), cusp()) == (0, Q.from_fraction(5))


def test_value_of_certifies_infinite_order_exactly():
    assert value_of(Y * Y - X * X * X, cusp()) == (INFINITY, None)
    assert value_of(Y * Y - PolyXY.monomial(2, 0, 2), sqrt2_line()) == \
        (INFINITY, None)
    assert value_of(PolyXY([]), cusp()) == (INFINITY, None)


def test_value_of_handles_generic_markers():
    p = BranchParam(Q, 2, [(3, GENERIC)])
    order, lead = value_of(Y * Y - X * X * X, p)
    assert order == 6 and lead is not None
    assert value_of(Y, p)[0] == 3


# --- filtration dimensions ------------------------------------------------------

def test_filtration_dims_smooth_line():
    report = filtration_dims(smooth_line(), 5)
    assert report.dims == (1, 1, 1, 1, 1, 1)
    assert report.V == 5 and report.mode == "curve"


def test_filtration_dims_cusp():
    assert filtration_dims(cusp(), 6).dims == (1, 0, 1, 1, 1, 1, 1)


def test_filtration_dims_sqrt2_line():
    # level 1 has basis {x, y}: a + b*sqrt(2) = 0 forces a = b = 0 over Q
    assert filtration_dims(sqrt2_line(), 3).dims == (1, 2, 2, 2)


def test_filtration_dims_frozen_field_cases():
    assert filtration_dims(cusp_sqrt2_tail(), 12).dims == \
        (1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2)
    assert filtration_dims(tangent_cusp(), 11).dims == \
        (1, 0, 2, 0, 2, 1, 2, 2, 2, 2, 2, 2)
    assert filtration_dims(two_pair_sqrt2(), 16).dims == \
        (1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1)


def test_filtration_dims_rejects_bad_input():
    with pytest.raises(ValueError):
        filtration_dims(cusp(), -1)
    with pytest.raises(GenericCenter):
        filtration_dims(BranchParam(Q, 2, [(3, GENERIC)]), 4)


def test_degree_bound_gives_stable_prefixes():
    # the same levels computed under a larger degree bound cannot change
    low = filtration_dims(cusp(), 6).dims
    high = filtration_dims(cusp(), 10).dims
    assert high[:7] == low
    low = filtration_dims(tangent_cusp(), 7).dims
    high = filtration_dims(tangent_cusp(), 11).dims
    assert high[:8] == low


# --- observed semigroups ---------------------------------------------------------

def test_observed_semigroup_examples():
    assert observed_semigroup(cusp(), 6) == {0, 2, 3, 4, 5, 6}
    assert observed_semigroup(smooth_line(), 4) == {0, 1, 2, 3, 4}
    assert observed_semigroup(sqrt2_cusp(), 6) == {0, 2, 3, 4, 5, 6}


def test_observed_semigroup_matches_membership_sieve():
    for p, V in [(cusp(), 10), (cusp_sqrt2_tail(), 14),
                 (tangent_cusp(), 12), (two_pair_sqrt2(), 18)]:
        graph, recs = resolve(p)
        nd = numerical_data(graph, recs)
        expected = {v for v in range(V + 1) if membership(nd.M_sigma, v)}
        assert observed_semigroup(p, V) == expected


# --- divisorial values ------------------------------------------------------------

def test_divisorial_value_examples():
    _g, _r, first = curvette_at_end(smooth_line())
    assert divisorial_value(X, first) == 1
    assert divisorial_value(Y, first) == 1
    _g, _r, second = curvette_at_end(smooth_line(), extra=1)
    assert divisorial_value(Y, second) == 2
    assert divisorial_value(X, second) == 1
    _g, _r, at_rupture = curvette_at_end(cusp())
    assert divisorial_value(Y * Y - X * X * X, at_rupture) == 6
    assert divisorial_value(PolyXY([]), at_rupture) is INFINITY


def test_divisorial_value_needs_the_indeterminate():
    # the curvette family is x = (1+c) t^2, y = (1+c) t^3, so the order-6
    # coefficient of y^2 - x^3 is -c (1+c)^2: it vanishes at both excluded
    # constants (c = 0 is the branch, c = -1 the corner) and polynomial
    # identity in c must still see the order
    graph, _recs, gc = curvette_at_end(cusp())
    s = gc.y * gc.y - gc.x * gc.x * gc.x
    amb = graph.ambient
    lead = s.coeff(6)
    minus_c_times_one_plus_c_squared = Poly(
        amb, [amb.zero(), amb.from_fraction(-1), amb.from_fraction(-2),
              amb.from_fraction(-1)])
    assert s.order() == 6
    assert lead == minus_c_times_one_plus_c_squared
    assert not lead.evaluate(amb.zero())
    assert not lead.evaluate(amb.from_fraction(-1))
    assert bool(lead)


def test_divisorial_filtration_first_blow_up():
    _g, _r, first = curvette_at_end(smooth_line())
    report = divisorial_filtration_dims(first, 3)
    assert report.dims == (1, 2, 3, 4)
    assert report.V == 3 and report.mode == "divisorial"


def test_divisorial_filtration_second_blow_up_along_y0():
    _g, _r, second = curvette_at_end(smooth_line(), extra=1)
    assert divisorial_filtration_dims(second, 4).dims == (1, 1, 2, 2, 3)


def test_divisorial_filtration_cusp_rupture():
    graph, recs, gc = curvette_at_end(cusp())
    report = divisorial_filtration_dims(gc, 6)
    assert report.dims == (1, 0, 1, 1, 1, 1, 2)
    nd = numerical_data(graph, recs, mode="divisorial")
    assert report.dims == expand(divisorial_series(nd), 6).coeffs


def test_divisorial_filtration_frozen_field_cases():
    _g, _r, gc = curvette_at_end(sqrt2_line())
    assert divisorial_filtration_dims(gc, 6).dims == (1, 2, 2, 3, 4, 4, 5)
    _g, _r, gc = curvette_at_end(cusp_sqrt2_tail(), extra=1)
    assert divisorial_filtration_dims(gc, 12).dims == \
        (1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        divisorial_filtration_dims(gc, -2)


# --- differentials against the closed-form series --------------------------------

def test_dims_match_classical_series_on_corpus():
    for p, V in [(cusp(), 12), (sqrt2_line(), 8), (sqrt2_cusp(), 12),
                 (cusp_sqrt2_tail(), 14), (tangent_cusp(), 12),
                 (two_pair_sqrt2(), 20)]:
        graph, recs = resolve(p)
        nd = numerical_data(graph, recs)
        assert filtration_dims(p, V).dims == \
            expand(classical_series(nd), V).coeffs


def test_divisorial_dims_match_divisorial_series():
    for p, extra, V in [(smooth_line(), 1, 8), (cusp(), 2, 12),
                        (sqrt2_line(), 0, 8)]:
        graph, recs = resolve(p, extra_steps=extra)
        nd = numerical_data(graph, recs, mode="divisorial")
        gc = generic_curvette(graph, recs)
        assert divisorial_filtration_dims(gc, V).dims == \
            expand(divisorial_series(nd), V).coeffs


# --- the integer profile against stacked Fraction blocks --------------------------

def _rational_coords(c):
    """(key, Fraction) coordinates of a tau-coefficient: an ambient-field
    element, or a polynomial in the curvette constant."""
    if isinstance(c, Poly):
        return [((e, k), q) for e, a in enumerate(c.coeffs)
                for k, q in enumerate(a.coords)]
    return list(enumerate(c.coords))


def stacked_block_dims(x, y, V):
    """dims[v] = rank(blocks 0..v) - rank(blocks 0..v-1) of the Fraction
    matrix over every monomial of total degree <= V, by linalg.rref."""
    def cut(p):
        return Poly(p.ring, p.coeffs[:V + 1])

    images = []
    xi = Poly(x.ring, [x.ring.one()])
    for i in range(V + 1):
        img = xi
        for _j in range(V + 1 - i):
            if img:
                images.append(img)
            img = cut(img * y)
        xi = cut(xi * x)
    dims = []
    basis = []
    for v in range(V + 1):
        block = {}
        for col, img in enumerate(images):
            for key, q in _rational_coords(img.coeff(v)):
                block.setdefault(key, [Fraction(0)] * len(images))[col] = q
        grown, _pivots = rref(basis + list(block.values()))
        dims.append(len(grown) - len(basis))
        basis = grown
    return tuple(dims)


# corpus branches plus two whose coordinates carry several denominators
FRACTIONAL = [
    ("q_thirds", BranchParam(Q, 2, [(3, Q.from_fraction(Fraction(1, 3))),
                                    (4, Q.from_fraction(Fraction(2, 5)))])),
    ("sq2_halves", BranchParam(SQ2, 2, [
        (3, 1), (5, SQ2.gen() / SQ2.from_fraction(2)),
        (6, SQ2.from_fraction(Fraction(3, 7)))])),
]


@pytest.mark.parametrize("name,p", CORPUS + FRACTIONAL,
                         ids=[n for n, _p in CORPUS + FRACTIONAL])
def test_filtration_dims_match_stacked_fraction_blocks(name, p):
    V = 16
    assert filtration_dims(p, V).dims == stacked_block_dims(*branch_xy(p), V)


# divisorial targets plus two on which clearing each column per level
# instead of once changes the dims
FRACTIONAL_TARGETS = [
    ("q_halves", BranchParam(Q, 4, [(6, Q.from_fraction(Fraction(1, 2))),
                                    (9, Q.from_fraction(3))]), 0),
    ("q_sevenths", BranchParam(Q, 3, [(6, Q.from_fraction(Fraction(1, 7))),
                                      (7, Q.from_fraction(Fraction(2, 5)))]),
     1),
]


@pytest.mark.parametrize(
    "name,p,extra", DIVISORIAL_TARGETS + FRACTIONAL_TARGETS,
    ids=[n for n, _p, _e in DIVISORIAL_TARGETS + FRACTIONAL_TARGETS])
def test_divisorial_dims_match_stacked_fraction_blocks(name, p, extra):
    graph, recs = resolve(p, extra_steps=extra)
    gc = generic_curvette(graph, recs)
    V = 16
    assert divisorial_filtration_dims(gc, V).dims == \
        stacked_block_dims(gc.x, gc.y, V)


# --- shifted columns and the column echelon against the row-block reference -----

def branch_xy(p):
    x = Poly.monomial(p.ambient, p.x_coeff, p.x_order)
    coeffs = [p.ambient.zero()] * (p.y_terms[-1][0] + 1 if p.y_terms else 0)
    for exp, c in p.y_terms:
        coeffs[exp] = c
    return x, Poly(p.ambient, coeffs)


def product_columns(x, y, V):
    """{(i, j): integer column} for every monomial x^i y^j of value <= V:
    the product of the powers x^i and y^j up to tau^V, keyed by (tau
    order, coordinate key) and cleared of its own denominators."""
    def cut(p):
        return Poly(p.ring, p.coeffs[:V + 1])

    ox, oy = x.order(), y.order()
    xs = [Poly(x.ring, [x.ring.one()])]
    ys = list(xs)
    while ox is not INFINITY and len(xs) * ox <= V:
        xs.append(cut(xs[-1] * x))
    while oy is not INFINITY and len(ys) * oy <= V:
        ys.append(cut(ys[-1] * y))
    out = {}
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            if (i * ox if i else 0) + (j * oy if j else 0) > V:
                continue
            image = xi.mul_upto(yj, V)
            entries = {(v, key): q for v, c in enumerate(image.coeffs)
                       for key, q in _rational_coords(c) if q}
            scale = lcm(*(q.denominator for q in entries.values()))
            out[(i, j)] = {k: int(q * scale) for k, q in entries.items()}
    return out


def _primitive_up_to_sign(column):
    g = 0
    for a in column.values():
        g = gcd(g, a)
    sign = -1 if column and column[min(column)] < 0 else 1
    return {k: sign * a // g for k, a in column.items()}


class ScanRowSpace:
    """The elimination the column echelon replaced: a row is reduced
    against every stored row in turn, by its stored pivot column."""

    def __init__(self):
        self.rows = []
        self.pivcols = []

    def add(self, row):
        work = {c: v for c, v in row.items() if v}
        for piv, col in zip(self.rows, self.pivcols):
            lead = work.get(col)
            if lead:
                merged = {c: piv[col] * v for c, v in work.items()}
                for c, v in piv.items():
                    merged[c] = merged.get(c, 0) - lead * v
                work = _primitive_up_to_sign(
                    {c: v for c, v in merged.items() if v})
        if not work:
            return False
        self.rows.append(work)
        self.pivcols.append(min(work))
        return True


def row_block_dims(x, y, V):
    """dims[v] = the number of independent rows that the tau^v block adds:
    the product-built columns are transposed into one row per (level,
    coordinate key) and fed level by level, in sorted key order."""
    blocks = [{} for _ in range(V + 1)]
    columns = product_columns(x, y, V)
    for ci, ij in enumerate(sorted(columns)):
        for (v, key), a in columns[ij].items():
            blocks[v].setdefault(key, {})[ci] = a
    space = ScanRowSpace()
    dims = []
    for rows in blocks:
        added = 0
        for key in sorted(rows):
            if space.add(rows[key]):
                added += 1
        dims.append(added)
    return tuple(dims)


def _workload_V(p):
    return 30 if p.ambient.degree == 1 else 40


# the curve documents of the oracle_quartic benchmark ladders, up to sign
QUARTIC_DOCS = [(name, dict(CORPUS)[name], V) for name, V in
                (("biq_cusp", 40), ("qrt_cusp", 40), ("biq_two_jumps", 32))]

# x = sqrt(2) tau^2 is no shift of tau^2: its columns are products
SCALED_X = [("sq2_scaled_x", BranchParam(SQ2, 2, [(3, 1), (4, SQ2.gen())],
                                         x_coeff=SQ2.gen()), 16)]


@pytest.mark.parametrize(
    "name,p,V",
    [(n, p, 16) for n, p in CORPUS + FRACTIONAL] + QUARTIC_DOCS + SCALED_X,
    ids=[n for n, _p in CORPUS + FRACTIONAL]
    + ["%s_V%d" % (n, V) for n, _p, V in QUARTIC_DOCS] + ["sq2_scaled_x"])
def test_shifted_columns_equal_product_columns(name, p, V):
    x, y = branch_xy(p)
    ref = product_columns(x, y, V)
    got = list(_monomial_columns(x, y, V))
    assert len(got) == len(ref)
    assert [_primitive_up_to_sign(c) for c in got] == \
        [_primitive_up_to_sign(ref[ij]) for ij in sorted(ref, reverse=True)]


@pytest.mark.parametrize("name,p", CORPUS, ids=[n for n, _p in CORPUS])
def test_curve_dims_equal_row_block_reference(name, p):
    V = _workload_V(p)
    assert filtration_dims(p, V).dims == row_block_dims(*branch_xy(p), V)


@pytest.mark.parametrize("name,p,extra", DIVISORIAL_TARGETS,
                         ids=[n for n, _p, _e in DIVISORIAL_TARGETS])
def test_divisorial_dims_equal_row_block_reference(name, p, extra):
    graph, recs = resolve(p, extra_steps=extra)
    exact = generic_curvette(graph, recs)
    cut = generic_curvette(graph, recs, bound=30)
    assert divisorial_filtration_dims(cut, 30).dims == \
        row_block_dims(exact.x, exact.y, 30)


CUSP_LADDER_TARGETS = [
    ("cusp_k%d_div%d" % (k, extra),
     BranchParam(Q, 2, [(2 * k + 1, 1), (2 * k + 2, 1), (2 * k + 3, 1)]),
     extra)
    for k, extra in ((8, 1), (12, 2), (16, 3))]


@pytest.mark.parametrize(
    "name,p,extra", DIVISORIAL_TARGETS + CUSP_LADDER_TARGETS,
    ids=[n for n, _p, _e in DIVISORIAL_TARGETS + CUSP_LADDER_TARGETS])
def test_generic_curvette_with_bound_is_the_cut_curvette(name, p, extra):
    graph, recs = resolve(p, extra_steps=extra)
    exact = generic_curvette(graph, recs)
    for V in sorted({0, 1, exact.x.order() - 1, 16, 30}):
        cut = generic_curvette(graph, recs, bound=V)
        assert cut.x == Poly(exact.ring, exact.x.coeffs[:V + 1]), V
        assert cut.y == Poly(exact.ring, exact.y.coeffs[:V + 1]), V


# --- generic markers against scaled divisorial values ------------------------------

def test_generic_marker_matches_scaled_divisorial_value():
    probes = [Y * Y - X * X * X, X + Y, Y * Y * Y - X * X * X * X,
              X * X + Y * Y * Y, Y, Y * Y - PolyXY.monomial(2, 0, 2)]
    for p in [BranchParam(Q, 2, [(3, GENERIC)]),
              BranchParam(Q, 2, [(3, 1), (5, GENERIC)]),
              BranchParam(Q, 4, [(6, GENERIC), (7, 1)])]:
        graph, recs = resolve(p)
        n = graph.n_case3
        gc = generic_curvette(graph, recs)
        for f in probes:
            assert value_of(f, p)[0] == n * divisorial_value(f, gc)


def test_higher_contact_generic_marker_doubles_values():
    graph, recs = resolve(BranchParam(Q, 4, [(6, GENERIC), (7, 1)]))
    assert graph.n_case3 == 2
    gc = generic_curvette(graph, recs)
    assert divisorial_value(Y * Y - X * X * X, gc) == 6
    assert value_of(Y * Y - X * X * X,
                    BranchParam(Q, 4, [(6, GENERIC), (7, 1)]))[0] == 12


# --- conjugation invariance ---------------------------------------------------------

def test_conjugation_leaves_dims_and_orders_alone():
    p = cusp_sqrt2_tail()
    q = conjugate_param(p, -SQ2.gen())
    assert filtration_dims(p, 12).dims == filtration_dims(q, 12).dims
    assert observed_semigroup(p, 12) == observed_semigroup(q, 12)
    for f in [Y * Y - X * X * X, X + Y, Y * Y - PolyXY.monomial(2, 0, 2)]:
        assert value_of(f, p)[0] == value_of(f, q)[0]


# --- valuation axioms on random polynomials -----------------------------------------

@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(min_value=1, max_value=4))
    terms = []
    for _ in range(n_terms):
        i = draw(st.integers(min_value=0, max_value=3))
        j = draw(st.integers(min_value=0, max_value=3))
        q = draw(st.integers(min_value=-4, max_value=4))
        terms.append((i, j, q))
    return PolyXY(terms)


@settings(max_examples=30, deadline=None)
@given(small_polys(), small_polys())
def test_valuation_axioms_on_random_polynomials(f, g):
    for p in [cusp(), sqrt2_line()]:
        vf = value_of(f, p)[0]
        vg = value_of(g, p)[0]
        vfg = value_of(f * g, p)[0]
        if vf is not INFINITY and vg is not INFINITY:
            assert vfg == vf + vg
        else:
            assert vfg is INFINITY
        vsum = value_of(f + g, p)[0]
        assert vsum >= min(vf, vg)
        if vf != vg:
            assert vsum == min(vf, vg)
