"""Tests for the brute-force valuation and filtration oracle.

Expected orders come from substituting the parametrizations by hand;
expected dimension tables from row-reducing the small coefficient matrices
by hand (levels of ambient-field branches split into one rational row per
field coordinate). The longer frozen tables were additionally cross-checked
against the independent binomial-product pipeline, which is exercised
explicitly in the differential tests at the bottom.
"""

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from artifact import cli, linalg, oracle
from artifact.errors import ArtifactError, GenericCenter
from artifact.exactfield import AlgNum, AmbientField
from artifact.linalg import SparseRowSpace
from artifact.oracle import (
    FiltrationReport,
    _c_degree,
    _filtration,
    _keyed_table,
    _times,
    divisorial_filtration_dims,
    filtration_dims,
)
from artifact.poincare import (
    classical_series,
    divisorial_series,
    expand,
    numerical_data,
)
from artifact.ratfunc import INFINITY, Poly, PolyRing
from artifact.resolution import (
    GENERIC,
    BranchParam,
    coordinates,
    generic_curvette,
    resolve,
)

from output_checks import (
    PolyXY,
    divisorial_value,
    membership,
    observed_semigroup,
    value_of,
)
from slow_paths import (
    _monomial_columns,
    conjugate_param,
    evaluate_poly,
    reference_filtration_dims,
    reference_residue_dims,
    reference_table,
    rref,
    sorted_monomial_adds,
    tuple_times,
)
from test_chart_states import WORKLOADS
from test_acceptance import (
    BIQ,
    CBRT2,
    CORPUS,
    DIVISORIAL_TARGETS,
    GENERIC_FAMILIES,
    GOLDEN,
    QRT2,
    SQ3,
)

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
    assert len(space.rows) == 0
    assert space.add({0: 1, 2: 3})
    assert space.add({0: 2, 1: 1})
    # 2 (first) - (second), i.e. the row {1: -1/2, 2: 3} scaled by 2
    assert not space.add({1: -1, 2: 6})
    assert not space.add({})
    assert not space.add({0: 0, 5: 0})
    assert space.add({5: 7})
    assert len(space.rows) == 3
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


def test_a_stored_vector_is_divided_by_its_content():
    """The content 2 of {3: 2, 7: -4} is divided out, not only a content
    above 2."""
    space = SparseRowSpace()
    assert space.add({3: 2, 7: -4}) == {3: 1, 7: -2}
    assert space.rows == {3: {3: 1, 7: -2}}


def test_the_quartic_verifications_store_primitive_vectors(tmp_path,
                                                           monkeypatch):
    """Every vector the oracle stores while verify runs the
    oracle_quartic workload (seed 1) has content 1, and there are at least
    218 of them; contents of 2 occur among the rows fed."""
    stored = []
    contents = set()
    add = SparseRowSpace.add

    def checked(space, row):
        out = add(space, row)
        contents.add(gcd(*row.values()))
        if out:
            stored.append(gcd(*out.values()))
        return out

    monkeypatch.setattr(SparseRowSpace, "add", checked)
    items = WORKLOADS.generate("oracle_quartic", 1)
    paths = WORKLOADS.write_documents(items, str(tmp_path))
    for item, path in zip(items, paths):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", path, "--max-order", str(item["max_order"])])
    assert len(stored) >= 218 and set(stored) == {1}
    assert 2 in contents


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
    added = [space.add(c) for c in columns]
    assert [bool(vec) for vec in added] == [True] * 4
    assert all(vec is space.rows[min(vec)] for vec in added)
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
    assert FiltrationReport((1, 0)).dims == (1, 0)
    assert FiltrationReport.__slots__ == ("dims",)
    with pytest.raises(ValueError):
        FiltrationReport(dims=(1, -1))


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
    assert report == FiltrationReport((1, 1, 1, 1, 1, 1))


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
    assert not evaluate_poly(lead, amb.zero())
    assert not evaluate_poly(lead, amb.from_fraction(-1))
    assert bool(lead)


def test_divisorial_filtration_first_blow_up():
    _g, _r, first = curvette_at_end(smooth_line())
    report = divisorial_filtration_dims(first, 3)
    assert report.dims == (1, 2, 3, 4)
    assert report == FiltrationReport((1, 2, 3, 4))


def test_divisorial_filtration_second_blow_up_along_y0():
    _g, _r, second = curvette_at_end(smooth_line(), extra=1)
    assert divisorial_filtration_dims(second, 4).dims == (1, 1, 2, 2, 3)


def test_divisorial_filtration_cusp_rupture():
    graph, recs, gc = curvette_at_end(cusp())
    report = divisorial_filtration_dims(gc, 6)
    assert report.dims == (1, 0, 1, 1, 1, 1, 2)
    nd = numerical_data(graph, recs, mode="divisorial")
    assert report.dims == expand(divisorial_series(nd), 6)


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
            expand(classical_series(nd), V)


def test_divisorial_dims_match_divisorial_series():
    for p, extra, V in [(smooth_line(), 1, 8), (cusp(), 2, 12),
                        (sqrt2_line(), 0, 8)]:
        graph, recs = resolve(p, extra_steps=extra)
        nd = numerical_data(graph, recs, mode="divisorial")
        gc = generic_curvette(graph, recs)
        assert divisorial_filtration_dims(gc, V).dims == \
            expand(divisorial_series(nd), V)


# --- the integer profile against stacked Fraction blocks --------------------------

def _rational_coords(c):
    """((c power, field coordinate), Fraction) coordinates of a
    tau-coefficient: a polynomial in the curvette constant, or an
    ambient-field element, which is a constant in c."""
    algs = c.coeffs if isinstance(c, Poly) else [c]
    return [((e, k), q) for e, a in enumerate(algs)
            for k, q in enumerate(a.coords)]


def stacked_block_dims(x, y, V):
    """dims[v] = rank(blocks 0..v) - rank(blocks 0..v-1) of the Fraction
    matrix over every monomial of total degree <= V, by the Fraction rref."""
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
    assert filtration_dims(p, V).dims == \
        stacked_block_dims(*coordinates(p), V)


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


# --- monomial columns and the column echelon against the row-block reference ----

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


def _primitive_columns(columns):
    """Each integer column divided by the gcd of its entries, sign kept."""
    out = []
    for column in columns:
        g = gcd(*column.values())
        out.append({k: a // g for k, a in column.items()})
    return out


def assert_columns_equal_product_columns(x, y, V, field):
    """The reference columns are, up to a positive factor each, the
    product-built ones, in reverse lexicographic (i, j) order."""
    ref = product_columns(x, y, V)
    got = list(_monomial_columns(x, y, V, field))
    assert len(got) == len(ref)
    assert _primitive_columns(got) == \
        _primitive_columns(ref[ij] for ij in sorted(ref, reverse=True))


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


# the curve documents of the oracle_quartic benchmark ladders
QUARTIC_DOCS = [(name, dict(CORPUS)[name], V) for name, V in
                (("biq_cusp", 40), ("qrt_cusp", 40), ("biq_two_jumps", 32))]

# x = sqrt(2) tau^2: each x step scales as well as shifts
SCALED_X = [("sq2_scaled_x", BranchParam(SQ2, 2, [(3, 1), (4, SQ2.gen())],
                                         x_coeff=SQ2.gen()), 16)]


@pytest.mark.parametrize(
    "name,p,V",
    [(n, p, 16) for n, p in CORPUS + FRACTIONAL] + QUARTIC_DOCS + SCALED_X,
    ids=[n for n, _p in CORPUS + FRACTIONAL]
    + ["%s_V%d" % (n, V) for n, _p, V in QUARTIC_DOCS] + ["sq2_scaled_x"])
def test_shifted_columns_equal_product_columns(name, p, V):
    # on a branch x is a*tau^m, so each x step of the reference builder is
    # a shift
    assert_columns_equal_product_columns(*coordinates(p), V, p.ambient)


CUSP_LADDER_TARGETS = [
    ("cusp_k%d_div%d" % (k, extra),
     BranchParam(Q, 2, [(2 * k + 1, 1), (2 * k + 2, 1), (2 * k + 3, 1)]),
     extra)
    for k, extra in ((8, 1), (12, 2), (16, 3))]

# the divisorial document of the oracle_quartic benchmark: x = t^2/2 + ..
# has three terms
BIQ_DIV1 = [("biq_cusp_div1", dict(CORPUS)["biq_cusp"], 1)]

CURVETTE_TARGETS = (DIVISORIAL_TARGETS + FRACTIONAL_TARGETS
                    + CUSP_LADDER_TARGETS + BIQ_DIV1)


@pytest.mark.parametrize("name,p,extra", CURVETTE_TARGETS,
                         ids=[n for n, _p, _e in CURVETTE_TARGETS])
def test_monomial_columns_equal_product_columns(name, p, extra):
    # on a curvette x is mostly not tau^m: the x steps are convolutions
    graph, recs = resolve(p, extra_steps=extra)
    gc = generic_curvette(graph, recs)
    assert_columns_equal_product_columns(gc.x, gc.y, 24, gc.ambient)


# the documents of the oracle_quartic benchmark ladders, each at its own V
# (extra None: the curve oracle of the branch)
QUARTIC_LADDER = [
    ("quartic_%s%s" % (doc, "_div%d" % extra if extra else ""),
     dict(CORPUS)[doc], extra, V)
    for doc, extra, ladder in (
        ("biq_cusp", None, (40, 60, 80)),
        ("qrt_cusp", None, (40, 80, 120)),
        ("biq_two_jumps", None, (24, 32)),
        ("biq_cusp", 1, (20, 24)),
        ("qrt_cusp", 1, (20, 30, 40)))
    for V in ladder]

# verify took seconds on this tiny divisorial document before the oracle
# worked below tau^V only
GOLDEN_DENSE = BranchParam(GOLDEN, 1, [
    (1, GOLDEN.from_fraction(Fraction(-3, 2)) - GOLDEN.gen()),
    (2, GOLDEN.from_fraction(2)), (4, -GOLDEN.gen())])

DIFFERENTIAL = (
    QUARTIC_LADDER
    + [(n, p, None, V) for V in (24, 40)
       for n, p in CORPUS + FRACTIONAL + [(n, p) for n, p, _V in SCALED_X]]
    + [(n, p, extra, V) for V in (24, 40)
       for n, p, extra in CURVETTE_TARGETS]
    + [("golden_dense_div0", GOLDEN_DENSE, 0, 30)])


@pytest.mark.parametrize(
    "name,p,extra,V", DIFFERENTIAL,
    ids=["%s_V%d" % (n, V) for n, _p, _e, V in DIFFERENTIAL])
def test_filtration_dims_equal_raw_column_reference(name, p, extra, V):
    # the runtime reduces x (or y) times the vector stored for the
    # predecessor monomial; the reference reduces every raw column in full
    if extra is None:
        x, y = coordinates(p)
        assert filtration_dims(p, V).dims == \
            reference_filtration_dims(x, y, V, p.ambient)
    else:
        graph, recs = resolve(p, extra_steps=extra)
        gc = generic_curvette(graph, recs, bound=V)
        assert divisorial_filtration_dims(gc, V).dims == \
            reference_filtration_dims(gc.x, gc.y, V, gc.ambient)


def counting_reductions(monkeypatch):
    """Makes SparseRowSpace.add and linalg._primitive count themselves:
    returns the Counter of add calls ("add"), of the vectors they stored
    ("stored") and of _primitive calls ("primitive"). A reduction step is
    a _primitive call after the first of each add."""
    calls = Counter()
    primitive = linalg._primitive
    add = SparseRowSpace.add

    def counted_primitive(entries):
        calls["primitive"] += 1
        return primitive(entries)

    def counted_add(space, row):
        calls["add"] += 1
        out = add(space, row)
        calls["stored"] += bool(out)
        return out

    monkeypatch.setattr(linalg, "_primitive", counted_primitive)
    monkeypatch.setattr(SparseRowSpace, "add", counted_add)
    return calls


def test_oracle_reduction_steps_stay_linear(monkeypatch):
    """On biq_cusp with x = z*tau^2, where the oracle walks the x-chain of
    each power of y, reducing x or y times a reduced vector takes at most
    one step per stored vector: 99 steps for 364 vectors. The raw columns
    took 8594 steps for these 884 monomials."""
    p = _rescaled(dict(CORPUS)["biq_cusp"], BIQ.gen())
    V = 100
    x, y = coordinates(p)
    ox, oy = x.order(), y.order()
    monomials = sum((V - i * ox) // oy + 1 for i in range(V // ox + 1))
    assert monomials == 884
    calls = counting_reductions(monkeypatch)
    filtration_dims(p, V)
    assert calls["stored"] == 364
    assert 0 < calls["primitive"] - calls["add"] <= calls["stored"]


# --- integer keys against (tau order, (c power, coordinate)) tuples --------------

KEY_FIELDS = [Q, SQ2, SQ3, GOLDEN, CBRT2, BIQ, QRT2,
              AmbientField([Fraction(-1, 2), 0, 1])]


@st.composite
def tau_polys(draw, field, ring):
    """A tau-polynomial over the field, or over field[c] when ring is a
    PolyRing, of order 1 to 3 and at most three terms; coordinates may be
    fractions. Its lowest coefficient has a nonzero rational constant
    term, so table row 0 starts with a term at c power 0 and coordinate
    0: the product with a column entry (V + 1 - order, 0, 0) is keyed
    exactly at the cut."""
    n = field.degree
    coord = st.fractions(-3, 3, max_denominator=3)

    def element(constant=None):
        coords = draw(st.lists(coord, min_size=n, max_size=n))
        if constant is not None:
            coords[0] = constant
        return field.element(coords)

    def coefficient(lowest):
        constant = draw(st.integers(1, 3)) if lowest else None
        if ring is field:
            return element(constant)
        return Poly(field, [element(constant)] + [
            element() for _b in range(draw(st.integers(0, 2)))])

    order = draw(st.integers(1, 3))
    coeffs = [ring.zero()] * order + [coefficient(True)] + [
        coefficient(False) for _e in range(draw(st.integers(0, 2)))]
    return Poly(ring, coeffs)


def _keyed(column, W, n):
    return {v * W + a * n + k: m for (v, (a, k)), m in column.items()}


def _unkeyed(vector, W, n):
    """The integer-keyed vector as a tuple-keyed one, zeros dropped and
    divided by its content, as tuple_times returns it."""
    out = {(key // W, divmod(key % W, n)): m
           for key, m in vector.items() if m}
    g = gcd(*out.values())
    return {at: m // g for at, m in out.items()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_keyed_times_equals_tuple_times(data):
    """_times with the oracle's keyed table (_keyed_table) and the width W
    that _filtration derives, read back as (v, (a, k)), is tuple_times
    with the table built from Fraction products (reference_table), on
    random columns over the test fields, on a branch (no c) and on a
    curvette (c powers), with entries at level V, at the last level whose
    product survives the cut, at the first one whose product does not,
    and at the largest c power the width W admits for the table."""
    field = data.draw(st.sampled_from(KEY_FIELDS))
    ring = data.draw(st.sampled_from([field, PolyRing(field, "c")]))
    n = field.degree
    V = data.draw(st.integers(3, 8))
    x = data.draw(tau_polys(field, ring))
    y = data.draw(tau_polys(field, ring))
    imax, jmax = V // x.order(), V // y.order()
    bx, by = _c_degree(x, V), _c_degree(y, V)
    top = imax * bx + jmax * by
    W = n * (top + 1)
    for s, b_top in zip((x, y), (bx, by)):
        # a column that x (or y) multiplies has c-degree <= top - b_top
        a_max = top - b_top
        entry = st.tuples(st.integers(0, V), st.integers(0, a_max),
                          st.integers(0, n - 1))
        column = {(v, (a, k)): m for (v, a, k), m in data.draw(
            st.lists(st.tuples(entry, st.integers(-9, 9).filter(bool)),
                     max_size=8))}
        edge = V + 1 - s.order()
        column.update({(V, (0, 0)): 1, (edge, (0, 0)): -2,
                       (edge - 1, (0, n - 1)): 3, (0, (a_max, n - 1)): 5})
        table = _keyed_table(s, V, field, W)
        assert _unkeyed(_times(_keyed(column, W, n), table, (V + 1) * W),
                        W, n) == \
            tuple_times(column, reference_table(s, V, field), V)


def _field_terms(s, V):
    """Nonzero ambient-field coefficients of s up to tau^V, one per
    (tau power, c power)."""
    return sum(1 for c in s.coeffs[:V + 1]
               for a in (c.coeffs if isinstance(c, Poly) else [c]) if a)


@pytest.mark.parametrize("name,p,extra,V,bound", [
    ("biq_cusp_div1", dict(CORPUS)["biq_cusp"], 1, 40, 32),
    ("past_splitting_sq2_tail", dict(
        (n, p) for n, p, _e in DIVISORIAL_TARGETS)["past_splitting_sq2_tail"],
     1, 30, 20),
    ("biq_cusp_curve", dict(CORPUS)["biq_cusp"], None, 80, 12),
], ids=["biq_cusp_div1_V40", "past_splitting_sq2_tail_V30",
        "biq_cusp_curve_V80"])
def test_oracle_field_products_are_the_table_entries(monkeypatch, name, p,
                                                     extra, V, bound):
    """The oracle makes no ambient-field product: it tabulates x and y by
    reading at most one matrix of multiplication per nonzero (tau, c) term
    of each, that is at most bound / [L:Q] matrices, however many columns
    V brings."""
    if extra is None:
        x, y = coordinates(p)
    else:
        graph, recs = resolve(p, extra_steps=extra)
        gc = generic_curvette(graph, recs, bound=V)
        x, y = gc.x, gc.y
    assert p.ambient.degree * (_field_terms(x, V) + _field_terms(y, V)) \
        == bound
    calls = []
    matrices = []
    mul = AlgNum.__mul__
    mul_matrix = AmbientField.mul_matrix

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    def counted_matrix(field, num):
        matrices.append(1)
        return mul_matrix(field, num)

    monkeypatch.setattr(AlgNum, "__mul__", counted)
    monkeypatch.setattr(AlgNum, "__rmul__", counted)
    monkeypatch.setattr(AmbientField, "mul_matrix", counted_matrix)
    if extra is None:
        filtration_dims(p, V)
    else:
        divisorial_filtration_dims(gc, V)
    assert not calls
    assert 0 < len(matrices) <= bound // p.ambient.degree


@pytest.mark.parametrize("name,p", CORPUS, ids=[n for n, _p in CORPUS])
def test_curve_dims_equal_row_block_reference(name, p):
    V = _workload_V(p)
    assert filtration_dims(p, V).dims == row_block_dims(*coordinates(p), V)


@pytest.mark.parametrize("name,p,extra", DIVISORIAL_TARGETS,
                         ids=[n for n, _p, _e in DIVISORIAL_TARGETS])
def test_divisorial_dims_equal_row_block_reference(name, p, extra):
    graph, recs = resolve(p, extra_steps=extra)
    exact = generic_curvette(graph, recs)
    cut = generic_curvette(graph, recs, bound=30)
    assert divisorial_filtration_dims(cut, 30).dims == \
        row_block_dims(exact.x, exact.y, 30)


@pytest.mark.parametrize(
    "name,p,extra", DIVISORIAL_TARGETS + CUSP_LADDER_TARGETS,
    ids=[n for n, _p, _e in DIVISORIAL_TARGETS + CUSP_LADDER_TARGETS])
def test_generic_curvette_with_bound_is_the_cut_curvette(name, p, extra):
    graph, recs = resolve(p, extra_steps=extra)
    assert _cut_curvette_misses(graph, recs) == []


def _cut_curvette_misses(graph, recs):
    """The bounds V in 0..40 at which generic_curvette(graph, recs,
    bound=V) is not the whole curvette cut past tau^V, in x or y (shift
    and tail, by Poly equality)."""
    exact = generic_curvette(graph, recs)
    misses = []
    for V in range(41):
        cut = generic_curvette(graph, recs, bound=V)
        if (cut.x, cut.y) != (Poly(exact.x.ring, exact.x.coeffs[:V + 1]),
                              Poly(exact.x.ring, exact.y.coeffs[:V + 1])):
            misses.append(V)
    return misses


def test_drawn_generic_curvettes_with_bound_are_the_cut_curvettes():
    """The cut of each product at the precision the rest of the blow-down
    reads leaves x and y those of the whole curvette cut past tau^V, at
    every V in 0..40, on 200 divisorial curvettes (extra_steps 0 to 3) of
    seeded branches, some over z^2 - 1, where orders are only lower
    bounds; a drawn branch that cannot be resolved gives none."""
    rng = random.Random(13)
    failures, fields = [], Counter()
    while sum(fields.values()) < 200:
        p = _drawn_branch(rng)
        extra = rng.randint(0, 3)
        try:
            graph, recs = resolve(p, extra_steps=extra)
        except ArtifactError:
            continue
        fields[p.ambient] += 1
        misses = _cut_curvette_misses(graph, recs)
        if misses:
            failures.append("%r extra_steps %d: V = %s" % (p, extra, misses))
    assert not failures, "\n".join(failures)
    assert fields[Z2M1] >= 10


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


def family_xy(p):
    """x = x_coeff*tau^m and y of a generic-marker branch as polynomials in
    tau over L[lam], the marker replaced by the indeterminate lam."""
    lam = PolyRing(p.ambient, "lam")

    def lift(coeff):
        return lam.gen() if coeff is GENERIC else Poly(p.ambient, [coeff])

    coeffs = [lam.zero()] * (p.y_terms[-1][0] + 1)
    for exp, coeff in p.y_terms:
        coeffs[exp] = lift(coeff)
    return (Poly.monomial(lam, lift(p.x_coeff), p.x_order),
            Poly(lam, coeffs))


def _with_signs(p, seed):
    rng = random.Random(seed)
    return BranchParam(p.ambient, p.x_order, [
        (exp, c if c is GENERIC else c * rng.choice((1, -1)))
        for exp, c in p.y_terms], x_coeff=p.x_coeff)


FAMILY_DOCS = [("%s_seed%d" % (name, seed), _with_signs(p, seed))
               for name, p in zip(("cusp", "tail", "twopair", "sq2",
                                   "sq2_jump"), GENERIC_FAMILIES,
                                  strict=True)
               for seed in range(1, 6)]


@pytest.mark.parametrize("name,p", FAMILY_DOCS,
                         ids=[n for n, _p in FAMILY_DOCS])
def test_generic_family_dims_are_the_series_at_t_to_the_n(name, p):
    """In a case III family the marker lam is an indeterminate, as the
    curvette constant c is: "value >= v" means that every lam-coefficient
    below tau^v vanishes, and lam powers take the c slot of the oracle's
    keys. Its dims are the printed series (the divisorial series of the
    reduced family) read at t^n, n the contact order: dims[v] is
    coefficient v // n when n divides v, else 0. Checked on the corpus
    families, with signs drawn as the benchmark draws them, through
    V = 40."""
    V = 40
    graph, recs = resolve(p)
    n = graph.n_case3
    series = expand(divisorial_series(
        numerical_data(graph, recs, mode="divisorial")), V // n)
    x, y = family_xy(p)
    assert _filtration(x, y, V, p.ambient).dims == tuple(
        0 if v % n else series[v // n] for v in range(V + 1))


def _drawn_family(rng):
    """x = t^m and y = (a*z^k + b)*t^e + lam*t^(e+d) + t^(e+d+1) over a
    corpus field, z its generator, a and b nonzero and integer: m is even
    and e >= m, so the first term can enlarge the field before the marker,
    and the family's contact order can exceed 1."""
    field = rng.choice((Q, SQ2, SQ3, GOLDEN, CBRT2, BIQ, QRT2))
    m = rng.choice((2, 4, 6))
    e = rng.randint(m, 2 * m)
    d = rng.choice((1, 2, 2, 3, 4))
    k = rng.randrange(field.degree)
    coeff = field.element([rng.choice((1, 2, -2)) if i == k else 0
                           for i in range(field.degree)]) \
        + field.from_fraction(rng.choice((0, 1)))
    return BranchParam(field, m, [(e, coeff), (e + d, GENERIC),
                                  (e + d + 1, field.one())])


def test_drawn_case_iii_families_match_the_divisorial_oracle():
    """The divisorial series of a generic family is read off its M values;
    the oracle substitutes the generic curvette at the last component.
    Over 40 seeded families, among them at least 5 with a field jump
    before the marker and contact order n_case3 > 1 (there the family's
    own multiplicities are n_case3 times the curvette's, and M must take
    the curvette's), both agree through V = 24."""
    V = 24
    rng = random.Random(7)
    jumps = 0
    failures = []
    for _ in range(40):
        p = _drawn_family(rng)
        graph, recs = resolve(p)
        assert graph.case == "III", p
        jumps += bool(graph.splittings) and graph.n_case3 > 1
        series = expand(divisorial_series(
            numerical_data(graph, recs, mode="divisorial")), V)
        oracle_dims = divisorial_filtration_dims(
            generic_curvette(graph, recs, bound=V), V).dims
        if series != oracle_dims:
            failures.append("%r: series %s, oracle %s"
                            % (p, series, oracle_dims))
    assert not failures, "\n".join(failures)
    assert jumps >= 5


# --- swapped coordinates -------------------------------------------------------------

SWAPPED = [("q_t3_t2", ["0", "1"], 3, 2, ["1"]),
           ("q_t7_t4", ["0", "1"], 7, 4, ["1"]),
           ("sq2_t9_t4", ["-2", "0", "1"], 9, 4, ["1", "0"])]


@pytest.mark.parametrize("name,min_poly,x_order,exp,coeff", SWAPPED,
                         ids=[case[0] for case in SWAPPED])
def test_verify_of_a_swapped_branch_reads_the_branch_as_given(
        tmp_path, capsys, name, min_poly, x_order, exp, coeff):
    """normalize swaps x and y when ord y < ord x, and verify runs the
    oracle on the swapped branch. Swapping is an automorphism of K[x, y],
    so the oracle line verify prints is filtration_dims of the branch as
    the document gives it."""
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps({
        "ambient": {"var": "z", "min_poly": min_poly},
        "branch": {"x_order": x_order,
                   "y_terms": [{"exp": exp, "coeff": coeff}]},
        "mode": "curve"}))
    assert cli.main(["verify", str(path)]) == 0
    oracle_line = capsys.readouterr().out.splitlines()[1]
    field = AmbientField([Fraction(a) for a in min_poly])
    raw = BranchParam(field, x_order, [(exp, field.element(coeff))])
    assert oracle_line == "  oracle: " + " ".join(
        map(str, filtration_dims(raw, cli.DEFAULT_MAX_ORDER).dims))


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


# --- where x does not shift the leads, the x-chain of each power of y
# closes the span under x


def test_each_product_feeds_one_add(monkeypatch):
    """Where the lowest coefficient of x is not rational, the oracle walks
    the x-chain of each power of y, and _times runs once per add after
    the first (the unit): a vector is multiplied out only once add stored
    it. On curve_sq2_line (y = sqrt2*tau) with x = sqrt2*tau, x = y: level
    v is the line of sqrt2^v. The x-chain of the unit stores x, .., x^40
    and stops where x^41 cuts to zero, and y then adds nothing, so 42
    adds at V = 40. On qrt_cusp (y = z*tau^5 over z^4 = 2) with x =
    z*tau^2, 97 adds. On biq_cusp (y = sqrt2*tau^3 + sqrt3*tau^5 over
    z^4 - 10z^2 + 1, z = sqrt2 + sqrt3) with x = z*tau^2, 125 adds, fewer
    than the 154 monomials of weight <= 40: a chain ends at its first
    vector that adds nothing."""
    counts = Counter()
    times, add = oracle._times, SparseRowSpace.add

    def counted_times(column, table, limit):
        counts["times"] += 1
        return times(column, table, limit)

    def counted_add(self, row):
        counts["add"] += 1
        return add(self, row)

    monkeypatch.setattr(oracle, "_times", counted_times)
    monkeypatch.setattr(SparseRowSpace, "add", counted_add)
    item = next(it for it in WORKLOADS.generate("corpus", 1)
                if it["id"] == "curve_sq2_line")
    branch = cli.build_analysis(cli.parse_input(item["doc"])).graph.branch
    corpus = dict(CORPUS)
    assert sum(1 for i in range(21) for j in range(14)
               if 2 * i + 3 * j <= 40) == 154
    for p, adds in ((_rescaled(branch, branch.ambient.gen()), 42),
                    (_rescaled(corpus["qrt_cusp"], QRT2.gen()), 97),
                    (_rescaled(corpus["biq_cusp"], BIQ.gen()), 125)):
        dims = sorted_monomial_adds(*coordinates(p), 40, p.ambient)
        counts.clear()
        assert filtration_dims(p, 40).dims == dims
        assert counts == {"times": adds - 1, "add": adds}
    assert filtration_dims(_rescaled(branch, branch.ambient.gen()),
                           40).dims == (1,) * 41


def test_each_vector_fed_is_x_or_y_times_a_stored_one(monkeypatch):
    """After the unit, every vector _filtration feeds SparseRowSpace.add is
    the product (_times) of a vector that add returned with the table of
    x or y, and its dims are those of the full sorted monomial list: on
    the divisorial curvettes of qrt_cusp that the oracle_quartic workload
    verifies (seed 1; the lowest coefficient of x is z^2/2), and on the
    corpus branches over fields of degree > 1 with x = z*tau^m. The other
    verify calls of the workload close the span as a Q[x]-module, and
    their dims are the full loop's too."""
    fed = []
    returned = []
    products = {}
    add, times = SparseRowSpace.add, oracle._times
    filtration = oracle._filtration
    paths = Counter()

    def recording(self, row):
        fed.append((type(self), row))
        out = add(self, row)
        returned.append(out)
        return out

    def recording_times(column, table, limit):
        out = times(column, table, limit)
        products[id(out)] = (out, column)
        return out

    def checked(x, y, V, field):
        fed.clear()
        returned.clear()
        products.clear()
        report = filtration(x, y, V, field)
        assert fed[0][1] == {0: 1}
        for _kind, row in fed[1:]:
            out, column = products[id(row)]
            assert out is row
            assert any(column is r for r in returned if r)
        assert report.dims == sorted_monomial_adds(x, y, V, field)
        loop = all(kind is SparseRowSpace for kind, _row in fed)
        # a curvette's coefficients are polynomials in its constant c
        mode = "divisorial" if isinstance(x.ring, PolyRing) else "curve"
        paths[mode, loop] += 1
        return report

    monkeypatch.setattr(SparseRowSpace, "add", recording)
    monkeypatch.setattr(oracle, "_times", recording_times)
    monkeypatch.setattr(oracle, "_filtration", checked)
    for item in WORKLOADS.generate("oracle_quartic", 1):
        analysis = cli.build_analysis(cli.parse_input(item["doc"]))
        assert cli.run_verification(analysis, item["max_order"])["match"]
    for _name, p in CORPUS:
        if p.ambient.degree > 1:
            filtration_dims(_rescaled(p, p.ambient.gen()), 30)
    assert paths == {("curve", False): 8, ("divisorial", False): 2,
                     ("divisorial", True): 3, ("curve", True): 22}


# --- the Q[x]-module echelon against the full loop

Z2M1 = AmbientField([-1, 0, 1])   # Q x Q: (1 - z)/2 is a zero divisor


def counting_modules(monkeypatch):
    """Makes each oracle call that closes its span as a Q[x]-module
    (oracle._XModule) count itself: returns the Counter whose "module"
    entry is the number of such calls so far, "stored" that of the
    vectors they stored and "above" that of those whose lead was above
    every lead stored before, so that no generator was displaced."""
    made = Counter()

    class Counted(oracle._XModule):
        def __init__(self, *args):
            made["module"] += 1
            super().__init__(*args)

        def store(self, lead, work):
            made["stored"] += 1
            made["above"] += all(g < lead for g, _xs in self.rows.values())
            super().store(lead, work)

    monkeypatch.setattr(oracle, "_XModule", Counted)
    return made


def test_the_stop_needs_a_rational_lowest_coefficient_of_x(monkeypatch):
    """The module echelon, whose y-chain stops at the first power that
    reduces to zero, runs only where the c^0 term of the lowest
    coefficient a of x is a nonzero rational. Over z^2 - 1, x = e*tau with
    e = (1 - z)/2, an idempotent, and y = (2 - z)*tau^3 - z*tau^5 +
    z*tau^8: level 3 has dimension 2, but e*L is the line of e, so x does
    not carry level 3 onto level 4, which has dimension 1. Over Q(sqrt2),
    x = z*tau has a unit lowest coefficient that is not rational. On both the
    oracle walks the x-chain of each power of y and agrees with the full
    loop. Over z^2 - 1 with x = tau^2/2 and y = z*tau^3 + 3z*tau^7, and on
    the golden-field curvette GOLDEN_DENSE at V = 40 (x = tau), the module
    echelon runs and agrees with the full loop."""
    made = counting_modules(monkeypatch)
    z = Z2M1.gen()
    half = Z2M1.from_fraction(Fraction(1, 2))
    p = BranchParam(Z2M1, 1, [(3, 2 - z), (5, -z), (8, z)],
                    x_coeff=(1 - z) * half)
    assert filtration_dims(p, 8).dims == (1, 1, 1, 2, 1, 1, 2, 1, 1) == \
        sorted_monomial_adds(*coordinates(p), 8, Z2M1)
    q = BranchParam(SQ2, 1, [(2, 1), (3, SQ2.gen())], x_coeff=SQ2.gen())
    assert filtration_dims(q, 30).dims == \
        sorted_monomial_adds(*coordinates(q), 30, SQ2)
    assert not made
    r = BranchParam(Z2M1, 2, [(3, z), (7, 3 * z)], x_coeff=Fraction(1, 2))
    assert filtration_dims(r, 30).dims == \
        sorted_monomial_adds(*coordinates(r), 30, Z2M1)
    graph, recs = resolve(GOLDEN_DENSE, extra_steps=0)
    gc = generic_curvette(graph, recs, bound=40)
    assert divisorial_filtration_dims(gc, 40).dims == \
        sorted_monomial_adds(gc.x, gc.y, 40, gc.ambient)
    assert made["module"] == 2


def _rescaled(p, x_coeff):
    return BranchParam(p.ambient, p.x_order, p.y_terms, x_coeff=x_coeff)


@pytest.mark.parametrize("name,p", CORPUS, ids=[n for n, _p in CORPUS])
def test_stopped_dims_equal_the_full_loop_on_the_corpus(name, p):
    """At V = 60, each corpus branch as given and with x_coeff -3/2."""
    for q in (p, _rescaled(p, Fraction(-3, 2))):
        assert filtration_dims(q, 60).dims == \
            sorted_monomial_adds(*coordinates(q), 60, q.ambient)


def _drawn_branch(rng):
    """x = a*tau^m and y with two to four terms over a corpus field or
    z^2 - 1; a is 1, a rational other than 1, or a drawn field element,
    and the coefficients of y are small integer combinations of the power
    basis."""
    field = rng.choice((Q, SQ2, SQ3, GOLDEN, CBRT2, BIQ, QRT2, Z2M1))
    n = field.degree

    def element():
        return field.element([rng.randint(-2, 2) for _ in range(n)])

    x_coeff = rng.choice((1, Fraction(rng.choice((-3, -1, 2, 5)),
                                      rng.choice((1, 2, 3))), None))
    while x_coeff is None or not x_coeff:
        x_coeff = element()
    m = rng.randint(1, 4)
    exps = sorted(rng.sample(range(m, 3 * m + 6), rng.randint(2, 4)))
    return BranchParam(field, m, [(e, element()) for e in exps],
                       x_coeff=x_coeff)


def test_stopped_dims_equal_the_full_loop_on_drawn_branches(monkeypatch):
    """The oracle's dims are the full loop's on 200 seeded branches at
    V = 30 and on 200 divisorial curvettes (extra_steps 0 to 2) of seeded
    branches at V = 20; a drawn branch that cannot be resolved, over
    z^2 - 1 or one that traverses its branch more than once, gives no
    curvette. At least 100 curve calls and 50 divisorial calls close the span
    as a Q[x]-module, 10 of those curve calls with x_coeff a rational
    other than 1, and at least 50 calls of each mode walk the x-chain of
    each power of y. Each vector the module echelon stores has a lead
    above every lead it stored before."""
    made = counting_modules(monkeypatch)
    rng = random.Random(11)
    paths = Counter()
    rescaled = 0
    failures = []

    def check(mode, x, y, V, field, report):
        module = made["module"] > before
        paths[mode, module] += 1
        if report.dims != sorted_monomial_adds(x, y, V, field):
            failures.append("%s %r" % (mode, p))
        return module

    while paths["divisorial", True] + paths["divisorial", False] < 200:
        p = _drawn_branch(rng)
        extra = rng.randint(0, 2)
        if paths["curve", True] + paths["curve", False] < 200:
            before = made["module"]
            report = filtration_dims(p, 30)
            if check("curve", *coordinates(p), 30, p.ambient, report):
                rescaled += p.x_coeff != 1
        try:
            graph, recs = resolve(p, extra_steps=extra)
        except ArtifactError:
            continue
        gc = generic_curvette(graph, recs, bound=20)
        before = made["module"]
        report = divisorial_filtration_dims(gc, 20)
        check("divisorial", gc.x, gc.y, 20, gc.ambient, report)
    assert not failures, "\n".join(failures)
    assert made["stored"] == made["above"] > 0
    assert paths["curve", True] >= 100 and paths["divisorial", True] >= 50
    assert paths["curve", False] >= 50 and paths["divisorial", False] >= 50
    assert rescaled >= 10


def test_the_x_chain_stays_small_on_the_slowest_drawn_branch(monkeypatch):
    """Draw 261 of _drawn_branch under Random(11), written out: over
    z^4 - 10z^2 + 1, x = (1 - 2z^3)*tau and y has terms at tau^1, 4, 5
    and 6. The weight-ordered loop over every live monomial, which the
    oracle once ran, took 23 s on it at V = 60 on a 2-vCPU machine. At
    V = 30 the dims are the full loop's; at V = 60 the x-chain driver
    makes at most 239 adds, stores at most 238 vectors and takes at most
    397 reduction steps."""
    z = BIQ.element
    p = BranchParam(BIQ, 1, [(1, z([-2, 2, 2, 1])), (4, z([0, -2, 0, 2])),
                             (5, z([-1, 2, 2, 0])), (6, z([-1, 0, -2, 2]))],
                    x_coeff=z([1, 0, 0, -2]))
    assert filtration_dims(p, 30).dims == \
        sorted_monomial_adds(*coordinates(p), 30, BIQ)
    calls = counting_reductions(monkeypatch)
    assert filtration_dims(p, 60).dims == (1, 2, 3) + (4,) * 58
    assert calls["add"] <= 239 and calls["stored"] <= 238
    assert calls["primitive"] - calls["add"] <= 397


# --- the levels against the residue spans


def _graded_branch(rng):
    """x = a*tau^m, a 1 or a rational, and y with two to four terms over a
    corpus field of degree > 1 or z^2 - 1, each a small integer times one
    power z^k. On about half of the branches k is s*e mod [L:Q] for the
    term's tau power e and one drawn s, a grading that the products of
    coefficients keep when z^[L:Q] is rational, so that they often span
    less than L in each residue mod m."""
    field = rng.choice((SQ2, SQ3, GOLDEN, CBRT2, BIQ, QRT2, Z2M1))
    n = field.degree
    s = rng.randrange(n) if rng.random() < 0.5 else None

    def element(e):
        k = rng.randrange(n) if s is None else s * e % n
        return field.element(
            [rng.choice((1, -1, 2)) if i == k else 0 for i in range(n)])

    m = rng.randint(2, 4)
    exps = sorted(rng.sample(range(m + 1, 3 * m + 6), rng.randint(2, 4)))
    x_coeff = rng.choice((1, Fraction(rng.choice((-3, 2, 5)), 2)))
    return BranchParam(field, m, [(e, element(e)) for e in exps],
                       x_coeff=x_coeff)


def test_curve_dims_stay_within_the_residue_spans():
    """The level v classes of a branch lie in U_(v mod ord x), the
    rational span of the products of coefficients of x and y whose tau
    powers sum to v mod ord(x) (reference_residue_dims, a Fraction
    closure), so dims[v] <= dim U_(v mod ord x): on the corpus branches at
    V = 60, on 160 drawn branches at V = 40 (on at least 60 of them some
    U_r is smaller than L) and on a branch over z^2 - 1. biq_cusp and
    qrt_cusp have U = [2, 2], and sq2_cusp [1, 1], and their top levels
    reach it."""
    rng = random.Random(5)
    z = Z2M1.gen()
    cases = [(p, 60) for _n, p in CORPUS]
    cases += [(_graded_branch(rng), 40) for _ in range(160)]
    cases.append((BranchParam(Z2M1, 2, [(3, z), (7, 3 * z)],
                              x_coeff=Fraction(1, 2)), 30))
    bounded = 0
    failures = []
    for p, V in cases:
        caps = reference_residue_dims(*coordinates(p), V, p.ambient)
        dims = filtration_dims(p, V).dims
        if any(d > caps[v % len(caps)] for v, d in enumerate(dims)):
            failures.append("%r: dims %s, U %s" % (p, dims, caps))
        bounded += p.ambient.degree not in caps
    assert not failures, "\n".join(failures)
    assert bounded >= 60
    assert reference_residue_dims(*coordinates(cases[-1][0]), 30, Z2M1) \
        == [1, 1]
    corpus = dict(CORPUS)
    for name, caps in (("biq_cusp", [2, 2]), ("qrt_cusp", [2, 2]),
                       ("sq2_cusp", [1, 1])):
        p = corpus[name]
        assert reference_residue_dims(*coordinates(p), 60, p.ambient) == caps
        assert list(filtration_dims(p, 60).dims[-2:]) == caps


def test_bounded_dims_equal_the_full_loop_on_graded_branches():
    """Over 120 seeded branches whose coefficients are powers of z (on at
    least 40 of them no U_r is all of L, so that no level fills L), the
    dims of the module echelon are the full loop's. Over z^2 - 1 with y =
    z*tau^3 + 3z*tau^7, U = [1, 1], and every level from 2 on reaches
    it."""
    rng = random.Random(17)
    bounded = 0
    failures = []
    for _ in range(120):
        p = _graded_branch(rng)
        x, y = coordinates(p)
        dims = sorted_monomial_adds(x, y, 30, p.ambient)
        if filtration_dims(p, 30).dims != dims:
            failures.append(repr(p))
        bounded += p.ambient.degree not in \
            reference_residue_dims(x, y, 30, p.ambient)
    assert not failures, "\n".join(failures)
    assert bounded >= 40
    z = Z2M1.gen()
    p = BranchParam(Z2M1, 2, [(3, z), (7, 3 * z)], x_coeff=Fraction(1, 2))
    x, y = coordinates(p)
    dims = sorted_monomial_adds(x, y, 30, Z2M1)
    assert filtration_dims(p, 30).dims == dims == (1, 0) + (1,) * 29
    assert reference_residue_dims(x, y, 30, Z2M1) == [1, 1]
