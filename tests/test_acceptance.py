"""End-to-end acceptance gate.

One test per shipped guarantee; `pytest -v tests/test_acceptance.py` gives a
one-line verdict for each, and running with `-s` additionally prints an
ACCEPTANCE summary line per criterion. Every expected value comes from the
brute-force substitution oracle or from direct semigroup arithmetic, never
from the series pipeline under test.

The corpus mixes branches over the rationals with branches over quadratic,
cubic, and quartic ambient fields, chosen so that every structural feature
shows up at least once: several value-generator jumps, coefficient-field
jumps of degree two, three, and four, a branch with two separate jump
vertices, a tangent family, and generic-coefficient markers.
"""

import random
import time
from fractions import Fraction

import pytest

from artifact import (
    GENERIC,
    AmbientField,
    BranchParam,
    PolyXY,
    binomial_factorization,
    case_II_data,
    classical_series,
    divisorial_filtration_dims,
    divisorial_series,
    divisorial_value,
    expand,
    filtration_dims,
    generic_curvette,
    m_values,
    membership,
    minimal_generator_check,
    numerical_data,
    observed_semigroup,
    partial_series,
    resolve,
    semigroup_series,
    symmetry_check,
    value_of,
)
from artifact.errors import TruncationInconclusive
from artifact.resolution import minus_inverse

from slow_paths import (conjugate_param, intersection_matrix,
                        is_negative_definite)

Q = AmbientField([0, 1])
SQ2 = AmbientField([-2, 0, 1])
SQ3 = AmbientField([-3, 0, 1])
GOLDEN = AmbientField([-1, -1, 1])
CBRT2 = AmbientField([-2, 0, 0, 1])
BIQ = AmbientField([1, 0, -10, 0, 1])
QRT2 = AmbientField([-2, 0, 0, 0, 1])

_Z2 = SQ2.gen()
_Z3 = SQ3.gen()
_PHI = GOLDEN.gen()
_CB = CBRT2.gen()
_ZB = BIQ.gen()
_S2 = (_ZB * _ZB * _ZB - BIQ.from_fraction(9) * _ZB) / BIQ.from_fraction(2)
_S3 = _ZB - _S2
_RT = QRT2.gen()

RATIONAL_CORPUS = [
    ("cusp", BranchParam(Q, 2, [(3, 1)])),
    ("quad467", BranchParam(Q, 4, [(6, 1), (7, 1)])),
    ("smooth", BranchParam(Q, 1, [])),
    ("q25", BranchParam(Q, 2, [(5, 1)])),
    ("q34", BranchParam(Q, 3, [(4, 1)])),
    ("q35", BranchParam(Q, 3, [(5, 1)])),
    ("q469", BranchParam(Q, 4, [(6, 1), (9, 1)])),
]

FIELD_CORPUS = [
    ("sq2_line", BranchParam(SQ2, 1, [(1, _Z2)])),
    ("sq2_cusp", BranchParam(SQ2, 2, [(3, _Z2)])),
    ("sq2_tail", BranchParam(SQ2, 2, [(3, 1), (4, _Z2)])),
    ("sq2_tangent", BranchParam(SQ2, 2, [(2, _Z2), (3, 1)])),
    ("sq2_twopair", BranchParam(SQ2, 4, [(6, _Z2), (7, 1)])),
    ("sq2_line_tail", BranchParam(SQ2, 1, [(1, _Z2), (2, 1)])),
    ("sq2_late", BranchParam(SQ2, 2, [(3, 1), (5, _Z2)])),
    ("sq2_cusp_tail", BranchParam(SQ2, 2, [(3, _Z2), (4, 1)])),
    ("sq2_34", BranchParam(SQ2, 3, [(4, _Z2)])),
    ("sq2_34_tail", BranchParam(SQ2, 3, [(4, 1), (5, _Z2)])),
    ("sq2_second_pair", BranchParam(SQ2, 4, [(6, 1), (7, _Z2)])),
    ("sq2_quintic", BranchParam(SQ2, 2, [(5, _Z2)])),
    ("sq3_line", BranchParam(SQ3, 1, [(1, _Z3)])),
    ("sq3_cusp", BranchParam(SQ3, 2, [(3, _Z3)])),
    ("golden_cusp", BranchParam(GOLDEN, 2, [(3, _PHI)])),
    ("cbrt_line", BranchParam(CBRT2, 1, [(1, _CB)])),
    ("cbrt_cusp", BranchParam(CBRT2, 2, [(3, _CB)])),
    ("cbrt_late", BranchParam(CBRT2, 2, [(3, 1), (4, _CB)])),
    ("biq_two_jumps", BranchParam(BIQ, 1, [(1, _S2), (2, _S3)])),
    ("biq_cusp", BranchParam(BIQ, 2, [(3, _S2), (5, _S3)])),
    ("qrt_line", BranchParam(QRT2, 1, [(1, _RT)])),
    ("qrt_cusp", BranchParam(QRT2, 2, [(5, _RT)])),
]

CORPUS = RATIONAL_CORPUS + FIELD_CORPUS

DIVISORIAL_TARGETS = [
    ("first_blowup", BranchParam(Q, 1, []), 0),
    ("second_blowup_along_y0", BranchParam(Q, 1, []), 1),
    ("cusp_first_rupture", BranchParam(Q, 2, [(3, 1)]), 0),
    ("past_splitting_sq2_line", BranchParam(SQ2, 1, [(1, _Z2)]), 0),
    ("past_splitting_sq2_tail", BranchParam(SQ2, 2, [(3, 1), (4, _Z2)]), 1),
    ("cusp_two_extra_steps", BranchParam(Q, 2, [(3, 1)]), 2),
]

GENERIC_FAMILIES = [
    BranchParam(Q, 2, [(3, GENERIC)]),
    BranchParam(Q, 2, [(3, 1), (5, GENERIC)]),
    BranchParam(Q, 4, [(6, GENERIC), (7, 1)]),
    BranchParam(SQ2, 2, [(3, GENERIC), (4, _Z2)]),
]


def _curve_data(p):
    graph, recs = resolve(p)
    return graph, recs, numerical_data(graph, recs)


def _nontrivial_root_image(field):
    """A root of the field's defining polynomial other than the generator,
    when one lies in the field itself. The cubic field has none (its other
    roots are complex), and the rationals only carry the trivial image."""
    if field is GOLDEN:
        return field.from_fraction(1) - field.gen()
    if field in (SQ2, SQ3, BIQ, QRT2):
        return field.from_fraction(0) - field.gen()
    return None


def test_criterion_01_rational_branches_series_equal_oracle():
    start = time.monotonic()
    names = []
    for name, p in RATIONAL_CORPUS:
        _graph, _recs, nd = _curve_data(p)
        classical = classical_series(nd)
        assert classical.factors == semigroup_series(nd).factors
        assert not classical.partial
        se = expand(classical, 30)
        assert set(se.coeffs) <= {0, 1}
        assert filtration_dims(p, 30).dims == se.coeffs
        names.append(name)
    elapsed = time.monotonic() - start
    assert len(names) >= 5
    assert "cusp" in names and "quad467" in names
    assert elapsed < 30.0
    print("ACCEPTANCE 1: PASS - %d rational branches, classical == semigroup "
          "series, 0/1 coefficients, oracle dims match for v <= 30 (%.2fs)"
          % (len(names), elapsed))


def test_criterion_02_field_branches_series_equal_oracle():
    start = time.monotonic()
    nds = {}
    for name, p in FIELD_CORPUS:
        graph, _recs, nd = _curve_data(p)
        assert graph.case == "I"
        se = expand(classical_series(nd), 40)
        assert filtration_dims(p, 40).dims == se.coeffs
        nds[name] = nd
    elapsed = time.monotonic() - start
    assert len(FIELD_CORPUS) >= 20
    assert {p.ambient.degree for _name, p in FIELD_CORPUS} == {2, 3, 4}
    for required in ("sq2_line", "sq2_cusp", "sq2_tail"):
        assert required in nds
    assert nds["cbrt_line"].splitting[0][1] == 3
    assert len(nds["biq_two_jumps"].splitting) == 2
    assert elapsed < 300.0
    print("ACCEPTANCE 2: PASS - %d field branches (degrees 2, 3, 4), oracle "
          "dims match the series expansion for v <= 40 (%.2fs)"
          % (len(FIELD_CORPUS), elapsed))


def test_criterion_03_observed_semigroup_matches_generators():
    for name, p in CORPUS:
        _graph, _recs, nd = _curve_data(p)
        bound = nd.Delta + 10
        generated = {v for v in range(bound + 1) if membership(nd.M_sigma, v)}
        assert observed_semigroup(p, bound) == generated, name
    print("ACCEPTANCE 3: PASS - observed value sets equal the generated "
          "semigroups up to Delta + 10 on all %d corpus branches"
          % len(CORPUS))


def test_criterion_04_minimal_generator_checks_pass():
    for name, p in CORPUS:
        _graph, _recs, nd = _curve_data(p)
        check = minimal_generator_check(nd.M_sigma, nd.N)
        assert check, (name, check.witness)
    print("ACCEPTANCE 4: PASS - minimal-generator checks hold on all %d "
          "corpus branches" % len(CORPUS))


def test_criterion_05_symmetry_and_stabilization_of_dims():
    for name, p in CORPUS:
        graph, _recs, nd = _curve_data(p)
        assert graph.case == "I"
        bound = nd.Delta + 10
        se = expand(classical_series(nd), bound)
        co = se.coeffs
        for v in range(nd.Delta):
            assert co[v] + co[nd.Delta - 1 - v] == nd.ell_total, (name, v)
        for v in range(nd.Delta, bound + 1):
            assert co[v] == nd.ell_total, (name, v)
        if nd.Delta >= 1:
            assert co[nd.Delta - 1] < nd.ell_total, name
        assert symmetry_check(se, nd.Delta, nd.ell_total) is True
    print("ACCEPTANCE 5: PASS - coefficient symmetry below Delta and "
          "stabilization at ell from Delta on, all %d corpus branches"
          % len(CORPUS))


def test_criterion_06_minus_inverse_matches_noether_values():
    runs = [(name, resolve(p)) for name, p in CORPUS]
    runs += [(name, resolve(p, extra_steps=extra))
             for name, p, extra in DIVISORIAL_TARGETS]
    runs += [("generic%d" % i, resolve(p))
             for i, p in enumerate(GENERIC_FAMILIES)]
    for name, (graph, recs) in runs:
        mat = intersection_matrix(graph)
        assert is_negative_definite(mat), name
        inv = minus_inverse(mat)
        m = m_values(graph, recs)
        delta = graph.delta()
        assert [row[delta] for row in inv] == [m[v] for v in sorted(m)], name
    print("ACCEPTANCE 6: PASS - negative-definite intersection matrices; "
          "minus-inverse last column equals the proximity values on all %d "
          "corpus branches, %d divisorial targets and %d generic-marker "
          "families" % (len(CORPUS), len(DIVISORIAL_TARGETS),
                        len(GENERIC_FAMILIES)))


def test_criterion_07_divisorial_targets_equal_oracle():
    for name, p, extra in DIVISORIAL_TARGETS:
        graph, recs = resolve(p, extra_steps=extra)
        nd = numerical_data(graph, recs, "divisorial")
        se = expand(divisorial_series(nd), 30)
        gc = generic_curvette(graph, recs)
        assert divisorial_filtration_dims(gc, 30).dims == se.coeffs, name
        if name.startswith("past_splitting"):
            split_ids = [v.id for v in graph.vertices
                         if any(tag[0] == "SPLITTING" for tag in v.tags)]
            assert split_ids
            delta = graph.delta()
            assert all(graph.geodesic.index(s) < graph.geodesic.index(delta)
                       for s in split_ids)
    assert len(DIVISORIAL_TARGETS) >= 5
    assert any(extra >= 2 for _n, _p, extra in DIVISORIAL_TARGETS)
    print("ACCEPTANCE 7: PASS - %d divisorial targets, oracle dims match the "
          "divisorial series expansion for v <= 30"
          % len(DIVISORIAL_TARGETS))


def test_criterion_08_generic_markers_scale_divisorial_values():
    rng = random.Random(20260814)

    def random_poly():
        terms = []
        for _ in range(rng.randint(1, 4)):
            terms.append((rng.randint(0, 4), rng.randint(0, 3),
                          Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                   rng.choice([1, 1, 2, 3]))))
        return PolyXY(terms)

    contacts = set()
    for p in GENERIC_FAMILIES:
        graph, recs = resolve(p)
        assert graph.case == "III"
        n = graph.n_case3
        contacts.add(n)
        gc = generic_curvette(graph, recs)
        for _ in range(20):
            f = random_poly()
            assert value_of(f, p)[0] == n * divisorial_value(f, gc)
    assert len(GENERIC_FAMILIES) >= 3
    assert max(contacts) >= 2
    print("ACCEPTANCE 8: PASS - %d generic-marker families, surrogate order "
          "equals n times the reduced divisorial value on 20 random "
          "polynomials each" % len(GENERIC_FAMILIES))


def test_criterion_09_conjugation_invariance():
    checked = 0
    expected = sum(1 for _name, p in CORPUS
                   if _nontrivial_root_image(p.ambient) is not None)
    for name, p in CORPUS:
        image = _nontrivial_root_image(p.ambient)
        if image is None:
            continue
        q = conjugate_param(p, image)
        ga, ra = resolve(p)
        gb, rb = resolve(q)
        assert [v.tags for v in ga.vertices] == [v.tags for v in gb.vertices]
        assert ([v.self_int for v in ga.vertices]
                == [v.self_int for v in gb.vertices])
        assert ([v.field_dim for v in ga.vertices]
                == [v.field_dim for v in gb.vertices])
        assert ga.edges == gb.edges
        assert ga.geodesic == gb.geodesic
        assert ga.splittings == gb.splittings
        assert m_values(ga, ra) == m_values(gb, rb)
        nd = numerical_data(ga, ra)
        assert nd == numerical_data(gb, rb)
        bound = nd.Delta + 10
        assert filtration_dims(p, bound).dims == filtration_dims(q, bound).dims
        checked += 1
    assert checked == expected
    assert checked >= 15
    print("ACCEPTANCE 9: PASS - resolution outputs and filtration dims are "
          "conjugation invariant on all %d branches with a nontrivial root "
          "image" % checked)


def test_criterion_10_binomial_factorization_round_trips():
    products = []
    for _name, p in CORPUS:
        _graph, _recs, nd = _curve_data(p)
        products.append(semigroup_series(nd))
        products.append(classical_series(nd))
        for j in range(1, nd.s + 2):
            products.append(partial_series(nd, j))
    for _name, p, extra in DIVISORIAL_TARGETS:
        graph, recs = resolve(p, extra_steps=extra)
        products.append(divisorial_series(numerical_data(graph, recs,
                                                         "divisorial")))
    for sp in products:
        order = max((a for a, _s in sp.factors), default=1)
        bf = binomial_factorization(expand(sp, order), source=sp)
        assert bf.is_cyclotomic is True
        assert bf.factors == sp.factors

    _graph, _recs, nd = _curve_data(BranchParam(Q, 2, [(3, 1)]))
    stream = case_II_data(nd, [(7, 2), (11, 2), (13, 2), (17, 2), (19, 2)])
    sp = classical_series(stream)
    assert sp.partial
    with pytest.raises(TruncationInconclusive) as exc:
        binomial_factorization(expand(sp, 40), source=sp)
    assert exc.value.factors
    print("ACCEPTANCE 10: PASS - %d emitted products round-trip through the "
          "binomial factorization; the 5-factor splitting stream is reported "
          "inconclusive rather than closed" % len(products))
