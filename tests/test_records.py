"""The package's records behave as the frozen dataclasses they replace.

Each record class is compared with a frozen dataclass of the same fields
and defaults (slow_paths.REFERENCE_RECORDS) on the records of a resolved
corpus branch with a field jump and of a divisorial target past a jump
(the branch, its quotient graph, a generic curvette and a subfield among
them): field values, ==, !=, hash, repr, construction by position and by
keyword, replace, and the errors for an unknown argument, a derived
field and an assignment. The validation errors of the checked records
are pinned.
"""

import copy
import dataclasses

import pytest

from artifact import cli
from artifact.errors import BadSemigroupData
from artifact.exactfield import AlgNum, AmbientField
from artifact.oracle import (FiltrationReport, divisorial_filtration_dims,
                             filtration_dims)
from artifact.poincare import NumericalData, SeriesProduct
from artifact.ratfunc import PolyRing
from artifact.record import Record
from artifact.resolution import GENERIC, BranchParam, generic_curvette

from slow_paths import REFERENCE_RECORDS
from test_chart_states import WORKLOADS

DOCS = {item["id"]: item["doc"] for item in WORKLOADS.generate("corpus", 1)}


def records_of(doc_id):
    """Every record the pipeline makes for one corpus document."""
    doc = cli.parse_input(DOCS[doc_id])
    analysis = cli.build_analysis(doc)
    nd, series, graph = analysis.nd, analysis.series, analysis.graph
    curvette = generic_curvette(graph, analysis.recs, bound=8)
    if nd.M_delta is None:
        report = filtration_dims(graph.branch, 8)
    else:
        report = divisorial_filtration_dims(curvette, 8)
    return ([doc, analysis, nd, series, report, graph.terminal,
             nd.replace(partial=True), graph.branch, graph, curvette,
             analysis.recs[-1].field_after]
            + list(analysis.recs) + list(graph.vertices))


CASES = [(doc_id, i) for doc_id in ("curve_sq2_twopair",
                                    "div_past_splitting_sq2_tail")
         for i in range(len(records_of(doc_id)))]


def reference_of(record):
    """The record's class, its reference dataclass, the reference built
    from the record's constructor arguments, and those arguments."""
    cls = type(record)
    ref_cls = REFERENCE_RECORDS[cls.__name__]
    names = [f.name for f in dataclasses.fields(ref_cls) if f.init]
    kwargs = {name: getattr(record, name) for name in names}
    return cls, ref_cls, ref_cls(**kwargs), kwargs


def values(obj):
    """Field values in the order of the reference's fields."""
    ref_cls = REFERENCE_RECORDS[type(obj).__name__]
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(ref_cls))


@pytest.mark.parametrize("doc_id,index", CASES)
def test_record_matches_its_dataclass_reference(doc_id, index):
    record = records_of(doc_id)[index]
    cls, ref_cls, ref, kwargs = reference_of(record)
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(ref))
    assert values(record) == values(ref)
    assert repr(record) == repr(ref)
    try:
        want = hash(ref)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want

    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert record == by_keyword == by_position == copy.copy(record)
    assert not record != by_keyword
    assert record != ref and ref != record and not record == ref
    assert record.__eq__(ref) is NotImplemented
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        ref_cls(**kwargs, unknown=1)

    for name in kwargs:
        same = {name: getattr(record, name)}
        assert record.replace(**same) == record
        assert values(record.replace(**same)) == values(
            dataclasses.replace(ref, **same))
    with pytest.raises(TypeError):
        record.replace(unknown=1)
    with pytest.raises(TypeError):
        dataclasses.replace(ref, unknown=1)

    for name in cls.__slots__ + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert values(record) == values(ref)


def test_replace_changes_a_field_as_the_reference_does():
    nd = records_of("curve_sq2_twopair")[2]
    ref = reference_of(nd)[2]
    change = {"splitting": nd.splitting + ((5, 2),), "partial": True}
    assert values(nd.replace(**change)) == values(
        dataclasses.replace(ref, **change))
    assert nd.replace(**change) != nd
    for name in ("e", "N", "ell_total", "c_conductor", "Delta"):
        with pytest.raises(ValueError):
            nd.replace(**{name: getattr(nd, name)})
        with pytest.raises(ValueError):
            dataclasses.replace(ref, **{name: getattr(nd, name)})
        with pytest.raises(TypeError):
            NumericalData(nd.m_sigma, nd.M_sigma, nd.M_tau, nd.splitting,
                          **{name: getattr(nd, name)})


def test_derived_properties_are_the_values_once_stored():
    """The facts the graph, the curvette, the subfield and the analysis no
    longer store equal what their constructors were once given, on every
    corpus document that analyze accepts; a branch hashes."""
    checked = 0
    for item in WORKLOADS.generate("corpus", 1):
        if item["expect"]["analyze"] != 0:
            continue
        doc = cli.parse_input(item["doc"])
        analysis = cli.build_analysis(doc)
        graph = analysis.graph
        branch = graph.branch
        assert hash(branch) == hash(BranchParam(
            branch.ambient, branch.x_order, branch.y_terms, branch.x_coeff))
        assert graph.ambient is branch.ambient
        stopped = graph.terminal.center is GENERIC
        assert (graph.n_case3 is not None) == stopped
        assert graph.case == ("III" if stopped else "I")
        assert analysis.n == (graph.n_case3 if doc.mode == "curve"
                              and graph.case == "III" else None)
        curvette = generic_curvette(graph, analysis.recs)
        assert curvette.x.ring == curvette.y.ring == PolyRing(
            branch.ambient, "c")
        assert curvette.ambient is branch.ambient
        for rec, vertex in zip(analysis.recs, graph.vertices):
            sub = rec.field_after
            assert sub.dim == len(sub.rows) == vertex.field_dim
            assert sub.basis == tuple(AlgNum(sub.field, row, 1)
                                      for row in sub.rows)
            assert all(sub.contains_num(b) for b in sub.basis)
            with pytest.raises(ValueError):
                sub.replace(pivots=sub.pivots)
        checked += 1
    assert checked == 39


class _Left(Record):
    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness=None):
        self._assign(ok, witness)


class _Right(Record):
    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness=None):
        self._assign(ok, witness)


def test_records_of_two_classes_with_equal_fields_are_unequal():
    """Two record classes with equal slots and equal field values are
    unequal, as two frozen dataclasses with equal fields are."""
    records = (_Left(True, None), _Right(True, None))
    refs = [dataclasses.make_dataclass(type(r).__name__, r.__slots__,
                                       frozen=True)(True, None)
            for r in records]
    assert refs[0] != refs[1]
    assert records[0] != records[1] and not records[0] == records[1]


NUMERICAL = {"m_sigma": (2, 3), "M_sigma": (2, 3), "M_tau": (6,),
             "splitting": ()}

VALIDATION_ERRORS = [
    (NumericalData, dict(NUMERICAL, M_tau=()), BadSemigroupData,
     "dead-end and rupture counts disagree"),
    (NumericalData, dict(NUMERICAL, m_sigma=(0, 3)), BadSemigroupData,
     "values must be positive"),
    (NumericalData, dict(NUMERICAL, M_sigma=(2, 4), M_tau=(4,)),
     BadSemigroupData, "gcd of all generators is 2, not 1"),
    (NumericalData, dict(NUMERICAL, M_tau=(5,)), BadSemigroupData,
     "rupture value is not the quotient times the dead-end value"),
    (NumericalData, dict(NUMERICAL, splitting=((7, 1),)), BadSemigroupData,
     "invalid splitting entry"),
    (NumericalData, dict(NUMERICAL, M_delta=0), BadSemigroupData,
     "divisor value must be positive"),
    (BranchParam, {"ambient": AmbientField([0, 1]), "x_order": 0,
                   "y_terms": ()}, ValueError, "x order must be positive"),
    (BranchParam, {"ambient": AmbientField([0, 1]), "x_order": 2,
                   "y_terms": ((0, 1),)}, ValueError,
     "y exponents must be positive"),
    (FiltrationReport, {"dims": (1, -1)},
     ValueError, "dimensions must be non-negative"),
    (SeriesProduct, {"factors": ((3, 1), (2, -1))}, ValueError,
     "factors must be normalized: ascending distinct exponents, nonzero "
     "powers"),
    (SeriesProduct, {"factors": ((2, 0),)}, ValueError,
     "factors must be normalized: ascending distinct exponents, nonzero "
     "powers"),
]


@pytest.mark.parametrize("cls,kwargs,error,message", VALIDATION_ERRORS)
def test_validation_errors_are_unchanged(cls, kwargs, error, message):
    with pytest.raises(error) as info:
        cls(**kwargs)
    assert type(info.value) is error and str(info.value) == message
