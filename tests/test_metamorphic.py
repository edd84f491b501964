"""Metamorphic relations: the outputs do not depend on the scale of y, on
a power of x added to y, or on a Galois conjugation of the coefficients.

For a nonzero rational a, (x, y) -> (x, a*y) is a linear automorphism of
the plane defined over Q, and so is (x, y) -> (x, y + q*x^k) for a
rational q and k >= 1; with x = tau^m the second adds q*tau^(m*k) to y.
Each maps the branch (or the divisor reached from it) to one whose value
filtration has the same dimensions at every level, and the blow-ups see
subfields of the same degrees at the same points. Where the minimal
polynomial of z has only even powers, z -> -z is a field automorphism
over Q; applied to every coefficient it maps the branch to its conjugate,
whose filtration and subfield degrees are the same. So every invariant,
the series and the oracle's dims are unchanged, and `report --json`
writes the same text: it echoes no coefficient of y.

Checked on every document of the corpus workload (seed 1) that parses:
with a = 3 and a = -1/2, with (q, k) = (1, 1) and (-2/3, 2), and with
z -> -z on the documents whose minimal polynomial qualifies. `report
--json` must print the same stdout, and `verify --max-order 20` must end
with the same exit code and print the same dims and outcome.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

from artifact import cli

from test_chart_states import WORKLOADS

DOCUMENTS = [item for item in WORKLOADS.generate("corpus", 1)
             if not item["id"].startswith("err_")]


def scaled_y(doc, a):
    """The document with every concrete y coefficient multiplied by a; a
    generic marker stays generic."""
    out = copy.deepcopy(doc)
    for term in out["branch"]["y_terms"]:
        if term["coeff"] != "generic":
            term["coeff"] = [str(Fraction(c) * a) for c in term["coeff"]]
    return out


def added_power_of_x(doc, q, k):
    """The document with q*x^k added to y, or None where that cancels a
    term of y or meets the generic marker."""
    out = copy.deepcopy(doc)
    exp = out["branch"]["x_order"] * k
    terms = out["branch"]["y_terms"]
    same = [term for term in terms if term["exp"] == exp]
    if not same:
        degree = len(out["ambient"]["min_poly"]) - 1
        terms.append({"exp": exp, "coeff": [str(q)] + ["0"] * (degree - 1)})
        terms.sort(key=lambda term: term["exp"])
        return out
    coeff = same[0]["coeff"]
    if coeff == "generic":
        return None
    coeff[0] = str(Fraction(coeff[0]) + q)
    if not any(Fraction(c) for c in coeff):
        return None
    return out


def conjugated(doc):
    """The document with z -> -z applied to every concrete y coefficient:
    coordinate i is multiplied by (-1)^i."""
    out = copy.deepcopy(doc)
    for term in out["branch"]["y_terms"]:
        if term["coeff"] != "generic":
            term["coeff"] = [str(-Fraction(c) if i % 2 else Fraction(c))
                             for i, c in enumerate(term["coeff"])]
    return out


def outputs(doc, path):
    """(exit code, stdout) of `report --json` and of `verify --max-order
    20` on doc, written to path."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = []
    for argv in (["report", str(path), "--json"],
                 ["verify", str(path), "--max-order", "20"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        runs.append((code, out.getvalue()))
    return runs


@pytest.mark.parametrize("a", [Fraction(3), Fraction(-1, 2)], ids=str)
def test_scaling_y_changes_no_output(a, tmp_path):
    assert len(DOCUMENTS) == 39
    failures = []
    for item in DOCUMENTS:
        want = outputs(item["doc"], tmp_path / "doc.json")
        doc = scaled_y(item["doc"], a)
        if outputs(doc, tmp_path / "scaled.json") != want:
            failures.append("%s: %s" % (item["id"], json.dumps(doc)))
    assert failures == []


@pytest.mark.parametrize("q, k", [(Fraction(1), 1), (Fraction(-2, 3), 2)],
                         ids=str)
def test_adding_a_power_of_x_to_y_changes_no_output(q, k, tmp_path):
    failures = []
    checked = 0
    for item in DOCUMENTS:
        doc = added_power_of_x(item["doc"], q, k)
        if doc is None:
            continue
        checked += 1
        want = outputs(item["doc"], tmp_path / "doc.json")
        if outputs(doc, tmp_path / "added.json") != want:
            failures.append("%s: %s" % (item["id"], json.dumps(doc)))
    assert checked >= 30
    assert failures == []


def test_galois_conjugation_changes_no_output(tmp_path):
    """z -> -z on every document whose minimal polynomial has only even
    powers: Q(sqrt 2), Q(sqrt 3), the biquadratic and the quartic field."""
    even = [item for item in DOCUMENTS
            if not any(Fraction(a) for a in
                       item["doc"]["ambient"]["min_poly"][1::2])]
    assert len(even) == 21
    failures = []
    for item in even:
        want = outputs(item["doc"], tmp_path / "doc.json")
        doc = conjugated(item["doc"])
        if outputs(doc, tmp_path / "conjugate.json") != want:
            failures.append("%s: %s" % (item["id"], json.dumps(doc)))
    assert failures == []
