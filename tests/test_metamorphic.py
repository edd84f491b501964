"""Metamorphic relation y -> a*y: the outputs do not depend on the scale of y.

For a nonzero rational a, (x, y) -> (x, a*y) is a linear automorphism of
the plane defined over Q. It maps the branch (or the divisor reached from
it) to one whose value filtration has the same dimensions at every level,
and the blow-ups see the same subfields at the same points. So every
invariant, the series and the oracle's dims are unchanged, and `report
--json` writes the same text: it echoes no coefficient of y.

Checked on every document of the corpus workload (seed 1) that parses,
with a = 3 and a = -1/2: `report --json` must print the same stdout, and
`verify --max-order 20` must end with the same exit code and print the
same dims and outcome.
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
