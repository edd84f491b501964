"""The work of the oracle, the curvettes and resolve on the benchmark's
verify calls, pinned as counts.

Times on a small shared machine cannot resolve a few percent, and counts
do not depend on the machine. Each `verify --max-order N` call that the
benchmark makes on its four workloads at seed 1 runs in-process here,
with counting wrappers local to this test, and so does `verify
--max-order 80` on the golden-field divisorial document that once took
seconds (GOLDEN_DENSE_DIV0). Five totals per entry must equal the pinned
ones:
- the SparseRowSpace.add calls, the inserts of the Q[x]-module echelon
  (oracle._XModule) included;
- the vectors those calls stored;
- the levels the oracle reported, len(dims) = V + 1 per oracle call;
- the nonzero coefficient products that Poly.mul_upto forms inside
  generic_curvette, each a product of two polynomials in the curvette's
  constant c;
- the AlgNum.inverse calls made inside resolve.
A change that makes any of them do more work fails here. Feeding every
monomial where x shifts the leads is one such change: it keeps every
output and the levels, and raises the first two counts. Only the
divisorial curvettes of qrt_cusp, whose x has the irrational lowest
coefficient z^2/2, walk the x-chain of each power of y. Cutting each
product of the blow-down at tau^V, and not at the precision the rest of
the chain reads, is another: it keeps the curvette and raises the fourth
count on cusp_ladder from 28 to 247 (cusp_k8_div1 5 to 45, cusp_k12_div2
9 to 83, cusp_k16_div3 14 to 119). On cusp_k16_div3 (V = 16), 16 chart-A
steps follow the chart-B step, each multiplying w by u of order 2, so y
cut past tau^16 is 0, yet a cut at tau^16 forms every term of w below it
at each step. The stop test of resolve forming its own inverse of u's
lowest coefficient d, where the chart-A division that follows forms it
again, is another: it raises the fifth count on oracle_quartic from 11 to
28 and on corpus from 14 to 19. A change that lowers a count re-pins it
and says why.
"""

import contextlib
import io
from collections import Counter

from artifact import cli, oracle
from artifact.exactfield import AlgNum
from artifact.linalg import SparseRowSpace
from artifact.ratfunc import Poly

from test_chart_states import WORKLOADS
from test_exit_codes import GOLDEN_DENSE_DIV0

SEED = 1

# {entry: (add calls, vectors stored, levels, curvette products,
#          inverses in resolve)}
PINNED = {
    "corpus": (233, 198, 1305, 35, 14),
    "oracle_quartic": (231, 218, 623, 66, 11),
    "cusp_ladder": (18, 11, 191, 28, 2),
    "multipair_fields": (32, 28, 244, 0, 6),
    "golden_dense_div0_V80": (55, 54, 81, 3, 0),
}

ITEMS = {"golden_dense_div0_V80": [
    {"id": "golden_dense_div0", "doc": GOLDEN_DENSE_DIV0, "max_order": 80}]}


def verify_work(entry, out_dir, monkeypatch):
    counts = Counter()
    add, filtration = SparseRowSpace.add, oracle._filtration
    curvette, mul_upto = cli.generic_curvette, Poly.mul_upto
    resolve, inverse = cli.resolve, AlgNum.inverse

    def counted_add(space, row):
        counts["add"] += 1
        out = add(space, row)
        counts["stored"] += bool(out)
        return out

    def counted_filtration(x, y, V, field):
        report = filtration(x, y, V, field)
        counts["levels"] += len(report.dims)
        return report

    def counted_curvette(*args, **kwargs):
        counts["in_curvette"] += 1
        try:
            return curvette(*args, **kwargs)
        finally:
            counts["in_curvette"] -= 1

    def counted_resolve(*args, **kwargs):
        counts["in_resolve"] += 1
        try:
            return resolve(*args, **kwargs)
        finally:
            counts["in_resolve"] -= 1

    def counted_inverse(a):
        counts["inverses"] += bool(counts["in_resolve"])
        return inverse(a)

    def counted_mul_upto(a, b, bound):
        if counts["in_curvette"]:
            top = None if bound is None else bound - a.shift - b.shift
            b_terms = [j for j, c in enumerate(b.tail) if c]
            counts["products"] += sum(
                1 for i, c in enumerate(a.tail) if c for j in b_terms
                if top is None or i + j <= top)
        return mul_upto(a, b, bound)

    with monkeypatch.context() as patch:
        patch.setattr(SparseRowSpace, "add", counted_add)
        patch.setattr(oracle, "_filtration", counted_filtration)
        patch.setattr(cli, "generic_curvette", counted_curvette)
        patch.setattr(Poly, "mul_upto", counted_mul_upto)
        patch.setattr(cli, "resolve", counted_resolve)
        patch.setattr(AlgNum, "inverse", counted_inverse)
        items = ITEMS.get(entry) or WORKLOADS.generate(entry, SEED)
        paths = WORKLOADS.write_documents(items, str(out_dir))
        for item, path in zip(items, paths):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", path, "--max-order",
                          str(item["max_order"])])
    return (counts["add"], counts["stored"], counts["levels"],
            counts["products"], counts["inverses"])


def test_verify_work_is_pinned(tmp_path, monkeypatch):
    got = {entry: verify_work(entry, tmp_path / entry, monkeypatch)
           for entry in PINNED}
    assert got == PINNED
