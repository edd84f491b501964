"""The oracle's work on the benchmark's verify calls, pinned as counts.

Times on a small shared machine cannot resolve a few percent, and counts
do not depend on the machine. Each `verify --max-order N` call that the
benchmark makes on its four workloads at seed 1 runs in-process here,
with counting wrappers local to this test, and so does `verify
--max-order 80` on the golden-field divisorial document that once took
seconds (GOLDEN_DENSE_DIV0). Three totals per entry must equal the pinned
ones:
- the SparseRowSpace.add calls, the inserts of the Q[x]-module echelon
  (oracle._XModule) included;
- the vectors those calls stored;
- the levels the oracle reported, len(dims) = V + 1 per oracle call.
A change that makes the oracle do more work fails here. Feeding every
monomial where x shifts the leads is one such change: it keeps every
output and the levels, and raises the other two counts. Only the
divisorial curvettes of qrt_cusp, whose x has the irrational lowest
coefficient z^2/2, still feed every live monomial. A change that lowers
a count re-pins it and says why.
"""

import contextlib
import io
from collections import Counter

from artifact import cli, oracle
from artifact.linalg import SparseRowSpace

from test_chart_states import WORKLOADS
from test_exit_codes import GOLDEN_DENSE_DIV0

SEED = 1

# {entry: (add calls, vectors stored, levels)}
PINNED = {
    "corpus": (233, 198, 1305),
    "oracle_quartic": (237, 218, 623),
    "cusp_ladder": (18, 11, 191),
    "multipair_fields": (32, 28, 244),
    "golden_dense_div0_V80": (55, 54, 81),
}

ITEMS = {"golden_dense_div0_V80": [
    {"id": "golden_dense_div0", "doc": GOLDEN_DENSE_DIV0, "max_order": 80}]}


def verify_work(entry, out_dir, monkeypatch):
    counts = Counter()
    add, filtration = SparseRowSpace.add, oracle._filtration

    def counted_add(space, row):
        counts["add"] += 1
        out = add(space, row)
        counts["stored"] += bool(out)
        return out

    def counted_filtration(x, y, V, mode, field):
        report = filtration(x, y, V, mode, field)
        counts["levels"] += len(report.dims)
        return report

    with monkeypatch.context() as patch:
        patch.setattr(SparseRowSpace, "add", counted_add)
        patch.setattr(oracle, "_filtration", counted_filtration)
        items = ITEMS.get(entry) or WORKLOADS.generate(entry, SEED)
        paths = WORKLOADS.write_documents(items, str(out_dir))
        for item, path in zip(items, paths):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", path, "--max-order",
                          str(item["max_order"])])
    return counts["add"], counts["stored"], counts["levels"]


def test_verify_work_is_pinned(tmp_path, monkeypatch):
    got = {entry: verify_work(entry, tmp_path / entry, monkeypatch)
           for entry in PINNED}
    assert got == PINNED
