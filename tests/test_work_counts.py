"""The oracle's work on the benchmark's verify calls, pinned as counts.

Times on a small shared machine cannot resolve a few percent, and counts
do not depend on the machine. Each `verify --max-order N` call that the
benchmark makes on its four workloads at seed 1 runs in-process here,
with counting wrappers local to this test, and three totals per workload
must equal the pinned ones:
- the SparseRowSpace.add calls, those of the residue bound
  (oracle._residue_dims) included;
- the vectors those calls stored;
- the levels the oracle reported, len(dims) = V + 1 per oracle call.
A change that makes the oracle do more work fails here. Disabling the
full-level stop of oracle._filtration is one such change: it keeps every
output and the levels, and raises the other two counts. So is a residue
bound that no longer gives up once one residue fills L. cusp_ladder and
multipair_fields gain nothing from the stop; their counts show a lost
early exit that their times would hide in noise. A change that lowers a
count re-pins it and says why.
"""

import contextlib
import io
from collections import Counter

from artifact import cli, oracle
from artifact.linalg import SparseRowSpace

from test_chart_states import WORKLOADS

SEED = 1

# {workload: (add calls, vectors stored, levels)}
PINNED = {
    "corpus": (1819, 1748, 1305),
    "oracle_quartic": (464, 419, 623),
    "cusp_ladder": (83, 83, 191),
    "multipair_fields": (195, 187, 244),
}


def verify_work(workload, out_dir, monkeypatch):
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
        items = WORKLOADS.generate(workload, SEED)
        paths = WORKLOADS.write_documents(items, str(out_dir))
        for item, path in zip(items, paths):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", path, "--max-order",
                          str(item["max_order"])])
    return counts["add"], counts["stored"], counts["levels"]


def test_verify_work_is_pinned(tmp_path, monkeypatch):
    got = {workload: verify_work(workload, tmp_path / workload, monkeypatch)
           for workload in PINNED}
    assert got == PINNED
