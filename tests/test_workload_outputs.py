"""The CLI contract on the benchmark's workloads: byte-identical stdout.

Each `analyze`, `report --json` and `verify --max-order N` call that the
benchmark makes on the four workloads at seed 1 runs in-process here, and
the sha256 of its stdout and its exit code must equal the pinned ones in
pinned/workload_stdout.json. A change meant to keep the output must keep
every digest; a change meant to alter it rewrites the file with

    PYTHONPATH=src python tests/test_workload_outputs.py

and says why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from artifact import cli

from test_chart_states import WORKLOADS

SEED = 1
PINNED = pathlib.Path(__file__).with_name("pinned") / "workload_stdout.json"


def argv_for(command, path, item):
    """The argument vector the benchmark passes for one call."""
    if command == "analyze":
        return ["analyze", path]
    if command == "report":
        return ["report", path, "--json"]
    return ["verify", path, "--max-order", str(item["max_order"])]


def workload_outputs(out_dir):
    """{workload: [{id, command, exit, sha256}, ...]} over the documents of
    every workload at SEED, written under out_dir, in id then command
    order."""
    outputs = {}
    for workload in sorted(WORKLOADS.GENERATORS):
        items = sorted(WORKLOADS.generate(workload, SEED),
                       key=lambda it: it["id"])
        paths = WORKLOADS.write_documents(
            items, str(pathlib.Path(out_dir) / workload))
        rows = []
        for item, path in zip(items, paths):
            for command in WORKLOADS.COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv_for(command, path, item))
                rows.append({"id": item["id"], "command": command,
                             "exit": code,
                             "sha256": hashlib.sha256(
                                 out.getvalue().encode("utf-8")).hexdigest()})
        outputs[workload] = rows
    return outputs


def test_workload_stdout_and_exit_codes_are_pinned(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert pinned["seed"] == SEED
    got = workload_outputs(tmp_path)
    assert sorted(got) == sorted(pinned["workloads"])
    for workload, rows in got.items():
        want = {(r["id"], r["command"]): r
                for r in pinned["workloads"][workload]}
        assert len(want) == len(rows)
        for row in rows:
            assert row == want[(row["id"], row["command"])], (workload, row)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out_dir:
        doc = {"seed": SEED, "workloads": workload_outputs(out_dir)}
    PINNED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("wrote %s" % PINNED, file=sys.stderr)
