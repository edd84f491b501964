"""Starting the CLI imports only what it uses, and the commands import
nothing more.

Each check runs in a fresh interpreter, where sys.modules shows what an
import really loads. Importing artifact.cli (or artifact) must not load
dataclasses or inspect, nor argparse or gettext: each, with the modules
it pulls in, adds milliseconds to every process, and a command line in a
documented form is read without argparse. Running the commands afterwards
must not import a single module, so no import cost moves from start-up
into a command.
"""

import json
import os
import pathlib
import subprocess
import sys

import artifact
from test_chart_states import WORKLOADS

SRC = str(pathlib.Path(artifact.__file__).resolve().parent.parent)

IMPORT_ONLY = """
import json, sys
import %s
print(json.dumps(sorted(sys.modules)))
"""

RUN_COMMANDS = """
import contextlib, io, json, sys
from artifact import cli
before = set(sys.modules)
for path in json.loads(sys.argv[1]):
    for argv in (["analyze", path], ["report", path, "--json"],
                 ["verify", path, "--max-order", "12"],
                 ["graph", path, "--dot"]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def run_python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_heavy_module():
    for module in ("artifact.cli", "artifact"):
        loaded = run_python(IMPORT_ONLY % module)
        assert module in loaded
        for heavy in ("dataclasses", "inspect", "argparse", "gettext"):
            assert heavy not in loaded, heavy


def test_commands_import_nothing(tmp_path):
    items = WORKLOADS.generate("corpus", 1)
    paths = WORKLOADS.write_documents(items, str(tmp_path))
    assert len(paths) == 42
    new = run_python(RUN_COMMANDS, json.dumps(paths))
    assert new == []
