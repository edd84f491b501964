"""Mutation check: do the tests catch a broken fast path, or code that
no command reads?

Each mutant is one textual edit of a source file, or of a check in
tests/output_checks.py, with the test files that must catch it. The
script copies the repository into a temporary directory, applies one
mutant at a time, runs `pytest -x` on its test files and prints killed,
survived or equivalent. A mutant marked equivalent changes nothing
a user can observe, so it is expected to survive.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Exit status: 0 when every unmarked mutant is killed and every marked one
survives; 1 when one does otherwise; 2 when the unmutated copy fails its
tests or a mutant's text is not found exactly once in its file.

The name has no test_ prefix and the file defines no tests, so pytest does
not collect it.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI = "src/artifact/cli.py"
CLI_TESTS = ("tests/test_cli.py", "tests/test_exit_codes.py")
ORACLE = "src/artifact/oracle.py"
ORACLE_TESTS = ("tests/test_oracle.py", "tests/test_work_counts.py")
RESOLUTION = "src/artifact/resolution.py"
RESOLUTION_TESTS = ("tests/test_resolution.py", "tests/test_chart_states.py")
GRAPH_TESTS = ("tests/test_resolution.py",)
POINCARE = "src/artifact/poincare.py"
SURFACE_TESTS = ("tests/test_package_surface.py",)
CHECKS = "tests/output_checks.py"
CHECKS_TESTS = ("tests/test_poincare.py",)

# (what the mutant does, file, old text, new text, test files, equivalent)
MUTANTS = (
    ("a path starting with - is read directly", CLI,
     'argv[0] in COMMANDS and argv[1][:1] != "-":',
     "argv[0] in COMMANDS:", CLI_TESTS, False),
    ("the required flag is not required", CLI,
     "        if flag is not None:\n",
     "        if flag is not None and rest:\n", CLI_TESTS, False),
    ("the required flag is read anywhere after the path", CLI,
     "            if rest[:1] != [flag]:\n"
     "                return _parse_with_argparse(argv)\n"
     "            rest = rest[1:]",
     "            if rest.count(flag) != 1:\n"
     "                return _parse_with_argparse(argv)\n"
     "            rest.remove(flag)", CLI_TESTS, False),
    ("the value is not checked by isdigit()", CLI,
     "if text.isdigit():", "if True:", CLI_TESTS, False),
    ("int()'s refusal is not caught", CLI,
     "                try:\n"
     "                    return argv[0], argv[1], int(text)\n"
     "                except ValueError:"
     "  # a superscript digit, or too many digits\n"
     "                    pass",
     "                return argv[0], argv[1], int(text)", CLI_TESTS, False),
    ("the other command's option is read directly", CLI,
     "rest[0] == valued:",
     'rest[0] in ("--truncate", "--max-order"):', CLI_TESTS, False),
    # argparse accepts a repeated store_true flag as well
    ("the required flag is accepted twice", CLI,
     "            rest = rest[1:]",
     "            while rest[:1] == [flag]:\n"
     "                rest = rest[1:]", CLI_TESTS, True),
    ("a generator counts only at its own level", ORACLE,
     "for v in range(lead // W, V + 1, ox):",
     "for v in range(lead // W, lead // W + 1):", ORACLE_TESTS, False),
    ("the lead class is taken mod W, not mod ord(x)*W", ORACLE,
     "_XModule(x_keyed, ox * W, limit)", "_XModule(x_keyed, W, limit)",
     ORACLE_TESTS, False),
    # y^j is fed only when y^(j+1) survives the cut
    ("the y-chain stops one power early", ORACLE,
     "        r = space.add(_times(r, y_keyed, limit))",
     "        y_r = _times(r, y_keyed, limit)\n"
     "        r = _times(y_r, y_keyed, limit) and space.add(y_r)",
     ORACLE_TESTS, False),
    ("the x-chain stops one level early", ORACLE,
     "min(s) // W + ox <= V:", "min(s) // W + ox < V:", ORACLE_TESTS,
     False),
    # the unit's vector is the only one with a key 0
    ("the x-chain is walked only after the unit", ORACLE,
     "        s = r\n", "        s = r if 0 in r else {}\n", ORACLE_TESTS,
     False),
    ("the x-chain multiplies r, not s", ORACLE,
     "s = space.add(_times(s, x_keyed, limit))",
     "s = space.add(_times(r, x_keyed, limit))", ORACLE_TESTS, False),
    ("a new vector replaces a generator with a smaller lead", ORACLE,
     "if gen is None:", "if gen is None or gen[0] < lead:",
     ORACLE_TESTS, False),
    ("any nonzero lowest coefficient of x takes the module", ORACLE,
     "shifts = a and not any(a.num[1:])", "shifts = a",
     ORACLE_TESTS + ("tests/test_workload_outputs.py",), False),
    ("the records' translations are dropped", RESOLUTION,
     "(recs[k].chart, _shift(recs[k]))", "(recs[k].chart, None)",
     ORACLE_TESTS, False),
    ("the order is not reset to 0 at a translation", RESOLUTION,
     "ow = 0 if shift else ow", "ow = ow", ORACLE_TESTS, False),
    ("chart A's w-need subtracts ow", RESOLUTION,
     "max(nu, nw - ow), nw - ou", "max(nu, nw - ow), nw - ow",
     ORACLE_TESTS, False),
    ("chart B's needs are swapped", RESOLUTION,
     "max(nu - ow, nw), nu - ou", "nu - ou, max(nu - ow, nw)",
     ORACLE_TESTS, False),
    # the curvette is unchanged; only the count of products rises
    ("every curvette product is cut at V", RESOLUTION,
     "    if bound is not None:\n        orders",
     "    if False:\n        orders", ORACLE_TESTS, False),
    # set where the stop test is first asked, whatever it answers
    ("the stop flag is set without a true answer", RESOLUTION,
     "(settled or _tail_ok(u, w, sub))",
     "(settled or (settled := True) and _tail_ok(u, w, sub))",
     RESOLUTION_TESTS, False),
    ("the rescale's power is off by one", RESOLUTION,
     "c = c * powers[e]", "c = c * powers[e - 1]", RESOLUTION_TESTS, False),
    ("the stop test skips w's denominator", RESOLUTION,
     "for poly in (u.num, u.den, w.num, w.den):",
     "for poly in (u.num, u.den, w.num):", RESOLUTION_TESTS, False),
    ("any constant d skips the rescale", RESOLUTION,
     "powers = None if k is not None and sub.contains_num(k)",
     "powers = None if k is not None", RESOLUTION_TESTS, False),
    ("a satellite point's two hosts keep their edge", RESOLUTION,
     "            adj[a].remove(b)\n            adj[b].remove(a)\n",
     "            pass\n", GRAPH_TESTS, False),
    ("ruptures are numbered from the far end of the geodesic", RESOLUTION,
     "enumerate(chains, start=1)", "enumerate(reversed(chains), start=1)",
     GRAPH_TESTS, False),
    ("a second dead-end chain at one vertex is accepted", RESOLUTION,
     "if chains and chains[-1][0] == gv:", "if False:", GRAPH_TESTS,
     False),
    ("the geodesic is read from n - 1 to 0", RESOLUTION,
     "    geodesic.reverse()\n", "", GRAPH_TESTS, False),
    ("an unread property NumericalData.g is re-added", POINCARE,
     "                     N, ell, c, delta)\n",
     "                     N, ell, c, delta)\n\n"
     "    @property\n"
     "    def g(self):\n"
     "        return len(self.M_tau)\n", SURFACE_TESTS, False),
    ("the stable range starts at Delta + 1", CHECKS,
     "for v in range(Delta, n + 1):", "for v in range(Delta + 1, n + 1):",
     CHECKS_TESTS, False),
    ("the last pre-stable check needs Delta >= 2", CHECKS,
     "if Delta >= 1 and not", "if Delta >= 2 and not", CHECKS_TESTS,
     False),
)


def run_tests(copy, targets):
    """pytest's exit code on targets in the copy, or None on a timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *targets],
            cwd=copy, capture_output=True, text=True, timeout=600,
            env=dict(os.environ, PYTHONPATH=str(copy / "src")))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return proc.returncode


def main():
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        targets = sorted({t for mutant in MUTANTS for t in mutant[4]})
        if run_tests(copy, targets) != 0:
            print("the unmutated copy fails %s" % " ".join(targets))
            return 2
        unexpected = 0
        for what, name, old, new, tests, equivalent in MUTANTS:
            path = copy / name
            source = path.read_text(encoding="utf-8")
            if source.count(old) != 1:
                print("%s: the text is not found exactly once in %s"
                      % (what, name))
                return 2
            path.write_text(source.replace(old, new), encoding="utf-8")
            try:
                code = run_tests(copy, tests)
            finally:
                path.write_text(source, encoding="utf-8")
            if code not in (0, 1, None):
                print("%s: pytest exited %d" % (what, code))
                return 2
            survived = code == 0
            if survived and equivalent:
                verdict = "equivalent"
            elif survived:
                verdict = "SURVIVED"
            else:
                verdict = "killed" + (" (timeout)" if code is None else "")
                if equivalent:
                    verdict += ", but marked equivalent"
            unexpected += survived != equivalent
            print("%-28s %s" % (verdict, what))
    print("%d mutants, %d unexpected, %.0f s"
          % (len(MUTANTS), unexpected, time.monotonic() - started))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
