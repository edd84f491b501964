"""Correctness checks on the captured output of the benchmark's CLI calls.

A call is one (command, document) pair. It fails when its exit code is not
the one the workload expects, when `verify` does not print `match: yes`
where a match is expected, or when the `series.expansion` of
`report --json` disagrees with the `oracle:` dims of `verify` on a level
both list. Each call's stdout is also digested with sha256, so that two
commits can be compared byte for byte.
"""

import hashlib
import json

MATCH_LINE = "  match: yes"
ORACLE_PREFIX = "  oracle:"


def digest(stdout):
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def oracle_dims(stdout):
    """The oracle's dims from `verify` output, or None if it printed none."""
    for line in stdout.splitlines():
        if line.startswith(ORACLE_PREFIX):
            return [int(a) for a in line[len(ORACLE_PREFIX):].split()]
    return None


def check_document(item, calls):
    """Failed calls of one document, as {command: reason}.

    calls maps each command to {"exit": int, "stdout": str}.
    """
    bad = {}
    for cmd, want in item["expect"].items():
        got = calls[cmd]["exit"]
        if got != want:
            bad[cmd] = "exit %s, expected %d" % (got, want)
    if item["expect"]["verify"] != 0 or "verify" in bad:
        return bad
    verify_out = calls["verify"]["stdout"]
    dims = oracle_dims(verify_out)
    if MATCH_LINE not in verify_out.splitlines() or dims is None:
        bad["verify"] = "no oracle dims with 'match: yes'"
        return bad
    if "report" in bad:
        return bad
    try:
        expansion = json.loads(calls["report"]["stdout"])["series"][
            "expansion"]
    except (ValueError, KeyError, TypeError):
        bad["report"] = "stdout is not a JSON report with series.expansion"
        return bad
    for v, (want, got) in enumerate(zip(expansion, dims)):
        if want != got:
            bad["report"] = ("series.expansion[%d] = %s, oracle dim = %s"
                             % (v, want, got))
            break
    return bad
