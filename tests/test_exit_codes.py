"""Every input document ends in exit code 0, 2, 3 or 4, never a traceback.

Hypothesis builds JSON documents from small branches over the corpus
fields in all three modes, puts one malformed value at one place of the
schema in half of them, and runs each through the four commands with flags
near 0. The examples are derandomized, so every run checks the same
documents, and each document has a time limit of its own.
"""

import contextlib
import io
import json
import os
import signal
import tempfile

from hypothesis import given, settings, strategies as st

from artifact import cli

FIELDS = ([0, 1], [-2, 0, 1], [-3, 0, 1], [-1, -1, 1], [-2, 0, 0, 1],
          [1, 0, -10, 0, 1], [-2, 0, 0, 0, 1])
# malformed or degenerate defining polynomials: empty, too short, a float,
# a zero denominator, not squarefree, a zero leading coefficient
BAD_FIELDS = ([], [1], [1.5, 1], ["1/0", 1], [0, 0, 1], [1, 2, 1], [1, 0],
              "z", None)
BAD_SCALARS = (1.5, True, None, "x", "1/0", [1], {})

rationals = st.sampled_from([0, 1, -1, 2, "1/2", "-3/2"])
junk = st.sampled_from(BAD_SCALARS)
near_zero = st.integers(min_value=-1, max_value=3)


modes = st.one_of(
    st.just("curve"),
    st.builds(lambda k: {"divisorial": {"extra_steps": k}},
              st.integers(0, 3)),
    st.builds(lambda pairs: {"case2": {"splitting": pairs}},
              st.lists(st.fixed_dictionaries({
                  "M_rho": st.integers(1, 12),
                  "ell": st.integers(2, 3)}), max_size=2)))


def _set(*keys):
    """A mutation that puts a drawn value at doc[keys[0]][keys[1]]...; a
    document without y terms is left as it is."""
    def mutate(doc, value):
        node = doc
        try:
            for key in keys[:-1]:
                node = node[key]
        except IndexError:
            return
        node[keys[-1]] = value
    return mutate


# One malformed value at one place of an otherwise well-formed document.
MUTATIONS = (
    (_set("ambient", "min_poly"), st.sampled_from(BAD_FIELDS)),
    (_set("ambient", "var"), st.sampled_from(["", 3, None])),
    (_set("branch", "x_order"), st.one_of(near_zero, junk)),
    (_set("branch", "y_terms"), junk),
    (_set("branch", "y_terms", 0, "exp"), st.one_of(near_zero, junk)),
    (_set("branch", "y_terms", 0, "coeff"),
     st.one_of(junk, st.lists(rationals, max_size=5), st.lists(junk))),
    (_set("mode"), st.one_of(junk, st.sampled_from([
        "surface", {}, {"divisorial": {}}, {"case2": {}, "divisorial": {}},
        {"divisorial": {"extra_steps": -1}},
        {"case2": {"splitting": [{"M_rho": 0, "ell": 2}]}},
        {"case2": {"splitting": [{"M_rho": 3, "ell": 1}]}},
        {"case2": {"splitting": 7}}]))),
    (_set("options"), st.one_of(junk, st.just({"truncate": -1}),
                                st.just({"depth": 1}))),
    (_set("extra"), junk),
)


@st.composite
def documents(draw):
    min_poly = draw(st.sampled_from(FIELDS))
    degree = len(min_poly) - 1
    terms = draw(st.lists(st.fixed_dictionaries({
        "exp": st.integers(1, 9),
        "coeff": st.lists(rationals, min_size=degree, max_size=degree)}),
        max_size=3, unique_by=lambda term: term["exp"]))
    if terms and draw(st.integers(0, 3)) == 0:
        terms[draw(st.integers(0, len(terms) - 1))]["coeff"] = "generic"
    doc = {
        "ambient": {"var": "z", "min_poly": min_poly},
        "branch": {"x_order": draw(st.integers(1, 4)), "y_terms": terms},
        "mode": draw(modes),
    }
    if draw(st.booleans()):
        doc["options"] = {"truncate": draw(st.integers(0, 3))}
    if draw(st.booleans()):
        mutate, values = draw(st.sampled_from(MUTATIONS))
        mutate(doc, draw(values))
    return doc


flag = st.one_of(st.none(), near_zero.map(str), st.just("x"))

# The four commands on one of these documents take at most about 0.2 s
# (2-core Xeon); one that runs past this is a hang to report, not to wait
# out.
SECONDS_PER_DOCUMENT = 30


class Overtime(BaseException):
    """Raised from SIGALRM. Not an Exception, so Hypothesis stops at once
    instead of shrinking an input that is this slow."""


@contextlib.contextmanager
def time_limit(seconds, doc):
    def expire(signum, frame):
        raise Overtime("no exit code after %d s: %s"
                       % (seconds, json.dumps(doc)))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=documents(), truncate=flag, max_order=flag)
def test_every_document_ends_in_a_declared_exit_code(doc, truncate,
                                                     max_order):
    with tempfile.TemporaryDirectory() as tmp, \
            time_limit(SECONDS_PER_DOCUMENT, doc):
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        extra = [] if truncate is None else ["--truncate", truncate]
        verify = [] if max_order is None else ["--max-order", max_order]
        for argv in (["analyze", path] + extra,
                     ["report", path, "--json"] + extra,
                     ["graph", path, "--dot"],
                     ["verify", path] + verify):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 2, 3, 4), (argv, doc, code)
