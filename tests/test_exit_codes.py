"""Every input document ends in exit code 0, 2, 3 or 4, never a traceback.

Hypothesis builds JSON documents from small branches over the corpus
fields in all three modes, puts one malformed value at one place of the
schema in half of them, and runs each through the four commands with flags
near 0. The examples are derandomized, so every run checks the same
documents, and each document has a time limit of its own. Two heavy
divisorial documents at max orders 80 and 160 have tighter limits, and so do
numbers whose text is short but whose value is huge.
"""

import contextlib
import io
import json
import os
import signal
import tempfile

import pytest
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


# biq_cusp over Q(sqrt 2 + sqrt 3) at its first divisorial extra step: the
# curvette's x = t^2/2 + .. is no power of t. Its oracle at max order 80
# once took about 16 s (2-core Xeon); 8 s leaves room for a slow machine.
BIQ_CUSP_DIV1 = {
    "ambient": {"var": "z", "min_poly": [1, 0, -10, 0, 1]},
    "branch": {"x_order": 2,
               "y_terms": [{"exp": 3, "coeff": [0, "-9/2", 0, "1/2"]},
                           {"exp": 5, "coeff": [0, "11/2", 0, "-1/2"]}]},
    "mode": {"divisorial": {"extra_steps": 1}},
}

# x = t, y = (-3/2 - z)t + 2t^2 - z t^4 over z^2 = z + 1, divisorial extra
# step 0: verify took 3.7 s at max order 30 when every monomial was fed,
# and its oracle 19.5 s at max order 80 (2-vCPU machine); as a Q[x]-module
# it takes well under a second at 160.
GOLDEN_DENSE_DIV0 = {
    "ambient": {"var": "z", "min_poly": [-1, -1, 1]},
    "branch": {"x_order": 1,
               "y_terms": [{"exp": 1, "coeff": ["-3/2", -1]},
                           {"exp": 2, "coeff": [2, 0]},
                           {"exp": 4, "coeff": [0, -1]}]},
    "mode": {"divisorial": {"extra_steps": 0}},
}


@pytest.mark.parametrize("doc,max_order", [(BIQ_CUSP_DIV1, 80),
                                           (GOLDEN_DENSE_DIV0, 160)],
                         ids=["biq_cusp_div1_V80", "golden_dense_div0_V160"])
def test_heavy_divisorial_verify_ends_within_8_s(doc, max_order):
    with tempfile.TemporaryDirectory() as tmp, time_limit(8, doc):
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", path, "--max-order", str(max_order)])
    assert code == 0
    assert "match: yes" in out.getvalue()


def exit_code_and_stderr(text, command):
    """Exit code and stderr of one command on the document text (a str,
    written as UTF-8, or the file's bytes)."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as handle:
            handle.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, path])
    return code, err.getvalue()


def test_exponent_coefficient_is_a_parse_failure_within_2_s():
    """Fraction reads "1e10000000" as 10^10000000; expanding it ran past
    60 s. Only integers and "p/q" strings are rationals."""
    doc = {"ambient": {"var": "z", "min_poly": [0, 1]},
           "branch": {"x_order": 2,
                      "y_terms": [{"exp": 3, "coeff": ["1e10000000"]}]},
           "mode": "curve"}
    with time_limit(2, doc):
        code, err = exit_code_and_stderr(json.dumps(doc), "analyze")
    assert code == 2
    assert "is not a rational: '1e10000000'" in err


def test_integer_past_the_digit_limit_is_a_parse_failure():
    """A 5000-digit integer is past Python's int conversion limit, so the
    JSON reader cannot read it."""
    text = json.dumps({"ambient": {"var": "z", "min_poly": ["BIG", 1]},
                       "branch": {"x_order": 2, "y_terms": []},
                       "mode": "curve"}).replace('"BIG"', "1" * 5000)
    code, err = exit_code_and_stderr(text, "analyze")
    assert code == 2
    assert err.startswith("parse error: invalid JSON in ")


def test_file_that_is_not_utf8_is_a_parse_failure():
    """A byte that cannot start a UTF-8 sequence makes the file unreadable
    as text: exit 2, not a validation error."""
    text = json.dumps({"ambient": {"var": "VAR", "min_poly": [0, 1]},
                       "branch": {"x_order": 2, "y_terms": []},
                       "mode": "curve"}).encode("utf-8")
    code, err = exit_code_and_stderr(text.replace(b"VAR", b"\xff"),
                                     "analyze")
    assert code == 2
    assert err.startswith("parse error: cannot read ")
    assert "can't decode byte 0xff" in err


def test_trailing_zero_coefficient_is_refused_as_not_monic():
    """A defining polynomial whose leading coefficient is 0 is not monic.
    Its listed degree (3) sets the number of coordinates, so the refusal
    names the polynomial, not the coordinates."""
    doc = {"ambient": {"var": "z", "min_poly": ["-2", "0", "1", "0"]},
           "branch": {"x_order": 2,
                      "y_terms": [{"exp": 3, "coeff": [1, 0, 0]}]},
           "mode": "curve"}
    code, err = exit_code_and_stderr(json.dumps(doc), "analyze")
    assert code == 3
    assert err == "validation error: defining polynomial must be monic\n"


def test_generic_marker_with_extra_steps_is_refused():
    """A generic-marker family's run stops at the first parameter-dependent
    center, past which no single component exists, so it takes no extra
    blow-ups. With extra_steps 2 analyze once printed the extra_steps 0
    answer; analyze and verify now refuse the document and name
    extra_steps, and extra_steps 0 still runs."""
    doc = {"ambient": {"var": "z", "min_poly": [0, 1]},
           "branch": {"x_order": 2,
                      "y_terms": [{"exp": 3, "coeff": [1]},
                                  {"exp": 5, "coeff": "generic"}]},
           "mode": {"divisorial": {"extra_steps": 2}}}
    for command in ("analyze", "verify"):
        code, err = exit_code_and_stderr(json.dumps(doc), command)
        assert code == 3
        assert err == ("validation error: extra_steps must be 0 on a "
                       "generic-marker branch: its run stops at the "
                       "marker\n")
    doc["mode"]["divisorial"]["extra_steps"] = 0
    assert exit_code_and_stderr(json.dumps(doc), "analyze") == (0, "")
