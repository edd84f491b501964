"""Tests for the file-driven front end.

Inputs are written to temporary files; expected report content comes from
the hand-checked pipeline examples frozen in the other test modules (the
front end adds parsing, rendering and exit-code plumbing on top of them).
"""

import collections
import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artifact import cli
from artifact.errors import ParseFailure
from artifact.oracle import FiltrationReport
from artifact.resolution import GENERIC
from slow_paths import build_arg_parser
from test_chart_states import WORKLOADS


CUSP = {
    "ambient": {"var": "z", "min_poly": ["0", "1"]},
    "branch": {"x_order": 2, "y_terms": [{"exp": 3, "coeff": ["1"]}]},
    "mode": "curve",
    "options": {"truncate": 6},
}

SQRT2_LINE = {
    "ambient": {"var": "z", "min_poly": ["-2", "0", "1"]},
    "branch": {"x_order": 1, "y_terms": [{"exp": 1, "coeff": ["0", "1"]}]},
    "mode": "curve",
}

SMOOTH = {
    "ambient": {"var": "z", "min_poly": ["0", "1"]},
    "branch": {"x_order": 1, "y_terms": []},
    "mode": "curve",
}

GENERIC_CUSP = {
    "ambient": {"var": "z", "min_poly": ["0", "1"]},
    "branch": {"x_order": 2, "y_terms": [{"exp": 3, "coeff": "generic"}]},
    "mode": "curve",
}

DIVISORIAL_CUSP = {
    "ambient": {"var": "z", "min_poly": ["0", "1"]},
    "branch": {"x_order": 2, "y_terms": [{"exp": 3, "coeff": ["1"]}]},
    "mode": {"divisorial": {"extra_steps": 2}},
}

CASE2 = {
    "ambient": {"var": "z", "min_poly": ["0", "1"]},
    "branch": {"x_order": 2, "y_terms": [{"exp": 3, "coeff": ["1"]}]},
    "mode": {"case2": {"splitting": [{"M_rho": 7, "ell": 2},
                                     {"M_rho": 11, "ell": 2}]}},
    "options": {"truncate": 12},
}


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- parsing -------------------------------------------------------------------

def test_parse_input_reads_the_schema():
    doc = cli.parse_input(CUSP)
    assert doc.min_poly == (Fraction(0), Fraction(1))
    assert doc.x_order == 2
    assert doc.y_terms == ((3, (Fraction(1),)),)
    assert doc.mode == "curve" and doc.truncate == 6
    assert doc.extra_steps == 0 and doc.splitting_prefix == ()

    doc = cli.parse_input(DIVISORIAL_CUSP)
    assert doc.mode == "divisorial" and doc.extra_steps == 2
    assert doc.truncate is None

    doc = cli.parse_input(CASE2)
    assert doc.mode == "case2"
    assert doc.splitting_prefix == ((7, 2), (11, 2))

    doc = cli.parse_input(GENERIC_CUSP)
    assert doc.y_terms == ((3, GENERIC),)

    fancy = {
        "ambient": {"var": "w", "min_poly": ["-1/2", 0, 1]},
        "branch": {"x_order": 1,
                   "y_terms": [{"exp": 2, "coeff": ["3/4", -2]}]},
        "mode": "curve",
    }
    doc = cli.parse_input(fancy)
    assert doc.min_poly == (Fraction(-1, 2), Fraction(0), Fraction(1))
    assert doc.y_terms == ((2, (Fraction(3, 4), Fraction(-2))),)


def test_parse_input_rejects_schema_violations():
    def corrupt(path, value):
        doc = json.loads(json.dumps(CUSP))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    bad_docs = [
        {},
        {"ambient": CUSP["ambient"], "branch": CUSP["branch"]},
        dict(CUSP, surplus=1),
        corrupt(("ambient",), 3),
        corrupt(("ambient", "var"), ""),
        corrupt(("ambient", "min_poly"), ["1"]),
        corrupt(("ambient", "min_poly"), ["0", 0.5]),
        corrupt(("ambient", "min_poly"), ["0", "1/0"]),
        corrupt(("ambient", "min_poly"), ["1.5", "1"]),
        corrupt(("branch", "y_terms"), [{"exp": 3, "coeff": ["1_0"]}]),
        corrupt(("branch", "x_order"), 0),
        corrupt(("branch", "x_order"), True),
        corrupt(("branch", "y_terms"), {"exp": 3}),
        corrupt(("branch", "y_terms"), [{"exp": 0, "coeff": ["1"]}]),
        corrupt(("branch", "y_terms"), [{"exp": 3, "coeff": ["1", "2"]}]),
        corrupt(("branch", "y_terms"), [{"exp": 3, "coeff": "weird"}]),
        corrupt(("mode",), "orbit"),
        corrupt(("mode",), {"divisorial": {"extra_steps": -1}}),
        corrupt(("mode",), {"divisorial": {}, "case2": {}}),
        corrupt(("mode",), {"case2": {"splitting": [{"M_rho": 7}]}}),
        corrupt(("mode",), {"case2": {"splitting": [{"M_rho": 7,
                                                     "ell": 1}]}}),
        corrupt(("options",), {"truncate": -1}),
        corrupt(("options",), {"tabulate": 3}),
    ]
    for raw in bad_docs:
        with pytest.raises(ParseFailure):
            cli.parse_input(raw)


# --- analyze -------------------------------------------------------------------

def test_analyze_cusp(tmp_path, capsys):
    assert cli.main(["analyze", write_doc(tmp_path, CUSP)]) == 0
    out = capsys.readouterr().out
    assert "case: I" in out
    assert "series: (1-t^6)/((1-t^2)(1-t^3))" in out
    assert "expansion (v = 0..6): 1 0 1 1 1 1 1" in out
    assert "branch meets vertex 2" in out


def test_analyze_smooth_line(tmp_path, capsys):
    assert cli.main(["analyze", write_doc(tmp_path, SMOOTH)]) == 0
    out = capsys.readouterr().out
    assert "series: 1/(1-t)" in out
    # Delta = 0, so the default expansion length is 10
    assert "expansion (v = 0..10): 1 1 1 1 1 1 1 1 1 1 1" in out


def test_analyze_generic_marker(tmp_path, capsys):
    assert cli.main(["analyze", write_doc(tmp_path, GENERIC_CUSP)]) == 0
    out = capsys.readouterr().out
    assert "case: III" in out
    assert "n: 1" in out
    assert "series: 1/((1-t^2)(1-t^3))" in out
    # default expansion length for an incomplete formula is 40
    assert "expansion (v = 0..40):" in out


def test_analyze_defaults_to_delta_plus_ten(tmp_path, capsys):
    doc = {k: v for k, v in CUSP.items() if k != "options"}
    assert cli.main(["analyze", write_doc(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    # Delta = 2 for the cusp
    assert "expansion (v = 0..12):" in out


def test_default_expansion_length_is_capped(tmp_path, capsys):
    """x = t^999, y = t^1000 has Delta + 10 = 997012, past the largest
    length --truncate accepts; the default stops at that cap."""
    doc = {"ambient": {"var": "z", "min_poly": ["0", "1"]},
           "branch": {"x_order": 999, "y_terms": [{"exp": 1000,
                                                    "coeff": ["1"]}]},
           "mode": "curve"}
    analysis = cli.build_analysis(cli.parse_input(doc))
    assert analysis.nd.Delta + 10 == 997012
    assert cli.default_truncate(analysis) == cli.MAX_TRUNCATE == 100000
    assert cli.main(["analyze", write_doc(tmp_path, doc)]) == 0
    assert "expansion (v = 0..100000):" in capsys.readouterr().out


def test_truncate_flag_overrides_file_option(tmp_path, capsys):
    assert cli.main(["analyze", write_doc(tmp_path, CUSP),
                     "--truncate", "4"]) == 0
    out = capsys.readouterr().out
    assert "expansion (v = 0..4): 1 0 1 1 1" in out


def test_analyze_case2_marks_partial(tmp_path, capsys):
    assert cli.main(["analyze", write_doc(tmp_path, CASE2)]) == 0
    out = capsys.readouterr().out
    assert "(partial product)" in out
    assert "series: (1-t^6)(1-t^14)(1-t^22)/" \
           "((1-t^2)(1-t^3)(1-t^7)(1-t^11))" in out


# --- report --------------------------------------------------------------------

def test_report_json_cusp(tmp_path, capsys):
    path = write_doc(tmp_path, CUSP)
    assert cli.main(["report", path, "--json"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["series"]["factors"] == [[6, 1], [2, -1], [3, -1]]
    assert doc["series"]["partial"] is False
    assert doc["series"]["expansion"] == [1, 0, 1, 1, 1, 1, 1]
    assert doc["case"] == "I" and doc["n"] is None
    assert doc["invariants"]["M_sigma"] == [2, 3]
    assert doc["invariants"]["Delta"] == 2
    assert doc["graph"]["branch_vertex"] == 2
    assert doc["verification"] is None
    assert cli.main(["report", path, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_report_round_trips_the_invariants(tmp_path, capsys):
    path = write_doc(tmp_path, SQRT2_LINE)
    assert cli.main(["report", path, "--json"]) == 0
    reported = json.loads(capsys.readouterr().out)["invariants"]
    analysis = cli.build_analysis(cli.load_input(path))
    fresh = cli.build_report(analysis, 5)["invariants"]
    assert reported == fresh
    assert reported["splitting"] == [[1, 2]]
    assert reported["ell_total"] == 2


def test_report_case2_partial_flag(tmp_path, capsys):
    assert cli.main(["report", write_doc(tmp_path, CASE2), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["series"]["partial"] is True
    assert doc["mode"] == "case2"


# --- graph ---------------------------------------------------------------------

def test_report_json_is_the_indented_sorted_dump(tmp_path, monkeypatch):
    """Every report of the four workloads at seeds 1 and 2 prints as
    json.dumps(report, sort_keys=True, indent=2) writes it."""
    reports = []
    json_text = cli._json_text

    def checked(value, indent=""):
        out = json_text(value, indent)
        if not indent:
            assert out == json.dumps(value, sort_keys=True, indent=2)
            reports.append(value)
        return out

    monkeypatch.setattr(cli, "_json_text", checked)
    for workload in sorted(WORKLOADS.GENERATORS):
        for seed in (1, 2):
            items = WORKLOADS.generate(workload, seed)
            paths = WORKLOADS.write_documents(
                items, str(tmp_path / ("%s_%d" % (workload, seed))))
            for path in paths:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(["report", path, "--json"])
    assert len(reports) > 120


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_json_text_equals_the_dump_on_any_report_shaped_value(value):
    """Empty containers, non-ASCII and control characters in strings and
    keys, large negative integers, bools beside ints."""
    assert cli._json_text(value) == json.dumps(value, sort_keys=True,
                                               indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1: 2}, {1, 2},
                                   [b"x"], {"a": object()}])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_graph_dot_cusp(tmp_path, capsys):
    path = write_doc(tmp_path, CUSP)
    assert cli.main(["graph", path, "--dot"]) == 0
    first = capsys.readouterr().out
    assert first.startswith("digraph")
    assert "v2 -> branch [dir=forward, arrowhead=normal];" in first
    assert first.count("label=") == 4  # three components plus the arrow node
    assert "v0 -> v2;" in first and "v1 -> v2;" in first
    assert cli.main(["graph", path, "--dot"]) == 0
    assert capsys.readouterr().out == first


def test_graph_dot_smooth_line(tmp_path, capsys):
    assert cli.main(["graph", write_doc(tmp_path, SMOOTH), "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.count("label=") == 2  # one component plus the arrow node
    assert "v0 -> branch" in out


def test_graph_dot_shows_splitting_and_field_growth(tmp_path, capsys):
    assert cli.main(["graph", write_doc(tmp_path, SQRT2_LINE), "--dot"]) == 0
    out = capsys.readouterr().out
    assert "SPLITTING(1)" in out
    assert "[K:Q]=2" in out
    assert "m=2 M=3" in out


def test_graph_expands_the_series_to_level_0_only(tmp_path, monkeypatch,
                                                  capsys):
    """render_dot reads no expansion, so graph builds its report at
    truncate 0; the DOT text is the one of the report at the default
    truncate."""
    orders = []
    expand = cli.expand

    def recording(series, order):
        orders.append(order)
        return expand(series, order)

    monkeypatch.setattr(cli, "expand", recording)
    for doc in (CUSP, SQRT2_LINE, DIVISORIAL_CUSP, CASE2):
        path = write_doc(tmp_path, doc)
        orders.clear()
        assert cli.main(["graph", path, "--dot"]) == 0
        assert orders == [0]
        analysis = cli.build_analysis(cli.load_input(path))
        full = cli.build_report(analysis, cli.default_truncate(analysis))
        assert capsys.readouterr().out == cli.render_dot(full) + "\n"


# --- verify --------------------------------------------------------------------

def test_verify_matches_the_oracle(tmp_path, capsys):
    assert cli.main(["verify", write_doc(tmp_path, CUSP),
                     "--max-order", "20"]) == 0
    out = capsys.readouterr().out
    assert "match: yes" in out
    assert cli.main(["verify", write_doc(tmp_path, SQRT2_LINE, "l.json"),
                     "--max-order", "20"]) == 0
    assert "match: yes" in capsys.readouterr().out


def test_verify_divisorial_target(tmp_path, capsys):
    assert cli.main(["verify", write_doc(tmp_path, DIVISORIAL_CUSP),
                     "--max-order", "16"]) == 0
    assert "match: yes" in capsys.readouterr().out


def _divisorial_doc(min_poly, x_order, terms, extra_steps):
    return {"ambient": {"var": "z", "min_poly": min_poly},
            "branch": {"x_order": x_order,
                       "y_terms": [{"exp": e, "coeff": c} for e, c in terms]},
            "mode": {"divisorial": {"extra_steps": extra_steps}}}


def test_generic_family_with_a_jump_before_the_marker(tmp_path, capsys):
    """y = sqrt2*t^4 + lam*t^6 + t^7, x = t^4 over Q(sqrt2): the field
    jumps at the seed point, before the marker, and the family's contact
    order is 2. Its multiplicities are twice those of a curvette at the
    last component. M weights by the curvette's, and verify matches;
    weighted by the family's own, M_sigma would read [2, 7] and verify
    would fail at v = 5."""
    terms = [(4, ["0", "1"]), (6, "generic"), (7, ["1", "0"])]
    doc = _divisorial_doc(["-2", "0", "1"], 4, terms, 0)
    code, out, err = run_cli(capsys, ["verify", write_doc(tmp_path, doc)])
    assert (code, err) == (0, "")
    assert out.endswith("  match: yes\n")
    doc["mode"] = "curve"
    code, out, err = run_cli(capsys, ["analyze", write_doc(tmp_path, doc)])
    assert (code, err) == (0, "")
    for line in ("n: 2 ", "  M_sigma = [2, 5]", "  M_tau = [10]",
                 "  ell_total = 2  c = 4  Delta = 6  M_delta = 10",
                 "series: (1-t^4)/((1-t^2)^2(1-t^5))"):
        assert "\n" + line in out


def _cusp_ladder_doc(k, extra_steps):
    return _divisorial_doc(["0", "1"], 2, [(2 * k + e, ["1"])
                                           for e in (1, 2, 3)], extra_steps)


# the divisorial targets of the acceptance corpus and of the cusp ladder,
# with the oracle dims at max order 1 that the uncut curvette gives
LOW_ORDER_TARGETS = [
    ("first_blowup", _divisorial_doc(["0", "1"], 1, [], 0), "1 2"),
    ("second_blowup_along_y0", _divisorial_doc(["0", "1"], 1, [], 1), "1 1"),
    ("cusp_first_rupture",
     _divisorial_doc(["0", "1"], 2, [(3, ["1"])], 0), "1 0"),
    ("past_splitting_sq2_line",
     _divisorial_doc(["-2", "0", "1"], 1, [(1, ["0", "1"])], 0), "1 2"),
    ("past_splitting_sq2_tail",
     _divisorial_doc(["-2", "0", "1"], 2,
                     [(3, ["1", "0"]), (4, ["0", "1"])], 1), "1 0"),
    ("cusp_two_extra_steps",
     _divisorial_doc(["0", "1"], 2, [(3, ["1"])], 2), "1 0"),
    ("cusp_k8_div1", _cusp_ladder_doc(8, 1), "1 0"),
    ("cusp_k12_div2", _cusp_ladder_doc(12, 2), "1 0"),
    ("cusp_k16_div3", _cusp_ladder_doc(16, 3), "1 0"),
]


@pytest.mark.parametrize("name,doc,dims", LOW_ORDER_TARGETS,
                         ids=[n for n, _d, _x in LOW_ORDER_TARGETS])
def test_verify_divisorial_targets_at_max_order_0_and_1(tmp_path, capsys,
                                                        name, doc, dims):
    path = write_doc(tmp_path, doc)
    for V, want in (("0", "1"), ("1", dims)):
        code, out, err = run_cli(capsys, ["verify", path, "--max-order", V])
        assert (code, err) == (0, "")
        assert out == ("verification (max_order=%s):\n  oracle: %s\n"
                       "  series: %s\n  match: yes\n" % (V, want, want))


def test_verify_reports_first_mismatch(tmp_path, capsys, monkeypatch):
    from artifact import oracle

    # corrupt the oracle side: shift one dimension at level 5
    def shifted(branch, V):
        real = oracle.filtration_dims(branch, V)
        dims = list(real.dims)
        dims[5] += 1
        return FiltrationReport(tuple(dims))

    monkeypatch.setattr(cli, "filtration_dims", shifted)
    code = cli.main(["verify", write_doc(tmp_path, CUSP),
                     "--max-order", "8"])
    out = capsys.readouterr().out
    assert code == 4
    assert "match: no" in out
    assert "first mismatch at v=5: oracle=2 series=1" in out


def test_verify_rejects_incomplete_formulas(tmp_path, capsys):
    assert cli.main(["verify", write_doc(tmp_path, CASE2)]) == 3
    assert cli.main(["verify", write_doc(tmp_path, GENERIC_CUSP,
                                         "g.json")]) == 3


# --- exit codes ----------------------------------------------------------------

def test_exit_code_2_on_parse_trouble(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["analyze", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli.main(["analyze", str(bad)]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"ambient": 3}))
    assert cli.main(["analyze", str(schema)]) == 2
    capsys.readouterr()


def test_exit_code_2_on_bad_flags(tmp_path, capsys):
    path = write_doc(tmp_path, CUSP)
    assert cli.main(["graph", path]) == 2
    assert cli.main(["report", path]) == 2
    assert cli.main([]) == 2
    assert cli.main(["analyze", path, "--truncate", "-1"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_call(tmp_path, capsys):
    """A rejected call or a flag given to one call leaves nothing behind
    for the next, and the same argument list always parses the same."""
    path = write_doc(tmp_path, CUSP)
    first = run_cli(capsys, ["analyze", path])
    assert cli.main(["analyze", path, "--truncate", "nan"]) == 2
    assert cli.main(["report", path, "--json", "--truncate", "3"]) == 0
    capsys.readouterr()
    assert run_cli(capsys, ["analyze", path]) == first
    argv = ["report", "--trunc=3", path, "--json"]
    assert cli.parse_command_line(argv) == cli.parse_command_line(argv) \
        == ("report", path, 3)


# --- the command line against the argparse reference ------------------------------

# The alphabet of the differential tests: a document path stands first.
ARGV_TOKENS = ["-", "--", "-1", "3", "nan", "-x", "--json", "--jso", "--dot",
               "--truncate", "--truncate=3", "--trunc", "--max-order",
               "--max-order=12", "--max", "-h", "--help"]
# Spellings where argparse's rules meet: inline text on -h, an empty or
# refused inline value, a prefix of every option, negative numbers,
# spaces and int()'s own syntax.
ODD_TOKENS = ["--h", "-hh", "-hx", "-h=h", "-h=", "--he=", "--=3", "--dot=",
              "--json=x", "--truncate=", "--trunc=-5", "--max-o=4", "-1.5",
              "-5", "- 1", "a b", "", "---", "-h-", "--x", " 3", "3_0", "+4",
              "--truncate=٣"]
COMMAND_TOKENS = ["analyze", "report", "graph", "verify", "bogus"]


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return write_doc(tmp_path_factory.mktemp("argv"), CUSP)


@pytest.fixture(scope="module")
def reference_parser():
    return build_arg_parser()


def argparse_outcome(parser, argv):
    """(command, path, value) as the argparse parser reads argv, or its
    exit code: 0 for a help request, 2 for a refusal."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    # the flag each command requires is set whenever the line is accepted
    assert getattr(args, "dot", True) is getattr(args, "as_json", True) is True
    return (args.command, args.path,
            getattr(args, "truncate", getattr(args, "max_order", None)))


def outcome(argv):
    try:
        parsed = cli.parse_command_line(argv)
    except cli.UsageError:
        return 2
    return 0 if parsed is None else parsed


def test_command_line_matches_argparse_on_short_lines(doc_path,
                                                      reference_parser):
    tokens = [doc_path] + ARGV_TOKENS
    lines = [[command] + list(rest) for command in COMMAND_TOKENS
             for size in range(3)
             for rest in itertools.product(tokens, repeat=size)]
    assert len(lines) == 5 * (1 + 18 + 18 ** 2)
    outcomes = collections.Counter()
    for argv in lines:
        want = argparse_outcome(reference_parser, argv)
        assert outcome(argv) == want, argv
        outcomes[want if want in (0, 2) else want[0]] += 1
    # every command is accepted somewhere, and help and refusals both occur
    assert set(outcomes) == {0, 2, "analyze", "report", "graph", "verify"}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(["doc"] + ARGV_TOKENS + ODD_TOKENS
                                + COMMAND_TOKENS), max_size=8))
def test_command_line_matches_argparse_on_longer_lines(doc_path,
                                                       reference_parser,
                                                       words):
    argv = [doc_path if word == "doc" else word for word in words]
    assert outcome(argv) == argparse_outcome(reference_parser, argv)


def test_documented_forms_and_refusals(doc_path, capsys):
    for argv, parsed in (
            (["analyze", "--truncate", "7", doc_path],
             ("analyze", doc_path, 7)),
            (["report", "--json", doc_path, "--truncate=8"],
             ("report", doc_path, 8)),
            (["verify", doc_path, "--max=9", "--max-order", "10"],
             ("verify", doc_path, 10)),
            (["graph", "--dot", "--", "-5"], ("graph", "-5", None)),
            (["verify", "-"], ("verify", "-", 30)),
            (["analyze", doc_path, "--trunc", " 1_0 "],
             ("analyze", doc_path, 10))):
        assert cli.parse_command_line(argv) == parsed
    for argv in (["-h"], ["-x", "--he", "analyze"], ["analyze", "--help"],
                 ["graph", doc_path, "-hh"]):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out == cli.HELP + "\n" and err == ""
    for argv in ([], ["bogus", "-h"], ["graph", doc_path],
                 ["analyze", doc_path, "x"], ["analyze", doc_path, "-hx"],
                 ["verify", doc_path, "--max-order"],
                 ["analyze", "-h", "--=3"],
                 ["analyze", doc_path, "--max-order", "3"],
                 ["verify", doc_path, "--truncate", "3"],
                 ["analyze", doc_path, "--truncate", "²"],
                 ["analyze", doc_path, "--truncate", "-1_0"],
                 ["verify", doc_path, "--max-order", "9" * 4301],
                 ["report", doc_path, "--truncate", "--json", "3"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(cli.USAGE + "\nartifact: error: ")


def test_documented_forms_are_read_without_argparse(doc_path, capsys,
                                                    monkeypatch):
    """The lines bench/run.py's argv_for builds, and graph's, never reach
    argparse: building its parser in every process once took a third of
    a cusp's analyze."""
    def refuse(argv):
        raise AssertionError("argparse read %r" % (argv,))

    monkeypatch.setattr(cli, "_parse_with_argparse", refuse)
    for argv in (["analyze", doc_path], ["report", doc_path, "--json"],
                 ["verify", doc_path, "--max-order", "12"],
                 ["graph", doc_path, "--dot"]):
        assert cli.main(argv) == 0
    capsys.readouterr()


def test_list_sizing_inputs_are_capped(tmp_path, capsys):
    # one past each cap: rejected before any list of that length is built
    path = write_doc(tmp_path, CUSP)
    too_long = str(cli.MAX_TRUNCATE + 1)
    for argv in (["analyze", path, "--truncate", too_long],
                 ["report", path, "--json", "--truncate", too_long],
                 ["verify", path, "--max-order", str(cli.MAX_ORDER + 1)]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "must be <=" in err
    doc = json.loads(json.dumps(CUSP))
    doc["options"]["truncate"] = cli.MAX_TRUNCATE + 1
    code, _out, err = run_cli(capsys, ["analyze", write_doc(tmp_path, doc,
                                                             "t.json")])
    assert code == 2
    assert "options.truncate must be <= %d" % cli.MAX_TRUNCATE in err
    # one past each cap on the run time of resolve
    x_order = json.loads(json.dumps(CUSP))
    x_order["branch"]["x_order"] = cli.MAX_EXPONENT + 1
    y_exp = json.loads(json.dumps(CUSP))
    y_exp["branch"]["y_terms"][0]["exp"] = cli.MAX_EXPONENT + 1
    extra = json.loads(json.dumps(DIVISORIAL_CUSP))
    extra["mode"]["divisorial"]["extra_steps"] = cli.MAX_EXTRA_STEPS + 1
    degree = json.loads(json.dumps(CUSP))
    degree["ambient"]["min_poly"] = ["-2"] + ["0"] * (cli.MAX_DEGREE) + ["1"]
    degree["branch"]["y_terms"][0]["coeff"] = ["1"] + ["0"] * cli.MAX_DEGREE
    for doc, message in (
            (x_order, "branch.x_order must be <= %d" % cli.MAX_EXPONENT),
            (y_exp, "branch.y_terms[0].exp must be <= %d" % cli.MAX_EXPONENT),
            (extra, "extra_steps must be <= %d" % cli.MAX_EXTRA_STEPS),
            (degree, "ambient.min_poly degree must be <= %d"
             % cli.MAX_DEGREE)):
        code, out, err = run_cli(capsys, ["analyze", write_doc(tmp_path, doc,
                                                                "c.json")])
        assert code == 2 and out == ""
        assert message in err
    # the caps themselves still parse
    x_order["branch"]["x_order"] = cli.MAX_EXPONENT
    y_exp["branch"]["y_terms"][0]["exp"] = cli.MAX_EXPONENT
    extra["mode"]["divisorial"]["extra_steps"] = cli.MAX_EXTRA_STEPS
    degree["ambient"]["min_poly"] = degree["ambient"]["min_poly"][1:]
    degree["branch"]["y_terms"][0]["coeff"] = ["1"] + ["0"] * (
        cli.MAX_DEGREE - 1)
    for doc in (x_order, y_exp, extra, degree):
        cli.parse_input(doc)


def test_exit_code_3_on_validation_trouble(tmp_path, capsys):
    doubled = json.loads(json.dumps(CUSP))
    doubled["branch"]["y_terms"][0]["exp"] = 4
    assert cli.main(["analyze", write_doc(tmp_path, doubled)]) == 3
    squareful = json.loads(json.dumps(SMOOTH))
    squareful["ambient"]["min_poly"] = ["1", "2", "1"]
    assert cli.main(["analyze", write_doc(tmp_path, squareful,
                                          "s.json")]) == 3
    capsys.readouterr()


# --- mode x case matrix ----------------------------------------------------------

# x = t^2, y = t^3 (case I) and x = t^2, y = t^3 + generic t^5 (case III)
PLAIN_CUSP_BRANCH = {"x_order": 2, "y_terms": [{"exp": 3, "coeff": ["1"]}]}
GENERIC_TAIL_BRANCH = {"x_order": 2,
                       "y_terms": [{"exp": 3, "coeff": ["1"]},
                                   {"exp": 5, "coeff": "generic"}]}


def matrix_doc(tmp_path, branch, mode):
    return write_doc(tmp_path, {"ambient": CUSP["ambient"], "branch": branch,
                                "mode": mode})


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mode_case_matrix_curve(tmp_path, capsys):
    path = matrix_doc(tmp_path, PLAIN_CUSP_BRANCH, "curve")
    code, out, _err = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert "n:" not in out
    # Delta = 2
    assert "expansion (v = 0..12):" in out

    path = matrix_doc(tmp_path, GENERIC_TAIL_BRANCH, "curve")
    code, out, _err = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert "case: III" in out and "\nn: 1 " in out
    assert "M_delta = 8" in out
    assert "expansion (v = 0..40):" in out
    code, _out, err = run_cli(capsys, ["verify", path, "--max-order", "8"])
    assert code == 3 and "generic-marker" in err


def test_mode_case_matrix_divisorial(tmp_path, capsys):
    mode = {"divisorial": {"extra_steps": 1}}
    path = matrix_doc(tmp_path, PLAIN_CUSP_BRANCH, mode)
    code, out, _err = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert "M_delta = 7" in out
    # Delta = 2
    assert "expansion (v = 0..12):" in out
    code, out, _err = run_cli(capsys, ["verify", path, "--max-order", "12"])
    assert code == 0 and "match: yes" in out

    # a generic marker takes no extra blow-ups: the family's run stops at
    # the marker's center
    path = matrix_doc(tmp_path, GENERIC_TAIL_BRANCH, mode)
    code, out, err = run_cli(capsys, ["analyze", path])
    assert code == 3 and out == "" and "extra_steps" in err
    path = matrix_doc(tmp_path, GENERIC_TAIL_BRANCH,
                      {"divisorial": {"extra_steps": 0}})
    code, out, _err = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert "case: III" in out and "\nn:" not in out
    assert "M_delta = 8" in out
    assert "expansion (v = 0..40):" in out
    code, out, _err = run_cli(capsys, ["verify", path, "--max-order", "12"])
    assert code == 0 and "match: yes" in out


def test_mode_case_matrix_case2(tmp_path, capsys):
    mode = {"case2": {"splitting": [{"M_rho": 7, "ell": 2}]}}
    path = matrix_doc(tmp_path, PLAIN_CUSP_BRANCH, mode)
    code, out, _err = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert "(partial product)" in out
    assert "expansion (v = 0..40):" in out
    code, _out, err = run_cli(capsys, ["verify", path])
    assert code == 3 and "partial splitting stream" in err

    path = matrix_doc(tmp_path, GENERIC_TAIL_BRANCH, mode)
    for argv in (["analyze", path], ["verify", path]):
        code, _out, err = run_cli(capsys, argv)
        assert code == 3
        assert "a generic marker leaves a reduced family graph (case III), " \
            "which has only divisorial data" in err


# --- reducible moduli ------------------------------------------------------------

def test_reducible_modulus_runs_over_the_etale_algebra(tmp_path, capsys):
    # z^2 - 1 = (z - 1)(z + 1): L = Q[z]/(p) is Q x Q, not a field; no
    # inversion meets a zero divisor, so the run completes over the algebra
    doc = {"ambient": {"var": "z", "min_poly": ["-1", "0", "1"]},
           "branch": {"x_order": 2,
                      "y_terms": [{"exp": 3, "coeff": ["1", "0"]},
                                  {"exp": 4, "coeff": ["0", "1"]}]},
           "mode": "curve"}
    path = write_doc(tmp_path, doc)
    code, out, _err = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert "  3: SPLITTING(1)  self_int=-2  [K:Q]=1  m=7  M=7" in out
    assert "  4: DELTA  self_int=-1  [K:Q]=2  m=8  M=15" in out
    code, out, _err = run_cli(capsys, ["verify", path])
    assert code == 0 and "match: yes" in out
