"""Tests for the file-driven front end.

Inputs are written to temporary files; expected report content comes from
the hand-checked pipeline examples frozen in the other test modules (the
front end adds parsing, rendering and exit-code plumbing on top of them).
"""

import json
from fractions import Fraction

import pytest

from artifact import cli
from artifact.errors import ParseFailure
from artifact.oracle import FiltrationReport
from artifact.resolution import GENERIC


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
    assert doc.var == "z"
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


def test_verify_reports_first_mismatch(tmp_path, capsys, monkeypatch):
    from artifact import oracle

    # corrupt the oracle side: shift one dimension at level 5
    def shifted(branch, V):
        real = oracle.filtration_dims(branch, V)
        dims = list(real.dims)
        dims[5] += 1
        return FiltrationReport(V=V, dims=tuple(dims), mode="curve")

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

    path = matrix_doc(tmp_path, GENERIC_TAIL_BRANCH, mode)
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
