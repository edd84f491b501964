"""File-driven front end for branch analysis.

Reads a JSON description of a branch (ambient field, parametrization, and a
mode selecting the curve valuation, a divisorial target, or an abstract
splitting stream), runs resolution and the series pipeline, and emits:

* analyze: a human-readable report (graph, invariants, series, expansion),
* report:  the same data as byte-stable JSON with sorted keys,
* graph:   the quotient graph as DOT text,
* verify:  a differential check of the series expansion against the
           brute-force filtration oracle.

Exit codes: 0 success, 2 parse/schema failure, 3 mathematical validation
failure, 4 verification mismatch. Rationals in input files are written as
"p/q" strings (or plain integers); floating point is rejected. Behavior is a
pure function of the file content and flags.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArtifactError, FormulaMismatch, ParseFailure
from .exactfield import AmbientField
from .oracle import divisorial_filtration_dims, filtration_dims
from .poincare import (case_II_data, classical_series, divisorial_series,
                       expand, numerical_data, value_maps)
from .resolution import GENERIC, BranchParam, generic_curvette, resolve


# Largest accepted expansion length and oracle order: each sizes a list (the
# expansion, the oracle's row blocks), so an unbounded value is an unbounded
# allocation.
MAX_TRUNCATE = 100000
MAX_ORDER = 400
# Largest accepted tau exponent, extra blow-up count and field degree: the
# first two set the number of blow-ups, the degree the size of every field
# element, and each drives the run time of resolve.
MAX_EXPONENT = 1000
MAX_EXTRA_STEPS = 1000
MAX_DEGREE = 32


# --- input documents ----------------------------------------------------------

@dataclass(frozen=True)
class InputDoc:
    """Parsed branch description.

    min_poly lists rational coefficients lowest degree first; y_terms pairs
    exponents with coefficient coordinate vectors (or the GENERIC marker);
    mode is "curve", "divisorial" or "case2" with its argument unpacked into
    extra_steps / splitting_prefix; truncate is the file's expansion-length
    option, None when absent.
    """

    var: str
    min_poly: tuple
    x_order: int
    y_terms: tuple
    mode: str
    extra_steps: int = 0
    splitting_prefix: tuple = ()
    truncate: int = None


def _as_object(value, where, allowed):
    if not isinstance(value, dict):
        raise ParseFailure("%s must be a JSON object" % where)
    unknown = set(value) - set(allowed)
    if unknown:
        raise ParseFailure("unknown keys in %s: %s"
                           % (where, ", ".join(sorted(unknown))))
    return value


def _require(obj, key, where):
    if key not in obj:
        raise ParseFailure("missing key %r in %s" % (key, where))
    return obj[key]


def _as_int(value, where, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseFailure("%s must be an integer" % where)
    if minimum is not None and value < minimum:
        raise ParseFailure("%s must be >= %d" % (where, minimum))
    if maximum is not None and value > maximum:
        raise ParseFailure("%s must be <= %d" % (where, maximum))
    return value


def _as_fraction(value, where):
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseFailure(
            "%s must be an integer or a \"p/q\" string, not a float" % where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseFailure("%s is not a rational: %r" % (where, value))
    raise ParseFailure("%s must be an integer or a \"p/q\" string" % where)


def _parse_mode(value):
    if value == "curve":
        return "curve", 0, ()
    mode_obj = _as_object(value, "mode", ("divisorial", "case2"))
    if len(mode_obj) != 1:
        raise ParseFailure("mode object must have exactly one key")
    if "divisorial" in mode_obj:
        args = _as_object(mode_obj["divisorial"], "mode.divisorial",
                          ("extra_steps",))
        extra = _as_int(_require(args, "extra_steps", "mode.divisorial"),
                        "extra_steps", 0, MAX_EXTRA_STEPS)
        return "divisorial", extra, ()
    args = _as_object(mode_obj["case2"], "mode.case2", ("splitting",))
    raw = _require(args, "splitting", "mode.case2")
    if not isinstance(raw, list):
        raise ParseFailure("mode.case2.splitting must be a list")
    prefix = []
    for k, item in enumerate(raw):
        where = "mode.case2.splitting[%d]" % k
        pair = _as_object(item, where, ("M_rho", "ell"))
        prefix.append((_as_int(_require(pair, "M_rho", where),
                               where + ".M_rho", minimum=1),
                       _as_int(_require(pair, "ell", where),
                               where + ".ell", minimum=2)))
    return "case2", 0, tuple(prefix)


def parse_input(raw):
    """Validate a decoded JSON document and assemble an InputDoc."""
    top = _as_object(raw, "input", ("ambient", "branch", "mode", "options"))
    ambient = _as_object(_require(top, "ambient", "input"), "ambient",
                         ("var", "min_poly"))
    var = _require(ambient, "var", "ambient")
    if not isinstance(var, str) or not var:
        raise ParseFailure("ambient.var must be a non-empty string")
    raw_poly = _require(ambient, "min_poly", "ambient")
    if not isinstance(raw_poly, list) or len(raw_poly) < 2:
        raise ParseFailure(
            "ambient.min_poly must list coefficients of a degree >= 1 "
            "polynomial, lowest degree first")
    if len(raw_poly) - 1 > MAX_DEGREE:
        raise ParseFailure("ambient.min_poly degree must be <= %d"
                           % MAX_DEGREE)
    min_poly = tuple(_as_fraction(a, "ambient.min_poly[%d]" % k)
                     for k, a in enumerate(raw_poly))
    degree = len(min_poly) - 1

    branch = _as_object(_require(top, "branch", "input"), "branch",
                        ("x_order", "y_terms"))
    x_order = _as_int(_require(branch, "x_order", "branch"), "branch.x_order",
                      1, MAX_EXPONENT)
    raw_terms = _require(branch, "y_terms", "branch")
    if not isinstance(raw_terms, list):
        raise ParseFailure("branch.y_terms must be a list")
    y_terms = []
    for k, item in enumerate(raw_terms):
        where = "branch.y_terms[%d]" % k
        term = _as_object(item, where, ("exp", "coeff"))
        exp = _as_int(_require(term, "exp", where), where + ".exp",
                      1, MAX_EXPONENT)
        coeff = _require(term, "coeff", where)
        if coeff == "generic":
            y_terms.append((exp, GENERIC))
            continue
        if not isinstance(coeff, list) or len(coeff) != degree:
            raise ParseFailure(
                "%s.coeff must be \"generic\" or a list of %d coordinates"
                % (where, degree))
        y_terms.append((exp, tuple(_as_fraction(a, where + ".coeff[%d]" % i)
                                   for i, a in enumerate(coeff))))

    mode, extra_steps, prefix = _parse_mode(_require(top, "mode", "input"))

    truncate = None
    if "options" in top:
        options = _as_object(top["options"], "options", ("truncate",))
        if "truncate" in options:
            truncate = _as_int(options["truncate"], "options.truncate",
                               0, MAX_TRUNCATE)

    return InputDoc(var=var, min_poly=min_poly, x_order=x_order,
                    y_terms=tuple(y_terms), mode=mode,
                    extra_steps=extra_steps, splitting_prefix=prefix,
                    truncate=truncate)


def load_input(path):
    """Read and parse an input file; all failures are ParseFailure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseFailure("cannot read %s: %s" % (path, exc))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure("invalid JSON in %s: %s" % (path, exc))
    return parse_input(raw)


# --- analysis pipeline ----------------------------------------------------------

@dataclass(frozen=True)
class Analysis:
    """Resolved and assembled state shared by all commands.

    build_analysis picks the valuation; the commands read it from here: nd
    carries M_delta for a divisorial valuation, nd.partial marks an abstract
    splitting stream, and n is set for a curve-mode generic marker.
    """

    doc: InputDoc
    branch: BranchParam
    graph: object
    recs: object
    nd: object
    series: object
    n: int = None


def build_analysis(doc):
    """Run resolution and assemble invariants and series for the mode."""
    field = AmbientField(doc.min_poly)
    terms = []
    for exp, coeff in doc.y_terms:
        if coeff is GENERIC:
            terms.append((exp, GENERIC))
        else:
            terms.append((exp, field.element(coeff)))
    branch = BranchParam(field, doc.x_order, terms)
    graph, recs = resolve(branch, extra_steps=doc.extra_steps)
    n = None
    if doc.mode == "curve" and graph.case == "III":
        # a generic marker: the valuation is n times the divisorial
        # valuation at the last component of the reduced family
        n = graph.n_case3
    if doc.mode == "divisorial" or n is not None:
        nd = numerical_data(graph, recs, mode="divisorial")
        series = divisorial_series(nd)
    else:
        nd = numerical_data(graph, recs)
        if doc.mode == "case2":
            nd = case_II_data(nd, doc.splitting_prefix)
        series = classical_series(nd)
    return Analysis(doc=doc, branch=branch, graph=graph, recs=recs, nd=nd,
                    series=series, n=n)


def default_truncate(analysis):
    """Expansion length when neither flag nor file names one."""
    if analysis.nd.partial or analysis.graph.case == "III":
        return 40
    return analysis.nd.Delta + 10


def _pick_truncate(analysis, flag_value):
    if flag_value is not None:
        return _as_int(flag_value, "--truncate", 0, MAX_TRUNCATE)
    if analysis.doc.truncate is not None:
        return analysis.doc.truncate
    return default_truncate(analysis)


# --- report documents -------------------------------------------------------------

def ordered_factors(series):
    """Numerator factors first, then denominator factors, exponents rising."""
    pos = [[a, s] for a, s in series.factors if s > 0]
    neg = [[a, s] for a, s in series.factors if s < 0]
    return pos + neg


def formula_text(series):
    """Render a binomial product as a display string like (1-t^6)/((1-t^2)(1-t^3))."""

    def block(factors):
        parts = []
        for a, s in factors:
            base = "(1-t)" if a == 1 else "(1-t^%d)" % a
            power = abs(s)
            parts.append(base if power == 1 else "%s^%d" % (base, power))
        return "".join(parts)

    pos = [(a, s) for a, s in series.factors if s > 0]
    neg = [(a, s) for a, s in series.factors if s < 0]
    if not pos and not neg:
        return "1"
    numerator = block(pos) if pos else "1"
    if not neg:
        return numerator
    denominator = block(neg)
    if len(neg) > 1:
        denominator = "(%s)" % denominator
    return "%s/%s" % (numerator, denominator)


def _tag_text(tags):
    rendered = []
    for tag in sorted(tags):
        name = tag[0]
        args = tag[1:]
        if args:
            rendered.append("%s(%s)" % (name, ",".join(str(a) for a in args)))
        else:
            rendered.append(name)
    return ",".join(rendered)


def build_report(analysis, truncate):
    """The JSON report document.

    graph holds one row per vertex (id, kind, self_int, field_dim, m, M),
    the edge list, the geodesic and the vertex the branch arrow attaches to;
    invariants the numerical bundle; series the ordered binomial factors,
    display formula, partial flag, truncation length and the expansion over
    levels 0..truncate. verification is always None: `verify` prints its
    own block.
    """
    graph = analysis.graph
    m_map, M_map = value_maps(graph, analysis.recs)
    nd = analysis.nd
    return {
        "case": graph.case,
        "mode": analysis.doc.mode,
        "n": analysis.n,
        "graph": {
            "vertices": [{
                "id": v.id,
                "kind": _tag_text(v.tags),
                "self_int": v.self_int,
                "field_dim": v.field_dim,
                "m": m_map[v.id],
                "M": M_map[v.id],
            } for v in graph.vertices],
            "edges": [list(e) for e in sorted(graph.edges)],
            "geodesic": list(graph.geodesic),
            "branch_vertex": graph.delta(),
        },
        "invariants": {
            "m_sigma": list(nd.m_sigma),
            "M_sigma": list(nd.M_sigma),
            "M_tau": list(nd.M_tau),
            "e": list(nd.e),
            "N": list(nd.N),
            "splitting": [[M_rho, ell] for M_rho, ell in nd.splitting],
            "ell_total": nd.ell_total,
            "c": nd.c_conductor,
            "Delta": nd.Delta,
            "M_delta": nd.M_delta,
        },
        "series": {
            "factors": ordered_factors(analysis.series),
            "formula": formula_text(analysis.series),
            "partial": analysis.series.partial,
            "truncate": truncate,
            "expansion": list(expand(analysis.series, truncate).coeffs),
        },
        "verification": None,
    }


def render_text(report):
    lines = []
    lines.append("case: %s" % report["case"])
    lines.append("mode: %s" % report["mode"])
    if report["n"] is not None:
        lines.append("n: %d (the valuation is n times the divisorial "
                     "valuation at the marked component)" % report["n"])
    graph = report["graph"]
    lines.append("vertices:")
    for row in graph["vertices"]:
        lines.append("  %(id)d: %(kind)s  self_int=%(self_int)d  "
                     "[K:Q]=%(field_dim)d  m=%(m)d  M=%(M)d" % row)
    edges = ", ".join("%d-%d" % (a, b) for a, b in graph["edges"])
    lines.append("edges: %s" % (edges if edges else "none"))
    lines.append("branch meets vertex %d" % graph["branch_vertex"])
    inv = report["invariants"]
    lines.append("invariants:")
    for key in ("m_sigma", "M_sigma", "M_tau", "e", "N"):
        lines.append("  %s = %s" % (key, inv[key]))
    lines.append("  splitting = %s" % (inv["splitting"],))
    lines.append("  ell_total = %d  c = %d  Delta = %d  M_delta = %s"
                 % (inv["ell_total"], inv["c"], inv["Delta"],
                    inv["M_delta"]))
    series = report["series"]
    partial_note = "  (partial product)" if series["partial"] else ""
    lines.append("series: %s%s" % (series["formula"], partial_note))
    lines.append("factors: %s" % json.dumps(series["factors"]))
    lines.append("expansion (v = 0..%d): %s"
                 % (series["truncate"],
                    " ".join(str(a) for a in series["expansion"])))
    return "\n".join(lines)


def render_dot(report):
    """DOT text: geodesic vertices first, then the dead-end chains, plus an
    arrowhead marker for the branch."""
    graph = report["graph"]
    rows = {row["id"]: row for row in graph["vertices"]}
    geodesic = graph["geodesic"]
    order = list(geodesic) + [i for i in sorted(rows) if i not in geodesic]
    lines = ["digraph quotient_graph {"]
    lines.append("  edge [dir=none];")
    for vid in order:
        row = rows[vid]
        label = "%s | m=%d M=%d [K:Q]=%d" % (row["kind"], row["m"],
                                             row["M"], row["field_dim"])
        lines.append("  v%d [label=\"%s\", self_int=%d];"
                     % (vid, label, row["self_int"]))
    lines.append("  branch [shape=none, label=\"branch\"];")
    for a, b in graph["edges"]:
        lines.append("  v%d -> v%d;" % (a, b))
    lines.append("  v%d -> branch [dir=forward, arrowhead=normal];"
                 % graph["branch_vertex"])
    lines.append("}")
    return "\n".join(lines)


# --- verification ------------------------------------------------------------------

def run_verification(analysis, max_order):
    """Differential test of the series against the brute-force oracle.

    Compares the expansion of the mode's series with the oracle's filtration
    dimensions for v <= max_order and reports the first disagreeing level,
    if any. Concrete curve branches and divisorial targets (including the
    reduced graph of a generic family) can be verified; partial splitting
    streams have no complete formula to compare, and a curve-mode generic
    marker should be verified through its divisorial reduction.
    """
    if analysis.nd.partial:
        raise ValueError("cannot verify a partial splitting stream: the "
                         "series is a truncation by construction")
    if analysis.n is not None:
        raise ValueError("cannot verify a generic-marker branch; verify the "
                         "divisorial target of its reduced family instead")
    expected = expand(analysis.series, max_order).coeffs
    if analysis.nd.M_delta is not None:
        gc = generic_curvette(analysis.graph, analysis.recs)
        observed = divisorial_filtration_dims(gc, max_order).dims
    else:
        observed = filtration_dims(analysis.branch, max_order).dims
    first_mismatch = None
    for v, (want, got) in enumerate(zip(expected, observed)):
        if want != got:
            first_mismatch = {"v": v, "series": want, "oracle": got}
            break
    return {
        "max_order": max_order,
        "oracle_dims": list(observed),
        "series_dims": list(expected),
        "match": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }


def render_verification(block):
    lines = ["verification (max_order=%d):" % block["max_order"]]
    lines.append("  oracle: %s"
                 % " ".join(str(a) for a in block["oracle_dims"]))
    lines.append("  series: %s"
                 % " ".join(str(a) for a in block["series_dims"]))
    if block["match"]:
        lines.append("  match: yes")
    else:
        miss = block["first_mismatch"]
        lines.append("  match: no")
        lines.append("  first mismatch at v=%d: oracle=%d series=%d"
                     % (miss["v"], miss["oracle"], miss["series"]))
    return "\n".join(lines)


# --- command dispatch ----------------------------------------------------------------

def _report(path, truncate):
    analysis = build_analysis(load_input(path))
    return build_report(analysis, _pick_truncate(analysis, truncate))


def cmd_analyze(path, truncate=None):
    print(render_text(_report(path, truncate)))
    return 0


def cmd_report(path, truncate=None):
    print(json.dumps(_report(path, truncate), sort_keys=True, indent=2))
    return 0


def cmd_graph(path):
    print(render_dot(_report(path, None)))
    return 0


def cmd_verify(path, max_order=30):
    _as_int(max_order, "--max-order", 0, MAX_ORDER)
    analysis = build_analysis(load_input(path))
    block = run_verification(analysis, max_order)
    print(render_verification(block))
    if not block["match"]:
        raise FormulaMismatch(
            "series and oracle disagree first at v=%d"
            % block["first_mismatch"]["v"])
    return 0


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Exact invariants and series of plane branch "
                    "singularities over number fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="human-readable report")
    analyze.add_argument("path")
    analyze.add_argument("--truncate", type=int, default=None,
                         help="expansion length (default: Delta + 10 for "
                              "complete formulas, else 40)")
    verify = sub.add_parser("verify", help="differential oracle check")
    verify.add_argument("path")
    verify.add_argument("--max-order", type=int, default=30,
                        dest="max_order")
    graph = sub.add_parser("graph", help="quotient graph as DOT")
    graph.add_argument("path")
    graph.add_argument("--dot", action="store_true", required=True)
    report = sub.add_parser("report", help="JSON report, stable key order")
    report.add_argument("path")
    report.add_argument("--json", action="store_true", required=True,
                        dest="as_json")
    report.add_argument("--truncate", type=int, default=None)
    return parser


def main(argv=None):
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "analyze":
            return cmd_analyze(args.path, args.truncate)
        if args.command == "report":
            return cmd_report(args.path, args.truncate)
        if args.command == "graph":
            return cmd_graph(args.path)
        return cmd_verify(args.path, args.max_order)
    except ParseFailure as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except FormulaMismatch:
        return 4
    except (ArtifactError, ValueError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
