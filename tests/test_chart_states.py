"""The resolution's states are coprime without Euclid, and its chart-A
rows give the run of one blow-up per step.

RatFunc cancels only the common power of tau, and the chart steps keep the
numerator and denominator of every state coprime (resolution._tail_ok), so
that form is the one an eager gcd would give. The reference here is that
gcd: Poly.gcd on every state a chart step returns, over the benchmark's
workload documents (the acceptance corpus among them) and over seeded
random branches. Documents that once ran Euclid over a parameter field for
minutes must now analyze within a time limit, and four heavy multi-pair
documents keep their output.

resolve takes a chart-A row at center 0 as one division where no point
inside it can stop the run; slow_paths.reference_resolve takes one blow-up
per step. Both give equal graphs, records and terminals, or the same
refusal, on the same documents, and the work of a run follows its rows,
not its exponents: a cusp ladder makes one chart-step count whatever k,
and x = t^999, y = t^1000 tests a bounded number of field elements for
zero per blow-up.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import random
from math import prod

import pytest

from artifact import cli, resolution
from artifact.errors import ArtifactError, ResolutionStuck
from artifact.exactfield import AlgNum, AmbientField
from artifact.resolution import GENERIC, BranchParam, resolve

import slow_paths
from slow_paths import determinant, intersection_matrix, reference_resolve
from test_exit_codes import time_limit

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = pathlib.Path(__file__).with_name("pinned")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.fixture
def chart_steps(monkeypatch):
    """Checks each state a chart step returns while the test runs: the
    reference gcd of its numerator and denominator is 1. Returns the list
    of checked states."""
    states = []
    chart_step = resolution._chart_step

    def checked(u, w, most=1):
        out = chart_step(u, w, most)
        for part in out[2:4]:
            assert part.num.gcd(part.den).degree() == 0, part
        states.append(out[2:4])
        return out

    monkeypatch.setattr(resolution, "_chart_step", checked)
    return states


def run_to_end(run):
    """run(); a refused document (ArtifactError or ValueError) ends it
    early, after the chart steps it made were checked."""
    try:
        run()
    except (ArtifactError, ValueError):
        pass


@pytest.mark.parametrize("workload", sorted(WORKLOADS.GENERATORS))
def test_workload_documents_keep_coprime_states(chart_steps, workload):
    for seed in (1, 2):
        for item in WORKLOADS.generate(workload, seed):
            run_to_end(lambda: cli.build_analysis(cli.parse_input(item["doc"])))
    assert chart_steps


FIELDS = {
    "Q": [0, 1],
    "sqrt2": [-2, 0, 1],
    "cbrt2": [-2, 0, 0, 1],
    "golden": [-1, -1, 1],
    "biquadratic": [1, 0, -10, 0, 1],
    "z2-1": [-1, 0, 1],
}


def random_branch(rng, field):
    """x = tau^m and y terms past m with small coordinates: three terms
    only for m <= 3, and the generic marker on one term in four of the
    branches with at most two. Larger shapes leave the reference gcd
    running for seconds to minutes."""
    m = rng.randint(1, 4)
    exps = sorted(rng.sample(range(m + 1, m + 9),
                             rng.randint(1, 3 if m <= 3 else 2)))
    terms = []
    for exp in exps:
        coords = [rng.choice([0, 0, 1, -1, 2]) for _ in range(field.degree)]
        coords[rng.randrange(field.degree)] = rng.choice([1, -1, 3])
        terms.append((exp, field.element(coords)))
    if len(terms) <= 2 and rng.randrange(4) == 0:
        k = rng.randrange(len(terms))
        terms[k] = (terms[k][0], GENERIC)
    return BranchParam(field, m, terms)


def test_random_branches_keep_coprime_states(chart_steps):
    """Each branch is resolved at its drawn extra_steps and as the
    divisorial targets at extra_steps 0 and 2. Every graph also has an
    intersection matrix of determinant (-1)^n, as any n point blow-ups
    give, and splitting degrees whose product is the dimension of the
    last subfield."""
    rng = random.Random(20261018)
    resolved = {name: 0 for name in FIELDS}
    generic = extra = 0
    graphs = []

    def check_graph(graph, recs):
        n = len(recs)
        assert determinant(intersection_matrix(graph)) == (-1) ** n
        assert prod(ell for _v, ell in graph.splittings) == \
            recs[-1].field_after.dim
        graphs.append(graph)

    for k in range(120):
        name = sorted(FIELDS)[k % len(FIELDS)]
        p = random_branch(rng, AmbientField(FIELDS[name]))
        extra_steps = rng.choice([0, 0, 1, 2])
        before = len(chart_steps)
        for steps in sorted({extra_steps, 0, 2}):
            run_to_end(lambda: check_graph(*resolve(p, extra_steps=steps)))
        if len(chart_steps) > before:
            resolved[name] += 1
            generic += p.has_generic
            extra += extra_steps > 0
    assert sum(resolved.values()) >= 100 and min(resolved.values()) > 0
    assert generic > 0 and extra > 0
    assert len(graphs) >= 200
    assert sum(bool(graph.splittings) for graph in graphs) >= 100


def _doc(min_poly, x_order, terms):
    return {"ambient": {"var": "z", "min_poly": min_poly},
            "branch": {"x_order": x_order,
                       "y_terms": [{"exp": e, "coeff": c} for e, c in terms]},
            "mode": "curve"}


def analyze(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", str(path)])
    return code, out.getvalue()


# Three y terms and a generic marker: Euclid over Q(lambda) on these took
# from half a minute to more than five minutes; without it each takes
# about 0.1 s.
GENERIC_THREE_TERMS = [
    _doc([0, 1], 4, [(6, [1]), (7, [1]), (9, "generic")]),
    _doc([0, 1], 4, [(6, [1]), (7, [1]), (8, "generic")]),
    _doc([0, 1], 3, [(4, [1]), (5, [1]), (8, "generic")]),
]


@pytest.mark.parametrize("doc", GENERIC_THREE_TERMS,
                         ids=["x4_6_7_g9", "x4_6_7_g8", "x3_4_5_g8"])
def test_generic_three_term_documents_analyze_in_time(tmp_path, doc):
    with time_limit(30, doc):
        code, out = analyze(tmp_path, doc)
    assert code == 0 and out.startswith("case: III\n")


# sqrt(2) and sqrt(3) in BIQ = Q[z]/(z^4 - 10z^2 + 1), z = sqrt2 + sqrt3
S2 = ["0", "-9/2", "0", "1/2"]
S3 = ["0", "11/2", "0", "-1/2"]

# The two over Q(sqrt 2): analyze took 5-7 s while Euclid ran on their
# states. The one over Q multiplies its polynomials in the degree-1 case of
# AmbientField.convolve, the one over BIQ jumps to a quadratic subfield and
# then to the whole field. Each output was pinned before AmbientField.convolve
# existed, when each coefficient product was one AlgNum product.
HEAVY = {
    "sq2_x4_6_7_r10": _doc([-2, 0, 1], 4,
                           [(6, [1, 0]), (7, [1, 0]), (10, [0, 1])]),
    "sq2_x8_12_r14_15": _doc([-2, 0, 1], 8,
                             [(12, [1, 0]), (14, [0, 1]), (15, [1, 0])]),
    "q_x12_18_20_21_23": _doc([0, 1], 12, [(18, [1]), (20, [1]),
                                           (21, [1]), (23, [1])]),
    "biq_x4_6_7_9": _doc([1, 0, -10, 0, 1], 4,
                         [(6, S2), (7, S3), (9, ["1", "0", "0", "0"])]),
}


@pytest.mark.parametrize("name", sorted(HEAVY))
def test_heavy_multipair_documents_keep_their_output(tmp_path, name):
    with time_limit(30, HEAVY[name]):
        code, out = analyze(tmp_path, HEAVY[name])
    assert code == 0
    assert out == (PINNED / (name + ".analyze.txt")).read_text(
        encoding="utf-8")


def outcome(run, p, extra_steps):
    """run(p, extra_steps), or the class and message of its refusal."""
    try:
        return run(p, extra_steps=extra_steps)
    except (ArtifactError, ValueError) as exc:
        return type(exc), str(exc)


Q = AmbientField([0, 1])


def cusp(k):
    return BranchParam(Q, 2, [(2 * k + 1, 1)])


T999 = BranchParam(Q, 999, [(1000, 1)])


def test_resolve_equals_the_one_step_reference(monkeypatch):
    """Every resolve call of the four workloads at seeds 1 and 2, the
    seeded random branches at extra_steps 0 and 2, the cusps k = 1..40 in
    both modes and x = t^999, y = t^1000 with 1000 extra blow-ups: equal
    graphs (terminal included) and records, or the same refusal. Rows of
    more than one blow-up are taken, satellite rows with ord u = 1 among
    them."""
    calls = []

    def recorded(p, extra_steps=0):
        calls.append((p, extra_steps))
        return resolve(p, extra_steps=extra_steps)

    monkeypatch.setattr(cli, "resolve", recorded)
    for workload in sorted(WORKLOADS.GENERATORS):
        for seed in (1, 2):
            for item in WORKLOADS.generate(workload, seed):
                run_to_end(lambda: cli.build_analysis(
                    cli.parse_input(item["doc"])))
    monkeypatch.undo()
    assert len(calls) > 120
    rng = random.Random(20261018)
    for k in range(120):
        p = random_branch(rng, AmbientField(FIELDS[sorted(FIELDS)[k % 6]]))
        calls += [(p, 0), (p, 2)]
    calls += [(cusp(k), extra) for k in range(1, 41) for extra in (0, 3)]
    calls.append((T999, 1000))

    rows = []
    chart_step = resolution._chart_step

    def counted(u, w, most=1):
        out = chart_step(u, w, most)
        if out[4] > 1:
            rows.append(u.order())
        return out

    monkeypatch.setattr(resolution, "_chart_step", counted)
    for p, extra in calls:
        assert outcome(resolve, p, extra) == \
            outcome(reference_resolve, p, extra), (p, extra)
    assert len(rows) > 100 and 1 in rows


CAPPED = (cusp(10), BranchParam(Q, 12, [(13, 1)]))


@pytest.mark.parametrize("cap", range(1, 16))
def test_a_capped_row_stops_where_the_one_step_run_stops(monkeypatch, cap):
    """With a cap of a few blow-ups, a row is cut at the cap: resolve and
    the reference finish alike, or raise ResolutionStuck with the same
    message, on a cusp whose first row is 10 blow-ups (12 points in all)
    and on x = t^12, y = t^13, whose satellite row is 10 (13 points). A
    run of n points needs a cap above n."""
    points = [len(resolve(p)[1]) for p in CAPPED]
    assert points == [12, 13]
    for module in (resolution, slow_paths):
        monkeypatch.setattr(module, "_default_cap", lambda *a: cap)
    for p, n in zip(CAPPED, points):
        got = outcome(resolve, p, 0)
        assert got == outcome(reference_resolve, p, 0)
        stuck = (ResolutionStuck,
                 "no stable point within %d blow-ups" % cap)
        assert (got == stuck) == (cap <= n)


def test_a_cusp_ladder_makes_one_chart_step_count_whatever_k(monkeypatch):
    """x = t^2, y = t^(2k+1) takes three chart steps at k = 10, 50 and
    150: the row of k blow-ups, the chart-B step and the translation by
    the last center; the run still records k + 2 points."""
    counts = []
    chart_step = resolution._chart_step

    def counted(u, w, most=1):
        counts[-1] += 1
        return chart_step(u, w, most)

    monkeypatch.setattr(resolution, "_chart_step", counted)
    for k in (10, 50, 150):
        counts.append(0)
        assert len(resolve(cusp(k))[1]) == k + 2
    assert counts == [3, 3, 3]


def test_zero_tests_grow_linearly_with_the_blow_ups(tmp_path, monkeypatch):
    """analyze --truncate 10 of x = t^999, y = t^1000, divisorial with
    1000 extra blow-ups, tests at most 20 field elements for zero per
    blow-up (AlgNum.__bool__). One blow-up per step on dense coefficient
    lists made 509515 such tests for its 2000 blow-ups."""
    path = tmp_path / "t999.json"
    path.write_text(json.dumps({
        "ambient": {"var": "z", "min_poly": [0, 1]},
        "branch": {"x_order": 999, "y_terms": [{"exp": 1000, "coeff": [1]}]},
        "mode": {"divisorial": {"extra_steps": 1000}}}), encoding="utf-8")
    blow_ups = []
    tests = [0]
    is_nonzero = AlgNum.__bool__

    def counted(self):
        tests[0] += 1
        return is_nonzero(self)

    def recorded(p, extra_steps=0):
        graph, recs = resolve(p, extra_steps=extra_steps)
        blow_ups.append(len(recs))
        return graph, recs

    monkeypatch.setattr(cli, "resolve", recorded)
    monkeypatch.setattr(AlgNum, "__bool__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(path), "--truncate", "10"]) == 0
    monkeypatch.undo()
    assert blow_ups == [2000]
    assert 0 < tests[0] <= 20 * blow_ups[0]
