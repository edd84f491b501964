"""Tests of the benchmark's own parts: generator, tracer, output checks and
the CPU-speed reference."""

import contextlib
import io
import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from artifact import cli  # noqa: E402


def _calls(item, tmp_path, tracer=None):
    """Run the three commands in-process on one item: {command: output}."""
    path = workloads.write_documents([item], str(tmp_path))[0]
    out = {}
    for cmd in workloads.COMMANDS:
        buf = io.StringIO()
        if tracer is not None:
            tracer.doc = "%s:%s" % (cmd, item["id"])
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(run.argv_for(cmd, path, item))
        out[cmd] = {"exit": code, "stdout": buf.getvalue()}
    return out


def _corpus_item(item_id):
    return next(it for it in workloads.generate("corpus", 0)
                if it["id"] == item_id)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_with_a_seed_independent_shape(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert len({it["id"] for it in first}) == len(first)
    shapes = {json.dumps(workloads.shape(workloads.generate(workload, seed)))
              for seed in range(6)}
    assert len(shapes) == 1
    docs = {json.dumps([it["doc"] for it in workloads.generate(workload, s)])
            for s in range(6)}
    assert len(docs) > 1
    assert workload in workloads.WHY


def test_corpus_holds_the_acceptance_items():
    kinds = {}
    for it in workloads.generate("corpus", 0):
        kinds.setdefault(it["id"].split("_")[0], []).append(it)
    assert len(kinds["curve"]) == 29
    assert len(kinds["div"]) == 6
    assert [it["expect"]["verify"] for it in kinds["generic"]] == [3] * 4
    assert sorted(it["expect"]["analyze"] for it in kinds["err"]) == [2, 2, 3]


def _snapshot():
    objects = list(spans._package_modules().values())
    for mod_name, cls_name, *_rest in spans.METHODS:
        objects.append(getattr(sys.modules["artifact." + mod_name], cls_name))
    return {(id(owner), attr): value for owner in objects
            for attr, value in vars(owner).items()}


def test_tracer_restores_every_binding(tmp_path):
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.resolve is not before[(id(cli), "resolve")]
        calls = _calls(_corpus_item("curve_cusp"), tmp_path, tracer)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert [c["exit"] for c in calls.values()] == [0, 0, 0]
    # build_report recomputes the value maps through cli's own binding
    assert tracer.counts["poincare.value_maps_calls"] == 2 + 2 + 1
    assert tracer.counts["resolution.resolve_calls"] == 3
    assert tracer.counts["oracle.levels"] == 31


def test_self_times_are_nonnegative_and_children_nest(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _calls(_corpus_item("div_past_splitting_sq2_tail"), tmp_path, tracer)
        _calls(_corpus_item("curve_sq2_twopair"), tmp_path, tracer)
    finally:
        tracer.uninstall()
    recorded = tracer.spans
    assert any(s.parent >= 0 for s in recorded)
    # self time is a difference of clock readings: allow rounding only
    assert min(spans.self_times(recorded)) > -1e-9
    for s in recorded:
        if s.parent >= 0:
            parent = recorded[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert parent.doc == s.doc
    summary = spans.summarize(recorded, tracer.counts)
    assert set(summary["layer_self_s"]) == set(spans.LAYERS)
    assert summary["self_s"]["oracle.divisorial_filtration_dims"] <= \
        summary["total_s"]["oracle.divisorial_filtration_dims"]


def test_checks_flag_tampered_stdout_and_wrong_exit_code(tmp_path):
    item = _corpus_item("curve_sq2_cusp")
    calls = _calls(item, tmp_path)
    assert checks.check_document(item, calls) == {}

    def tampered(cmd, old, new):
        out = json.loads(json.dumps(calls))
        assert old in out[cmd]["stdout"]
        out[cmd]["stdout"] = out[cmd]["stdout"].replace(old, new, 1)
        return checks.check_document(item, out)

    assert "verify" in tampered("verify", "match: yes", "match: no")
    assert "report" in tampered("report", '"expansion": [\n      1,',
                                '"expansion": [\n      2,')
    wrong = json.loads(json.dumps(calls))
    wrong["analyze"]["exit"] = 3
    assert set(checks.check_document(item, wrong)) == {"analyze"}

    generic = _corpus_item("generic_cusp")
    assert checks.check_document(generic, _calls(generic, tmp_path)) == {}


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _fn in run.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_speedometer_samples_during_a_call_and_takes_its_time_out():
    assert reference.reference() == reference.reference()
    meter = reference.Speedometer()
    with meter:
        first = len(meter.ticks)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * reference.INTERVAL_S:
            pass
        t1 = time.perf_counter()
    ticks = len(meter.ticks)
    assert ticks - first >= 5
    assert len(meter.samples) == ticks
    paused, sampled, runs = meter.during(t0, t1, first)
    assert runs == ticks - first
    assert 0 < sampled <= paused < t1 - t0
    assert meter.during(t1, t1 + 1.0) == (0, 0, 0)
    assert meter.scale() > 0
    time.sleep(3 * reference.INTERVAL_S)
    assert len(meter.ticks) == ticks
