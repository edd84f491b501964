"""Benchmark of the `artifact` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Closed loop, one client: the commands `analyze`, `report --json` and
`verify --max-order V` each run in a fresh interpreter (bench/worker.py)
over every document of the workload, one document after the other. A round
is those three processes; rounds repeat while the next one should end
within --seconds. Each process also times a fixed reference computation
every few milliseconds while its calls run (bench/reference.py), and each
call's time is scaled to a CPU of the reference speed. A command's time is the sum over documents of
each document's median scaled time over the rounds; `setup_s` is scaled
the same way. With --trace 1 the run makes one
untraced round and one traced round instead, and reports the per-layer
breakdown of the traced round (see bench/METRICS.md).

Every call's output is checked (bench/checks.py). The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit codes: 0 result printed and correct, 1 result printed and incorrect,
2 the benchmark could not run (for instance no `src/artifact` to run).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import reference
import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")

SETUP_PROBES = 9
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("analyze_s", "s"),
    ("report_s", "s"),
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _self(name):
    return lambda t: t["self_s"].get(name, 0.0)


def _total(name):
    return lambda t: t["total_s"].get(name, 0.0)


def _count(name):
    return lambda t: t["counts"][name]


def _layer(name):
    return lambda t: t["layer_self_s"][name]


def _useful_ratio(t):
    offered = t["counts"]["linalg.rowspace_add_calls"]
    return t["counts"]["linalg.rowspace_rank_added"] / offered if offered \
        else 0.0


# (metric, unit, value from the summed trace). Times are span self time,
# except the two oracle entry points, which are whole-call times; the
# oracle's own self time is oracle.substitution_s.
PER_LAYER = (
    ("cli.load_input_s", "s", _self("cli.load_input")),
    ("cli.build_analysis_s", "s", _self("cli.build_analysis")),
    ("cli.build_report_s", "s", _self("cli.build_report")),
    ("cli.run_verification_s", "s", _self("cli.run_verification")),
    ("cli.render_s", "s", _self("cli.render")),
    ("resolution.resolve_s", "s", _self("resolution.resolve")),
    ("resolution.resolve_calls", "count", _count("resolution.resolve_calls")),
    ("resolution.blowups", "count", _count("resolution.blowups")),
    ("resolution.field_jumps", "count", _count("resolution.field_jumps")),
    ("resolution.m_values_s", "s", _self("resolution.m_values")),
    ("resolution.m_values_calls", "count",
     _count("resolution.m_values_calls")),
    ("resolution.minus_inverse_s", "s", _self("resolution.minus_inverse")),
    ("resolution.generic_curvette_s", "s",
     _self("resolution.generic_curvette")),
    ("poincare.value_maps_s", "s", _self("poincare.value_maps")),
    ("poincare.value_maps_calls", "count",
     _count("poincare.value_maps_calls")),
    ("poincare.big_M_s", "s", _self("poincare.big_M")),
    ("poincare.numerical_data_s", "s", _self("poincare.numerical_data")),
    ("poincare.expand_s", "s", _self("poincare.expand")),
    ("oracle.filtration_dims_s", "s", _total("oracle.filtration_dims")),
    ("oracle.divisorial_filtration_dims_s", "s",
     _total("oracle.divisorial_filtration_dims")),
    ("oracle.substitution_s", "s",
     lambda t: (_self("oracle.filtration_dims")(t)
                + _self("oracle.divisorial_filtration_dims")(t))),
    ("oracle.levels", "count", _count("oracle.levels")),
    ("linalg.rowspace_add_s", "s", _self("linalg.rowspace_add")),
    ("linalg.rowspace_add_calls", "count",
     _count("linalg.rowspace_add_calls")),
    ("linalg.rowspace_rank_added", "count",
     _count("linalg.rowspace_rank_added")),
    ("linalg.rowspace_useful_ratio", "ratio", _useful_ratio),
    ("linalg.invert_s", "s", _self("linalg.invert")),
    ("linalg.invert_calls", "count", _count("linalg.invert_calls")),
    ("ratfunc.gcd_s", "s", _self("ratfunc.gcd")),
    ("ratfunc.gcd_calls", "count", _count("ratfunc.gcd_calls")),
    ("ratfunc.ratfunc_init_calls", "count",
     _count("ratfunc.ratfunc_init_calls")),
    ("ratfunc.poly_mul_calls", "count", _count("ratfunc.poly_mul_calls")),
    ("exactfield.algnum_mul_calls", "count",
     _count("exactfield.algnum_mul_calls")),
    ("exactfield.algnum_inverse_calls", "count",
     _count("exactfield.algnum_inverse_calls")),
    ("exactfield.span_close_s", "s", _self("exactfield.span_close")),
) + tuple(("%s.self_s" % layer, "s", _layer(layer))
          for layer in spans.LAYERS) + (
    ("trace.traced_s", "s", lambda t: t["traced_s"]),
    ("trace.untraced_s", "s", lambda t: t["untraced_s"]),
    ("trace.overhead_s", "s", lambda t: t["traced_s"] - t["untraced_s"]),
)


class BenchError(Exception):
    """The benchmark could not run to a result."""


def argv_for(command, path, item):
    if command == "analyze":
        return ["analyze", path]
    if command == "report":
        return ["report", path, "--json"]
    return ["verify", path, "--max-order", str(item["max_order"])]


def spawn(job, deadline):
    """Run one worker process; returns its result with `setup_s` added."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run exceeded %.0f s" % RUN_LIMIT_S)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER],
                              input=json.dumps(job), capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the %.0f s run limit"
                         % RUN_LIMIT_S)
    if proc.returncode != 0:
        raise BenchError("worker failed with exit %d: %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - started
    return result


def run_round(items, paths, deadline, cpu, trace=False, spans_out=None,
              speed=True):
    """One process per command over every document; {command: result}.

    With `speed` the processes also time the reference computation.
    """
    out = {}
    for cmd in workloads.COMMANDS:
        job = {"src": SRC, "first_doc": paths[0], "cpu": cpu, "trace": trace,
               "speed": speed and not trace, "spans_out": spans_out and spans_out % cmd,
               "calls": [{"id": it["id"], "argv": argv_for(cmd, p, it)}
                         for it, p in zip(items, paths)]}
        out[cmd] = spawn(job, deadline)
    return out


def check_rounds(items, rounds):
    """Check every call of every round; returns (attempted, failures).

    A call also fails when its stdout differs from the same call in the
    first round, since the CLI is a pure function of its input.
    """
    failures = []
    first = {}
    for r, rnd in enumerate(rounds):
        by_id = {cmd: {c["id"]: c for c in rnd[cmd]["calls"]}
                 for cmd in workloads.COMMANDS}
        for it in items:
            calls = {cmd: by_id[cmd][it["id"]] for cmd in workloads.COMMANDS}
            bad = checks.check_document(it, calls)
            for cmd, call in calls.items():
                sha = checks.digest(call["stdout"])
                if first.setdefault((cmd, it["id"]), sha) != sha:
                    bad.setdefault(cmd, "stdout differs from round 1")
            failures.extend((r + 1, cmd, it["id"], why)
                            for cmd, why in sorted(bad.items()))
    attempted = len(rounds) * len(items) * len(workloads.COMMANDS)
    return attempted, failures


def call_scale(call, proc):
    """REFERENCE_S over the mean time of the reference() runs made during
    the call, or during its whole process for a call too short to hold one.
    """
    if call["references"]:
        return reference.REFERENCE_S * call["references"] / \
            call["reference_s"]
    return proc["scale"]


def scaled_total(rounds, command):
    """Sum over documents of each document's median scaled time.

    On a shared virtual machine other tenants slow a CPU down by up to 2x,
    CPU time included, in phases of a tenth of a second to minutes. A
    call's seconds times its `call_scale` is the time it takes on a CPU
    that runs the reference computation in reference.REFERENCE_S, which is
    the cost of the program whatever the phase of the machine.
    """
    times = {}
    for rnd in rounds:
        proc = rnd[command]
        for call in proc["calls"]:
            times.setdefault(call["id"], []).append(
                call["seconds"] * call_scale(call, proc))
    return sum(statistics.median(t) for t in times.values())


def write_digests(path, workload, seed, items, rnd):
    rows = []
    for it in sorted(items, key=lambda it: it["id"]):
        for cmd in workloads.COMMANDS:
            call = next(c for c in rnd[cmd]["calls"] if c["id"] == it["id"])
            rows.append({"id": it["id"], "command": cmd,
                         "exit": call["exit"],
                         "sha256": checks.digest(call["stdout"])})
    total = checks.digest("".join("%(id)s %(command)s %(exit)s %(sha256)s\n"
                                  % row for row in rows))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "sha256": total,
                   "calls": rows}, handle, indent=1)
    return total


def sum_traces(rnd):
    """Sum the per-command trace summaries of a traced round."""
    total = {"self_s": {}, "total_s": {}, "layer_self_s": {}, "counts": {}}
    for cmd in workloads.COMMANDS:
        for key, table in rnd[cmd]["trace"].items():
            for name, value in table.items():
                total[key][name] = total[key].get(name, 0) + value
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description="artifact CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "artifact", "cli.py")):
        print("no program to run: %s/artifact/cli.py is missing" % SRC,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = "%s-seed%d" % (args.workload, args.seed)
    items = workloads.generate(args.workload, args.seed)
    docs = os.path.join(OUT, "docs", tag)
    shutil.rmtree(docs, ignore_errors=True)
    paths = workloads.write_documents(items, docs)
    print("workload %s, seed %d: %s" % (args.workload, args.seed,
                                        workloads.WHY[args.workload]))

    # On a shared machine each CPU has slow phases of its own (other
    # tenants), so successive processes take turns on the CPUs of this run.
    cpus = sorted(os.sched_getaffinity(0))
    probe = {"src": SRC, "first_doc": paths[0], "cpu": None, "trace": False,
             "speed": True, "spans_out": None, "calls": []}
    # The first interpreter writes the bytecode cache; it is not a sample.
    spawn(probe, deadline)
    setup = [] if args.trace else [
        spawn(dict(probe, cpu=cpus[i % len(cpus)]), deadline)
        for i in range(SETUP_PROBES)]

    start = time.monotonic()
    if args.trace:
        rounds = [run_round(items, paths, deadline, cpus[0], speed=False),
                  run_round(items, paths, deadline, cpus[0], trace=True,
                            spans_out=os.path.join(
                                OUT, tag + ".spans-%s.json"))]
    else:
        # Start another round only if it should end within --seconds.
        rounds = []
        while True:
            began = time.monotonic()
            rounds.append(run_round(items, paths, deadline,
                                    cpus[len(rounds) % len(cpus)]))
            now = time.monotonic()
            if now - start + (now - began) > args.seconds:
                break
    attempted, failures = check_rounds(items, rounds)
    failed_calls = {(r, cmd, doc) for r, cmd, doc, _why in failures}
    for r, cmd, doc, why in failures:
        print("FAILED round %d %s %s: %s" % (r, cmd, doc, why))
    total_sha = write_digests(os.path.join(OUT, tag + ".stdout.json"),
                              args.workload, args.seed, items, rounds[0])

    procs = [rnd[cmd] for rnd in rounds for cmd in workloads.COMMANDS]
    print("%d round(s) x %d commands x %d documents; stdout sha256 %s"
          % (len(rounds), len(workloads.COMMANDS), len(items), total_sha))
    print("failed_ratio %d/%d" % (len(failed_calls), attempted))

    if args.trace:
        trace = sum_traces(rounds[1])
        trace["traced_s"] = sum(rounds[1][c]["wall_s"]
                                for c in workloads.COMMANDS)
        trace["untraced_s"] = sum(rounds[0][c]["wall_s"]
                                  for c in workloads.COMMANDS)
        with open(os.path.join(OUT, tag + ".trace.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({cmd: rounds[1][cmd]["trace"]
                       for cmd in workloads.COMMANDS}, handle, indent=1,
                      sort_keys=True)
        metrics = [(name, unit, fn(trace)) for name, unit, fn in PER_LAYER]
        for cmd in workloads.COMMANDS:
            counts = rounds[1][cmd]["trace"]["counts"]
            print("%-8s value_maps_calls %d  resolve_calls %d  gcd_calls %d"
                  % (cmd, counts["poincare.value_maps_calls"],
                     counts["resolution.resolve_calls"],
                     counts["ratfunc.gcd_calls"]))
    else:
        per_round = {cmd: [sum(c["seconds"] for c in rnd[cmd]["calls"])
                           for rnd in rounds]
                     for cmd in workloads.COMMANDS}
        setup.extend(procs)
        values = {"%s_s" % cmd: scaled_total(rounds, cmd)
                  for cmd in workloads.COMMANDS}
        values["setup_s"] = statistics.median(p["setup_s"] * p["setup_scale"]
                                              for p in setup)
        values["peak_rss_mib"] = max(p["maxrss_kib"] for p in procs) / 1024
        metrics = [(name, unit, values[name]) for name, unit in END_TO_END]
        for cmd in workloads.COMMANDS:
            print("%s per round, unscaled s (scale): %s" % (cmd, " ".join(
                "%.3f (%.3f)" % (s, rnd[cmd]["scale"])
                for s, rnd in zip(per_round[cmd], rounds))))
    for name, unit, value in metrics:
        print("%-40s %14.6f %s" % (name, value, unit))

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed_calls),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, unit, value in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        sys.exit(2)
