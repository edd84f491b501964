"""One benchmark command process: a fresh interpreter running one CLI command
over every document of a workload, one document after the other.

Reads a JSON job from stdin:

    {"src": DIR, "first_doc": PATH, "cpu": N | null, "trace": false,
     "speed": true, "spans_out": null,
     "calls": [{"id": ..., "argv": [...]}, ...]}

and prints one JSON result to stdout. With "cpu" set the process runs on
that CPU only. `ready` in the result is the
`time.monotonic()` reading once `artifact.cli` is imported and the first
document has been read; with no calls the process only measures that. The
documents' own stdout and stderr are captured per call. With "trace" true
the `spans` tracer wraps the package for the calls and removes its wrappers
afterwards; without it nothing of the package is touched. With "speed"
true the process also times `reference.reference()` after `ready` and,
from a timer signal, while the calls run (see bench/reference.py). A
call's `seconds` then leaves out the signal handler's time, and the call
reports the `references` runs made during it and their `reference_s`; the
result reports `setup_scale` for the runs after `ready` and `scale` for
all the runs made during the calls.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

# reference() runs right after `ready`, about 30 ms: the CPU speed that
# scales the set-up time.
SETUP_SAMPLES = 50


def main():
    job = json.load(sys.stdin)
    if job["cpu"] is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    from artifact import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("artifact was imported from %s, not from %s"
                         % (cli.__file__, src))
    with open(job["first_doc"], "rb") as handle:
        handle.read()
    ready = time.monotonic()

    meter = None
    if job["speed"]:
        import reference
        meter = reference.Speedometer()
        meter.sample(SETUP_SAMPLES)
        setup_scale = meter.scale()
        meter.samples.clear()
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    try:
        with meter if meter is not None else contextlib.nullcontext():
            _run_calls(cli, job["calls"], tracer, meter, results)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start

    result = {"ready": ready, "wall_s": wall, "calls": results,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if meter is not None:
        result["setup_scale"] = setup_scale
        result["scale"] = meter.scale() if meter.samples else setup_scale
    if tracer is not None:
        result["trace"] = spans.summarize(tracer.spans, tracer.counts)
        if job.get("spans_out"):
            with open(job["spans_out"], "w", encoding="utf-8") as handle:
                json.dump(spans.span_records(tracer.spans), handle)
    json.dump(result, sys.stdout)


def _run_calls(cli, calls, tracer, meter, results):
    """Run the calls one after the other, appending to `results`."""
    for call in calls:
        if tracer is not None:
            tracer.doc = call["id"]
        out = io.StringIO()
        err = io.StringIO()
        first = len(meter.ticks) if meter is not None else 0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(call["argv"])
            except Exception as exc:  # a traceback counts as exit 1
                print("%s: %s" % (type(exc).__name__, exc),
                      file=sys.stderr)
                code = 1
        t1 = time.perf_counter()
        result = {"id": call["id"], "exit": code, "seconds": t1 - t0,
                  "stdout": out.getvalue()}
        if meter is not None:
            paused, result["reference_s"], result["references"] = \
                meter.during(t0, t1, first)
            result["seconds"] -= paused
        results.append(result)


if __name__ == "__main__":
    main()
