"""Span and counter wrappers for the traced benchmark run.

The tracer replaces, for the duration of a traced run, every binding through
which the CLI reaches a layer's public functions: a module attribute (such
as `cli.resolve`, which `cli` imported by name, as well as
`resolution.resolve`) or a class attribute (such as `Poly.gcd`). Each
function is wrapped at every `artifact` module attribute that holds it, so
a caller is traced whichever binding it uses. `uninstall` puts the original
objects back, so function identity is restored.

A span records its name, start, end, parent span and document id. Spans
stay in memory until the run ends. Per-operation kernels (`AlgNum.__mul__`,
`Poly.__mul__`, `RatFunc.__init__`, ...) get counters only: at that
granularity a timing wrapper would mostly measure itself.
"""

import sys
import time
from collections import Counter

LAYERS = ("cli", "resolution", "poincare", "oracle", "linalg", "ratfunc",
          "exactfield")


def _after_resolve(counts, result):
    graph, recs = result
    counts["resolution.blowups"] += len(recs)
    counts["resolution.field_jumps"] += len(graph.splittings)


def _after_oracle(counts, report):
    counts["oracle.levels"] += len(report.dims)


def _after_rowspace_add(counts, added):
    if added:
        counts["linalg.rowspace_rank_added"] += 1


# Module-level functions: (defining module, name, span name, counter name,
# hook on the result). The span name is "<layer>.<what>".
FUNCTIONS = (
    ("cli", "cmd_analyze", "cli.render", None, None),
    ("cli", "cmd_report", "cli.render", None, None),
    ("cli", "cmd_verify", "cli.render", None, None),
    ("cli", "load_input", "cli.load_input", None, None),
    ("cli", "build_analysis", "cli.build_analysis", None, None),
    ("cli", "build_report", "cli.build_report", None, None),
    ("cli", "run_verification", "cli.run_verification", None, None),
    ("resolution", "resolve", "resolution.resolve",
     "resolution.resolve_calls", _after_resolve),
    ("resolution", "m_values", "resolution.m_values",
     "resolution.m_values_calls", None),
    ("resolution", "minus_inverse", "resolution.minus_inverse", None, None),
    ("resolution", "generic_curvette", "resolution.generic_curvette", None,
     None),
    ("poincare", "value_maps", "poincare.value_maps",
     "poincare.value_maps_calls", None),
    ("poincare", "big_M", "poincare.big_M", None, None),
    ("poincare", "numerical_data", "poincare.numerical_data", None, None),
    ("poincare", "expand", "poincare.expand", None, None),
    ("oracle", "filtration_dims", "oracle.filtration_dims", None,
     _after_oracle),
    ("oracle", "divisorial_filtration_dims",
     "oracle.divisorial_filtration_dims", None, _after_oracle),
    ("linalg", "invert", "linalg.invert", "linalg.invert_calls", None),
    ("exactfield", "span_close", "exactfield.span_close", None, None),
)

# Methods: (defining module, class, attribute, span name or None, counter
# name, hook on the result).
METHODS = (
    ("linalg", "SparseRowSpace", "add", "linalg.rowspace_add",
     "linalg.rowspace_add_calls", _after_rowspace_add),
    ("ratfunc", "Poly", "gcd", "ratfunc.gcd", "ratfunc.gcd_calls", None),
    ("ratfunc", "RatFunc", "__init__", None, "ratfunc.ratfunc_init_calls",
     None),
    ("ratfunc", "Poly", "__mul__", None, "ratfunc.poly_mul_calls", None),
    ("ratfunc", "Poly", "__rmul__", None, "ratfunc.poly_mul_calls", None),
    ("exactfield", "AlgNum", "__mul__", None, "exactfield.algnum_mul_calls",
     None),
    ("exactfield", "AlgNum", "__rmul__", None,
     "exactfield.algnum_mul_calls", None),
    ("exactfield", "AlgNum", "inverse", None,
     "exactfield.algnum_inverse_calls", None),
)

# Counters that read 0 when nothing happened, so every run reports them.
COUNTERS = tuple(sorted({c for _m, _f, _s, c, _h in FUNCTIONS if c}
                        | {c for _m, _k, _a, _s, c, _h in METHODS if c}
                        | {"resolution.blowups", "resolution.field_jumps",
                           "oracle.levels", "linalg.rowspace_rank_added"}))


def _package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "artifact" or name.startswith("artifact.")}


class Span:
    __slots__ = ("name", "start", "end", "parent", "doc")

    def __init__(self, name, start, parent, doc):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.doc = doc


class Tracer:
    """Spans and counters of one traced process.

    Set `doc` to the current document id before each call; spans opened
    during the call carry it.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter({c: 0 for c in COUNTERS})
        self.doc = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, span_name, counter, hook):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        if span_name is None:
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            span = Span(span_name, clock(), stack[-1] if stack else -1,
                        self.doc)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced binding of the imported `artifact` modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod_name, fn_name, span_name, counter, hook in FUNCTIONS:
            original = getattr(modules["artifact." + mod_name], fn_name)
            wrapper = self._wrap(original, span_name, counter, hook)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        for mod_name, cls_name, attr, span_name, counter, hook in METHODS:
            cls = getattr(modules["artifact." + mod_name], cls_name)
            self._replace(cls, attr, self._wrap(vars(cls)[attr], span_name,
                                                counter, hook))

    def uninstall(self):
        """Restore every replaced binding to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per span: its duration minus the part its child spans cover.

    Spans of one process come from a single call stack, so children of a
    span run one after another inside it and their durations add up to the
    part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def summarize(spans, counts):
    """Per-name self and total seconds, per-layer self seconds, counters."""
    self_s = Counter()
    total_s = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] += own
        total_s[span.name] += span.end - span.start
    layer_s = Counter({layer: 0.0 for layer in LAYERS})
    for name, seconds in self_s.items():
        layer_s[name.split(".", 1)[0]] += seconds
    return {"self_s": dict(self_s), "total_s": dict(total_s),
            "layer_self_s": dict(layer_s), "counts": dict(counts)}


def span_records(spans):
    """Spans as JSON-ready rows, for writing out when the run ends."""
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "doc": s.doc} for s in spans]
