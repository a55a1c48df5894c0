"""Spans at the module boundaries of diagvf, recorded from outside.

The tracer replaces public functions with timing wrappers in the namespace
where their caller looks them up: the names diagvf.pipeline imported from
roots, model, measure and series; solve_quartic and dual_ordinate as seen
by diagvf.model; and the functions the benchmark calls directly.  Nothing
under src/ changes.

Each span is (name, start, end, parent span, op id).  Spans stay in memory
and are written out by `dump`.  A span's self time is its duration minus
the time its child spans cover.  Counts that feed the per-layer ratios are
taken from the wrapped calls' arguments and results, after the span ends.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name)
TARGETS = (
    ("diagvf.pipeline", "parse_config", "pipeline.parse_config"),
    ("diagvf.pipeline", "run_characterize", "pipeline.run_characterize"),
    ("diagvf.pipeline", "emit_report", "pipeline.emit_report"),
    ("diagvf.pipeline", "build_characteristic_quartic",
     "roots.build_characteristic_quartic"),
    ("diagvf.pipeline", "solve_quartic", "roots.solve_quartic"),
    ("diagvf.pipeline", "classify_root_pattern", "roots.classify_root_pattern"),
    ("diagvf.pipeline", "candidate_model", "model.candidate_model"),
    ("diagvf.pipeline", "admissibility_verdict", "model.admissibility_verdict"),
    ("diagvf.pipeline", "realize_measure", "measure.realize_measure"),
    ("diagvf.pipeline", "diag_variance_check", "measure.diag_variance_check"),
    ("diagvf.pipeline", "regression_check", "measure.regression_check"),
    ("diagvf.pipeline", "expand_series", "series.expand_series"),
    ("diagvf.model", "solve_quartic", "roots.solve_quartic"),
    ("diagvf.model", "dual_ordinate", "roots.dual_ordinate"),
    ("diagvf.model", "star_condition", "model.star_condition"),
    ("diagvf.series", "expand_series", "series.expand_series"),
    ("diagvf.series", "magnitude_scan", "series.magnitude_scan"),
)

# Not a span: candidate_model calls made inside it are weight-grid candidates.
SEARCH_SCOPE = ("diagvf.pipeline", "_search_weights")


def _count_verdict(c, args, kwargs, v):
    c["verdict_accepted"] += v.accepted


def _count_star(c, args, kwargs, rep):
    c["star_" + rep.method] += 1


def _count_realize(c, args, kwargs, mu):
    c["support_points"] += len(mu.support)


def _count_regression(c, args, kwargs, rep):
    mu = args[0] if args else kwargs["mu"]
    c["regression_pairs"] += len(mu.support) ** 2
    c["regression_groups"] += rep.n_groups
    c["regression_exact"] += rep.exact


def _count_diag(c, args, kwargs, rep):
    c["theta_points"] += rep.n_points


def _count_expand(c, args, kwargs, rep):
    c["series_terms"] += len(rep.terms)


def _count_scan(c, args, kwargs, witness):
    grid = args[2] if len(args) > 2 else kwargs["t_grid"]
    if witness is None:
        c["scan_points"] += len(grid)
    else:
        c["scan_points"] += int((grid == witness).argmax()) + 1


def _count_emit(c, args, kwargs, text):
    c["report_bytes"] += len(text.encode())


COUNTERS = {
    "model.admissibility_verdict": _count_verdict,
    "model.star_condition": _count_star,
    "measure.realize_measure": _count_realize,
    "measure.regression_check": _count_regression,
    "measure.diag_variance_check": _count_diag,
    "series.expand_series": _count_expand,
    "series.magnitude_scan": _count_scan,
    "pipeline.emit_report": _count_emit,
}


class Tracer:
    """Installs the wrappers; `op_id` tags the spans of the op running now."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op id, raised]
        self.counts = Counter()
        self.op_id = -1
        self.enabled = False
        self._stack = []
        self._in_search = 0
        self._saved = []

    def install(self):
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
        mod = importlib.import_module(SEARCH_SCOPE[0])
        fn = getattr(mod, SEARCH_SCOPE[1], None)
        if fn is not None:
            self._saved.append((mod, SEARCH_SCOPE[1], fn))
            setattr(mod, SEARCH_SCOPE[1], self._scope(fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == "model.candidate_model" and tracer._in_search:
                counts["weight_candidates"] += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id,
                    False]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                span[5] = True
                stack.pop()
                raise
            span[2] = perf_counter()
            stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _scope(self, fn):
        tracer = self

        def scoped(*args, **kwargs):
            tracer._in_search += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_search -= 1

        scoped.__wrapped__ = fn
        return scoped

    def span_table(self):
        """Per span name: calls and self seconds."""
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += t1 - t0 - child[i]
        return table

    def dump(self, path):
        """Write the spans as tab-separated lines, times in microseconds."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_us\tend_us\traised\n")
            for i, (name, t0, t1, parent, op, raised) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{op}\t{name}\t"
                          f"{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\t"
                          f"{int(raised)}\n")


def layer_metrics(tracer: Tracer, n_ops: int):
    """The per-layer metrics, per op of the traced pass."""
    table = tracer.span_table()
    c = tracer.counts

    def calls(name):
        return table[name]["calls"] / n_ops if name in table else 0.0

    def self_ms(name):
        return table[name]["self_s"] * 1e3 / n_ops if name in table else 0.0

    verdicts = table["model.admissibility_verdict"]["calls"] \
        if "model.admissibility_verdict" in table else 0
    regressions = table["measure.regression_check"]["calls"] \
        if "measure.regression_check" in table else 0
    return {
        "roots.solve_quartic.calls_per_op": calls("roots.solve_quartic"),
        "roots.solve_quartic.self_ms_per_op": self_ms("roots.solve_quartic"),
        "roots.dual_ordinate.calls_per_op": calls("roots.dual_ordinate"),
        "model.candidate_model.calls_per_op": calls("model.candidate_model"),
        "model.candidate_model.self_ms_per_op": self_ms("model.candidate_model"),
        "model.admissibility_verdict.self_ms_per_op":
            self_ms("model.admissibility_verdict"),
        "model.admissibility_verdict.accept_ratio":
            c["verdict_accepted"] / verdicts if verdicts else 0.0,
        "model.star_condition.self_ms_per_op": self_ms("model.star_condition"),
        "model.star_condition.bounded_search_calls":
            c["star_bounded-search"] / n_ops,
        "model.star_condition.exact_kernel_calls":
            c["star_exact-kernel"] / n_ops,
        "measure.realize_measure.self_ms_per_op":
            self_ms("measure.realize_measure"),
        "measure.support_points_per_op": c["support_points"] / n_ops,
        "measure.regression_check.self_ms_per_op":
            self_ms("measure.regression_check"),
        "measure.regression_pairs_per_op": c["regression_pairs"] / n_ops,
        "measure.regression_groups_per_op": c["regression_groups"] / n_ops,
        "measure.regression_exact_share":
            c["regression_exact"] / regressions if regressions else 0.0,
        "measure.diag_variance_check.self_ms_per_op":
            self_ms("measure.diag_variance_check"),
        "measure.theta_points_per_op": c["theta_points"] / n_ops,
        "series.expand_series.self_ms_per_op": self_ms("series.expand_series"),
        "series.terms_per_op": c["series_terms"] / n_ops,
        "series.magnitude_scan.self_ms_per_op":
            self_ms("series.magnitude_scan"),
        "series.scan_points_per_op": c["scan_points"] / n_ops,
        "pipeline.parse_config.self_ms_per_op": self_ms("pipeline.parse_config"),
        "pipeline.emit_report.self_ms_per_op": self_ms("pipeline.emit_report"),
        "pipeline.report_bytes_per_op": c["report_bytes"] / n_ops,
        "pipeline.run_characterize.self_ms_per_op":
            self_ms("pipeline.run_characterize"),
        "pipeline.weight_candidates_per_op": c["weight_candidates"] / n_ops,
    }
