"""In-memory spans around headerscan's public functions, and the
per-layer metrics read from them.

Nothing in headerscan is edited: `Tracer.install` replaces each public
function with a timing wrapper in every headerscan module that holds a
reference to it, which is where its callers look it up, and wraps the
`decision_values` method of every model class. `Tracer.uninstall` puts
the originals back.

A span is (name, parent, start, end) in integer nanoseconds, kept in
four flat arrays. Spans are appended when they begin, so a parent
always has a lower index than its children. One trace id covers the
whole run; `write` dumps everything once, at the end.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import os
import sys
import time

# layers in the order reports list them; "bench" is the harness itself
LAYERS = ("bench", "pipeline", "corpus", "headers", "features", "learners",
          "evaluation")

BINARY_ALGOS = ("logreg", "linear_svm", "decision_tree", "random_forest",
                "grad_boost", "gaussian_nb", "knn", "mlp", "adaboost")
FIT_ALGOS = BINARY_ALGOS + ("one_class_svm",)
SCORE_ALGOS = FIT_ALGOS + ("stack",)

ROOT = "bench.run"

# latencies the classify workload measures in the untraced half of a
# traced run; the other workloads report them as 0
LATENCIES = ("classify.stack_p50_ms", "classify.stack_p99_ms",
             "classify.oneclass_p50_ms", "classify.oneclass_p99_ms",
             "cli.cold_classify_p50_ms")


def _model_name(args) -> str:
    return f"learners.{args[0].spec.algorithm}.score"


def _fit_name(args) -> str:
    return f"learners.{args[0].algorithm}.fit"


def _count_converged(tracer, args, result) -> None:
    algo = result.spec.algorithm
    tracer.add(f"learners.{algo}.converged", 1.0 if result.converged else 0.0)


def _count_one_class(tracer, args, result) -> None:
    _count_converged(tracer, args, result)
    tracer.add("learners.one_class_svm.smo_iterations",
               result.audit.n_iterations)


def _count_load_report(tracer, args, result) -> None:
    _records, report = result
    tracer.add("corpus.loaded", report.loaded)
    tracer.add("corpus.skipped", report.skipped)


def _count_dropped(tracer, args, result) -> None:
    tracer.add("features.dropped", len(result[2]))


def _count_bundle_bytes(tracer, args, result) -> None:
    tracer.add("learners.bundle.bytes", os.path.getsize(args[0]))


# (module, function, span name, hook run on the returned value). Some
# have no metric of their own: they are wrapped so that their time
# counts toward their own layer's self time, not their caller's.
FUNCTIONS = (
    ("headerscan.pipeline", "run_phases", "pipeline.run_phases", None),
    ("headerscan.corpus", "load_trec_index", "corpus.load", _count_load_report),
    ("headerscan.corpus", "load_labeled_dir", "corpus.load", _count_load_report),
    ("headerscan.corpus", "corpus_digest", "corpus.digest", None),
    ("headerscan.corpus", "header_frequencies", "corpus.header_frequencies", None),
    ("headerscan.headers", "parse_headers", "headers.parse_headers", None),
    ("headerscan.headers", "parse_address_list", "headers.parse_address_list", None),
    ("headerscan.headers", "parse_received", "headers.parse_received", None),
    ("headerscan.headers", "parse_date", "headers.parse_date", None),
    ("headerscan.headers", "extract_domain", "headers.extract_domain", None),
    ("headerscan.features", "fit_schema", "features.fit_schema", None),
    ("headerscan.features", "extract", "features.extract", None),
    ("headerscan.features", "extract_matrix", "features.extract_matrix", None),
    ("headerscan.features", "prune_single_valued", "features.prune", _count_dropped),
    ("headerscan.features", "fit_scaler", "features.scaler", None),
    ("headerscan.features", "apply_scaler", "features.scaler", None),
    ("headerscan.learners", "train", _fit_name, _count_converged),
    ("headerscan.learners", "train_one_class", "learners.one_class_svm.fit",
     _count_one_class),
    ("headerscan.learners", "train_stack", "learners.stack.fit", None),
    ("headerscan.learners.tree", "build_tree", "learners.build_tree", None),
    ("headerscan.learners", "save_bundle", "learners.bundle.save",
     _count_bundle_bytes),
    ("headerscan.learners", "load_bundle", "learners.bundle.load",
     _count_bundle_bytes),
    ("headerscan.evaluation", "grid_search", "evaluation.grid_search", None),
    ("headerscan.evaluation", "kfold_cv", "evaluation.kfold_cv", None),
    ("headerscan.evaluation", "permutation_importance",
     "evaluation.permutation_importance", None),
    ("headerscan.evaluation", "compute_metrics", "evaluation.metrics", None),
    ("headerscan.evaluation", "make_scores", "evaluation.metrics", None),
    ("headerscan.evaluation", "roc_points", "evaluation.metrics", None),
    ("headerscan.evaluation", "stratified_split", "evaluation.split", None),
    ("headerscan.evaluation", "balance", "evaluation.split", None),
    ("headerscan.evaluation", "render_table", "evaluation.render", None),
    ("headerscan.evaluation", "render_importance_table", "evaluation.render",
     None),
)

MODEL_CLASSES = ("LogRegModel", "LinearSVMModel", "DecisionTreeModel",
                 "RandomForestModel", "GradBoostModel", "AdaBoostModel",
                 "GaussianNBModel", "KNNModel", "MLPModel",
                 "OneClassSVMModel", "StackModel")


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array.array("q")
        self.parent_col = array.array("q")
        self.start_col = array.array("q")
        self.end_col = array.array("q")
        self.current = -1
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name_id: int) -> int:
        i = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self.current)
        self.end_col.append(0)
        self.start_col.append(time.perf_counter_ns())
        self.current = i
        return i

    def end(self, i: int) -> None:
        self.end_col[i] = time.perf_counter_ns()
        self.current = self.parent_col[i]

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def wrap(self, fn, name, hook=None):
        tracer = self
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args))
            i = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function wherever a headerscan module
        refers to it, and every model's decision_values method."""
        import headerscan.learners as learners

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "headerscan"
                                         or name.startswith("headerscan."))]
        for module_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls_name in MODEL_CLASSES:
            cls = getattr(learners, cls_name)
            self._patch(cls, "decision_values",
                        self.wrap(cls.decision_values, _model_name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        origin = self.start_col[0] if self.start_col else 0
        doc = {
            "trace_id": self.trace_id,
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "spans": [[n, p, s - origin, e - origin] for n, p, s, e in
                      zip(self.name_col, self.parent_col, self.start_col,
                          self.end_col)],
            "counters": self.counters,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Summary:
    """Per-name totals: calls, inclusive and self nanoseconds."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.name_col)
        self.tracer = tracer
        duration = [tracer.end_col[i] - tracer.start_col[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = tracer.parent_col[i]
            if p >= 0:
                child[p] += duration[i]
        self.self_ns = [duration[i] - child[i] for i in range(n)]
        self.duration = duration
        self.calls: dict[str, int] = {}
        self.incl: dict[str, int] = {}
        self.own: dict[str, int] = {}
        for i in range(n):
            name = tracer.names[tracer.name_col[i]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0) + duration[i]
            self.own[name] = self.own.get(name, 0) + self.self_ns[i]

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.own.items()
                   if k.split(".", 1)[0] == layer)

    def root_ns(self) -> int:
        t = self.tracer
        return sum(self.duration[i] for i in range(len(t.name_col))
                   if t.parent_col[i] < 0)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with an `ancestor` span above them."""
        t = self.tracer
        target = t._ids.get(name)
        anc = t._ids.get(ancestor)
        if target is None or anc is None:
            return 0
        inside = [False] * len(t.name_col)
        count = 0
        for i in range(len(t.name_col)):
            p = t.parent_col[i]
            inside[i] = p >= 0 and (inside[p] or t.name_col[p] == anc)
            if inside[i] and t.name_col[i] == target:
                count += 1
        return count

    def count_children(self, suffix: str, parent: str) -> int:
        """Spans whose name ends with `suffix` and whose direct parent
        is called `parent`."""
        t = self.tracer
        pid = t._ids.get(parent)
        return sum(1 for i in range(len(t.name_col))
                   if t.parent_col[i] >= 0
                   and t.name_col[t.parent_col[i]] == pid
                   and t.names[t.name_col[i]].endswith(suffix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, totals divided by the number of
    traced passes. A ratio or per-call figure whose base is 0 reads 0."""
    s = Summary(tracer)
    c = tracer.counters
    sec = 1e-9 / passes
    out: dict[str, tuple[float, str]] = {}

    def per_pass(name):
        return s.calls.get(name, 0) / passes

    msgs = s.calls.get("features.extract", 0)
    out["headers.parse_headers.calls"] = (per_pass("headers.parse_headers"), "count/pass")
    out["headers.parse_headers.us_per_call"] = (
        _ratio(s.incl.get("headers.parse_headers", 0) / 1e3,
               s.calls.get("headers.parse_headers", 0)), "us")
    for fn in ("parse_address_list", "parse_received", "parse_date"):
        out[f"headers.{fn}.per_msg"] = (
            _ratio(s.calls.get(f"headers.{fn}", 0), msgs), "count/msg")

    out["corpus.load_s"] = (s.incl.get("corpus.load", 0) * sec, "s/pass")
    out["corpus.loaded"] = (c.get("corpus.loaded", 0.0) / passes, "count/pass")
    out["corpus.skipped"] = (c.get("corpus.skipped", 0.0) / passes, "count/pass")
    out["corpus.digest_s"] = (s.incl.get("corpus.digest", 0) * sec, "s/pass")

    out["features.fit_schema_s"] = (s.incl.get("features.fit_schema", 0) * sec, "s/pass")
    out["features.extract_s"] = (s.incl.get("features.extract", 0) * sec, "s/pass")
    out["features.extract_us_per_msg"] = (
        _ratio(s.incl.get("features.extract", 0) / 1e3, msgs), "us")
    out["features.dropped"] = (c.get("features.dropped", 0.0) / passes, "count/pass")

    for algo in FIT_ALGOS:
        span = f"learners.{algo}.fit"
        fits = s.calls.get(span, 0)
        out[f"learners.{algo}.fits"] = (fits / passes, "count/pass")
        out[f"learners.{algo}.fit_s"] = (s.own.get(span, 0) * sec, "s/pass")
        out[f"learners.{algo}.converged_ratio"] = (
            _ratio(c.get(f"learners.{algo}.converged", 0.0), fits), "ratio")
    trees = s.calls.get("learners.build_tree", 0)
    out["learners.build_tree.calls"] = (trees / passes, "count/pass")
    out["learners.build_tree.us_per_call"] = (
        _ratio(s.incl.get("learners.build_tree", 0) / 1e3, trees), "us")
    out["learners.stack.fits"] = (per_pass("learners.stack.fit"), "count/pass")
    out["learners.stack.base_fits"] = (
        s.count_children(".fit", "learners.stack.fit") / passes, "count/pass")
    out["learners.stack.fit_s"] = (s.own.get("learners.stack.fit", 0) * sec, "s/pass")
    out["learners.one_class_svm.smo_iterations"] = (
        c.get("learners.one_class_svm.smo_iterations", 0.0) / passes, "count/pass")
    for algo in SCORE_ALGOS:
        out[f"learners.{algo}.score_s"] = (
            s.own.get(f"learners.{algo}.score", 0) * sec, "s/pass")
    saves = s.calls.get("learners.bundle.save", 0)
    loads = s.calls.get("learners.bundle.load", 0)
    out["learners.bundle.save_ms"] = (
        _ratio(s.incl.get("learners.bundle.save", 0) / 1e6, saves), "ms")
    out["learners.bundle.load_ms"] = (
        _ratio(s.incl.get("learners.bundle.load", 0) / 1e6, loads), "ms")
    out["learners.bundle.kb"] = (
        _ratio(c.get("learners.bundle.bytes", 0.0) / 1024, saves + loads), "KiB")

    out["evaluation.grid_search_s"] = (
        s.incl.get("evaluation.grid_search", 0) * sec, "s/pass")
    out["evaluation.kfold_cv.calls"] = (per_pass("evaluation.kfold_cv"), "count/pass")
    out["evaluation.permutation_importance_s"] = (
        s.incl.get("evaluation.permutation_importance", 0) * sec, "s/pass")
    out["evaluation.permutation_importance.score_calls"] = (
        sum(s.count_under(f"learners.{a}.score",
                          "evaluation.permutation_importance")
            for a in SCORE_ALGOS) / passes, "count/pass")
    out["evaluation.metrics_s"] = (s.own.get("evaluation.metrics", 0) * sec, "s/pass")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s.layer_self_ns(layer) * sec, "s/pass")
    out["trace.total_s"] = (s.root_ns() * sec, "s/pass")
    out["trace.spans"] = (len(tracer.name_col) / passes, "count/pass")
    return out
