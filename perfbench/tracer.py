"""Per-layer tracing of semiprime_lab from outside the package.

``install()`` wraps the public functions of each module and rebinds every
name that refers to them in every ``semiprime_lab`` module, because the
modules import functions by name (``ideals.rref``, ``closures.ideal_product``,
``cli.search_prime``); wrapping only the defining module would miss those
calls.  Every wrapper keeps a call count and self time (its time minus the
time of wrapped calls made inside it).  Coarse calls also record spans
(name, start, end, parent, job) in memory; hot leaf calls record only the
counts, to bound memory and overhead.
"""

from __future__ import annotations

import sys
import time

_perf = time.perf_counter

# Layers are the package's modules; ``errors`` does no work.
LAYERS = ("semigroup", "series", "linalg", "ideals", "closures", "search", "cli")

# (module, attribute, span?) — attribute "Class.method" wraps a method.
TARGETS = [
    ("semigroup", "from_generators", False),
    ("series", "parse_series", False),
    ("linalg", "rref", False),
    ("linalg", "in_rowspace", False),
    ("linalg", "rowspaces_intersect", False),
    ("ideals", "ideal_from_generators", False),
    ("ideals", "product", False),
    ("ideals", "contains", False),
    ("ideals", "intersect", False),
    ("ideals", "ideal_sum", False),
    ("ideals", "integral_closure_ideal", False),
    ("ideals", "classify_shape", False),
    ("ideals", "min_generators", False),
    ("ideals", "enumerate_ideals", True),
    ("ideals", "hasse_diagram", True),
    ("closures", "IdealSetDomain.product", False),
    ("closures", "IdealSetDomain.contains", False),
    ("closures", "IdealSetDomain.sum", False),
    ("closures", "IdealSetDomain.intersect", False),
    ("closures", "check_axioms", True),
    ("closures", "fractional_violation", True),
    ("search", "search_prime", True),
    ("cli", "main", True),
]

SEARCH_COUNTS = ("nodes", "extension_nodes", "window_candidates", "extension_discarded",
                 "skipped_product_instances")
PRUNE_CAUSES = ("scaling_conflict", "idempotence", "monotone", "product")


def rec_name(module, attr):
    if attr.startswith("IdealSetDomain."):
        return "closures.domain." + attr.split(".", 1)[1]
    return f"{module}.{attr}"


class Rec:
    __slots__ = ("calls", "self_s", "busy_s", "inner")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0  # time minus wrapped calls made inside
        self.busy_s = 0.0  # inclusive time, kept for spans only
        self.inner = 0  # wrapped calls made directly inside


class Tracer:
    def __init__(self):
        self.recs: dict[str, Rec] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.job = 0
        self._stack: list[list] = []  # [child time, rec] per active call
        self._open_span = -1

    def rec(self, name):
        if name not in self.recs:
            self.recs[name] = Rec()
        return self.recs[name]

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def leaf(self, name, fn):
        rec = self.rec(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                stack[-1][1].inner += 1
            frame = [0.0, rec]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                rec.calls += 1
                rec.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def span(self, name, fn, on_result=None):
        rec = self.rec(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                stack[-1][1].inner += 1
            parent = self._open_span
            index = len(self.spans)
            self.spans.append(None)
            self._open_span = index
            frame = [0.0, rec]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                dt = t1 - t0
                stack.pop()
                rec.calls += 1
                rec.self_s += dt - frame[0]
                rec.busy_s += dt
                if stack:
                    stack[-1][0] += dt
                self._open_span = parent
                self.spans[index] = (self.job, name, t0, t1, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- result hooks ---------------------------------------------------------

    def _on_enumerate(self, args, result):
        self.count("ideals.enumerate_ideals.ideals", len(result))

    def _on_search(self, args, result):
        stats = result.stats
        for k in SEARCH_COUNTS:
            self.count("search." + k, stats.get(k, 0))
        prunes = stats.get("prunes", {})
        for cause in PRUNE_CAUSES:
            self.count("search.prunes." + cause, prunes.get(cause, 0))
        self.count("search.operations", len(result.operations))

    def _per_axiom(self, fn, report_cls):
        """check_axioms run one axiom at a time, so each axiom gets a span.

        The domain's memos are shared across the calls, so the work and the
        merged report are those of a single call."""
        axiom_spans = {}

        def check_axioms(op, domain, axioms):
            wanted = sorted(set(axioms))
            if not wanted:
                return fn(op, domain, axioms)
            results = {}
            for ax in wanted:
                name = f"closures.check_axioms.a{ax}"
                if name not in axiom_spans:
                    axiom_spans[name] = self.span(name, fn)
                report = axiom_spans[name](op, domain, (ax,))
                results.update(report.results)
                self.count("closures.check_axioms.instances",
                           sum(r.checked + r.skipped for r in report.results.values()))
            return report_cls(report.op_name, results, report.domain_size)

        return check_axioms

    # -- installation ---------------------------------------------------------

    def install(self):
        import semiprime_lab.cli  # noqa: F401  (imports every module)
        from semiprime_lab.closures import AxiomReport

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "semiprime_lab" or n.startswith("semiprime_lab."))]
        hooks = {"ideals.enumerate_ideals": self._on_enumerate,
                 "search.search_prime": self._on_search}
        for module, attr, is_span in TARGETS:
            owner = sys.modules[f"semiprime_lab.{module}"]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            name = rec_name(module, attr)
            if name == "closures.check_axioms":
                inner = self._per_axiom(original, AxiomReport)
                wrapped = self.span(name, inner)
            elif is_span:
                wrapped = self.span(name, original, hooks.get(name))
            else:
                wrapped = self.leaf(name, original)
            if cls_name:
                setattr(owner, meth, wrapped)
                continue
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is original:
                        setattr(mod, k, wrapped)

    def dump(self):
        return {
            "recs": {k: [r.calls, r.self_s, r.busy_s, r.inner] for k, r in self.recs.items()},
            "counts": self.counts,
            "spans": self.spans,
        }


def merge(dumps):
    """Sum the dumps of several traced processes."""
    recs: dict[str, list] = {}
    counts: dict[str, float] = {}
    for d in dumps:
        for k, v in d["recs"].items():
            acc = recs.setdefault(k, [0, 0.0, 0.0, 0])
            for i, x in enumerate(v):
                acc[i] += x
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return {"recs": recs, "counts": counts}


def layer_metrics(merged, stdout_bytes):
    """Per-layer metrics of one round of jobs, named as in BENCHMARK.json."""
    recs = merged["recs"]
    counts = merged["counts"]

    def r(name):
        return recs.get(name, [0, 0.0, 0.0, 0])

    out = {}
    for name in ("semigroup.from_generators", "series.parse_series", "linalg.rref",
                 "linalg.in_rowspace", "linalg.rowspaces_intersect", "ideals.product",
                 "ideals.contains", "ideals.intersect", "ideals.ideal_sum",
                 "ideals.integral_closure_ideal", "ideals.classify_shape"):
        out[name + ".calls"] = r(name)[0]
        out[name + ".busy_s"] = r(name)[1]
    out["ideals.min_generators.calls"] = r("ideals.min_generators")[0]
    out["ideals.enumerate_ideals.busy_s"] = r("ideals.enumerate_ideals")[2]
    out["ideals.enumerate_ideals.ideals"] = counts.get("ideals.enumerate_ideals.ideals", 0)
    out["ideals.hasse_diagram.busy_s"] = r("ideals.hasse_diagram")[2]
    for op in ("product", "contains", "sum", "intersect"):
        calls, self_s, _, inner = r("closures.domain." + op)
        out[f"closures.domain.{op}.calls"] = calls
        out[f"closures.domain.{op}.busy_s"] = self_s
        out[f"closures.domain.{op}.hit_ratio"] = 1 - inner / calls if calls else 0.0
    out["closures.check_axioms.busy_s"] = r("closures.check_axioms")[2]
    for ax in range(1, 9):
        out[f"closures.check_axioms.a{ax}.busy_s"] = r(f"closures.check_axioms.a{ax}")[2]
    out["closures.check_axioms.instances"] = counts.get("closures.check_axioms.instances", 0)
    out["closures.fractional_violation.busy_s"] = r("closures.fractional_violation")[2]
    out["search.search_prime.calls"] = r("search.search_prime")[0]
    out["search.search_prime.busy_s"] = r("search.search_prime")[2]
    for k in SEARCH_COUNTS:
        out["search." + k] = counts.get("search." + k, 0)
    for cause in PRUNE_CAUSES:
        out["search.prunes." + cause] = counts.get("search.prunes." + cause, 0)
    candidates = counts.get("search.window_candidates", 0)
    out["search.survivor_ratio"] = counts.get("search.operations", 0) / candidates if candidates else 0.0
    nodes = counts.get("search.nodes", 0) + counts.get("search.extension_nodes", 0)
    out["search.extension_node_share"] = counts.get("search.extension_nodes", 0) / nodes if nodes else 0.0
    out["cli.main.busy_s"] = r("cli.main")[2]
    out["cli.stdout_bytes"] = stdout_bytes
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(v[1] for k, v in recs.items() if k.split(".", 1)[0] == layer)
    return out
