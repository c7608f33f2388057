"""Per-layer tracing from outside the program.

``Tracer.install`` replaces tanglab's public functions and methods with
wrappers, in every tanglab module that holds a reference to them, and
``uninstall`` puts the originals back.  A span wrapper adds its call's
self time (its duration minus that of the spans it contains) to the layer
metric it names; a count wrapper adds one per call.  Nothing inside the
program changes, so the figures cover calls between modules, not work
inside a function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric): spans whose self time is reported in seconds
SPANS = [
    ("cli", "run", "cli.self_s"),
    ("io", "load_family", "io.load_family_s"),
    ("io", "load_graph", "io.load_graph_s"),
    ("io", "save_family", "io.save_s"),
    ("io", "save_graph", "io.save_s"),
    ("generators", "gen_grounded_family", "generators.grounded_s"),
    ("generators", "gen_random_bipartite", "generators.random_graph_s"),
    ("curves", "PolyChain.is_simple", "curves.is_simple_s"),
    ("curves", "CurveFamily.contacts", "curves.contacts_s"),
    ("curves", "validate_family", "curves.validate_family_s"),
    ("curves", "tangency_graph", "curves.tangency_graph_s"),
    ("xmono", "cutting_search", "xmono.cutting_search_s"),
    ("xmono", "trapezoidal_partition", "xmono.partition_s"),
    ("xmono", "cell_stats", "xmono.cell_stats_s"),
    ("xmono", "lower_envelope", "xmono.lower_envelope_s"),
    ("xmono", "vertical_visibility_pairs", "xmono.visibility_s"),
    ("bipartite", "bad_4tuple_scan", "bipartite.bad4_s"),
    ("bipartite", "count_k22", None),  # named by its method argument
    ("bipartite", "near_regularize", "bipartite.regularize_s"),
    ("bipartite", "prune_min_degree", "bipartite.prune_s"),
    ("bipartite", "check_f_sparse", "bipartite.sparse_check_s"),
]

# (module, attribute, metric): calls counted without timing, for hot functions
COUNTS = [
    ("curves", "common_points", "curves.common_points_calls"),
    ("curves", "classify_contact", "curves.classify_contact_calls"),
    ("geom", "segment_intersect", "geom.segment_intersect_calls"),
    ("geom", "on_segment", "geom.on_segment_calls"),
    ("xmono", "Partition.locate", "xmono.locate_calls"),
    ("xmono", "value_at", "xmono.value_at_calls"),
    ("bipartite", "SparsenessBudget.exceeds", "bipartite.budget_tests"),
]

# counts that the span wrappers derive from arguments and results
DERIVED = [
    "curves.validate_family_calls",
    "curves.pairs_scanned",
    "xmono.cutting_tries",
    "bipartite.bad4_pruned",
    "bipartite.bad4_examined",
]

TIME_METRICS = sorted({m for _, _, m in SPANS if m} | {"bipartite.k22_pairs_s", "bipartite.k22_edges_s"})
COUNT_METRICS = sorted({m for _, _, m in COUNTS} | set(DERIVED))


def _k22_metric(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "pairs")
    return f"bipartite.k22_{method}_s"


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # [metric, seconds spent in child spans] per open span
        self._scanned = weakref.WeakSet()  # families whose contact map was built
        self._patched = []  # (owner, attribute, original)

    def take(self):
        """Metrics gathered since the last call, as {name: value}; resets them."""
        out = {m: self.seconds.get(m, 0.0) for m in TIME_METRICS}
        out.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        self.seconds.clear()
        self.counts.clear()
        return out

    # --- wrappers -----------------------------------------------------------

    def _after(self, metric, args, result):
        counts = self.counts
        if metric == "curves.validate_family_s":
            counts["curves.validate_family_calls"] += 1
        elif metric == "curves.contacts_s":
            family = args[0]
            if family not in self._scanned:
                self._scanned.add(family)
                counts["curves.pairs_scanned"] += len(result)
        elif metric == "xmono.partition_s":
            if any(m == "xmono.cutting_search_s" for m, _ in self._open):
                counts["xmono.cutting_tries"] += 1
        elif metric == "bipartite.bad4_s":
            counts["bipartite.bad4_pruned"] += result.pruned
            counts["bipartite.bad4_examined"] += result.examined

    def _span(self, fn, metric):
        open_spans, seconds = self._open, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = metric or _k22_metric(args, kwargs)
            frame = [name, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                seconds[name] += elapsed - frame[1]
                if open_spans:
                    open_spans[-1][1] += elapsed
            self._after(name, args, result)
            return result

        return wrapper

    def _counter(self, fn, metric):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching -----------------------------------------------------------

    def install(self):
        for module, _, _ in SPANS + COUNTS:
            importlib.import_module(f"tanglab.{module}")
        modules = [m for name, m in sys.modules.items() if name == "tanglab" or name.startswith("tanglab.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for module, attribute, metric in table:
                owner = sys.modules[f"tanglab.{module}"]
                if "." in attribute:
                    cls_name, attribute = attribute.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attribute]
                    self._patch(owner, attribute, original, make(original, metric))
                    continue
                original = getattr(owner, attribute)
                wrapped = make(original, metric)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attribute, original, wrapped):
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
