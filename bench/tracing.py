"""Per-layer spans recorded around the library's public functions.

The tracer wraps functions from the benchmark's side: a module-level
function is replaced in every ``superweyl`` module namespace that holds it
(so calls between library modules pass through the wrapper too), and a
method is replaced on its class.  No library source is edited, and
``uninstall`` puts the original objects back.

Each span records its name, start, end and the span that caused it.  Spans
stay in memory until ``write_spans``; only those of the first traced round
are kept (a round is the whole op mix, and a box round alone makes about
50,000 spans), while the counts and self times cover every traced round.  A wrapped function's self time is the
duration of its spans minus the time covered by their direct child spans.
Spans and counts are recorded only while ``run_op`` executes a timed op, so
the benchmark's own checks never show up in the numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer metric name -> (module, attribute) or (module, class, method).
TARGETS = {
    "algebra.word_element": ("algebra", "word_element"),
    "algebra.mul": ("algebra", "SuperElement", "__mul__"),
    "algebra.star": ("algebra", "SuperElement", "star"),
    "basering.tau_apply": ("basering", "tau_apply"),
    "basering.mul": ("basering", "BaseRingElement", "__mul__"),
    "basering.iota_embed": ("basering", "iota_embed"),
    "basering.project_zero": ("basering", "project_zero"),
    "datum.validate_gamma": ("datum", "validate_gamma"),
    "datum.derive_datum": ("datum", "derive_datum"),
    "datum.consistency_check": ("datum", "consistency_check"),
    "datum.eval_word": ("datum", "eval_word"),
    "datum.phi_generator": ("datum", "phi_generator"),
    "support.is_in_support": ("support", "is_in_support"),
    "support.enumerate_support": ("support", "enumerate_support"),
    "support.injectivity_report": ("support", "injectivity_report"),
    "liesuper.preset": ("liesuper", "preset"),
    "liesuper.check_relations": ("liesuper", "check_relations"),
    "liesuper.check_triangle": ("liesuper", "check_triangle"),
    "liesuper.calibrate": ("liesuper", "calibrate"),
    "cli.run": ("cli", "run"),
}

COUNTERS = (
    "algebra.terms_out",
    "support.points_scanned",
    "support.members",
    "liesuper.relations_checked",
    "cli.exit_0",
    "cli.exit_1",
    "cli.exit_2",
)

_ALGEBRA_RESULTS = ("algebra.word_element", "algebra.mul", "algebra.star")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.names = ["op", *TARGETS]
        self.stats = {name: [0, 0] for name in TARGETS}  # calls, self ns
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.cache_hits = 0
        self.cache_lookups = 0
        self.ops = 0
        self.keep_spans = True
        self._stack: list[list] = []
        self._next_id = 0
        self._active = False
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        stat = self.stats[name]
        name_idx = self.names.index(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if self.keep_spans:
                    spans.append((sid, name_idx, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def run_op(self, fn):
        """Run one timed op as a root span; library spans nest under it."""
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0])
        self._active = True
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self._active = False
            self._stack.pop()
            if self.keep_spans:
                self.spans.append((sid, 0, start, end, -1))
            self.ops += 1

    # -- counters ----------------------------------------------------------

    def _count_terms(self, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            self.counts["algebra.terms_out"] += len(terms)

    def _count_support(self, result):
        self.counts["support.points_scanned"] += 1
        if result is not None:
            self.counts["support.members"] += 1

    def _count_relations(self, result):
        self.counts["liesuper.relations_checked"] += len(result.results)

    def _count_exit(self, code):
        key = f"cli.exit_{code}"
        if key in self.counts:
            self.counts[key] += 1

    def read_cache(self):
        """Add the product cache's statistics for the op that just ran."""
        cached = getattr(self.package.algebra, "_mono_mul_terms", None)
        if cached is not None and hasattr(cached, "cache_info"):
            info = cached.cache_info()
            self.cache_hits += info.hits
            self.cache_lookups += info.hits + info.misses

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "support.is_in_support": self._count_support,
            "liesuper.check_relations": self._count_relations,
            "cli.run": self._count_exit,
        }
        for name in _ALGEBRA_RESULTS:
            hooks[name] = self._count_terms
        pkg = self.package.__name__
        modules = [
            mod for key, mod in sys.modules.items()
            if key == pkg or key.startswith(pkg + ".")
        ]
        for name, target in TARGETS.items():
            owner = getattr(self.package, target[0])
            if len(target) == 3:
                owner = getattr(owner, target[1])
            attr = target[-1]
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hooks.get(name))
            if len(target) == 3:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round totals for every layer metric, keyed by metric name."""
        out = {}
        for name, (calls, self_ns) in self.stats.items():
            out[f"{name}.calls"] = (calls / rounds, "count")
            out[f"{name}.self_s"] = (self_ns / 1e9 / rounds, "s")
        for name, value in self.counts.items():
            out[name] = (value / rounds, "count")
        out["algebra.cache_hit_ratio"] = (
            _ratio(self.cache_hits, self.cache_lookups), "ratio")
        out["datum.validations_per_op"] = (
            _ratio(self.stats["datum.validate_gamma"][0], self.ops), "ratio")
        out["support.member_ratio"] = (
            _ratio(self.counts["support.members"], self.counts["support.points_scanned"]),
            "ratio")
        return out

    def write_spans(self, path, header: dict):
        """Write every span as one JSON line: [id, name, start_ns, end_ns, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "fields": ["id", "name", "start_ns", "end_ns", "parent"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
