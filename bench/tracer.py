"""Spans and counters recorded from outside the library.

The tracer rebinds public functions in every ``aperiodic`` module namespace
that holds them: ``from .semigroups import closure`` copies the function into
the importing module, so patching only the defining module would miss most
calls.  Module-entry calls get a span (name, start, end, parent, job); the
leaves called 10^5 to 10^6 times per pass get aggregate counters instead.
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


def _closure_extra(s):
    # translates are computed, not counted: the BFS translates every stored
    # element once per generator
    return {"elements": len(s), "translates": len(s) * len(s.generators)}


def _search_extra(result):
    return {"products": result.products_used, "best_size": result.size}


def _reverse_extra(result):
    return {"states": result[0].n}


# span name -> (defining module, attribute, measure(result) or None)
SPANS = {
    "semigroups.closure": ("aperiodic.semigroups", "closure", _closure_extra),
    "semigroups.is_aperiodic": ("aperiodic.semigroups", "is_aperiodic", None),
    "semigroups.is_transition_complete":
        ("aperiodic.semigroups", "is_transition_complete", None),
    "automata.reverse_determinize":
        ("aperiodic.automata", "reverse_determinize", _reverse_extra),
    "automata.minimize": ("aperiodic.automata", "minimize", None),
    "automata.product_dfa": ("aperiodic.automata", "product_dfa", None),
    "automata.is_minimal": ("aperiodic.automata", "is_minimal", None),
    "families.build_family": ("aperiodic.families", "build_family", None),
    "search.max_aperiodic": ("aperiodic.search", "max_aperiodic", _search_extra),
    "experiments.random_aperiodic_dfa":
        ("aperiodic.experiments", "random_aperiodic_dfa", None),
    "experiments.reversal_experiment":
        ("aperiodic.experiments", "reversal_experiment", None),
    "experiments.family_products": ("aperiodic.experiments", "family_products", None),
    "optimizer.max_unitary": ("aperiodic.optimizer", "max_unitary", None),
    "optimizer.max_sctree": ("aperiodic.optimizer", "max_sctree", None),
}

# classmethods are patched once, on the class
CLASS_SPANS = {
    "optimizer.UiDpTable.compute": ("aperiodic.optimizer", "UiDpTable", "compute"),
    "optimizer.SctiDpTable.compute": ("aperiodic.optimizer", "SctiDpTable", "compute"),
}

# counter name -> (defining module, attribute); extend_closure also counts
# the calls that returned a closure (not None)
COUNTERS = {
    "transforms.has_cycle_images": ("aperiodic.transforms", "has_cycle_images"),
    "combinatorics.bipath_k_partial": ("aperiodic.combinatorics", "bipath_k_partial"),
    "semigroups.extend_closure": ("aperiodic.semigroups", "extend_closure"),
}


# Layer counts that must repeat exactly across the traced passes of one seed.
# has_cycle_images.calls is left out: extend_closure stops at the first cycle
# while iterating a set of bytes, so its visits depend on the hash seed.
EXACT_COUNTS = (
    "semigroups.closure.calls",
    "semigroups.closure.elements",
    "semigroups.closure.translates",
    "semigroups.is_aperiodic.calls",
    "semigroups.extend_closure.calls",
    "combinatorics.bipath_k_partial.calls",
    "families.build_family.calls",
    "search.products",
    "search.best_size",
    "automata.reverse_determinize.calls",
    "automata.reverse_determinize.states",
    "experiments.random_aperiodic_dfa.calls",
)


class Tracer:
    """Install with ``install()``, run jobs under ``job(name)``, then ``uninstall()``."""

    def __init__(self):
        self.spans: list[dict] = []
        # name -> [calls, seconds, calls that returned something other than None]
        self.counters: dict[str, list] = {name: [0, 0.0, 0] for name in COUNTERS}
        self.patched: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._job: str | None = None
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": None, "parent": self._stack[-1] if self._stack else None,
                  "job": self._job}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    @contextmanager
    def job(self, name: str):
        self._job = name
        try:
            with self.span("job"):
                yield
        finally:
            self._job = None

    def _span_wrapper(self, name, fn, measure):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record.update(measure(result))
                return result
        return traced

    def _counter_wrapper(self, name, fn):
        cell = self.counters[name]
        clock = time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            cell[1] += clock() - t0
            cell[0] += 1
            if result is not None:
                cell[2] += 1
            return result
        return counted

    def _rebind_everywhere(self, name, module_name, attr, make_wrapper):
        target = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(target)
        namespaces = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "aperiodic" and not mod_name.startswith("aperiodic."):
                continue
            for key, value in list(vars(module).items()):
                if value is target:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, target))
                    namespaces.append(f"{mod_name}.{key}")
        self.patched[name] = namespaces

    def install(self):
        import aperiodic.cli  # noqa: F401  (every module that binds a target)

        for name, (module_name, attr, measure) in SPANS.items():
            self._rebind_everywhere(
                name, module_name, attr,
                lambda fn, name=name, measure=measure: self._span_wrapper(name, fn, measure))
        for name, (module_name, attr) in COUNTERS.items():
            self._rebind_everywhere(
                name, module_name, attr,
                lambda fn, name=name: self._counter_wrapper(name, fn))
        for name, (module_name, cls_name, attr) in CLASS_SPANS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            wrapped = self._span_wrapper(name, original.__func__, None)
            setattr(cls, attr, classmethod(wrapped))
            self._undo.append((cls, attr, original))
            self.patched[name] = [f"{module_name}.{cls_name}.{attr}"]

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see bench/README.md)."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_total(name):
        return sum(own[s["id"]] for s in by_name.get(name, ()))

    def field(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def counter(name):
        return tracer.counters[name]

    def ratio(num, den):
        return num / den if den else 0.0

    sampler_ids = {s["id"] for s in by_name.get("experiments.random_aperiodic_dfa", ())}
    sampler_closures = sum(1 for s in by_name.get("semigroups.closure", ())
                           if s["parent"] in sampler_ids)
    ext_calls, ext_s, ext_ok = counter("semigroups.extend_closure")
    searches = by_name.get("search.max_aperiodic", ())
    return {
        "transforms.has_cycle_images.calls": counter("transforms.has_cycle_images")[0],
        "transforms.has_cycle_images.s": counter("transforms.has_cycle_images")[1],
        "semigroups.closure.calls": calls("semigroups.closure"),
        "semigroups.closure.s": total("semigroups.closure"),
        "semigroups.closure.elements": field("semigroups.closure", "elements"),
        "semigroups.closure.translates": field("semigroups.closure", "translates"),
        "semigroups.is_aperiodic.calls": calls("semigroups.is_aperiodic"),
        "semigroups.is_aperiodic.s": total("semigroups.is_aperiodic"),
        "semigroups.extend_closure.calls": ext_calls,
        "semigroups.extend_closure.s": ext_s,
        "semigroups.extend_closure.accept_ratio": ratio(ext_ok, ext_calls),
        "semigroups.is_transition_complete.s": total("semigroups.is_transition_complete"),
        "combinatorics.bipath_k_partial.calls": counter("combinatorics.bipath_k_partial")[0],
        "combinatorics.bipath_k_partial.s": counter("combinatorics.bipath_k_partial")[1],
        "optimizer.UiDpTable.compute.self_s": self_total("optimizer.UiDpTable.compute"),
        "optimizer.SctiDpTable.compute.self_s": self_total("optimizer.SctiDpTable.compute"),
        "families.build_family.calls": calls("families.build_family"),
        "families.build_family.s": total("families.build_family"),
        "search.max_aperiodic.self_s": self_total("search.max_aperiodic"),
        "search.products": field("search.max_aperiodic", "products"),
        "search.best_size": max((s["best_size"] for s in searches), default=0),
        "automata.reverse_determinize.calls": calls("automata.reverse_determinize"),
        "automata.reverse_determinize.s": total("automata.reverse_determinize"),
        "automata.reverse_determinize.states": field("automata.reverse_determinize", "states"),
        "automata.minimize.s": total("automata.minimize"),
        "automata.product_dfa.s": total("automata.product_dfa"),
        "automata.is_minimal.s": total("automata.is_minimal"),
        "experiments.random_aperiodic_dfa.calls": calls("experiments.random_aperiodic_dfa"),
        "experiments.random_aperiodic_dfa.s": total("experiments.random_aperiodic_dfa"),
        "experiments.sample.accept_ratio":
            ratio(calls("experiments.random_aperiodic_dfa"), sampler_closures),
        "cli.self_s": self_total("cli.main"),
    }
