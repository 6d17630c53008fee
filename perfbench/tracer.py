"""Per-layer tracing of recpoly, installed from outside the library.

:func:`install` replaces each public function listed in ``SPANS`` with a
wrapper that records a span (name, start, end, parent) and the counts the
per-layer metrics need.  Methods are wrapped on their class; module-level
functions are rebound in every ``recpoly`` module that holds them, because
``from .x import f`` copies the binding.  Spans stay in memory; the caller
aggregates them per pass, keeps the first pass's spans and writes those once,
at the end, so memory stays bounded however long the run.

Only the traced run installs the wrappers; timed runs never import this
module.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# (recpoly module, attribute, layer).  Several functions may share a layer;
# a layer's self time is summed over all of its spans.
SPANS = (
    ("ring", "MultiPoly.__mul__", "ring.mul"),
    ("ring", "MultiPoly.__rmul__", "ring.mul"),
    ("ring", "MultiPoly.__add__", "ring.add"),
    ("ring", "MultiPoly.__radd__", "ring.add"),
    ("ring", "MultiPoly.canonical", "ring.canonical"),
    ("ring", "QuadExtElem.__mul__", "ring.quadext.mul"),
    ("ring", "QuadExtElem.__rmul__", "ring.quadext.mul"),
    ("ring", "QuadExtElem.__pow__", "ring.quadext.pow"),
    ("ring", "QuadExtElem.__add__", "ring.quadext.add"),
    ("ring", "QuadExtElem.__sub__", "ring.quadext.add"),
    ("ring", "QuadExtElem.conjugate", "ring.quadext.conjugate"),
    ("recurrence", "iterate_terms", "recurrence.iterate"),
    ("recurrence", "companion_power_term", "recurrence.companion"),
    ("closedform", "multinomial_term", "closedform.multinomial"),
    ("closedform", "generalized_lucas_closed_form", "closedform.multinomial"),
    ("closedform", "hessenberg_det_symbolic", "closedform.determinant"),
    ("closedform", "hessenberg_det", "closedform.determinant"),
    ("closedform", "hessenberg_matrix", "closedform.determinant"),
    ("closedform", "hessenberg_det_numeric_oracle", "closedform.bareiss"),
    ("closedform", "bareiss_det", "closedform.bareiss"),
    ("families", "check_identity", "families.check"),
    ("binet", "char_roots", "binet.roots"),
    ("binet", "binet_distinct", "binet.sum"),
    ("binet", "binet_multiple", "binet.sum"),
    ("binet", "binet_single", "binet.sum"),
    ("parse", "parse_poly", "parse"),
    ("parse", "parse_expr", "parse"),
    ("parse", "ast_to_poly", "parse"),
    ("specfile", "load_spec", "specfile.load"),
    ("specfile", "spec_from_mapping", "specfile.load"),
    ("specfile", "family_spec", "specfile.load"),
)

# Generators whose items are counted (outermost call only: binet.compositions
# recurses through its own module binding).
COUNTED = (
    ("closedform", "weighted_compositions", "closedform.compositions"),
    ("binet", "compositions", "binet.compositions"),
)


def _spec_key(spec) -> tuple:
    return (spec.variables,
            tuple(frozenset(p.terms.items()) for p in (*spec.coeffs, *spec.initial)))


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.codes: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.peak_terms = 0
        self._gen_depth: Counter = Counter()
        self._pass_start = 0
        self._sequences: dict[tuple, int] = {}
        # Totals over completed passes.
        self.passes = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()

    # -- wrappers ----------------------------------------------------------------

    def _code(self, layer: str) -> int:
        if layer not in self.codes:
            self.codes[layer] = len(self.layers)
            self.layers.append(layer)
        return self.codes[layer]

    def wrap(self, layer: str, fn: Callable, observe: Callable | None = None) -> Callable:
        code = self._code(layer)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(name)
            name.append(code)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count_items(self, counter: str, fn: Callable) -> Callable:
        counts, depth = self.counts, self._gen_depth

        def counted(*args, **kwargs):
            outer = depth[counter] == 0
            depth[counter] += 1
            try:
                for item in fn(*args, **kwargs):
                    if outer:
                        counts[counter] += 1
                    yield item
            finally:
                depth[counter] -= 1

        return counted

    # -- observers -----------------------------------------------------------------

    def _observe_mul(self, args, result) -> None:
        a, b = args
        pairs = len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
        self.counts["ring.mul.pairs"] += pairs
        if hasattr(result, "terms"):
            size = len(result.terms)
            self.counts["ring.mul.result_terms"] += size
            if size > self.peak_terms:
                self.peak_terms = size

    def _observe_add(self, args, result) -> None:
        if hasattr(result, "terms") and len(result.terms) > self.peak_terms:
            self.peak_terms = len(result.terms)

    def _observe_canonical(self, args, result) -> None:
        self.counts["ring.canonical.chars"] += len(result)

    def _observe_iterate(self, args, result) -> None:
        self.counts["recurrence.iterate.terms"] += len(result)
        check = self.codes.get("families.check")
        if not any(self.name[i] == check for i in self.stack[1:]):
            return
        # Sequence terms the catalog asks for, and the distinct ones it uses.
        key = _spec_key(args[0])
        self.counts["families.iterated"] += len(result)
        self._sequences[key] = max(self._sequences.get(key, 0), len(result))

    OBSERVERS = {
        "ring.mul": "_observe_mul",
        "ring.add": "_observe_add",
        "ring.canonical": "_observe_canonical",
        "recurrence.iterate": "_observe_iterate",
    }

    # -- passes --------------------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.name)
        self._sequences = {}

    def end_pass(self) -> None:
        """Fold this pass's spans into per-layer self time and call counts."""
        lo, hi = self._pass_start, len(self.name)
        child = [0] * (hi - lo)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(hi - 1, lo - 1, -1):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        for i in range(lo, hi):
            layer = self.layers[name[i]]
            self.self_ns[layer] += end[i] - start[i] - child[i - lo]
            self.calls[layer] += 1
        self.counts["families.distinct"] += sum(self._sequences.values())
        self.passes += 1
        if self.passes > 1:
            for column in (name, parent, start, end):
                del column[lo:]

    def write(self, path: str) -> None:
        """Write the kept spans, once, as gzip-compressed JSON columns."""
        with gzip.open(path, "wt") as out:
            json.dump({"layers": self.layers, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
                       "end_ns": self.end.tolist()}, out)

    def summary(self) -> dict:
        """Per-pass totals of every layer, for merging across processes."""
        return {"passes": self.passes, "self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts), "peak_terms": self.peak_terms}


def install(tracer: Tracer) -> None:
    """Wrap every entry of SPANS and COUNTED in the imported recpoly modules."""
    modules = [m for n, m in list(sys.modules.items()) if n == "recpoly" or n.startswith("recpoly.")]

    def rebind(original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    for module_name, attr, layer in SPANS:
        module = importlib.import_module(f"recpoly.{module_name}")
        observe = getattr(tracer, Tracer.OBSERVERS[layer]) if layer in Tracer.OBSERVERS else None
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(layer, cls.__dict__[method], observe))
        else:
            original = getattr(module, attr)
            rebind(original, tracer.wrap(layer, original, observe))
    for module_name, attr, counter in COUNTED:
        original = getattr(importlib.import_module(f"recpoly.{module_name}"), attr)
        rebind(original, tracer.count_items(counter, original))


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several processes (one per CLI command)."""
    total = {"passes": 0, "self_ns": Counter(), "calls": Counter(), "counts": Counter(),
             "peak_terms": 0}
    for s in summaries:
        total["passes"] += s["passes"]
        for key in ("self_ns", "calls", "counts"):
            total[key].update(s[key])
        total["peak_terms"] = max(total["peak_terms"], s["peak_terms"])
    return total


def layer_metrics(summary: dict, passes: int) -> dict[str, float]:
    """The per-layer metrics, per pass over the workload's operation list."""
    self_ns, calls, counts = summary["self_ns"], summary["calls"], summary["counts"]

    def self_ms(*layers: str) -> float:
        return sum(self_ns.get(layer, 0) for layer in layers) / 1e6 / passes

    def per_pass(value: float) -> float:
        return value / passes

    pairs = counts.get("ring.mul.pairs", 0)
    result_terms = counts.get("ring.mul.result_terms", 0)
    iterated = counts.get("families.iterated", 0)
    return {
        "ring.mul.calls": per_pass(calls.get("ring.mul", 0)),
        "ring.mul.pairs": per_pass(pairs),
        "ring.mul.self_ms": self_ms("ring.mul"),
        "ring.mul.pairs_per_term": pairs / result_terms if result_terms else 0.0,
        "ring.add.calls": per_pass(calls.get("ring.add", 0)),
        "ring.add.self_ms": self_ms("ring.add"),
        "ring.peak_terms": summary["peak_terms"],
        "ring.quadext.mul.calls": per_pass(calls.get("ring.quadext.mul", 0)),
        "ring.quadext.self_ms": self_ms("ring.quadext.mul", "ring.quadext.pow",
                                        "ring.quadext.add", "ring.quadext.conjugate"),
        "ring.canonical.self_ms": self_ms("ring.canonical"),
        "ring.canonical.chars": per_pass(counts.get("ring.canonical.chars", 0)),
        "recurrence.iterate.calls": per_pass(calls.get("recurrence.iterate", 0)),
        "recurrence.iterate.terms": per_pass(counts.get("recurrence.iterate.terms", 0)),
        "recurrence.iterate.self_ms": self_ms("recurrence.iterate"),
        "recurrence.companion.self_ms": self_ms("recurrence.companion"),
        "closedform.multinomial.self_ms": self_ms("closedform.multinomial"),
        "closedform.compositions": per_pass(counts.get("closedform.compositions", 0)),
        "closedform.determinant.self_ms": self_ms("closedform.determinant"),
        "closedform.bareiss.self_ms": self_ms("closedform.bareiss"),
        "families.check.self_ms": self_ms("families.check"),
        "families.seq_reuse": counts.get("families.distinct", 0) / iterated if iterated else 0.0,
        "binet.roots.calls": per_pass(calls.get("binet.roots", 0)),
        "binet.roots.self_ms": self_ms("binet.roots"),
        "binet.sum.self_ms": self_ms("binet.sum"),
        "binet.compositions": per_pass(counts.get("binet.compositions", 0)),
        "parse.self_ms": self_ms("parse"),
        "specfile.load.self_ms": self_ms("specfile.load"),
    }
