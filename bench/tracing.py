"""Span tracing for the traced benchmark passes.

install() wraps the layer entry points at runtime by rebinding the module
attributes that callers look up, plus Graph.automorphisms and the
IntPolynomial operators.  The package itself is not edited, and untraced
passes never call install().  Each wrapper records a span (name, start, end,
parent span, op id) in memory; hot inner calls (isomorphism tests,
canonicalisation, polynomial arithmetic) are only counted, to keep the
overhead small.  Spans and counts are recorded only while an op is open, so
input generation and the oracle checks stay out of the trace.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

SEARCH = "extremal.search"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()
        self.memo_peak = 0
        self.searched: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.open("op")

    def end_op(self) -> None:
        self.close(self.stack[-1])
        self.op = None

    def add_memo(self, stats: dict) -> None:
        self.counts["memo_hits"] += stats["hits"]
        self.counts["memo_misses"] += stats["misses"]
        self.memo_peak = max(self.memo_peak, stats["peak_entries"])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict:
        selfs = self_times(self.spans)
        seconds = Counter()
        for (name, *_), own, kids in zip(self.spans, selfs, children_names(self.spans)):
            if name == "extremal.store":
                name = "extremal.store_write" if SEARCH in kids else "extremal.store_read"
            seconds[name] += own
        c = self.counts
        searches = c["searches"]
        return {
            "graphs.catalog_s": seconds["graphs.catalog"],
            "graphs.catalog_graphs": c["catalog_graphs"],
            "graphs.iso_tests": c["iso_tests"],
            "graphs.automorphisms_s": seconds["graphs.automorphisms"],
            "graphs.aut_order_sum": c["aut_order_sum"],
            "restraints.enumerate_s": seconds["restraints.enumerate"],
            "restraints.classes": c["classes"],
            "restraints.canonicalize_calls": c["canonicalize_calls"],
            "restraints.class_yield": c["classes"] / c["canonicalize_calls"] if c["canonicalize_calls"] else 0.0,
            "engine.poly_s": seconds["engine.poly"],
            "engine.poly_calls": c["poly_calls"],
            "engine.memo_hits": c["memo_hits"],
            "engine.memo_misses": c["memo_misses"],
            "engine.memo_hit_ratio": c["memo_hits"] / (c["memo_hits"] + c["memo_misses"]) if c["memo_misses"] else 0.0,
            "engine.memo_peak_entries": self.memo_peak,
            "polynomials.mul_calls": c["mul_calls"],
            "polynomials.sub_calls": c["sub_calls"],
            "extremal.searches": searches,
            "extremal.searches_per_graph": searches / len(self.searched) if self.searched else 0.0,
            "extremal.self_s": seconds[SEARCH],
            "extremal.store_write_s": seconds["extremal.store_write"],
            "extremal.store_read_s": seconds["extremal.store_read"],
        }


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            kids.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(kids.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def children_names(spans) -> list[set]:
    names: list[set] = [set() for _ in spans]
    for span in spans:
        if span[3] is not None:
            names[span[3]].add(span[0])
    return names


def install() -> Tracer:
    """Wrap the layer entry points of the imported package; returns the tracer."""
    from restchroma import engine, extremal, graphs, polynomials, restraints

    t = Tracer()

    def spanned(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.op is None:
                return fn(*args, **kwargs)
            idx = t.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                t.close(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.op is not None:
                t.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def with_memo(fn):
        """Pass a MemoCache through the public cache= argument when the caller
        left it to a private one, and read its stats afterwards."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.op is None or kwargs.get("cache") is not None:
                return fn(*args, **kwargs)
            memo = kwargs["cache"] = engine.MemoCache()
            result = fn(*args, **kwargs)
            t.add_memo(memo.stats())
            return result
        return wrapper

    def count(key, amount):
        t.counts[key] += amount

    def on_search(report):
        count("searches", 1)
        t.searched.add((report.graph_id, report.k))

    def on_catalog(graphs_list):
        count("catalog_graphs", len(graphs_list))

    poly = with_memo(spanned("engine.poly", counted("poly_calls", engine.restrained_poly)))
    engine.restrained_poly = poly
    extremal.restrained_poly = poly
    extremal.find_extremal = with_memo(spanned(SEARCH, extremal.find_extremal, on_search))
    extremal.load_or_compute_extremal = spanned("extremal.store", extremal.load_or_compute_extremal)
    extremal.enumerate_k_restraints = spanned(
        "restraints.enumerate", extremal.enumerate_k_restraints, lambda cs: count("classes", len(cs)))
    restraints.canonicalize = counted("canonicalize_calls", restraints.canonicalize)
    graphs.connected_catalog = spanned("graphs.catalog", graphs.connected_catalog, on_catalog)
    extremal.connected_bipartite_catalog = spanned(
        "graphs.catalog", extremal.connected_bipartite_catalog, on_catalog)
    graphs.is_isomorphic = counted("iso_tests", graphs.is_isomorphic)
    graphs.Graph.automorphisms = spanned(
        "graphs.automorphisms", graphs.Graph.automorphisms, lambda autos: count("aut_order_sum", len(autos)))
    polynomials.IntPolynomial.__mul__ = counted("mul_calls", polynomials.IntPolynomial.__mul__)
    polynomials.IntPolynomial.__sub__ = counted("sub_calls", polynomials.IntPolynomial.__sub__)
    return t
