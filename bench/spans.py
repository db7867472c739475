"""In-process tracing of the calls into each griesmer module.

The tracer swaps module-level names for timing wrappers, so every span
comes from the benchmark's own code around a call into a layer, and the
package itself is untouched.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# (module, attribute) pairs to wrap; the span name is "<module tail>.<attribute>"
TRACED = (
    ("griesmer.cli", "verify_all"),
    ("griesmer.cli", "full_search"),
    ("griesmer.theorems", "verify"),
    ("griesmer.theorems", "witness_set_for"),
    ("griesmer.theorems", "tail_search"),
    ("griesmer.theorems", "full_search"),
    ("griesmer.theorems", "griesmer_sum"),
    ("griesmer.search", "min_distance"),
    ("griesmer.search", "is_systematic"),
)
SEARCHES = ("cli.full_search", "theorems.tail_search", "theorems.full_search")
RECHECKS = ("search.min_distance", "search.is_systematic")

PER_LAYER_UNITS = {
    "theorems.cases": "count",
    "theorems.build_s": "s",
    "theorems.verify_self_s": "s",
    "theorems.searches_per_case": "ratio",
    "bounds.calls": "count",
    "bounds.s": "s",
    "search.calls": "count",
    "search.nodes": "count",
    "search.self_s": "s",
    "search.nodes_per_s": "1/s",
    "search.aborted": "count",
    "search.feasible": "count",
    "search.zero_node_calls": "count",
    "search.zero_node_s": "s",
    "search.pairs": "count",
    "core.recheck_calls": "count",
    "core.recheck_s": "s",
    "core.recheck_words": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
}


@dataclass
class Span:
    """One call into a layer; parent indexes the enclosing span in the tracer's list."""

    name: str
    pass_id: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _attrs(name: str, args: tuple, result: Any) -> dict:
    """Counts read at the layer boundary: search work, re-checked words."""
    if name in SEARCHES:
        target = args[0]
        # a tail search gets a WitnessSet, a full search CodeParams (all q**k prefixes)
        r = len(target.prefixes) if hasattr(target, "prefixes") else target.q**target.k
        return {
            "nodes": result.nodes_explored,
            "feasible": result.feasible,
            "exhausted": result.exhausted,
            "pairs": r * (r - 1) // 2,
        }
    if name in RECHECKS:
        return {"words": len(args[0])}
    return {}


class Tracer:
    """Collects spans in memory; pass_id tags the spans of the current traced pass."""

    def __init__(self, modules: dict[str, Any]) -> None:
        self.modules = modules
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self.stack[-1] if self.stack else None
        rec = Span(name, self.pass_id, parent, time.perf_counter())
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec.attrs = _attrs(name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Replace every TRACED name with its wrapper, restoring them on exit."""
        saved = []
        try:
            for mod_name, attr in TRACED:
                mod = self.modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{mod_name.split('.')[-1]}.{attr}", fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def layer_metrics(spans: list[Span], pass_id: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; trace.overhead is added by the caller.

    A span's self time is its duration minus the time its child spans
    cover (children of one span never overlap: the calls are nested).
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    dur: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    searches, rechecks, nested_searches = [], [], 0
    for s, c in zip(spans, child_s):
        if s.pass_id != pass_id:
            continue
        dur.setdefault(s.name, []).append(s.end - s.start)
        own.setdefault(s.name, []).append(s.end - s.start - c)
        if s.name in SEARCHES:
            searches.append((s, s.end - s.start - c))
            if s.parent is not None and spans[s.parent].name == "theorems.verify":
                nested_searches += 1
        elif s.name in RECHECKS:
            rechecks.append(s)
    cases = len(dur.get("theorems.verify", []))
    # a search that raised has no attrs; its pass is failed by the checker
    nodes = [s.attrs.get("nodes", 0) for s, _ in searches]
    working = [(n, t) for n, (_, t) in zip(nodes, searches) if n > 0]
    working_s = sum(t for _, t in working)
    zero = [s for n, (s, _) in zip(nodes, searches) if n == 0]
    return {
        "theorems.cases": cases,
        "theorems.build_s": sum(dur.get("theorems.witness_set_for", [])),
        "theorems.verify_self_s": sum(own.get("theorems.verify", [])),
        "theorems.searches_per_case": nested_searches / cases if cases else 0.0,
        "bounds.calls": len(dur.get("theorems.griesmer_sum", [])),
        "bounds.s": sum(dur.get("theorems.griesmer_sum", [])),
        "search.calls": len(searches),
        "search.nodes": sum(nodes),
        "search.self_s": sum(t for _, t in searches),
        "search.nodes_per_s": sum(n for n, _ in working) / working_s if working_s else 0.0,
        "search.aborted": sum(s.attrs.get("exhausted") is False for s, _ in searches),
        "search.feasible": sum(s.attrs.get("feasible") is True for s, _ in searches),
        "search.zero_node_calls": len(zero),
        "search.zero_node_s": sum(s.end - s.start for s in zero),
        "search.pairs": sum(s.attrs.get("pairs", 0) for s, _ in searches),
        "core.recheck_calls": len(rechecks),
        "core.recheck_s": sum(s.end - s.start for s in rechecks),
        "core.recheck_words": sum(s.attrs.get("words", 0) for s in rechecks),
        "cli.self_s": sum(own.get("cli.main", [])),
        "cli.output_bytes": output_bytes,
    }
