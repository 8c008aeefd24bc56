"""In-memory spans around the benchmark's calls into the dqra modules.

A span records a name, start and end times, its parent span and the item it
belongs to, plus counts taken from the values the call returned.  With
tracing off, `Tracer.span` hands back one shared no-op span, so the untraced
run pays only a method call per layer boundary.

Some public calls run other public calls inside them (`full_dq_family` runs
`enumerate_upsets` and `algebra_from_upsets`, for example).  The benchmark
cannot see inside them, so the traced run repeats the inner call on its own,
outside the item's timed region, as a *shadow* span whose parent is the outer
span.  A span's self time is its duration minus the durations of its
children, shadows included, so the outer call's self time is the difference.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional


class Span:
    __slots__ = ("tracer", "id", "name", "parent", "item", "start", "end",
                 "counts")

    def __init__(self, tracer: "Tracer", name: str, parent: Optional[int],
                 item: str):
        self.tracer = tracer
        self.id = len(tracer.spans)
        self.name = name
        self.parent = parent
        self.item = item
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def __enter__(self) -> "Span":
        self.tracer.spans.append(self)
        self.tracer.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    def add(self, key: str, value: int) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL = _NullSpan()


class Tracer:
    """Collects spans when enabled; `item` names the item now running."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item = "setup"

    def span(self, name: str, parent: Optional[Span] = None):
        """A span under the innermost open span, or under `parent` (a shadow
        call repeated after its outer span has closed)."""
        if not self.enabled:
            return _NULL
        if parent is not None:
            pid = parent.id
        else:
            pid = self.stack[-1] if self.stack else None
        return Span(self, name, pid, self.item)

    def last(self, name: str) -> Span:
        """The most recent span of this name (the outer span of a shadow)."""
        for s in reversed(self.spans):
            if s.name == name:
                return s
        raise KeyError(name)

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "item": s.item, "start": s.start, "end": s.end,
                    "counts": s.counts}) + "\n")


# Span name -> (per-layer time metric, {span count key: per-layer count}).
# `item` spans wrap each timed item; their self time is the benchmark's own
# glue inside the item and is reported as `bench.item_self_s`.
LAYERS: dict[str, tuple[str, dict[str, str]]] = {
    "relations.enumerate_structures": (
        "relations.structures_s", {"structures": "relations.structures"}),
    "relations.enumerate_upsets": (
        "relations.upsets_s",
        {"upsets": "relations.upsets",
         "candidates": "representation.candidates"}),
    "relations.algebra_from_upsets": (
        "relations.tables_s", {"cells": "relations.table_cells"}),
    "relations.full_dq_family": ("relations.tables_s", {}),
    "relations.kernel": ("relations.kernel_s", {"ops": "relations.kernel_ops"}),
    "relations.dq_closure": (
        "relations.closure_s", {"elements": "relations.closure_elements"}),
    "algebra.lattice": ("algebra.lattice_s", {}),
    "algebra.validate_dqra": ("algebra.validate_s", {"cells": "algebra.cells"}),
    "representation.find_embedding": (
        "representation.search_s",
        {"searches": "representation.searches",
         "nodes": "representation.nodes",
         "found": "representation.found"}),
    "representation.verify_embedding": (
        "representation.verify_s", {"verifies": "representation.verifies"}),
    "representation.quotient": ("representation.quotient_s", {}),
    "contraction.contract": (
        "contraction.contract_s", {"contractions": "contraction.contractions"}),
    "nonfinrep.scan": ("nonfinrep.scan_s", {}),
    "isomorphism.algebras_isomorphic": (
        "isomorphism.iso_s", {"calls": "isomorphism.calls"}),
    "reconstruct.reconstruct_catalogue": ("reconstruct.s", {}),
    "catalogue.load": ("catalogue.load_s", {}),
    "textio.parse": ("textio.parse_s", {"bytes": "textio.bytes"}),
    "textio.emit": ("textio.emit_s", {"bytes": "textio.bytes"}),
    "cli.main": ("cli.main_s", {"calls": "cli.calls"}),
    "item": ("bench.item_self_s", {}),
}

TIME_METRICS = sorted({t for t, _ in LAYERS.values()})
COUNT_METRICS = sorted({c for _, m in LAYERS.values() for c in m.values()})


def layer_metrics(tracer: Tracer, traced_cycles: int) -> dict[str, float]:
    """Self times and counts per layer metric, per traced cycle: the spans
    of the traced cycles are summed and divided by their number, so a
    metric measures the work of one cycle, however many cycles ran.  Spans
    recorded in the worker's set-up, which runs once per process, are
    added once."""
    setup: dict[str, float] = defaultdict(float)
    cycles: dict[str, float] = defaultdict(float)
    for s, own in zip(tracer.spans, tracer.self_times()):
        sums = setup if s.item == "setup" else cycles
        time_metric, count_map = LAYERS[s.name]
        sums[time_metric] += max(own, 0.0)
        for key, metric in count_map.items():
            sums[metric] += s.counts.get(key, 0)
    out = {name: setup[name] + cycles[name] / max(traced_cycles, 1)
           for name in TIME_METRICS + COUNT_METRICS}
    cand = out["representation.candidates"]
    out["representation.nodes_per_upset"] = (
        out["representation.nodes"] / cand if cand else 0.0)
    return out


def self_time_shares(tracer: Tracer) -> dict[str, float]:
    """Share of the traced items' time spent in each layer's own code.

    Shadow spans are excluded from the denominator: it is the summed
    duration of the `item` spans, and each shadow only moves self time from
    its outer span to the inner layer."""
    total = sum(s.duration for s in tracer.spans if s.name == "item")
    shares: dict[str, float] = defaultdict(float)
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s.item == "setup":
            continue
        shares[LAYERS[s.name][0]] += max(own, 0.0)
    return {k: v / total for k, v in sorted(shares.items()) if total}
