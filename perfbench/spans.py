"""Span tracing of the momentous layers, installed from outside the package.

Each target is a module attribute at the name its caller looks it up by:
``cli.integrate`` is what ``cmd_simulate`` calls, ``diagnostics.xy_view``
is what ``audit`` and ``energy_report`` call. Patching those attributes
gives every call a span (name, start, end, parent span, op id) without an
edit under ``src/``, and nested calls get their parents: ``audit`` ->
``energy_report`` -> ``xy_view``.

``model`` has no span of its own: its cost (``Trajectory`` construction,
frame transforms) falls inside its callers' spans. ``algebra`` has none
because no workload reaches it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _integrate_counts(bound, result) -> dict:
    return {"steps": bound["cfg"].n_steps, "samples": len(result.ts)}


def _file_bytes(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound["path"])}


# (module, attribute) -> (span name, counts taken from arguments and result)
TARGETS = {
    ("cli", "main"): ("cli.main", None),
    ("cli", "build_sbth"): ("systems.build", None),
    ("cli", "build_lindblad"): ("systems.build", None),
    ("cli", "integrate"): ("integrator.integrate", _integrate_counts),
    ("cli", "trajectory_columns"): ("diagnostics.trajectory_columns", None),
    ("cli", "audit"): ("diagnostics.audit", None),
    ("cli", "compare"): ("diagnostics.compare", None),
    ("cli", "write_csv"): ("csvio.write_csv", _file_bytes),
    ("cli", "read_csv"): ("csvio.read_csv", _file_bytes),
    ("cli", "trajectory_from_columns"): ("csvio.trajectory_from_columns", None),
    ("diagnostics", "trajectory_columns"): ("diagnostics.trajectory_columns", None),
    ("diagnostics", "energy_report"): ("diagnostics.energy_report", None),
    ("diagnostics", "xy_view"): ("systems.xy_view", None),
}

SPAN_NAMES = sorted({name for name, _ in TARGETS.values()})


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        """Duration minus the time the child spans cover."""
        return self.end - self.start - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
            "start": self.start, "end": self.end, **self.counts,
        }


class Tracer:
    """Holds every span of a run in memory; ``op`` tags the current CLI call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.missing: set[str] = set()
        self._stack: list[Span] = []

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None, self.op, name,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for (module_name, attr), (name, counter) in TARGETS.items():
                module = importlib.import_module(f"momentous.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def layer_totals(spans) -> dict:
    """Per span name: summed self time, call count and summed counts."""
    totals = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    for span in spans:
        entry = totals[span.name]
        entry["self_s"] += span.self_s
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals
