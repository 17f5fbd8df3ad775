"""In-memory span tracer that times calls into the engine's layers.

The tracer wraps public functions of ``repro`` modules at the place the
caller looks them up, records one span per call (name, start, end,
parent) and restores every original function when it is uninstalled,
so an untraced run measures the unmodified program.  Nothing under
``src/`` knows about it.

A function imported with ``from module import name`` is a separate
binding in the importing module, so it is patched there; a function
looked up through its module at call time (``parser.parse``, or a
function-local import) is patched on its defining module.  All binding
sites live in :data:`BINDINGS`.

Lazy decode generators are timed per ``next()`` call: the decode work
happens while a consumer pulls batches, not when the generator is made.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

#: (module, attribute, span name, kind).  ``kind`` is ``"call"`` for a
#: function timed around its call, ``"gen"`` for a function returning a
#: lazy iterator whose ``next()`` calls are timed.
BINDINGS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.engine.catalog", "load_table", "engine.catalog.load_table", "call"),
    ("repro.engine.catalog", "encode_table", "storage.encode_table", "call"),
    ("repro.optimizer.stats", "collect_table_stats", "optimizer.stats", "call"),
    ("repro.optimizer.stats", "collect_zone_map", "optimizer.stats", "call"),
    ("repro.planner.planner", "parse", "sqlparser.client_parse", "call"),
    ("repro.planner.subquery", "prepare_query", "planner.prepare", "call"),
    ("repro.planner.planner", "build_plan", "planner.build", "call"),
    ("repro.planner.planner", "execute_plan", "planner.execute", "call"),
    ("repro.cloud.client", "execute_select", "s3select.select", "call"),
    ("repro.sqlparser.parser", "parse", "sqlparser.parse", "call"),
    ("repro.strategies.scans", "decode_table", "storage.get_decode", "call"),
    ("repro.strategies.scans", "iter_decode_column_batches",
     "storage.get_decode", "gen"),
    ("repro.s3select.engine", "iter_decode_column_batches",
     "storage.select_decode", "gen"),
)

#: The paper's Bloom probe ships as ``SUBSTRING('<bits>', h(key), 1)``.
BLOOM_MARKER = "SUBSTRING("


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    window: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    """Split S3 Select requests by whether their SQL carries a Bloom probe."""
    if name == "s3select.select":
        sql = args[1] if len(args) > 1 else kwargs.get("sql", "")
        if BLOOM_MARKER in sql.upper():
            return "s3select.bloom_select"
    return name


def _call_counts(name: str, result) -> dict:
    """Counts taken where the work happens, from a call's return value."""
    if name.startswith("s3select."):
        return {"rows_scanned": result.rows_scanned, "rows_returned": len(result.rows)}
    if name == "storage.get_decode":
        return {"rows_decoded": len(result)}
    if name == "planner.execute":
        local = sum(
            record["self_seconds"] or 0.0
            for record in result.details.get("operator_times", ())
            if not record["node"].startswith(("scan ", "pushed-aggregate"))
        )
        return {"operators_self_s": local}
    return {}


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores originals."""

    def __init__(self):
        self.spans: list[Span] = []
        #: Windows opened while installed, per label (set-ups, passes).
        self.window_counts: dict[str, int] = defaultdict(int)
        self._window = "setup"
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- install / restore ----------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, kind in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            self._originals.append((module, attr, original))
            setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def mark(self) -> tuple[int, dict]:
        """A point to :meth:`rewind` to."""
        return len(self.spans), dict(self.window_counts)

    def rewind(self, mark: tuple[int, dict]) -> None:
        """Forget the spans and windows recorded since ``mark``."""
        count, windows = mark
        del self.spans[count:]
        self.window_counts = defaultdict(int, windows)

    # -- windows -----------------------------------------------------------

    def window(self, label: str) -> "_Window":
        """Label the spans recorded inside the ``with`` block."""
        return _Window(self, label)

    # -- span recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._window))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        if counts:
            span.counts = counts
        self._stack.pop()

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(_span_name(name, args, kwargs))
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = _call_counts(name, result)
                return result
            finally:
                tracer._close(index, counts)

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return _TimedIterator(tracer, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced


class _Window:
    def __init__(self, tracer: Tracer, label: str):
        self.tracer = tracer
        self.label = label

    def __enter__(self) -> None:
        self.previous = self.tracer._window
        self.tracer._window = self.label
        if self.tracer.installed:
            self.tracer.window_counts[self.label] += 1

    def __exit__(self, *exc) -> None:
        self.tracer._window = self.previous


class _TimedIterator:
    """Times each ``next()`` of a lazy decode and counts the rows it yields."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self.tracer = tracer
        self.name = name
        self.inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        if not self.tracer.installed:
            return next(self.inner)
        index = self.tracer._open(self.name)
        counts = None
        try:
            batch = next(self.inner)
            counts = {"rows_decoded": len(batch)}
            return batch
        finally:
            self.tracer._close(index, counts)


# -- analysis ------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i].start):
            start = max(spans[child].start, reach, span.start)
            end = min(spans[child].end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def span_totals(spans: list[Span], windows: tuple[str, ...]) -> dict[str, dict]:
    """Per window: per span name, self seconds, inclusive seconds, calls
    and summed counts; plus server-side parse split out by its parent."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {
        w: defaultdict(lambda: defaultdict(float)) for w in windows
    }
    for span, self_s in zip(spans, selfs):
        if span.window not in totals:
            continue
        name = span.name
        if name == "sqlparser.parse":
            parent = spans[span.parent].name if span.parent >= 0 else ""
            name = (
                "sqlparser.server_parse" if parent.startswith("s3select.")
                else "sqlparser.other_parse"
            )
        entry = totals[span.window][name]
        entry["self_s"] += self_s
        entry["inclusive_s"] += span.duration
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] += value
    return totals


def dump_spans(spans: list[Span]) -> list[list]:
    """Compact rows ``[name, start, end, parent, window]`` for a JSON dump."""
    return [[s.name, s.start, s.end, s.parent, s.window] for s in spans]
