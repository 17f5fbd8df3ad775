"""The benchmark's workloads: set-up, one pass, and the sqlite3 oracle.

Engine entry points are looked up through their modules at call time
(``catalog.load_table``, ``planner.plan_and_execute``) so that the
tracer's patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import gc
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from repro.cloud.context import CloudContext
from repro.engine import catalog
from repro.experiments import tpch_suite
from repro.planner import planner
from repro.sqlparser.parser import parse
from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

import dashboard
import refclock

#: Rows per table follow from this (lineitem ~3.1k, orders 750,
#: customer 75); small enough for >=100 executions of the pushdown
#: suite inside one run.
SCALE_FACTOR = 0.0005
#: Semantic-cache budget of dashboard-repeat: about two thirds of the
#: stream's working set (1.2-1.3 MB with an unbounded cache), so that
#: entries get evicted.
DASHBOARD_CACHE_BYTES = 800_000
DASHBOARD_TABLES = ("lineitem", "orders", "customer")


@dataclass
class PassResult:
    """One pass over a workload's operations.

    ``latencies`` and ``busy_s`` are reference seconds (see ``refclock``):
    the time of each query, and of the queries plus reloads.  ``wall_s``
    is the pass's raw wall time, oracle checks included.
    """

    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    wall_s: float = 0.0
    cost_usd: float = 0.0
    modeled_s: float = 0.0
    cloud: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    @property
    def queries(self) -> int:
        return len(self.latencies)


def cloud_counters(ctx: CloudContext, mark: int) -> dict[str, int]:
    """Metered requests and bytes since ``mark``."""
    records = ctx.metrics.records_since(mark)
    return {
        "get_requests": sum(r.kind.value == "get" for r in records),
        "select_requests": sum(r.kind.value == "select" for r in records),
        "bytes_scanned": sum(r.bytes_scanned for r in records),
        "bytes_returned": sum(r.bytes_returned for r in records),
        "bytes_transferred": sum(r.bytes_transferred for r in records),
    }


def _report_failure(label: str, exc: BaseException | None = None) -> None:
    print(f"FAILED {label}", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


class Workload:
    """Common pass loop; subclasses supply the state and the operations."""

    fresh_state_per_pass = False
    warmup_passes = 1

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_times: list[float] = []
        #: Every execution of the run, warm-up included, and those that
        #: raised or returned rows other than sqlite3's.
        self.attempted = 0
        self.failed = 0
        self.ctx: CloudContext | None = None
        self.catalog: catalog.Catalog | None = None
        #: Whether a pass has run on the current engine state.
        self.used = False
        self.clock = refclock.RefClock()

    def _load(self, name: str, rows: list[tuple], schema) -> float:
        """Load one table; returns its reference seconds."""
        scale = self.clock.scale()
        start = perf_counter()
        catalog.load_table(self.ctx, self.catalog, name, rows, schema)
        return (perf_counter() - start) * scale

    def setup(self) -> None:
        """Fresh engine state; records the wall time of its loads."""
        with self.tracer.window("setup"):
            self.ctx = CloudContext(workers=1, cache_bytes=self.cache_bytes)
            self.catalog = catalog.Catalog()
            self.setup_times.append(
                sum(self._load(*table) for table in self.tables())
            )
        self.used = False

    def run_pass(self, label: str) -> PassResult:
        if self.fresh_state_per_pass and self.used:
            self.setup()
        self.used = True
        # Garbage the previous pass left (a discarded session, in
        # dashboard-repeat) is not charged to this one.
        gc.collect()
        with self.tracer.window(label):
            mark = self.ctx.metrics.mark()
            result = PassResult()
            start = perf_counter()
            self.operations(result)
            result.wall_s = perf_counter() - start
            result.cloud = cloud_counters(self.ctx, mark)
            if self.ctx.result_cache is not None:
                result.cache = self.ctx.result_cache.stats.summary()
        return result

    def execute(self, result: PassResult, label: str, sql: str, expected) -> None:
        """One checked execution, timed from SQL text to rows."""
        self.attempted += 1
        scale = self.clock.scale()
        start = perf_counter()
        try:
            execution = planner.plan_and_execute(self.ctx, self.catalog, sql, self.mode)
        except Exception as exc:  # counted as a failed execution, run goes on
            self._record(result, (perf_counter() - start) * scale)
            self.failed += 1
            _report_failure(label, exc)
            return
        self._record(result, (perf_counter() - start) * scale)
        result.cost_usd += execution.cost.total
        result.modeled_s += execution.runtime_seconds
        if not tpch_suite.rows_match(execution.rows, expected):
            self.failed += 1
            _report_failure(f"{label}: rows differ from sqlite3")


    @staticmethod
    def _record(result: PassResult, seconds: float) -> None:
        result.latencies.append(seconds)
        result.busy_s += seconds


class TpchWorkload(Workload):
    """q01-q22 in one mode with the cache off; a pass runs each once.

    Passes share one session, whose feedback store re-plans a few
    queries during the first two passes.
    """

    cache_bytes = 0
    warmup_passes = 2

    def __init__(self, mode: str, seed: int, tracer, scale_factor: float = SCALE_FACTOR):
        super().__init__(tracer)
        self.mode = mode
        gen = TpchGenerator(scale_factor=scale_factor, seed=seed)
        self._tables = [
            (name, gen.table(name), TABLE_SCHEMAS[name]) for name in TABLE_SCHEMAS
        ] + [
            (aux, gen.table(base), tpch_suite.aux_schema(TABLE_SCHEMAS[base], prefix))
            for aux, (base, prefix) in tpch_suite.AUX_TABLES.items()
        ]
        oracle = tpch_suite.load_suite_tables(
            CloudContext(), catalog.Catalog(), scale_factor, seed=seed
        )
        self.queries = []
        for name in tpch_suite.ALL_QUERIES:
            sql = (tpch_suite.QUERY_DIR / f"{name}.sql").read_text()
            expected = oracle.execute(parse(sql).to_sql()).fetchall()
            self.queries.append((name, sql, expected))
        oracle.close()
        self.sizes = {name: len(rows) for name, rows, _ in self._tables}

    def tables(self):
        return self._tables

    def operations(self, result: PassResult) -> None:
        for name, sql, expected in self.queries:
            self.execute(result, name, sql, expected)


class DashboardWorkload(Workload):
    """The seeded dashboard stream; each pass starts from fresh state."""

    mode = "optimized"
    cache_bytes = DASHBOARD_CACHE_BYTES
    fresh_state_per_pass = True

    def __init__(self, seed: int, tracer, scale_factor: float = SCALE_FACTOR):
        super().__init__(tracer)
        gen = TpchGenerator(scale_factor=scale_factor, seed=seed)
        self.rows = {name: gen.table(name) for name in DASHBOARD_TABLES}
        self.ops = dashboard.make_stream(seed)
        self.reloads = {
            op.epoch: dashboard.perturbed_orders(self.rows["orders"], seed, op.epoch)
            for op in self.ops if op.kind == "reload"
        }
        self.expected = self._oracle(scale_factor, seed)
        self.sizes = {name: len(rows) for name, rows in self.rows.items()}

    def tables(self):
        return [(name, self.rows[name], TABLE_SCHEMAS[name]) for name in DASHBOARD_TABLES]

    def _oracle(self, scale_factor: float, seed: int) -> list:
        """Expected rows per operation, with every reload mirrored."""
        con = tpch_suite.load_suite_tables(
            CloudContext(), catalog.Catalog(), scale_factor, seed=seed
        )
        marks = ", ".join("?" for _ in TABLE_SCHEMAS["orders"].columns)
        expected = []
        for op in self.ops:
            if op.kind == "reload":
                con.execute("DELETE FROM orders")
                con.executemany(
                    f"INSERT INTO orders VALUES ({marks})", self.reloads[op.epoch]
                )
                expected.append(None)
            else:
                expected.append(con.execute(parse(op.sql).to_sql()).fetchall())
        con.close()
        return expected

    def operations(self, result: PassResult) -> None:
        for i, (op, expected) in enumerate(zip(self.ops, self.expected)):
            if op.kind == "reload":
                result.busy_s += self._load(
                    "orders", self.reloads[op.epoch], TABLE_SCHEMAS["orders"]
                )
            else:
                self.execute(result, f"op {i} ({op.template})", op.sql, expected)


def make_workload(name: str, seed: int, tracer, scale_factor: float = SCALE_FACTOR):
    if name == "tpch-get":
        return TpchWorkload("baseline", seed, tracer, scale_factor)
    if name == "tpch-pushdown":
        return TpchWorkload("optimized", seed, tracer, scale_factor)
    if name == "dashboard-repeat":
        return DashboardWorkload(seed, tracer, scale_factor)
    raise ValueError(f"unknown workload {name!r}")
