"""Tests for the S3 client's one-entry memo of the last parsed statement.

A scan sends identical SQL to every partition, so the simulated server
parses it once per scan.  The memo must never change a result or a
metered byte: alternating statements get their own parse, bad
statements fail on every request, a new scan parses afresh, and
concurrent requests each see their own statement.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bloom.filter import BloomFilter
from repro.cloud.client import S3Client
from repro.cloud.context import CloudContext
from repro.common.errors import (
    ExpressionLimitExceededError,
    SQLSyntaxError,
    UnsupportedFeatureError,
)
from repro.engine.catalog import Catalog, load_table
from repro.s3select.engine import execute_select
from repro.sqlparser import parser
from repro.storage.csvcodec import encode_table
from repro.storage.object_store import ObjectStore
from repro.storage.schema import TableSchema
from repro.strategies.scans import select_table

ROWS = [(i, i % 7, f"n{i}") for i in range(300)]
SPEC = ["k:int", "g:int", "name:str"]
SCHEMA = TableSchema.of(*SPEC)
BLOOM = BloomFilter.build(range(0, 300, 11), 0.05, seed=3).to_sql_predicate("k")
STATEMENTS = [
    "SELECT k FROM S3Object WHERE g = 3",
    "SELECT name FROM S3Object WHERE k < 40",
    f"SELECT k, g FROM S3Object WHERE {BLOOM}",
    "SELECT SUM(k), COUNT(*) FROM S3Object WHERE g < 2",
]


def make_client() -> S3Client:
    store = ObjectStore()
    store.create_bucket("b")
    data, _ = encode_table(ROWS)
    store.put_object(
        "b", "t.csv", data,
        metadata={"format": "csv", "schema": SPEC, "header": False},
    )
    return S3Client(store)


def expected_rows(client: S3Client, sql: str) -> list[tuple]:
    """The rows of a memo-free request."""
    return execute_select(client.store.get_object("b", "t.csv"), sql).rows


@pytest.fixture
def parse_calls(monkeypatch):
    """Count server parses (``execute_select`` calls ``parser.parse``)."""
    calls: list[str] = []
    original = parser.parse

    def counting(sql):
        calls.append(sql)
        return original(sql)

    monkeypatch.setattr(parser, "parse", counting)
    return calls


class TestMemoSemantics:
    def test_repeated_statement_parses_once(self, parse_calls):
        client = make_client()
        for _ in range(4):
            client.select_object_content("b", "t.csv", STATEMENTS[2])
        assert len(parse_calls) == 1

    def test_alternating_statements_never_get_a_stale_parse(self, parse_calls):
        client = make_client()
        want = {sql: expected_rows(client, sql) for sql in STATEMENTS}
        parse_calls.clear()
        order = [0, 1, 0, 1, 2, 2, 3, 0, 3, 3]
        for i in order:
            sql = STATEMENTS[i]
            assert client.select_object_content("b", "t.csv", sql).rows == want[sql]
        changes = 1 + sum(a != b for a, b in zip(order, order[1:]))
        assert len(parse_calls) == changes

    def test_bad_statement_raises_on_every_request(self):
        client = make_client()
        bad = [
            ("SELECT FROM S3Object", SQLSyntaxError, {}),
            ("SELECT k FROM S3Object ORDER BY k", UnsupportedFeatureError, {}),
            ("SELECT g, SUM(k) FROM S3Object GROUP BY g", UnsupportedFeatureError, {}),
            (STATEMENTS[2], ExpressionLimitExceededError, {"expression_limit": 64}),
        ]
        for sql, error, kwargs in bad:
            for _ in range(3):
                with pytest.raises(error):
                    client.select_object_content("b", "t.csv", sql, **kwargs)

    def test_validation_options_are_part_of_the_key(self):
        """The same text, valid under one request's options, must still
        be checked against the next request's."""
        client = make_client()
        grouped = "SELECT g, SUM(k) FROM S3Object GROUP BY g"
        client.select_object_content("b", "t.csv", grouped, allow_group_by=True)
        with pytest.raises(UnsupportedFeatureError):
            client.select_object_content("b", "t.csv", grouped)
        client.select_object_content("b", "t.csv", STATEMENTS[2])
        with pytest.raises(ExpressionLimitExceededError):
            client.select_object_content(
                "b", "t.csv", STATEMENTS[2], expression_limit=64
            )

    def test_each_scan_parses_afresh(self, parse_calls):
        ctx = CloudContext()
        table = load_table(
            ctx, Catalog(), "t", ROWS, SCHEMA, bucket="m", partitions=4
        )
        parse_calls.clear()
        for _ in range(2):
            select_table(ctx, table, STATEMENTS[2])
        assert len(parse_calls) == 2  # one per scan, not one per partition
        ctx.begin_query()
        ctx.client.select_object_content("m", table.keys[0], STATEMENTS[2])
        assert len(parse_calls) == 3  # nor across queries


class TestMemoConcurrency:
    def scan_records(self, workers: int):
        ctx = CloudContext(workers=workers)
        table = load_table(
            ctx, Catalog(), "t", ROWS, SCHEMA, bucket="m", partitions=8
        )
        mark = ctx.metrics.mark()
        rows = [select_table(ctx, table, sql)[0] for sql in STATEMENTS]
        records = sorted(
            ctx.metrics.records_since(mark), key=lambda r: (r.key, repr(r))
        )
        return rows, records

    def test_metered_records_identical_for_one_and_four_workers(self):
        serial_rows, serial_records = self.scan_records(workers=1)
        concurrent_rows, concurrent_records = self.scan_records(workers=4)
        assert concurrent_rows == serial_rows
        assert concurrent_records == serial_records

    def test_thread_stress_each_request_sees_its_own_statement(self):
        client = make_client()
        want = {sql: expected_rows(client, sql) for sql in STATEMENTS}
        workers = 4 * (os.cpu_count() or 1) + 1  # more threads than cores

        def request(i: int) -> bool:
            sql = STATEMENTS[(i // 3) % len(STATEMENTS)]  # short runs, then a switch
            return client.select_object_content("b", "t.csv", sql).rows == want[sql]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 2.0
            done = 0
            with ThreadPoolExecutor(max_workers=workers) as pool:
                while time.monotonic() < deadline:
                    assert all(pool.map(request, range(done, done + 4 * workers)))
                    done += 4 * workers
        finally:
            sys.setswitchinterval(interval)
        assert done >= 4 * workers
