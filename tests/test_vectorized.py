"""Vectorized-vs-row-wise equivalence tests.

The vectorized compiler in :mod:`repro.expr.vector` and the columnar
operator paths must be observationally identical to the row-wise
originals: same values, same value *types*, same NULL handling, same
modeled CPU charges.  These tests pin that contract with randomized
data (NULLs, non-ASCII strings, empty batches, batch_size=1).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.filter import BloomFilter
from repro.cloud.context import CloudContext, set_default_pipeline
from repro.common.errors import CatalogError, TypeMismatchError
from repro.engine.batch import Batch
from repro.engine.operators.base import CpuTally, batches_of, materialize
from repro.engine.operators.filter import filter_batches
from repro.engine.operators.groupby import group_by_aggregate, group_by_batches
from repro.engine.operators.hashjoin import hash_join, hash_join_batches
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import project, project_batches
from repro.engine.operators.topk import top_k, top_k_batches
from repro.expr.compiler import compile_expr, compile_predicate
from repro.expr.vector import compile_expr_vector, compile_predicate_vector
from repro.queries.common import items
from repro.s3select.engine import ScanRange, execute_select
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression
from repro.storage.csvcodec import (
    encode_row,
    encode_table,
    iter_decode_batches,
    iter_decode_column_batches,
    iter_records,
)
from repro.storage.object_store import StoredObject
from repro.storage.schema import TableSchema

# Columns: a int, b int, f float, s str, d date-ish str.
SCHEMA = {"a": 0, "b": 1, "f": 2, "s": 3, "d": 4}

texts = st.one_of(
    st.none(), st.sampled_from(["", "a", "abc", "ü", "日本", "a%b", "A_c"])
)
dates = st.one_of(
    st.none(), st.sampled_from(["1995-01-01", "1996-06-15", "1997-12-31"])
)
rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-50, 50)),
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.floats(-100, 100).map(lambda v: round(v, 3))),
        texts,
        dates,
    ),
    max_size=30,
)

#: One expression per vectorized kernel, plus the row-fallback shapes
#: (CASE, COALESCE, function calls) and the const-folded thunks.
EXPRESSIONS = [
    "a + b", "a - b", "a * b", "a % b", "a / b", "f * 2.5", "-a",
    "a = b", "a <> b", "a < b", "a <= 5", "5 <= a", "a > b", "a >= b",
    "f < 10.0", "s = 'abc'", "'abc' = s", "s < 'b'", "d >= '1996-01-01'",
    "s || '!'", "s || s",
    "a IN (1, 2, 3)", "a NOT IN (1, 2, 3)", "a IN (1, NULL)",
    "s IN ('a', 'abc')", "a IN (b, 3)",
    "a BETWEEN -2 AND 2", "a NOT BETWEEN 0 AND 10", "f BETWEEN a AND b",
    "s LIKE 'a%'", "s LIKE '_b%'", "s NOT LIKE '%c'", "s LIKE s",
    "s IS NULL", "s IS NOT NULL", "a IS NULL",
    "NOT a = 1", "a = 1 AND b = 1", "a = 1 OR b = 1",
    "a < 0 AND s IS NOT NULL", "a IS NULL OR f > 0.0",
    "CAST(a AS float)", "CAST(f AS int)", "CAST(a AS string)",
    "CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END",
    "COALESCE(a, b, 0)", "UPPER(s)",
    "1 + 2 * 3", "NULL", "'const'", "a < NULL", "NULL AND a = 1",
    # SUBSTRING: NULL text/start/length, start <= 0, length 0, negative
    # length (TypeMismatchError on both paths), non-string text, 2 args.
    "SUBSTRING(s, a, b)", "SUBSTRING(s, 2, 1)", "SUBSTRING(s, 0, 2)",
    "SUBSTRING(s, -1, 3)", "SUBSTRING(s, 1, 0)", "SUBSTRING(s, 1, -1)",
    "SUBSTRING(s, a, NULL)", "SUBSTRING(NULL, a, 1)", "SUBSTRING(s, f, 1)",
    "SUBSTRING(a, 1, 2)", "SUBSTRING(f, 2)", "SUBSTRING(s, a)",
    "SUBSTR(d, 1, 4)", "SUBSTRING('0110', a, 1)", "SUBSTRING('0110', a, -1)",
    "SUBSTRING('0110', a % 4 + 1, 1) = '1'",
]

#: The paper's Bloom probe over ``a`` (random keys, NULLs in the data).
BLOOM_SQL = BloomFilter.build(
    random.Random(7).sample(range(-50, 51), 20), 0.05, seed=7
).to_sql_predicate("a")
EXPRESSIONS.append(pytest.param(BLOOM_SQL, id="bloom-probe"))


def assert_same_values(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w or (g is None and w is None), f"{g!r} != {w!r}"
        assert type(g) is type(w), f"{type(g)} != {type(w)} for {g!r}"


class TestExpressionKernels:
    @pytest.mark.parametrize("sql", EXPRESSIONS)
    @settings(max_examples=30, deadline=None)
    @given(rows=rows_strategy)
    def test_vector_matches_row_compiler(self, sql, rows):
        expr = parse_expression(sql)
        row_fn = compile_expr(expr, SCHEMA)
        vec_fn = compile_expr_vector(expr, SCHEMA)
        batch = Batch.from_rows(rows, num_columns=5)
        try:
            want = [row_fn(row) for row in rows]
        except Exception as exc:  # e.g. % by zero — both paths must agree
            with pytest.raises(type(exc)):
                vec_fn(batch)
            return
        assert_same_values(vec_fn(batch), want)

    @pytest.mark.parametrize("sql", EXPRESSIONS)
    def test_empty_batch_yields_empty(self, sql):
        vec_fn = compile_expr_vector(parse_expression(sql), SCHEMA)
        assert vec_fn(Batch.from_rows([], num_columns=5)) == []

    @pytest.mark.parametrize(
        "sql",
        [
            "a = 1", "s LIKE 'a%'", "a IN (1, NULL)", "a = 1 OR b = 1",
            pytest.param(BLOOM_SQL, id="bloom-probe"),
        ],
    )
    @settings(max_examples=20, deadline=None)
    @given(rows=rows_strategy)
    def test_predicate_mask_matches_row_predicate(self, sql, rows):
        expr = parse_expression(sql)
        pred = compile_predicate(expr, SCHEMA)
        mask_fn = compile_predicate_vector(expr, SCHEMA)
        mask = mask_fn(Batch.from_rows(rows, num_columns=5))
        assert mask == [pred(row) for row in rows]
        assert all(v is True or v is False for v in mask)

    @settings(max_examples=20, deadline=None)
    @given(rows=rows_strategy)
    def test_batch_size_one(self, rows):
        expr = parse_expression("a + b * 2")
        row_fn = compile_expr(expr, SCHEMA)
        vec_fn = compile_expr_vector(expr, SCHEMA)
        for row in rows:
            assert_same_values(
                vec_fn(Batch.from_rows([row])), [row_fn(row)]
            )

    @pytest.mark.parametrize(
        "sql",
        [
            "SUBSTRING(s, 1, -1)", "SUBSTRING(s, a, b)",
            "SUBSTRING('0110', a, -1)", "CAST(f AS int)",
        ],
    )
    def test_type_mismatch_raises_on_both_paths(self, sql):
        """Negative SUBSTRING lengths; a NaN off the all-number CAST path."""
        rows = [(1, -2, float("nan"), "abc", None)]
        expr = parse_expression(sql)
        with pytest.raises(TypeMismatchError):
            compile_expr(expr, SCHEMA)(rows[0])
        with pytest.raises(TypeMismatchError):
            compile_expr_vector(expr, SCHEMA)(Batch.from_rows(rows))

    def test_mixed_type_batch_falls_back_row_wise(self):
        # Row-wise OR short-circuits past the bad value; the vectorized
        # kernel sweeps every row, hits the type error, and must fall
        # back to row-wise evaluation to match.
        rows = [(1, 1, 1.0, "x", None), ("oops", 2, 2.0, "y", None)]
        expr = parse_expression("b = 2 OR a = 1")
        row_fn = compile_expr(expr, SCHEMA)
        vec_fn = compile_expr_vector(expr, SCHEMA)
        assert vec_fn(Batch.from_rows(rows)) == [row_fn(r) for r in rows]


NAMES = ["a", "b", "f", "s", "d"]
DATA = [
    (i % 7, i % 3, float(i) / 4 if i % 5 else None,
     ["x", "yy", None, "üz"][i % 4], f"199{i % 10}-01-01")
    for i in range(200)
]


def columnar_batches(rows, batch_size=32):
    return [Batch.from_rows(chunk) for chunk in batches_of(rows, batch_size)]


class TestOperatorParity:
    """Columnar and list batches through one operator: same rows, same CPU."""

    def test_filter(self):
        pred = parse_expression("a < 4 AND s IS NOT NULL")
        t_col, t_row = CpuTally(), CpuTally()
        got = materialize(
            filter_batches(columnar_batches(DATA), NAMES, pred, t_col)
        )
        want = materialize(
            filter_batches(batches_of(DATA, 32), NAMES, pred, t_row)
        )
        assert got == want
        assert t_col.seconds == t_row.seconds

    def test_project(self):
        sel = items("a + b AS ab", "UPPER(s) AS u", "f")
        t_col, t_row = CpuTally(), CpuTally()
        got = materialize(
            project_batches(columnar_batches(DATA), NAMES, sel, t_col)
        )
        want = materialize(
            project_batches(batches_of(DATA, 32), NAMES, sel, t_row)
        )
        assert got == want
        assert t_col.seconds == t_row.seconds

    def test_group_by(self):
        groups = [parse_expression("a")]
        aggs = items(
            "COUNT(*) AS n", "SUM(f) AS sf", "MIN(s) AS mn", "AVG(b) AS av"
        )
        got = group_by_batches(columnar_batches(DATA), NAMES, groups, aggs)
        want = group_by_aggregate(DATA, NAMES, groups, aggs)
        assert got.rows == want.rows  # includes float bit-identity
        assert got.column_names == want.column_names
        assert got.cpu_seconds == want.cpu_seconds

    def test_global_aggregate(self):
        aggs = items("COUNT(*) AS n", "SUM(a) AS sa")
        got = group_by_batches(columnar_batches(DATA), NAMES, [], aggs)
        want = group_by_aggregate(DATA, NAMES, [], aggs)
        assert got.rows == want.rows
        assert got.cpu_seconds == want.cpu_seconds

    def test_top_k_ties_keep_arrival_order(self):
        order = [
            ast.OrderItem(expr=ast.Column("b")),
            ast.OrderItem(expr=ast.Column("a"), descending=True),
        ]
        got = top_k_batches(columnar_batches(DATA), NAMES, order, 10)
        want = top_k(DATA, NAMES, order, 10)
        assert got.rows == want.rows
        assert got.cpu_seconds == want.cpu_seconds

    def test_hash_join(self):
        build = [(i, f"t{i}") for i in range(7)]
        names, joined = hash_join_batches(
            build, ["k", "tag"], columnar_batches(DATA), NAMES, "k", "a"
        )
        got = materialize(joined)
        want = hash_join(build, ["k", "tag"], DATA, NAMES, "k", "a")
        assert got == want.rows
        assert names == want.column_names

    def test_limit_slices_mid_batch_as_view(self):
        batches = columnar_batches(DATA, 32)
        out = list(limit_batches(iter(batches), 40))
        assert sum(len(b) for b in out) == 40
        assert out[0] is batches[0]  # whole first batch passes untouched
        # The mid-batch cut is a zero-copy slice view of batch #2.
        assert isinstance(out[1], Batch)
        assert out[1].column(0)[0] is batches[1].column(0)[0]


class TestColumnarDecode:
    SCHEMA = TableSchema.of("k:int", "v:float", "s:str", "d:date")
    ROWS = [(1, 1.5, "x", "1995-01-01"), (2, None, None, None), (None, -2.0, "üz", "1996-02-03")]

    def test_matches_row_wise_decoder(self):
        data, _ = encode_table(self.ROWS)
        for size in (1, 2, 100):
            got = [
                b.to_rows()
                for b in iter_decode_column_batches(
                    data, self.SCHEMA, batch_size=size, has_header=False
                )
            ]
            want = [
                list(b)
                for b in iter_decode_batches(
                    data, self.SCHEMA, batch_size=size, has_header=False
                )
            ]
            assert got == want

    def test_empty_line_is_one_null_field(self):
        schema = TableSchema.of("s:str")
        rows = [(None,), ("x",), (None,), (None,)]
        data, _ = encode_table(rows)
        assert data == b"\nx\n\n\n"
        assert list(iter_records(data)) == [[""], ["x"], [""], [""]]
        columnar = iter_decode_column_batches(data, schema, has_header=False)
        assert [r for b in columnar for r in b.to_rows()] == rows
        row_wise = iter_decode_batches(data, schema, has_header=False)
        assert [r for b in row_wise for r in b] == rows

    def test_scan_range_cut_inside_quoted_field(self):
        """ScanRange windows parse row-wise, full objects columnar: every
        cut, including ones inside a quoted field that holds the record
        delimiter or inside a multi-byte character, returns the records
        whose delimiter it reaches."""
        rows = [(1, 1.5, "a,\nb", "1995-01-01"), (2, None, 'say "hi"\n', None),
                (3, -2.0, "\n,\n", "1996-02-03"), (4, 0.5, "üz", None)]
        data, extents = encode_table(rows)
        spec = [f"{c.name}:{c.type}" for c in self.SCHEMA.columns]
        obj = StoredObject(data, {"format": "csv", "schema": spec, "header": False})
        sql = "SELECT * FROM S3Object"
        assert execute_select(obj, sql).rows == rows
        for cut in range(1, len(data) + 1):
            window = execute_select(obj, sql, scan_range=ScanRange(0, cut))
            want = [r for r, e in zip(rows, extents) if e.last_byte <= cut]
            assert window.rows == want, cut

    def test_bare_carriage_return_ends_a_record(self):
        """The one divergence from the former hand parser, which dropped
        a bare CR outside quotes: the stdlib reader ends the record.  The
        encoder quotes any field holding a CR, so its output round-trips."""
        assert list(iter_records(b"a\rb,c\n")) == [["a"], ["b", "c"]]
        assert encode_row(["a\rb", "c"]) == b'"a\rb",c\n'
        assert list(iter_records(encode_row(["a\rb", "c"]))) == [["a\rb", "c"]]

    def test_bad_field_count_raises_catalog_error(self):
        data, _ = encode_table(self.ROWS)
        lines = data.decode("utf-8").splitlines()
        lines[1] = "1,2.0"  # drop two fields
        bad = ("\n".join(lines) + "\n").encode("utf-8")
        with pytest.raises(CatalogError):
            list(
                iter_decode_column_batches(bad, self.SCHEMA, has_header=False)
            )

    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_decode_column_batches(b"", self.SCHEMA, batch_size=0))


class TestKnobValidation:
    def test_context_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            CloudContext(workers=0)
        with pytest.raises(ValueError, match="workers"):
            CloudContext(workers=-2)

    def test_context_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            CloudContext(batch_size=0)

    def test_process_defaults_reject_non_positive(self):
        with pytest.raises(ValueError, match="workers"):
            set_default_pipeline(workers=0)
        with pytest.raises(ValueError, match="batch_size"):
            set_default_pipeline(batch_size=-1)

    def test_pushdowndb_rejects_non_positive_workers(self):
        from repro.planner.database import PushdownDB

        with pytest.raises(ValueError, match="workers"):
            PushdownDB(workers=0)

    def test_cli_rejects_non_positive_knobs(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        good = parser.parse_args(
            ["query", "SELECT 1", "--workers", "2", "--batch-size", "64"]
        )
        assert good.workers == 2 and good.batch_size == 64
        for bad in (["--workers", "0"], ["--batch-size", "-5"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["query", "SELECT 1", *bad])
            assert "positive integer" in capsys.readouterr().err


class TestOperatorTimes:
    def test_execution_details_include_operator_times(self):
        from repro.planner.database import PushdownDB
        from repro.planner.physical import render_execution_report

        db = PushdownDB()
        db.load_table(
            "t", [(i, i % 5, float(i)) for i in range(100)],
            TableSchema.of("t_id:int", "t_g:int", "t_v:float"), partitions=2,
        )
        execution = db.execute(
            "SELECT t_g, SUM(t_v) AS sv FROM t WHERE t_id < 80"
            " GROUP BY t_g ORDER BY t_g"
        )
        times = execution.details["operator_times"]
        assert len(times) == len(execution.details["actuals"])
        root = times[0]
        assert root["seconds"] is not None and root["seconds"] >= 0.0
        for record in times:
            assert set(record) >= {
                "node", "depth", "seconds", "self_seconds", "rows",
                "rows_per_sec",
            }
            if record["seconds"] is not None:
                assert record["self_seconds"] <= record["seconds"] + 1e-9
        # The report gains time and throughput columns...
        report = render_execution_report(execution)
        assert "time" in report and "rows/s" in report
        # ...but the details dict never leaks into the explain() extras.
        assert "operator_times" not in execution.explain()

    def test_bloom_probe_requests_timed_on_the_probe_scan(self):
        """A streamed join opens its Bloom probe scan, which sends every
        partition request at once: that wait is the scan's, not the join's."""
        from repro.planner.database import PushdownDB
        from repro.workloads.synthetic import SNOWFLAKE_SCHEMAS, snowflake_tables

        db = PushdownDB()
        tables = snowflake_tables(fact_rows=200, seed=3)
        for name in ("sub1", "dim1"):
            db.load_table(name, tables[name], SNOWFLAKE_SCHEMAS[name], partitions=2)
        delay = 0.02
        db.ctx.client.request_delay = delay
        execution = db.execute(
            "SELECT COUNT(*) AS n FROM sub1, dim1"
            " WHERE s1_id = d1_s1 AND s1_attr < 40"
        )
        times = {
            r["node"].split(" [")[0]: r for r in execution.details["operator_times"]
        }
        probe, join = times["scan dim1"], times["hash-join"]
        assert "bloom" in probe["node"] and "streamed" in join["node"]
        assert join["rows"]  # rows were built, so the probe SQL carries a Bloom clause
        assert probe["seconds"] >= 2 * delay  # both partition requests
        assert join["self_seconds"] < delay
