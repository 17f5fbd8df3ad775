"""CSV encode/decode for table objects.

Objects are stored exactly as AWS would see them: UTF-8 bytes, ``\\n``
record delimiter, ``,`` field delimiter, RFC-4180 quoting.  The paper's
index-table design (Section IV-A) needs the *byte offset of every row*,
so the encoder can report per-row extents as it writes.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.engine.batch import Batch
from repro.storage.schema import TableSchema

RECORD_DELIM = "\n"
FIELD_DELIM = ","
QUOTE = '"'

#: Rows per :class:`RecordBatch` in the streaming execution pipeline.
#: Large enough to amortize per-batch overhead, small enough that a
#: batch of wide TPC-H rows stays cache-resident.
DEFAULT_BATCH_SIZE = 4096


def format_value(value: object) -> str:
    """Render one Python value as a CSV field ('' for NULL)."""
    if value is None:
        return ""
    if isinstance(value, float):
        # Repr round-trips; avoid trailing noise for integral floats.
        if value.is_integer():
            return f"{value:.1f}"
        return repr(value)
    return str(value)


#: Characters that force a field into RFC-4180 quotes: the field and
#: record delimiters, the quote itself, and CR (CRLF tolerance).
_QUOTE_TRIGGERS = frozenset({FIELD_DELIM, QUOTE, RECORD_DELIM, "\n", "\r"})


def _escape(field: str) -> str:
    if any(ch in _QUOTE_TRIGGERS for ch in field):
        return QUOTE + field.replace(QUOTE, QUOTE + QUOTE) + QUOTE
    return field


def encode_row(row: Sequence[object]) -> bytes:
    """Encode one tuple as a CSV line including the record delimiter."""
    line = FIELD_DELIM.join(_escape(format_value(v)) for v in row)
    return (line + RECORD_DELIM).encode()


@dataclass(frozen=True)
class RowExtent:
    """Byte extent of one encoded row inside a CSV object (inclusive)."""

    first_byte: int
    last_byte: int


def encode_table(
    rows: Iterable[Sequence[object]], header: Sequence[str] | None = None
) -> tuple[bytes, list[RowExtent]]:
    """Encode rows to CSV bytes, returning per-row byte extents.

    The extents exclude the header line and are exactly what the paper's
    index tables store (``first_byte_offset`` / ``last_byte_offset``).
    """
    buf = io.BytesIO()
    if header is not None:
        buf.write(encode_row(list(header)))
    extents: list[RowExtent] = []
    for row in rows:
        start = buf.tell()
        encoded = encode_row(row)
        buf.write(encoded)
        extents.append(RowExtent(first_byte=start, last_byte=start + len(encoded) - 1))
    return buf.getvalue(), extents


def iter_records(data: bytes) -> Iterator[list[str]]:
    """Parse CSV bytes into records (lists of string fields).

    The stdlib reader handles the RFC-4180 quoting the encoder writes
    and tolerates a missing trailing newline.  An empty line, which is
    how the encoder writes a one-column NULL row, is one empty field.
    A bare ``\\r`` outside quotes ends a record; the encoder quotes
    every field holding one, so its own output never has it.
    """
    text = data.decode()
    nul = None
    if sys.version_info < (3, 11) and "\0" in text:
        # The reader rejects NUL before Python 3.11: carry it through
        # as a private-use character the text does not contain.
        nul = next(c for c in map(chr, range(0xE000, 0xF900)) if c not in text)
        text = text.replace("\0", nul)
    for record in csv.reader(io.StringIO(text, newline="")):
        if nul is not None:
            record = [field.replace(nul, "\0") for field in record]
        yield record or [""]


def chunk_rows(rows: Iterable[tuple], batch_size: int) -> Iterator[list[tuple]]:
    """Chunk a row iterable into RecordBatches of ``batch_size`` rows.

    The single chunking implementation behind every batch iterator in
    the pipeline (CSV/Parquet decode, S3 Select evaluation, partition
    re-chunking, operator helpers).  The final batch may be short;
    empty input yields no batches.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    batch: list[tuple] = []
    for row in rows:
        batch.append(row)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def iter_decode_table(
    data: bytes, schema: TableSchema, has_header: bool = True
) -> Iterator[tuple]:
    """Lazily decode CSV bytes into typed tuples according to ``schema``.

    Unlike :func:`decode_table` nothing is materialized: rows are parsed
    on demand, so a consumer that stops early (LIMIT, top-K sampling)
    never pays for the rest of the object.
    """
    records = iter_records(data)
    if has_header:
        next(records, None)
    parse_row = schema.parse_row
    for record in records:
        yield parse_row(record)


def iter_decode_batches(
    data: bytes,
    schema: TableSchema,
    batch_size: int = DEFAULT_BATCH_SIZE,
    has_header: bool = True,
) -> Iterator[list[tuple]]:
    """Lazily decode CSV bytes into :data:`DEFAULT_BATCH_SIZE`-row batches.

    The unit of the streaming execution core: each yielded list is one
    RecordBatch.  The final batch may be short; empty input yields no
    batches.
    """
    yield from chunk_rows(
        iter_decode_table(data, schema, has_header=has_header), batch_size
    )


def iter_decode_column_batches(
    data: bytes,
    schema: TableSchema,
    batch_size: int = DEFAULT_BATCH_SIZE,
    has_header: bool = True,
) -> Iterator[Batch]:
    """Lazily decode CSV bytes straight into columnar :class:`Batch`es.

    The vectorized twin of :func:`iter_decode_batches`: raw string
    records are gathered per batch, transposed once, and parsed with one
    typed comprehension per column — no intermediate row tuples.  Rows
    whose field count disagrees with the schema raise the same
    :class:`~repro.common.errors.CatalogError` as the row-wise decoder.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    records = iter_records(data)
    if has_header:
        next(records, None)
    ncols = len(schema.columns)
    raw: list[list[str]] = []
    for record in records:
        if len(record) != ncols:
            schema.parse_row(record)  # raises the canonical CatalogError
        raw.append(record)
        if len(raw) >= batch_size:
            yield _parse_column_batch(raw, schema)
            raw = []
    if raw:
        yield _parse_column_batch(raw, schema)


def _parse_column_batch(raw: list[list[str]], schema: TableSchema) -> Batch:
    text_columns = zip(*raw)
    return Batch(
        [col.parse_column(texts) for col, texts in zip(schema.columns, text_columns)],
        len(raw),
    )


def decode_table(
    data: bytes, schema: TableSchema, has_header: bool = True
) -> list[tuple]:
    """Decode CSV bytes into typed tuples according to ``schema``."""
    return list(iter_decode_table(data, schema, has_header=has_header))
