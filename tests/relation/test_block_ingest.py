"""Block ingestion: one ``extend`` call against a loop of ``insert``.

``Relation.extend`` validates and stores rows a block of
``INGEST_BLOCK_ROWS`` at a time, and ``MmapColumnStore`` interns each block
column-wise into its flush buffers.  None of that may be observable: the
rows, the dictionaries (first-occurrence order, hence the codes), the
version and the exception a bad row raises must all be what a loop of
per-row ``insert`` gives.  The per-cell interning reference below is the
literal reading of the encoding contract in ``docs/columnar.md``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DomainError, ReproError, SchemaError
from repro.io.sources import CSVSource
from repro.relation.attribute import enum_attribute
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import INGEST_BLOCK_ROWS, Relation
from repro.relation.schema import Schema
from tests.integration.strategies import ATTRIBUTES, VALUES, row

B = INGEST_BLOCK_ROWS

#: The last attribute of ``finite`` has a finite domain, so every row is
#: coerced; ``plain`` rows that are tuples of the right width are not.
SCHEMAS = {
    "finite": Schema("r", [*ATTRIBUTES[:-1], enum_attribute(ATTRIBUTES[-1], VALUES)]),
    "plain": Schema("r", ATTRIBUTES),
}
SCHEMA = SCHEMAS["finite"]
NAMES = SCHEMA.names


def _encoded_empty(schema):
    store = ColumnStore(schema)
    for name in NAMES:
        store.codes(name)
    return store


def _partly_encoded_empty(schema):
    store = ColumnStore(schema)
    store.codes(NAMES[0])
    return store


#: Every storage hook and state an extend can start from.  The mmap stores
#: flush below and above the block size.
STORES = {
    "rows": Relation,
    "columnar": ColumnStore,
    "columnar-encoded": _encoded_empty,
    "columnar-partly-encoded": _partly_encoded_empty,
    "mmap-chunks-below-block": lambda schema: MmapColumnStore(
        schema, chunk_rows=B // 3
    ),
    "mmap-chunks-above-block": lambda schema: MmapColumnStore(
        schema, chunk_rows=3 * B
    ),
}


def _release(*relations):
    for relation in relations:
        if isinstance(relation, MmapColumnStore):
            relation.release()


def _interned(column):
    """Per-cell interning: the dictionary and the codes it assigns."""
    dictionary = {}
    codes = [dictionary.setdefault(value, len(dictionary)) for value in column]
    return tuple(dictionary), codes


def _rows(pool, count, mapping_every):
    """``count`` rows cycling over ``pool``; the second column gains a fresh
    value every third row so dictionaries keep growing across blocks, and
    every ``mapping_every``-th row is given as a mapping."""
    rows = []
    for index in range(count):
        values = list(pool[index % len(pool)])
        values[1] = f"{values[1]}-{index // 3}"
        if mapping_every and index % mapping_every == 0:
            rows.append(dict(zip(NAMES, values)))
        else:
            rows.append(tuple(values))
    return rows


def _positional(rows):
    return [
        tuple(row[name] for name in NAMES) if isinstance(row, dict) else row
        for row in rows
    ]


@settings(max_examples=25, deadline=None)
@given(
    pool=st.lists(row, min_size=1, max_size=6),
    count=st.sampled_from([0, 1, B - 1, B, B + 1]),
    mapping_every=st.integers(min_value=0, max_value=4),
    kind=st.sampled_from(sorted(STORES)),
    schema=st.sampled_from(sorted(SCHEMAS)),
)
def test_one_extend_equals_an_insert_loop(pool, count, mapping_every, kind, schema):
    rows = _rows(pool, count, mapping_every)
    expected = _positional(rows)
    block = STORES[kind](SCHEMAS[schema])
    block.extend(rows)
    looped = STORES[kind](SCHEMAS[schema])
    for each in rows:
        looped.insert(each)
    try:
        assert list(block) == list(looped) == expected
        assert len(block) == len(looped) == count
        assert block.version == looped.version == count
        if isinstance(block, ColumnStore):
            for position, name in enumerate(NAMES):
                dictionary, codes = _interned(values[position] for values in expected)
                assert block.dictionary(name) == looped.dictionary(name) == dictionary
                assert list(block.codes(name)) == list(looped.codes(name)) == codes
    finally:
        _release(block, looped)


def test_extend_after_a_column_is_split_out():
    # Pending rows first, then one encoded column: the next extend must
    # append column-wise and keep the encoded column's codes growing.
    rows = _rows([("v0", "v1", "v2", "v0"), ("v1", "v1", "v0", "v2")], B + 5, 0)
    store = ColumnStore(SCHEMA)
    store.extend(rows[:7])
    store.codes(NAMES[1])
    store.value(0, NAMES[2])  # splits out a raw column
    store.extend(rows[7:])
    assert list(store) == rows
    assert store.version == len(rows)
    for position, name in enumerate(NAMES):
        dictionary, codes = _interned(values[position] for values in rows)
        assert store.dictionary(name) == dictionary
        assert list(store.codes(name)) == codes


BAD_ROWS = {
    "width": (
        ("v0", "v1", "v2"),
        SchemaError,
        "row has 3 values but schema 'r' has 4 attributes",
    ),
    "domain": (
        ("v0", "v1", "v2", "zz"),
        DomainError,
        "value 'zz' is not in the finite domain of attribute 'D'",
    ),
    "mapping": (
        {"A": "v0", "B": "v1", "C": "v2"},
        SchemaError,
        "row is missing attributes ['D'] for schema 'r'",
    ),
}


@pytest.mark.parametrize("kind", sorted(STORES))
@pytest.mark.parametrize(
    ("schema", "bad"),
    [("finite", bad) for bad in sorted(BAD_ROWS)]
    + [("plain", bad) for bad in sorted(BAD_ROWS) if bad != "domain"],
)
def test_bad_row_mid_block_raises_like_an_insert_loop(kind, schema, bad):
    bad_row, error, message = BAD_ROWS[bad]
    at = B + B // 2  # the middle of the second block
    rows = _rows([("v0", "v1", "v2", "v0")], 2 * B, 0)
    rows[at] = bad_row
    looped = STORES[kind](SCHEMAS[schema])
    with pytest.raises(error) as per_row:
        for each in rows:
            looped.insert(each)
    block = STORES[kind](SCHEMAS[schema])
    with pytest.raises(error) as blocked:
        block.extend(rows)
    try:
        assert str(blocked.value) == str(per_row.value) == message
        assert list(block) == list(looped) == rows[:at]
        assert block.version == looped.version == at
    finally:
        _release(block, looped)


@pytest.mark.parametrize(
    "kind", ["columnar-encoded", "mmap-chunks-below-block", "mmap-chunks-above-block"]
)
def test_a_block_that_cannot_be_interned_leaves_the_store_as_it_was(kind):
    # An unhashable cell in the second column fails the whole block before
    # any column or dictionary changes, so the store stays aligned and
    # usable: the next extend appends after the earlier rows.
    good = _rows([("v0", "v1", "v2", "v0")], B + 5, 0)
    more = _rows([("v1", "v2", "v0", "v1")], 7, 0)
    store = STORES[kind](SCHEMAS["plain"])
    try:
        store.extend(good)
        with pytest.raises(TypeError, match="unhashable"):
            store.extend([("v2", "fresh", "v1", "v2"), ("v0", ["list"], "v1", "v2")])
        assert list(store) == good
        assert store.version == len(good)
        store.extend(more)
        rows = good + more
        assert list(store) == rows
        assert store.version == len(rows)
        for position, name in enumerate(NAMES):
            dictionary, codes = _interned(values[position] for values in rows)
            assert store.dictionary(name) == dictionary
            assert list(store.codes(name)) == codes
    finally:
        _release(store)


def test_failing_source_keeps_the_rows_it_yielded():
    def source():
        yield from _rows([("v0", "v1", "v2", "v0")], 10, 0)
        raise OSError("disk went away")

    store = ColumnStore(SCHEMA)
    with pytest.raises(OSError, match="disk went away"):
        store.extend(source())
    assert len(store) == store.version == 10


@pytest.mark.parametrize("storage", [None, "columnar", "mmap"])
def test_csv_short_row_keeps_its_line_numbered_error(tmp_path, storage):
    path = tmp_path / "short.csv"
    path.write_text("A,B,C\n1,2,3\n4,5,6\n7,8\n", encoding="utf-8")
    with pytest.raises(ReproError, match=r"short\.csv: row 4 has 2 fields, expected 3"):
        CSVSource(path).to_relation(storage=storage, spill_dir=str(tmp_path / "spill"))
