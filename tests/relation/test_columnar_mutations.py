"""Mutation sequences on a column store read like the same steps on rows.

A random relation starts with a random set of columns encoded, then takes
random steps: update, insert, delete, encode, copy, take, project (plain or
distinct), ``project_rows`` and ``group_by``.  After every step the store
must read ``==`` a row :class:`Relation` given the same steps, with the
same ``version``, and an update must not change which columns are encoded.

Reads compare with ``==``, not ``repr``: an encoded column decodes equal
values of different types (``1``, ``1.0``, ``True``) as the first one
interned, while a pending column keeps each object (``docs/columnar.md``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema

SCHEMA = Schema("r", ["A", "B", "C"])
NAN = float("nan")
VALUES = ("x", "y", 1, 1.0, True, 0, None, NAN)
STEPS = (
    "update",
    "insert",
    "delete",
    "encode",
    "copy",
    "take",
    "project",
    "project_rows",
    "group_by",
)

row = st.tuples(*(st.sampled_from(VALUES) for _ in SCHEMA.names))


def _encoded(store):
    return [store.is_encoded(attribute) for attribute in store.schema.names]


def _outcome(method, *args):
    """What ``method(*args)`` returns, or the type of what it raises."""
    try:
        return "returned", method(*args)
    except Exception as exc:  # the two storages must fail alike
        return "raised", type(exc)


def _index(data, length):
    """A row index, sometimes negative or out of range."""
    return data.draw(st.integers(min_value=-length - 1, max_value=length))


def _attributes(data, names, unique, min_size=0):
    return data.draw(
        st.lists(st.sampled_from(names), min_size=min_size, max_size=4, unique=unique)
    )


def _assert_same(store, relation):
    assert isinstance(store, ColumnStore)
    assert store == relation
    assert [store[index] for index in range(len(store))] == list(relation)
    assert store.version == relation.version


@settings(max_examples=200)
@given(st.data())
def test_mutations_read_like_rows(data):
    rows = data.draw(st.lists(row, max_size=8))
    if data.draw(st.booleans()):
        store, relation = ColumnStore(SCHEMA, rows), Relation(SCHEMA, rows)
    else:
        store = ColumnStore.from_validated_rows(SCHEMA, rows)
        relation = Relation.from_validated_rows(SCHEMA, rows)
    for attribute in _attributes(data, SCHEMA.names, unique=True):
        store.codes(attribute)
    # Pairs left behind by copy, take and project: later steps must not
    # reach them.
    retired = []
    _assert_same(store, relation)
    for step in data.draw(st.lists(st.sampled_from(STEPS), max_size=12)):
        names = store.schema.names
        encoded = _encoded(store)
        if step == "update":
            index = _index(data, len(store))
            attribute = data.draw(st.sampled_from(names))
            value = data.draw(st.sampled_from(VALUES))
            was_encoded = store.is_encoded(attribute)
            outcome = _outcome(store.update, index, attribute, value)
            assert outcome == _outcome(relation.update, index, attribute, value)
            assert _encoded(store) == encoded
            if outcome[0] == "returned" and not was_encoded:
                assert store.value(index, attribute) is value
        elif step == "insert":
            new = data.draw(st.tuples(*(st.sampled_from(VALUES) for _ in names)))
            assert store.insert(new) == relation.insert(new)
            assert _encoded(store) == encoded
        elif step == "delete":
            index = _index(data, len(store))
            assert _outcome(store.delete, index) == _outcome(relation.delete, index)
            assert _encoded(store) == encoded
        elif step == "encode":
            store.codes(data.draw(st.sampled_from(names)))
        elif step == "copy":
            retired.append((store, relation))
            store, relation = store.copy(), relation.copy()
            assert _encoded(store) == encoded
        elif step == "take":
            indices = (
                data.draw(st.lists(st.integers(0, len(store) - 1)))
                if len(store)
                else []
            )
            retired.append((store, relation))
            store, relation = store.take(indices), relation.take(indices)
            assert _encoded(store) == encoded
        elif step == "project":
            attributes = _attributes(data, names, unique=True, min_size=1)
            distinct = data.draw(st.booleans())
            projected = store.project(attributes, distinct=distinct)
            expected = relation.project(attributes, distinct=distinct)
            _assert_same(projected, expected)
            retired.append((store, relation))
            store, relation = projected, expected
        elif step == "project_rows":
            attributes = _attributes(data, names, unique=False)
            assert list(store.project_rows(attributes)) == list(
                relation.project_rows(attributes)
            )
            assert _encoded(store) == encoded
        else:
            attributes = _attributes(data, names, unique=True)
            groups = list(store.group_by(attributes).items())
            assert groups == list(relation.group_by(attributes).items())
        _assert_same(store, relation)
    for old_store, old_relation in retired:
        _assert_same(old_store, old_relation)
