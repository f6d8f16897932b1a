"""Unit tests for the dictionary-encoded columnar storage core."""

import pickle

import pytest

from repro.errors import DomainError, SchemaError
from repro.relation.attribute import Attribute
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema


@pytest.fixture
def schema():
    return Schema("r", ["A", "B", "C"])


ROWS = [("a1", "b1", "c1"), ("a1", "b2", "c2"), ("a2", "b1", "c1")]


@pytest.fixture
def store(schema):
    return ColumnStore(schema, ROWS)


@pytest.fixture
def relation(schema):
    return Relation(schema, ROWS)


class TestEncoding:
    def test_codes_are_dense_per_attribute(self, store):
        assert list(store.codes("A")) == [0, 0, 1]
        assert list(store.codes("B")) == [0, 1, 0]

    def test_encode_decode_roundtrip(self, store):
        for attribute in ("A", "B", "C"):
            for code in set(store.codes(attribute)):
                value = store.decode(attribute, code)
                assert store.encode(attribute, value) == code

    def test_encode_unknown_value_is_none(self, store):
        assert store.encode("A", "nope") is None

    def test_dictionary_and_size(self, store):
        assert store.dictionary("A") == ("a1", "a2")
        assert store.dictionary_size("A") == 2

    def test_dictionary_version_tracks_growth_only(self, store):
        version = store.dictionary_version("B")
        store.update(0, "B", "b2")  # existing value: same version
        assert store.dictionary_version("B") == version
        store.update(0, "B", "novel")  # fresh entry: version advances
        assert store.dictionary_version("B") == version + 1
        store.delete(1)  # deletes orphan entries, never shrink the version
        assert store.dictionary_version("B") == version + 1

    def test_project_codes_alignment(self, store):
        b_codes, a_codes = store.project_codes(["B", "A"])
        assert list(a_codes) == [0, 0, 1]
        assert list(b_codes) == [0, 1, 0]


class TestRelationAPI:
    def test_rows_and_getitem_decode(self, store):
        assert store.rows == tuple(ROWS)
        assert store[1] == ("a1", "b2", "c2")
        assert store[-1] == ("a2", "b1", "c1")

    def test_equality_across_storage_classes(self, store, relation):
        assert store == relation
        assert relation == store
        relation.update(0, "B", "different")
        assert store != relation

    def test_insert_mapping_and_positional(self, schema):
        store = ColumnStore(schema)
        assert store.insert({"A": "a", "B": "b", "C": "c"}) == 0
        assert store.insert(("a", "x", "c")) == 1
        assert store[1] == ("a", "x", "c")
        assert list(store.codes("A")) == [0, 0]

    def test_insert_validation_matches_rows(self, schema):
        with pytest.raises(SchemaError):
            ColumnStore(schema).insert(("a", "b"))
        domain_schema = Schema("r", [Attribute("A", domain={"x", "y"}), "B"])
        with pytest.raises(DomainError):
            ColumnStore(domain_schema).insert(("z", 1))

    def test_update_swaps_code_and_grows_dictionary(self, store):
        before = store.dictionary_size("B")
        store.update(0, "B", "novel")
        assert store.value(0, "B") == "novel"
        assert store.dictionary_size("B") == before + 1
        store.update(0, "B", "b2")  # existing value: no new entry
        assert store.dictionary_size("B") == before + 1

    def test_update_out_of_range_raises_without_interning(self, store):
        before = store.dictionary_size("B")
        with pytest.raises(IndexError):
            store.update(99, "B", "lost")
        assert store.dictionary_size("B") == before

    def test_delete_returns_row_and_keeps_dictionary(self, store):
        store.codes("B")  # encode first: orphaned entries are an encoded-state property
        assert store.delete(1) == ("a1", "b2", "c2")
        assert len(store) == 2
        assert store.rows == (("a1", "b1", "c1"), ("a2", "b1", "c1"))
        # Orphaned entries stay: codes are never renumbered.
        assert "b2" in store.dictionary("B")
        assert store.active_domain("B") == ("b1",)

    def test_lazy_encoding_is_per_column_and_not_a_mutation(self, store):
        assert not store.is_encoded("A")
        version = store.version
        assert list(store.codes("A")) == [0, 0, 1]
        assert store.is_encoded("A")
        assert not store.is_encoded("B")  # untouched columns stay pending
        assert store.version == version  # encoding changes no content

    def test_mutations_work_on_pending_and_encoded_columns_alike(self, store):
        store.codes("A")  # A encoded, B pending
        store.update(0, "A", "a9")
        store.update(0, "B", "b9")
        assert store[0] == ("a9", "b9", "c1")
        store.insert(("a1", "b1", "c9"))
        assert store[3] == ("a1", "b1", "c9")
        assert store.delete(0) == ("a9", "b9", "c1")
        assert store.rows[0] == ("a1", "b2", "c2")

    def test_value_and_project_row(self, store):
        assert store.value(1, "B") == "b2"
        assert store.project_row(2, ["C", "A"]) == ("c1", "a2")

    def test_row_dict_and_iter_dicts(self, store):
        assert store.row_dict(0) == {"A": "a1", "B": "b1", "C": "c1"}
        assert list(store.iter_dicts())[1]["B"] == "b2"

    def test_version_bumps_on_every_mutation(self, store):
        version = store.version
        store.insert(("x", "y", "z"))
        assert store.version == version + 1
        store.update(0, "A", "a9")
        assert store.version == version + 2
        store.delete(0)
        assert store.version == version + 3


class TestAlgebra:
    def test_select_matches_rows_backend(self, store, relation):
        columnar = store.select(lambda row: row["B"] == "b1")
        assert isinstance(columnar, ColumnStore)
        assert columnar == relation.select(lambda row: row["B"] == "b1")

    def test_select_missing_attribute_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.select(lambda row: row["nope"] == 1)

    def test_project_keeps_duplicates_and_distinct(self, store, relation):
        assert store.project(["B"]) == relation.project(["B"])
        assert store.project(["B"], distinct=True) == relation.project(["B"], distinct=True)
        assert isinstance(store.project(["B"]), ColumnStore)

    def test_group_by_matches_rows_backend(self, store, relation):
        assert store.group_by(["B"]) == relation.group_by(["B"])
        assert store.group_by(["A", "C"]) == relation.group_by(["A", "C"])
        assert list(store.group_by(["B"])) == list(relation.group_by(["B"]))

    def test_group_indices_empty_attribute_tuple(self, store):
        assert list(store.group_indices(())) == [((), [0, 1, 2])]

    def test_take_preserves_class_and_order(self, store):
        taken = store.take([2, 0])
        assert isinstance(taken, ColumnStore)
        assert taken.rows == (("a2", "b1", "c1"), ("a1", "b1", "c1"))

    def test_take_is_independent(self, store):
        taken = store.take([0])
        taken.update(0, "A", "changed")
        assert store.value(0, "A") == "a1"

    def test_copy_is_independent(self, store):
        clone = store.copy()
        clone.update(0, "A", "changed")
        assert store.value(0, "A") == "a1"
        assert clone.value(0, "A") == "changed"

    def test_active_domain_mixed_types(self, schema):
        store = ColumnStore(schema, [(1, "b", "c"), ("x", "b", "c")])
        assert set(store.active_domain("A")) == {1, "x"}


class TestConstruction:
    def test_from_relation_and_back(self, relation):
        store = ColumnStore.from_relation(relation)
        assert store == relation
        back = Relation.from_validated_rows(store.schema, store)
        assert back == relation

    def test_from_relation_copies_a_store(self, store):
        clone = ColumnStore.from_relation(store)
        assert clone == store
        clone.update(0, "A", "changed")
        assert store.value(0, "A") == "a1"

    def test_from_validated_rows(self, schema):
        store = ColumnStore.from_validated_rows(schema, ROWS)
        assert store.rows == tuple(ROWS)

    def test_csv_roundtrip_stays_columnar(self, tmp_path, store):
        path = tmp_path / "r.csv"
        store.to_csv(path)
        loaded = ColumnStore.from_csv(store.schema, path)
        assert isinstance(loaded, ColumnStore)
        assert loaded == store

    def test_pickle_roundtrip(self, store):
        clone = pickle.loads(pickle.dumps(store))
        assert clone == store
        assert list(clone.codes("A")) == list(store.codes("A"))

    def test_repr_mentions_dictionary(self, store):
        assert "dictionary entries" in repr(store)
