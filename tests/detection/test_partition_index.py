"""Tests for the class indexes and their LRU cache."""

import pytest

from repro.detection.partition_index import (
    CodePartitionIndex,
    PartitionIndex,
    PartitionIndexCache,
)
from repro.errors import DetectionError
from repro.kernels import kernel_names, numpy_available, use_kernel
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema


@pytest.fixture
def rel():
    return Relation(
        Schema("r", ["A", "B", "C"]),
        [
            ("a1", "b1", "c1"),
            ("a1", "b2", "c2"),
            ("a2", "b1", "c1"),
            ("a1", "b1", "c3"),
        ],
    )


def _classes(index, store):
    """``{decoded key: members}`` over every class, in class order."""
    return {
        tuple(
            store.decode(attr, code)
            for attr, code in zip(index.attributes, index.key_codes_at(position))
        ): index.members_at(position)
        for position in range(index.class_count)
    }


def _count_finds(monkeypatch, cls):
    """Record every key ``cls.find`` is asked for."""
    calls = []
    original = cls.find

    def find(self, key_codes):
        calls.append(tuple(key_codes))
        return original(self, key_codes)

    monkeypatch.setattr(cls, "find", find)
    return calls


class TestPartitionIndex:
    """The pure-python class index (the numpy twin is tested below)."""

    @pytest.fixture
    def store(self, rel):
        return ColumnStore.from_relation(rel)

    def test_groups_match_relation_group_by(self, rel, store):
        index = PartitionIndex(store, ("A", "B"))
        reference = rel.group_by(["A", "B"])
        assert _classes(index, store) == {
            key: list(group) for key, group in reference.items()
        }

    def test_get_and_contains(self, store):
        index = PartitionIndex(store, ("A",))
        assert index.members_at(index.find((store.encode("A", "a1"),))) == [0, 1, 3]
        assert index.find((store.encode("A", "a2"),)) >= 0
        assert index.find((None,)) == -1  # value absent from the dictionary

    def test_len_and_tuple_count(self, rel, store):
        index = PartitionIndex(store, ("B",))
        assert index.class_count == 2
        indices, offsets = index.class_table()
        assert sorted(indices) == list(range(len(rel)))
        assert len(offsets) == index.class_count

    def test_empty_attribute_tuple_gives_single_partition(self, store):
        index = PartitionIndex(store, ())
        assert index.class_count == 1
        assert index.members_at(0) == [0, 1, 2, 3]
        assert index.key_codes_at(0) == ()

    def test_matching_all_constant_is_a_lookup(self, store, monkeypatch):
        index = PartitionIndex(store, ("A", "B"))
        finds = _count_finds(monkeypatch, PartitionIndex)
        a1, b1 = store.encode("A", "a1"), store.encode("B", "b1")
        positions = index.matching_positions([(1, b1), (0, a1)])
        assert [index.members_at(position) for position in positions] == [[0, 3]]
        assert index.matching_positions([(0, store.encode("A", "a2")), (1, 99)]) == []
        assert finds == [(a1, b1), (store.encode("A", "a2"), 99)]

    def test_matching_mixed_constants_and_wildcards(self, store):
        index = PartitionIndex(store, ("A", "B"))
        positions = index.matching_positions([(0, store.encode("A", "a1"))])
        assert {index.key_codes_at(position) for position in positions} == {
            (store.encode("A", "a1"), store.encode("B", "b1")),
            (store.encode("A", "a1"), store.encode("B", "b2")),
        }

    def test_matching_all_free_yields_every_partition(self, store):
        index = PartitionIndex(store, ("A",))
        assert list(index.matching_positions([])) == list(range(index.class_count))


class TestPartitionIndexCache:
    def test_miss_then_hit(self, rel):
        cache = PartitionIndexCache(rel)
        first = cache.get(("A",))
        second = cache.get(("A",))
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_distinct_attribute_tuples_get_distinct_indexes(self, rel):
        cache = PartitionIndexCache(rel)
        assert cache.get(("A",)) is not cache.get(("A", "B"))
        assert len(cache) == 2

    def test_lru_eviction(self, rel):
        cache = PartitionIndexCache(rel, maxsize=2)
        cache.get(("A",))
        cache.get(("B",))
        cache.get(("A",))        # refresh A: B is now least recently used
        cache.get(("C",))        # evicts B
        assert ("A",) in cache and ("C",) in cache
        assert ("B",) not in cache

    def test_clear(self, rel):
        cache = PartitionIndexCache(rel)
        cache.get(("A",))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_maxsize(self, rel):
        with pytest.raises(DetectionError):
            PartitionIndexCache(rel, maxsize=0)

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_serves_the_kernels_class_index(self, rel, kernel):
        with use_kernel(kernel):
            index = PartitionIndexCache(rel).get(("A",))
        expected = CodePartitionIndex if kernel == "numpy" else PartitionIndex
        assert type(index) is expected


class TestColumnarIngestion:
    """Grouping over codes must be indistinguishable from grouping values."""

    @pytest.mark.parametrize("attributes", [("A",), ("A", "B"), ("C", "A")])
    def test_from_relation_matches_row_ingestion(self, rel, attributes):
        store = ColumnStore.from_relation(rel)
        from_rows = PartitionIndex.from_relation(rel, attributes)
        from_store = PartitionIndex.from_relation(store, attributes)
        assert from_store.class_table() == from_rows.class_table()
        assert _classes(from_store, store) == {
            key: list(group) for key, group in rel.group_by(list(attributes)).items()
        }


class TestCacheStaleness:
    """Mutations behind a live cache must turn reads into loud errors."""

    def test_delete_invalidates_reads(self, rel):
        cache = PartitionIndexCache(rel)
        cache.get(("A",))
        rel.delete(0)
        with pytest.raises(DetectionError):
            cache.get(("A",))

    def test_insert_invalidates_reads(self, rel):
        cache = PartitionIndexCache(rel)
        cache.get(("A",))
        rel.insert(("a9", "b9", "c9"))
        with pytest.raises(DetectionError):
            cache.get(("A",))

    def test_raw_update_without_apply_update_invalidates_reads(self, rel):
        cache = PartitionIndexCache(rel)
        cache.get(("A",))
        rel.update(0, "A", "a9")
        with pytest.raises(DetectionError):
            cache.get(("A",))

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_insert_into_a_column_store_invalidates_reads(self, rel, kernel):
        # The cached index must not pin the store's code columns: the insert
        # itself has to succeed, and only the next read fails.
        store = ColumnStore.from_relation(rel)
        with use_kernel(kernel):
            cache = PartitionIndexCache(store)
            cache.get(("A", "B"))
            store.insert(("a9", "b9", "c9"))
            with pytest.raises(DetectionError):
                cache.get(("A", "B"))
            cache.clear()
            indices, _offsets = cache.get(("A", "B")).class_table()
        assert sorted(int(index) for index in indices) == list(range(len(store)))

    def test_clear_resynchronizes(self, rel):
        cache = PartitionIndexCache(rel)
        cache.get(("A",))
        rel.delete(0)
        cache.clear()
        indices, _offsets = cache.get(("A",)).class_table()
        assert sorted(int(index) for index in indices) == list(range(len(rel)))


# ---------------------------------------------------------------------------
# CodePartitionIndex: the array-backed class index of the numpy kernel
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not numpy_available(), reason="needs the [fast] extra")
class TestCodePartitionIndex:
    """The sorted code-composite index against the dict-backed reference."""

    @pytest.fixture
    def store(self, rel):
        from repro.relation.columnar import ColumnStore

        return ColumnStore.from_relation(rel)

    def _index(self, store, attributes):
        from repro.detection.partition_index import CodePartitionIndex

        return CodePartitionIndex(store, tuple(attributes))

    def test_classes_match_group_by(self, store, rel):
        index = self._index(store, ("A", "B"))
        reference = rel.group_by(["A", "B"])
        seen = {}
        for position in range(index.class_count):
            codes = index.key_codes_at(position)
            key = tuple(
                store.decode(attr, code) for attr, code in zip(("A", "B"), codes)
            )
            seen[key] = index.members_at(position)
        assert seen == {key: list(members) for key, members in reference.items()}

    def test_empty_attributes_single_class(self, store):
        index = self._index(store, ())
        assert index.class_count == 1
        assert index.members_at(0) == [0, 1, 2, 3]
        assert index.key_codes_at(0) == ()

    def test_find(self, store):
        index = self._index(store, ("A",))
        a1 = store.encode("A", "a1")
        assert index.members_at(index.find((a1,))) == [0, 1, 3]
        assert index.find((None,)) == -1  # value absent from the dictionary
        # A code at/above the stride capacity belongs to no live row.
        assert index.find((10_000,)) == -1

    def test_matching_positions_and_gather(self, store):
        index = self._index(store, ("A", "B"))
        b1 = store.encode("B", "b1")
        positions = index.matching_positions([(1, b1)])
        gathered_keys = {index.key_codes_at(int(p)) for p in positions}
        assert all(codes[1] == b1 for codes in gathered_keys)
        indices, offsets = index.gather(positions)
        flat = [int(i) for i in indices]
        assert flat == [
            member for p in positions for member in index.members_at(int(p))
        ]
        assert [int(o) for o in offsets] == [0, 2]

    def test_matching_positions_all_pinned_is_one_find(self, store, monkeypatch):
        index = self._index(store, ("A", "B"))
        finds = _count_finds(monkeypatch, CodePartitionIndex)
        a1, b1 = store.encode("A", "a1"), store.encode("B", "b1")
        positions = index.matching_positions([(0, a1), (1, b1)])
        assert [index.members_at(position) for position in positions] == [[0, 3]]
        assert list(index.matching_positions([(0, a1), (1, 99)])) == []
        assert finds == [(a1, b1), (a1, 99)]

    def test_apply_moves_matches_fresh_rebuild(self, store):
        from repro.detection.partition_index import CodePartitionIndex

        index = self._index(store, ("A", "B"))
        store.update(0, "A", "a2")  # move into an existing code
        store.update(2, "B", "b9")  # fresh dictionary entry, within headroom
        index.apply_moves([0, 2])
        fresh = CodePartitionIndex(store, ("A", "B"))
        assert index.class_count == fresh.class_count
        for position in range(fresh.class_count):
            assert index.members_at(position) == fresh.members_at(position)
            assert index.key_codes_at(position) == fresh.key_codes_at(position)

    def test_apply_moves_headroom_overflow_rebuilds(self, store):
        from repro.detection.partition_index import CodePartitionIndex

        index = self._index(store, ("A",))
        # Outgrow the build-time capacity (dictionary size + headroom) so the
        # delta cannot represent the new code and a full rebuild must kick in.
        headroom = CodePartitionIndex.HEADROOM
        for step in range(headroom + 1):
            store.update(0, "A", f"grown{step}")
        index.apply_moves([0])
        fresh = CodePartitionIndex(store, ("A",))
        for position in range(fresh.class_count):
            assert index.members_at(position) == fresh.members_at(position)
            assert index.key_codes_at(position) == fresh.key_codes_at(position)

    def test_composite_overflow_raises_detection_error(self, store):
        import repro.detection.partition_index as module

        # Shrink the headroom so capacities multiply past int64 and the
        # constructor must refuse (RepairState then falls back to reference
        # mode rather than building a wrong index).
        original = module.CodePartitionIndex.HEADROOM
        module.CodePartitionIndex.HEADROOM = 2**40
        try:
            with pytest.raises(DetectionError):
                self._index(store, ("A", "B"))
        finally:
            module.CodePartitionIndex.HEADROOM = original
