"""Tests for the partition index and its LRU cache."""

import pytest

from repro.core.pattern import DONTCARE, WILDCARD, PatternValue
from repro.detection.partition_index import PartitionIndex, PartitionIndexCache
from repro.errors import DetectionError
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


class TestPartitionIndex:
    def test_groups_match_relation_group_by(self, rel):
        index = PartitionIndex.from_relation(rel, ("A", "B"))
        assert dict(index.partitions()) == rel.group_by(["A", "B"])

    def test_get_and_contains(self, rel):
        index = PartitionIndex.from_relation(rel, ("A",))
        assert index.get(("a1",)) == (0, 1, 3)
        assert index.get(("zzz",)) == ()
        assert ("a2",) in index
        assert ("zzz",) not in index

    def test_len_and_tuple_count(self, rel):
        index = PartitionIndex.from_relation(rel, ("B",))
        assert len(index) == 2
        assert index.tuple_count == len(rel)

    def test_batched_add_tuples_equals_one_shot(self, rel):
        store = ColumnStore.from_relation(rel)
        one_shot = PartitionIndex.from_relation(store, ("A", "B"))
        for batch_size in (1, 2, 3, 100):
            batched = PartitionIndex(rel.schema, ("A", "B"))
            for start in range(0, len(store), batch_size):
                batched.add_encoded(store, start, min(start + batch_size, len(store)))
            assert dict(batched.partitions()) == dict(one_shot.partitions())
            assert batched.tuple_count == one_shot.tuple_count

    def test_add_tuples_continues_indices_across_batches(self, rel):
        store = ColumnStore.from_relation(rel)
        index = PartitionIndex(rel.schema, ("A",))
        next_index = index.add_encoded(store, 0, 2)
        assert next_index == 2
        assert index.add_encoded(store, 2, len(store)) == 4
        assert index.get(("a1",)) == (0, 1, 3)

    def test_add_tuples_rejects_overlapping_start_index(self, rel):
        store = ColumnStore.from_relation(rel)
        index = PartitionIndex(rel.schema, ("A",))
        index.add_encoded(store, 0, 2)
        with pytest.raises(DetectionError):
            index.add_encoded(store, 0, 2)

    def test_empty_attribute_tuple_gives_single_partition(self, rel):
        index = PartitionIndex.from_relation(rel, ())
        assert index.get(()) == (0, 1, 2, 3)
        assert len(index) == 1

    def test_matching_all_constant_is_a_lookup(self, rel):
        index = PartitionIndex.from_relation(rel, ("A", "B"))
        cells = [PatternValue.constant("a1"), PatternValue.constant("b1")]
        assert [(key, group) for key, group in index.matching(cells)] == [
            (("a1", "b1"), [0, 3])
        ]
        missing = [PatternValue.constant("zz"), PatternValue.constant("b1")]
        assert list(index.matching(missing)) == []

    def test_matching_mixed_constants_and_wildcards(self, rel):
        index = PartitionIndex.from_relation(rel, ("A", "B"))
        cells = [PatternValue.constant("a1"), WILDCARD]
        assert {key for key, _ in index.matching(cells)} == {("a1", "b1"), ("a1", "b2")}

    def test_matching_all_free_yields_every_partition(self, rel):
        index = PartitionIndex.from_relation(rel, ("A",))
        assert {key for key, _ in index.matching([WILDCARD])} == {("a1",), ("a2",)}
        assert {key for key, _ in index.matching([DONTCARE])} == {("a1",), ("a2",)}

    def test_matching_rejects_misaligned_cells(self, rel):
        index = PartitionIndex.from_relation(rel, ("A", "B"))
        with pytest.raises(DetectionError):
            list(index.matching([WILDCARD]))

    def test_multi_tuple_partitions(self, rel):
        index = PartitionIndex.from_relation(rel, ("A", "B"))
        assert dict(index.multi_tuple_partitions()) == {("a1", "b1"): [0, 3]}


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

    def test_seed_prebuilt_index(self, rel):
        cache = PartitionIndexCache(rel)
        prebuilt = PartitionIndex.from_relation(rel, ("C",))
        cache.seed(prebuilt)
        assert cache.get(("C",)) is prebuilt
        assert cache.stats()["misses"] == 0

    def test_seed_rejects_index_not_covering_the_relation(self, rel):
        cache = PartitionIndexCache(rel)
        partial = PartitionIndex(rel.schema, ("C",))
        partial.add_encoded(cache.store, 0, 2)
        with pytest.raises(DetectionError):
            cache.seed(partial)

    def test_clear(self, rel):
        cache = PartitionIndexCache(rel)
        cache.get(("A",))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_maxsize(self, rel):
        with pytest.raises(DetectionError):
            PartitionIndexCache(rel, maxsize=0)


class TestColumnarIngestion:
    """Grouping over codes must be indistinguishable from grouping values."""

    def _store(self, rel):
        from repro.relation.columnar import ColumnStore

        return ColumnStore.from_relation(rel)

    @pytest.mark.parametrize("attributes", [("A",), ("A", "B"), ("C", "A")])
    def test_from_relation_matches_row_ingestion(self, rel, attributes):
        row_index = PartitionIndex.from_relation(rel, attributes)
        columnar_index = PartitionIndex.from_relation(self._store(rel), attributes)
        assert list(columnar_index.partitions()) == list(row_index.partitions())
        assert columnar_index.tuple_count == row_index.tuple_count

    def test_batched_add_encoded_matches_one_shot(self, rel):
        store = self._store(rel)
        batched = PartitionIndex(rel.schema, ("A",))
        batched.add_encoded(store, 0, 2)
        batched.add_encoded(store, 2, len(store))
        one_shot = PartitionIndex.from_relation(store, ("A",))
        assert list(batched.partitions()) == list(one_shot.partitions())

    def test_non_contiguous_batch_raises(self, rel):
        store = self._store(rel)
        index = PartitionIndex(rel.schema, ("A",))
        index.add_encoded(store, 0, 2)
        with pytest.raises(DetectionError):
            index.add_encoded(store, 3, 4)


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

    def test_clear_resynchronizes(self, rel):
        cache = PartitionIndexCache(rel)
        cache.get(("A",))
        rel.delete(0)
        cache.clear()
        assert cache.get(("A",)).tuple_count == len(rel)


# ---------------------------------------------------------------------------
# CodePartitionIndex: the array-backed partition map of the batched repair path
# ---------------------------------------------------------------------------
from repro.kernels import numpy_available  # noqa: E402


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
