"""Unit tests for the memory-mapped column store and its spill lifecycle.

Three concerns beyond plain storage correctness (which the Hypothesis
storage-agreement grid pins at the behavioural level):

* **backing** — codes really live in files under the spill directory, and
  the store behaves identically to :class:`ColumnStore` through the
  mutation API;
* **lifecycle** — anonymous runs are removed on :meth:`release` (cleanup on
  completion), explicit spill directories survive a simulated crash
  (preserved for post-mortem), and concurrent runs land in isolated
  per-run subdirectories;
* **fallbacks** — the pure-``mmap``/``array`` path used when numpy is
  missing produces the same relation (the no-numpy CI job runs the whole
  suite that way; here we force it locally for one representative check).
"""

from __future__ import annotations

import os

import pytest

from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import (
    SPILL_ENV,
    MmapColumnStore,
    create_run_dir,
    resolve_spill_base,
    spill_run,
)
from repro.relation.schema import Schema

ROWS = [
    ("01", "908", "NYC"),
    ("01", "212", "NYC"),
    ("44", "131", "EDI"),
    ("01", "908", "MH"),
]


@pytest.fixture
def schema():
    return Schema("t", ["CC", "AC", "CT"])


def test_roundtrip_matches_columnar(schema, tmp_path):
    store = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    plain = ColumnStore(schema, ROWS)
    assert store.rows == plain.rows
    assert list(store) == list(plain)
    assert len(store) == len(plain)
    for attribute in schema.names:
        assert store.dictionary(attribute) == plain.dictionary(attribute)
        assert list(store.codes(attribute)) == list(plain.codes(attribute))


def test_codes_are_file_backed(schema, tmp_path):
    store = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    run_dir = store.spill_directory
    assert run_dir is not None and run_dir.is_dir()
    code_files = sorted(path.name for path in run_dir.glob("col*.bin"))
    assert len(code_files) == len(schema)
    for position in range(len(schema)):
        path = run_dir / f"col{position}.0.bin"
        assert path.stat().st_size == len(ROWS) * 4  # one int32 per row


def test_mutation_parity_with_columnar(schema, tmp_path):
    store = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    plain = ColumnStore(schema, ROWS)
    store.insert(("01", "215", "PHI"))
    plain.insert(("01", "215", "PHI"))
    store.update(0, "CT", "BOS")
    plain.update(0, "CT", "BOS")
    store.delete(2)
    plain.delete(2)
    store.extend([("44", "141", "GLA"), ("01", "908", "NYC")])
    plain.extend([("44", "141", "GLA"), ("01", "908", "NYC")])
    assert store.rows == plain.rows
    assert store.version == plain.version


def test_take_and_copy_are_independent(schema, tmp_path):
    store = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    sub = store.take([0, 2])
    assert sub.rows == (ROWS[0], ROWS[2])
    clone = store.copy()
    clone.update(0, "CT", "BOS")
    assert store[0][2] == "NYC"  # writes to a copy never reach the source
    for relation in (sub, clone):
        if isinstance(relation, MmapColumnStore):
            relation.release()


def test_anonymous_run_removed_on_release(schema):
    store = MmapColumnStore(schema, ROWS)
    run_dir = store.spill_directory
    assert run_dir is not None and run_dir.is_dir()
    store.release()
    assert not run_dir.exists()
    store.release()  # idempotent


def test_explicit_dir_preserved_on_simulated_crash(schema, tmp_path):
    base = tmp_path / "spill"
    store = MmapColumnStore(schema, ROWS, spill_dir=base)
    run_dir = store.spill_directory
    # A crash never reaches release(): dropping the reference must leave the
    # explicit spill directory in place for post-mortem inspection.
    del store
    assert run_dir.is_dir()
    assert any(run_dir.iterdir())


def test_explicit_dir_removed_on_release(schema, tmp_path):
    base = tmp_path / "spill"
    store = MmapColumnStore(schema, ROWS, spill_dir=base)
    run_dir = store.spill_directory
    store.release()
    assert not run_dir.exists()
    assert base.is_dir()  # the user-supplied base itself is never deleted


def test_concurrent_runs_are_isolated(schema, tmp_path):
    first = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    second = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    assert first.spill_directory != second.spill_directory
    second.release()
    # Releasing one run never touches the other's files.
    assert first.spill_directory.is_dir()
    assert first.rows == ColumnStore(schema, ROWS).rows
    first.release()


def test_spill_env_overrides_default_base(schema, tmp_path, monkeypatch):
    monkeypatch.setenv(SPILL_ENV, str(tmp_path / "from-env"))
    base, explicit = resolve_spill_base(None)
    assert base == tmp_path / "from-env"
    assert explicit
    store = MmapColumnStore(schema, ROWS)
    assert store.spill_directory.parent == tmp_path / "from-env"
    store.release()


def test_spill_run_context(tmp_path):
    with spill_run(tmp_path) as run_dir:
        assert run_dir.is_dir()
        (run_dir / "marker").write_text("x")
    assert not run_dir.exists()  # removed on clean exit
    with pytest.raises(RuntimeError):
        with spill_run(tmp_path) as run_dir:
            (run_dir / "marker").write_text("x")
            raise RuntimeError("simulated crash")
    assert run_dir.is_dir()  # preserved on crash


def test_create_run_dir_unique(tmp_path):
    first = create_run_dir(tmp_path)
    second = create_run_dir(tmp_path)
    assert first != second
    assert first.parent == second.parent == tmp_path


def test_from_relation_conversions(schema, tmp_path):
    plain = ColumnStore(schema, ROWS)
    adopted = MmapColumnStore.from_relation(plain, spill_dir=tmp_path)
    assert adopted.rows == plain.rows
    again = MmapColumnStore.from_relation(adopted)
    assert again.rows == plain.rows
    assert again is not adopted
    adopted.release()
    again.release()


def test_adopt_spilled_roundtrip(schema, tmp_path):
    store = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    run_dir = store.spill_directory
    dictionaries = [list(store.dictionary(name)) for name in schema.names]
    adopted = MmapColumnStore.adopt_spilled(
        schema, str(run_dir), len(ROWS), dictionaries
    )
    assert adopted.rows == store.rows
    store.release()


def test_python_fallback_matches(schema, tmp_path, monkeypatch):
    import repro.relation.mmap_store as ms

    monkeypatch.setattr(ms, "_np_module", None)
    monkeypatch.setattr(ms, "_np_checked", True)
    store = MmapColumnStore(schema, ROWS, spill_dir=tmp_path)
    plain = ColumnStore(schema, ROWS)
    store.update(1, "CT", "BOS")
    plain.update(1, "CT", "BOS")
    assert store.rows == plain.rows
    store.release()


def test_chunked_ingestion_never_holds_all_rows(schema, tmp_path):
    # chunk_rows=2 forces multiple flushes; the result must still match a
    # single-shot build row for row.
    def rows():
        for index in range(25):
            yield (f"{index % 3}", f"{index % 5}", f"ct{index % 7}")

    chunked = MmapColumnStore(schema, rows(), spill_dir=tmp_path, chunk_rows=2)
    plain = ColumnStore(schema, list(rows()))
    assert chunked.rows == plain.rows
    chunked.release()
