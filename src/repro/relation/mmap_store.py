"""Memory-mapped columnar storage: code columns that live on disk.

A :class:`MmapColumnStore` is a :class:`~repro.relation.columnar.ColumnStore`
whose encoded code columns are backed by files in a per-run *spill
directory* and accessed through memory maps — ``numpy.memmap`` when the
``[fast]`` extra is installed, a raw :mod:`mmap` viewed as a
``memoryview("i")`` otherwise.  The dictionaries (value ↔ code) stay in
memory: they grow with the number of *distinct* values, not with the number
of rows, so a 10M-row relation costs the process its dictionaries plus one
ingestion block of Python rows and one chunk of buffered codes — the
O(rows) payload lives in the page cache, where the OS can evict it under
memory pressure.

Differences from the in-memory parent, none of them observable through the
:class:`~repro.relation.relation.Relation` API:

* **always encoded** — there is no pending row block; every column is a
  mapped code array from the first row on (an empty relation holds empty
  ``array('i')`` placeholders, since a zero-length file cannot be mapped);
* **block-wise ingestion** — :meth:`extend` interns each column of a
  validated block into small code buffers and flushes them to the column
  files every ``chunk_rows`` rows, so the full relation is never
  materialised as Python rows;
* **append = grow + remap** — inserts append bytes to the same column file
  and remap it (the file only ever grows, so any older, shorter map other
  code still holds stays valid);
* **delete = new generation** — deletes rewrite the column into a fresh
  ``col<p>.<gen>.bin`` and unlink the old file instead of truncating it in
  place (truncating a mapped file is a ``SIGBUS`` waiting to happen);
  unlinking while mapped is safe — live maps keep serving off the unlinked
  pages.

Spill layout and lifecycle (``docs/out_of_core.md`` has the full model):
every store owns one run directory ``run-<pid>-<seq>`` under a base that
resolves explicit argument → ``REPRO_SPILL_DIR`` → the system temp
directory.  Anonymous (temp-based) runs are removed by a ``weakref``
finalizer when the store is garbage collected; runs under an explicit base
are user-managed — :meth:`MmapColumnStore.release` (or the
:func:`spill_run` context manager) removes them on success, and a crash
preserves them for debugging.  The ``pid``/counter naming keeps concurrent
processes and concurrent stores in one process isolated from each other.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import shutil
import tempfile
import weakref
from array import array
from pathlib import Path
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.kernels import numpy_available
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation, Row
from repro.relation.schema import Schema

#: Environment variable naming the spill base directory (the middle rung of
#: the resolution chain: explicit argument → this variable → system tempdir).
SPILL_ENV = "REPRO_SPILL_DIR"

#: Rows interned into the in-memory buffers between flushes to the column
#: files during chunked ingestion.  The per-chunk memory is what bounds the
#: resident cost of building an arbitrarily large store.
DEFAULT_CHUNK_ROWS = 65_536

_CODE_ITEMSIZE = array("i").itemsize

_RUN_COUNTER = itertools.count()

_np_module: Optional[Any] = None
_np_checked = False


def _numpy() -> Optional[Any]:
    """The numpy module when importable, else ``None`` (probed once)."""
    global _np_module, _np_checked
    if not _np_checked:
        _np_checked = True
        if numpy_available():
            import numpy

            _np_module = numpy
    return _np_module


# ---------------------------------------------------------------------------
# spill-directory lifecycle
# ---------------------------------------------------------------------------
def resolve_spill_base(
    spill_dir: Optional[Union[str, Path]] = None,
) -> Tuple[Path, bool]:
    """The spill base directory and whether it was explicitly chosen.

    Resolution: an explicit ``spill_dir`` argument, then the
    :data:`SPILL_ENV` environment variable, then ``<tempdir>/repro-spill``.
    The flag drives cleanup policy — explicit bases are user-managed
    (preserved on crash for debugging), anonymous temp runs are finalized
    with the store.
    """
    if spill_dir:
        return Path(spill_dir), True
    env = os.environ.get(SPILL_ENV)
    if env:
        return Path(env), True
    return Path(tempfile.gettempdir()) / "repro-spill", False


def create_run_dir(base: Path) -> Path:
    """A fresh ``run-<pid>-<seq>`` directory under ``base``.

    The pid isolates concurrent processes sharing one base, the
    process-wide counter isolates concurrent stores in one process, and the
    creation loop closes the (theoretical) race with a stale same-named
    directory left by a previous pid reuse.
    """
    base.mkdir(parents=True, exist_ok=True)
    while True:
        run_dir = base / f"run-{os.getpid()}-{next(_RUN_COUNTER)}"
        try:
            run_dir.mkdir()
        except FileExistsError:
            continue
        return run_dir


@contextlib.contextmanager
def spill_run(spill_dir: Optional[Union[str, Path]] = None) -> Iterator[Path]:
    """A per-run spill directory, removed on success and kept on failure.

    The directory is yielded for the caller to place spill files in; a
    clean exit removes it, an exception propagates with the directory (and
    whatever partial state it holds) preserved for post-mortem inspection.
    """
    base, _ = resolve_spill_base(spill_dir)
    run_dir = create_run_dir(base)
    yield run_dir
    shutil.rmtree(str(run_dir), ignore_errors=True)


def _map_codes(path: Path, count: int) -> Any:
    """A writable ``"i"``-typed map over ``count`` codes stored at ``path``.

    Zero rows map to an empty ``array('i')`` placeholder — an empty file
    cannot be memory-mapped.  With numpy the map is an ``np.memmap`` (an
    ndarray, so the kernels consume it zero-copy); without it a raw
    ``mmap`` is cast to a ``memoryview("i")``, which satisfies the same
    sequence protocol the pure-Python kernels use.
    """
    if count == 0:
        return array("i")
    np_module = _numpy()
    if np_module is not None:
        return np_module.memmap(
            str(path), dtype=np_module.intc, mode="r+", shape=(count,)
        )
    descriptor = os.open(str(path), os.O_RDWR)
    try:
        mapped = mmap.mmap(descriptor, count * _CODE_ITEMSIZE, access=mmap.ACCESS_WRITE)
    finally:
        os.close(descriptor)
    return memoryview(mapped).cast("i")


def _code_bytes(column: Any) -> bytes:
    """The raw little-endian-native bytes of any code column representation."""
    if isinstance(column, array):
        return column.tobytes()
    np_module = _numpy()
    if np_module is not None and isinstance(column, np_module.ndarray):
        return column.tobytes()
    return bytes(column)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------
class MmapColumnStore(ColumnStore):
    """A :class:`ColumnStore` whose code columns live in memory-mapped files.

    Drop-in for the parent everywhere a relation is consumed: the code
    protocol (:meth:`codes`, :meth:`project_codes`, :meth:`group_indices`,
    …) serves mapped arrays that both kernels consume directly, and every
    mutator keeps the files consistent with the in-memory dictionaries.
    Reports, repairs and versions are byte-identical to the in-memory
    store by the storage-agreement contract
    (``tests/integration/test_storage_agreement.py``).

    >>> from repro.relation.schema import Schema
    >>> store = MmapColumnStore(Schema("r", ["A", "B"]), [("x", 1), ("y", 2)])
    >>> store[1]
    ('y', 2)
    >>> list(store.codes("A"))
    [0, 1]
    >>> store.release()
    """

    __slots__ = (
        "_base",
        "_explicit",
        "_dir",
        "_gens",
        "_chunk_rows",
        "_buffers",
        "_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        schema: Schema,
        rows: Optional[Iterable[Union[Row, Mapping[str, Any]]]] = None,
        *,
        spill_dir: Optional[Union[str, Path]] = None,
        chunk_rows: Optional[int] = None,
    ) -> None:
        super().__init__(schema)
        width = len(schema)
        # Always-encoded: no pending block, and empty array('i')
        # placeholders standing in for unmappable zero-row files.
        self._pending = None
        self._codes = [array("i") for _ in range(width)]
        base, explicit = resolve_spill_base(spill_dir)
        self._base = base
        self._explicit = explicit
        self._dir = create_run_dir(base)
        self._gens = [0] * width
        self._chunk_rows = max(1, int(chunk_rows)) if chunk_rows else DEFAULT_CHUNK_ROWS
        #: Per column, the codes interned since the last flush.
        self._buffers = [array("i") for _ in range(width)]
        # Anonymous temp runs are garbage; explicit bases are user-managed
        # and must survive a crash (release() removes them on success).
        self._finalizer = (
            None
            if explicit
            else weakref.finalize(self, shutil.rmtree, str(self._dir), True)
        )
        if rows is not None:
            self.extend(rows)

    # ------------------------------------------------------------------ spill files
    @property
    def spill_directory(self) -> Path:
        """The run directory holding this store's column files."""
        return self._dir

    def _column_path(self, position: int) -> Path:
        return self._dir / f"col{position}.{self._gens[position]}.bin"

    def _remap(self) -> None:
        """Re-open every column map at the current length."""
        for position in range(len(self._schema)):
            self._codes[position] = _map_codes(
                self._column_path(position), self._length
            )

    def _flush(self) -> None:
        """Append the buffered codes to the column files and clear the buffers."""
        if not len(self._buffers[0]):
            return
        for position, buffer in enumerate(self._buffers):
            with open(self._column_path(position), "ab") as handle:
                handle.write(buffer.tobytes())
            del buffer[:]

    def release(self) -> None:
        """Remove this store's spill directory (idempotent).

        Live maps keep serving off the unlinked pages, so a released store
        remains readable until it is garbage collected; the disk space is
        reclaimed when the last map closes.  Call this when a run under an
        explicit spill base succeeds — anonymous temp runs are finalized
        automatically.
        """
        if self._finalizer is not None:
            self._finalizer()
        else:
            shutil.rmtree(str(self._dir), ignore_errors=True)

    # ------------------------------------------------------------------ ingestion
    def extend(self, rows: Iterable[Union[Row, Mapping[str, Any]]]) -> None:
        """Insert several rows through the block path, then flush and remap.

        Remapping only here keeps the maps unread while the files grow.  It
        also runs when a bad row stops the extend, so earlier rows are kept.
        """
        try:
            super().extend(rows)
        finally:
            self._flush()
            self._remap()

    def _extend_validated(self, block: List[Row]) -> None:
        # Flush first, so the buffers hold at most chunk_rows codes, or one
        # block when chunk_rows is smaller.  Interning is all or nothing, so
        # a failed block leaves every buffer at the same length.
        if len(self._buffers[0]) + len(block) > self._chunk_rows:
            self._flush()
        self._intern_columns(list(zip(itertools.count(), zip(*block), self._buffers)))
        self._length += len(block)

    # ------------------------------------------------------------------ mutation
    # update() is inherited unchanged: the maps are writable, so the
    # parent's in-place code swap writes straight through to the file.

    def delete(self, index: int) -> Row:
        """Remove and return the row at ``index``.

        Each column is rewritten into a new generation file and the old one
        unlinked — never truncated in place, which would ``SIGBUS`` any map
        still open over the shrunk region.
        """
        row = self[index]
        for position in range(len(self._schema)):
            remaining = array("i")
            remaining.frombytes(_code_bytes(self._codes[position]))
            remaining.pop(index)
            self._rewrite_column(position, remaining)
        self._length -= 1
        self._version += 1
        return row

    def _rewrite_column(self, position: int, codes: array) -> None:
        stale = self._column_path(position)
        self._gens[position] += 1
        fresh = self._column_path(position)
        with open(fresh, "wb") as handle:
            handle.write(codes.tobytes())
        self._codes[position] = _map_codes(fresh, len(codes))
        with contextlib.suppress(OSError):
            stale.unlink()

    # ------------------------------------------------------------------ algebra
    def _gather(self, indices: Optional[List[int]]) -> MmapColumnStore:
        """A new mapped store (own run dir, same base) with the chosen rows."""
        clone = self._spawn()
        width = len(self._schema)
        for position in range(width):
            clone._values[position] = list(self._values[position])
            clone._value_maps[position] = dict(self._value_maps[position])
        count = self._length if indices is None else len(indices)
        if count:
            np_module = _numpy()
            gather = (
                np_module.asarray(indices, dtype=np_module.intp)
                if np_module is not None and indices is not None
                else None
            )
            for position in range(width):
                source = self._codes[position]
                with open(clone._column_path(position), "wb") as handle:
                    if indices is None:
                        handle.write(_code_bytes(source))
                    elif gather is not None:
                        taken = np_module.asarray(source, dtype=np_module.intc)[gather]
                        handle.write(taken.tobytes())
                    else:
                        limit = self._chunk_rows
                        for start in range(0, count, limit):
                            block = array(
                                "i",
                                (
                                    source[index]
                                    for index in indices[start : start + limit]
                                ),
                            )
                            handle.write(block.tobytes())
            clone._length = count
            clone._remap()
        return clone

    def _spawn(self) -> MmapColumnStore:
        return MmapColumnStore(
            self._schema,
            spill_dir=str(self._base) if self._explicit else None,
            chunk_rows=self._chunk_rows,
        )

    def _copy_column(
        self,
        position: int,
        target_store: ColumnStore,
        target_position: int,
        indices: Optional[Sequence[int]],
    ) -> None:
        # Projections build plain in-memory ColumnStores; materialise the
        # codes instead of handing the target a view into our files (a view
        # would alias the spill, and writes through it would corrupt us).
        gathered = array("i")
        codes = self._codes[position]
        if indices is None:
            gathered.frombytes(_code_bytes(codes))
        else:
            gathered.extend(int(codes[index]) for index in indices)
        target_store._codes[target_position] = gathered
        target_store._values[target_position] = list(self._values[position])
        target_store._value_maps[target_position] = dict(self._value_maps[position])

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_validated_rows(
        cls,
        schema: Schema,
        rows: Iterable[Row],
        *,
        spill_dir: Optional[Union[str, Path]] = None,
    ) -> MmapColumnStore:
        """Adopt positional rows for ``schema``, starting at version 0.

        Unlike :meth:`Relation.from_validated_rows`, the rows are validated
        again: they take the block path of :meth:`extend`, whose checks cost
        little next to the encoding, and which flushes and remaps the files.
        """
        store = cls(schema, rows, spill_dir=spill_dir)
        store._version = 0
        return store

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        *,
        spill_dir: Optional[Union[str, Path]] = None,
    ) -> MmapColumnStore:
        """Mapped copy of an existing relation.

        Row relations go through :meth:`from_validated_rows`, so their rows
        are validated again on the way in.  An encoded :class:`ColumnStore`
        transfers column-wise — its code arrays are written to the spill
        files directly and its dictionaries copied — so conversion never
        round-trips through Python rows.
        """
        if isinstance(relation, MmapColumnStore):
            return relation.copy()
        if not isinstance(relation, ColumnStore):
            return cls.from_validated_rows(
                relation.schema, relation, spill_dir=spill_dir
            )
        store = cls(relation.schema, spill_dir=spill_dir)
        store._adopt_columnar(relation)
        return store

    def _adopt_columnar(self, source: ColumnStore) -> None:
        count = len(source)
        for position in range(len(self._schema)):
            codes = source._ensure_encoded(position)
            self._values[position] = list(source._values[position])
            self._value_maps[position] = dict(source._value_maps[position])
            if count:
                with open(self._column_path(position), "wb") as handle:
                    handle.write(_code_bytes(codes))
        self._length = count
        if count:
            self._remap()

    @classmethod
    def adopt_spilled(
        cls,
        schema: Schema,
        directory: Union[str, Path],
        length: int,
        dictionaries: Sequence[Sequence[Any]],
    ) -> MmapColumnStore:
        """Open shard files written by :func:`repro.parallel.sharding.spill_shards`.

        The directory must hold one ``col<p>.0.bin`` per schema position
        with ``length`` codes each; ``dictionaries`` is the per-position
        decode list.  The adopted store does **not** own the directory —
        no finalizer is attached and :meth:`release` is the owner's call —
        so worker processes can map their shard without racing the parent
        plan's cleanup.
        """
        store = cls.__new__(cls)
        width = len(schema)
        store._schema = schema
        store._version = 0
        store._pending = None
        store._values = [list(values) for values in dictionaries]
        store._value_maps = [
            {value: code for code, value in enumerate(values)}
            for values in dictionaries
        ]
        store._length = length
        run_dir = Path(directory)
        store._base = run_dir.parent
        store._explicit = True
        store._dir = run_dir
        store._gens = [0] * width
        store._chunk_rows = DEFAULT_CHUNK_ROWS
        store._finalizer = None
        store._buffers = [array("i") for _ in range(width)]
        store._codes = [
            _map_codes(store._column_path(position), length)
            for position in range(width)
        ]
        return store

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:
        entries = sum(len(values) for values in self._values)
        return (
            f"MmapColumnStore({self._schema.name!r}, {self._length} rows, "
            f"{entries} dictionary entries, spill={str(self._dir)!r})"
        )


__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "MmapColumnStore",
    "SPILL_ENV",
    "create_run_dir",
    "resolve_spill_base",
    "spill_run",
]
