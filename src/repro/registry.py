"""Backend names, ``method="auto"`` selection and the storage rule.

The backends are a fixed set, one table per stage, each entry holding the
backend and whether it computes over dictionary codes:

* :data:`repro.detection.engine.DETECTORS` maps a name to a detector
  ``(relation, cfds, config) -> ViolationReport``;
* :data:`repro.repair.heuristic.REPAIRERS` maps a name to a repair engine
  factory ``(relation, cfds, config)`` whose engine exposes ``relation``,
  ``report()`` and ``update(index, attribute, value)`` — the protocol the
  greedy repair loop drives — or, for the *self-driving* sharded engine, a
  single ``run(cost_model)`` method that owns the whole fixpoint.

Their names are :data:`repro.config.DETECTION_BACKENDS` and
:data:`repro.config.REPAIR_BACKENDS`, which the configs validate against.
The special name ``"auto"`` is not a backend: :func:`resolve_detector` and
:func:`resolve_repairer` translate it to a concrete name from the workload
shape (relation size x pattern count).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.config import AUTO, DETECTION_BACKENDS
from repro.core.cfd import CFD
from repro.errors import RegistryError
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation

#: Detection workload size (rows x pattern tuples) up to which ``auto``
#: picks the in-memory oracle over the indexed backend.  The value was sized
#: when the oracle scanned the relation once per pattern tuple, so its cost
#: grew with this product.  The oracle now scans once per constant-LHS mask
#: and the value has not been re-measured: on 10K tax rows x 100 patterns
#: (20x the threshold) the oracle read 0.009 s against ``indexed``'s
#: 0.013 s on a 2-CPU VM.
AUTO_CELL_THRESHOLD = 50_000


def apply_storage(
    relation: Relation,
    storage: str,
    columnar_capable: bool,
    spill_dir: Optional[str] = None,
) -> Relation:
    """The relation in the storage layer the resolved backend should see.

    ``storage`` is a config's storage name
    (:attr:`repro.config.EngineConfig.storage`).  Columnar-capable backends
    compute over codes only, so they always get a
    :class:`~repro.relation.columnar.ColumnStore`: ``"mmap"`` spills the
    code columns to memory-mapped files under ``spill_dir``, and a
    :class:`~repro.relation.mmap_store.MmapColumnStore` passes a
    ``"columnar"`` request through unchanged — it *is* a column store, and
    decoding it back into memory would defeat the out-of-core point.
    The row-reading ``scan`` repair engine gets materialised rows: one
    decode pass here is far cheaper than the per-cell reads and writes its
    passes would otherwise pay against an encoded relation.  Detection
    dispatch calls this for the code-computing detectors only.  When no
    conversion is needed the relation is returned as-is (callers that must
    not share state copy afterwards, as :func:`repro.repair.heuristic.repair`
    does).
    """
    if not columnar_capable:
        if isinstance(relation, ColumnStore):
            return Relation.from_validated_rows(relation.schema, relation)
        return relation
    if storage == "mmap" and not isinstance(relation, MmapColumnStore):
        return MmapColumnStore.from_relation(relation, spill_dir=spill_dir)
    if not isinstance(relation, ColumnStore):
        return ColumnStore.from_relation(relation)
    return relation


def detector_names() -> Tuple[str, ...]:
    """Every detection backend name, sorted."""
    return DETECTION_BACKENDS


# ---------------------------------------------------------------------------
# automatic backend selection
# ---------------------------------------------------------------------------
def _workload_cells(relation: Relation, cfds: Sequence[CFD]) -> int:
    patterns = sum(len(cfd.tableau) for cfd in cfds)
    return len(relation) * max(1, patterns)


def select_detection_method(relation: Relation, cfds: Sequence[CFD]) -> str:
    """The backend ``method="auto"`` resolves to for this detection workload.

    The oracle scans the relation once per constant-LHS mask, with a dict
    lookup per row — ``O(rows x masks + patterns)`` — so on small products
    it beats paying the partition-map build; past
    :data:`AUTO_CELL_THRESHOLD` the indexed backend's one grouping pass per
    distinct LHS set wins, at every size.

    ``auto`` never picks the sharded ``parallel`` backend, however large the
    relation: it stays an explicit method.  Measured on a 2-CPU host, its
    shard planning, spill, pool start-up and IPC cost more than the serial
    work they split (ROADMAP item 1's table: parallel detection 3–7× slower
    than ``indexed`` from 160K to 1M rows).  On the 160K-row input of the
    ``fd-clean`` benchmark workload, a 2-worker, 2-shard parallel clean
    took 1.74–1.80 s (detect 0.67–0.71 s) against 1.06–1.13 s (detect
    0.20 s) for ``indexed`` + ``incremental``, with the same 4,353 changes
    at the same cost.
    """
    if _workload_cells(relation, cfds) <= AUTO_CELL_THRESHOLD:
        return "inmemory"
    return "indexed"


def select_repair_method(relation: Relation, cfds: Sequence[CFD]) -> str:
    """The engine ``method="auto"`` resolves to for this repair workload.

    Always the delta-maintained ``incremental`` state.  It beats the
    sharded ``parallel`` engine at every size measured on a 2-CPU host
    (ROADMAP item 1's table; on the 160K-row ``fd-clean`` input, repair
    took 0.34–0.37 s against 0.48 s sharded, with the same changes at the
    same cost), so ``parallel`` stays an explicit method.
    """
    return "incremental"


def resolve_detector(
    method: str, relation: Optional[Relation] = None, cfds: Sequence[CFD] = ()
) -> str:
    """The detection backend ``method`` (possibly ``"auto"``) names.

    ``"auto"`` requires ``relation`` so the workload shape can be inspected.
    """
    if method != AUTO:
        return method
    if relation is None:
        raise RegistryError('method="auto" needs the relation to pick a backend')
    return select_detection_method(relation, cfds)


def resolve_repairer(
    method: str, relation: Optional[Relation] = None, cfds: Sequence[CFD] = ()
) -> str:
    """The repair engine ``method`` (possibly ``"auto"``) names."""
    if method != AUTO:
        return method
    if relation is None:
        raise RegistryError('method="auto" needs the relation to pick a backend')
    return select_repair_method(relation, cfds)
