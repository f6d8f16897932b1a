"""Unified violation detection API.

``detect_violations`` dispatches through the fixed :data:`DETECTORS` table
between the pure-Python detector (:mod:`repro.core.satisfaction`), the SQL
detector (:mod:`repro.sql.engine`), the partition-indexed detector
(:mod:`repro.detection.indexed`) and its sharded variant
(:mod:`repro.parallel.engine`).  The pure-Python detector serves as the
correctness oracle; ``cross_check`` compares the three serial detectors
pairwise and is used heavily in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple, Union

from repro.config import DetectionConfig
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.core.violations import ViolationReport
from repro.detection.indexed import find_violations_indexed
from repro.errors import ConfigError, DetectionError
from repro.kernels import use_kernel
from repro.registry import apply_storage, resolve_detector
from repro.relation.relation import Relation
from repro.rules import compile_rules
from repro.sql.engine import SQLDetector

#: The serial backends, every one :func:`cross_check` compares.
DETECTION_METHODS = ("inmemory", "sql", "indexed")


# ---------------------------------------------------------------------------
# the backends
# ---------------------------------------------------------------------------
def _detect_inmemory(
    relation: Relation, cfds: Sequence[CFD], config: DetectionConfig
) -> ViolationReport:
    return find_all_violations(relation, cfds)


def _detect_indexed(
    relation: Relation, cfds: Sequence[CFD], config: DetectionConfig
) -> ViolationReport:
    return find_violations_indexed(relation, cfds)


def _detect_sql(
    relation: Relation, cfds: Sequence[CFD], config: DetectionConfig
) -> ViolationReport:
    with SQLDetector(relation) as detector:
        return detector.detect(cfds, config=config).report


def _detect_parallel(
    relation: Relation, cfds: Sequence[CFD], config: DetectionConfig
) -> ViolationReport:
    # Imported on first use: repro.parallel builds on the serial engines,
    # which therefore do not import it at load time.
    from repro.parallel.engine import find_violations_parallel

    return find_violations_parallel(
        relation,
        cfds,
        shard_count=config.shard_count,
        workers=config.workers,
        spill_dir=config.spill_dir,
    )


#: Every detection backend (the names of
#: :data:`repro.config.DETECTION_BACKENDS`) and whether it computes over
#: codes.  Dispatch hands the code-computing ones the relation in the
#: configured storage (:func:`repro.registry.apply_storage`); the oracle
#: reads ``attrs(φ)`` of any storage through
#: :meth:`~repro.relation.relation.Relation.project_rows`, and the SQL
#: loader iterates the rows of any storage once.
DETECTORS: Dict[str, Tuple[Callable[..., ViolationReport], bool]] = {
    "indexed": (_detect_indexed, True),
    "inmemory": (_detect_inmemory, False),
    "parallel": (_detect_parallel, True),
    "sql": (_detect_sql, False),
}


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------
def detect_violations(
    relation: Relation,
    cfds: Union[CFD, Sequence[CFD]],
    method: Optional[str] = None,
    strategy: Optional[str] = None,
    form: Optional[str] = None,
    config: Optional[DetectionConfig] = None,
) -> ViolationReport:
    """Find every violation of ``cfds`` in ``relation``.

    Parameters
    ----------
    method:
        ``"inmemory"`` (default) uses the pure-Python detector;
        ``"sql"`` loads the data into SQLite and runs the paper's detection
        queries; ``"indexed"`` uses the partition-index backend, which
        groups tuples once per distinct LHS attribute set, over dictionary
        codes; ``"parallel"`` shards the indexed backend over a process
        pool; ``"auto"`` picks a backend from the workload shape.
    strategy, form:
        SQL-only knobs; with any other ``method`` they raise
        :class:`~repro.errors.DetectionError`.
    config:
        A :class:`~repro.config.DetectionConfig` carrying the same options;
        mutually exclusive with explicit ``method``/``strategy``/``form``.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> report = detect_violations(cust_relation(), cust_cfds())
    >>> report.is_clean()
    False
    """
    cfds = compile_rules(cfds)
    if config is not None:
        if method is not None or strategy is not None or form is not None:
            raise DetectionError(
                "pass either a DetectionConfig or explicit method/strategy/form "
                "keywords, not both"
            )
    else:
        try:
            config = DetectionConfig(
                method="inmemory" if method is None else method,
                strategy=strategy,
                form=form,
            )
        except ConfigError as error:
            raise DetectionError(str(error)) from None
    name = resolve_detector(config.method, relation, cfds)
    backend, columnar = DETECTORS[name]
    # Code-computing backends see the relation in the configured storage
    # layer (encoded once here; already-encoded input passes through); every
    # other backend reads whatever the caller holds.  The configured kernel
    # is active for the duration of the backend call.  Reports are
    # byte-identical either way — storage and kernel are speed knobs, not
    # semantics knobs.
    if columnar:
        relation = apply_storage(
            relation, config.storage, True, spill_dir=config.spill_dir
        )
    with use_kernel(config.kernel):
        return backend(relation, cfds, config.with_method(name))


@dataclass(frozen=True)
class CrossCheckResult:
    """Outcome of comparing the three detection backends on the same input."""

    inmemory_indices: FrozenSet[int]
    sql_indices: FrozenSet[int]
    indexed_indices: FrozenSet[int]

    def _index_sets(self) -> Dict[str, FrozenSet[int]]:
        return {
            "inmemory": self.inmemory_indices,
            "sql": self.sql_indices,
            "indexed": self.indexed_indices,
        }

    @property
    def agree(self) -> bool:
        """Whether every backend reported the same violating tuples."""
        sets = list(self._index_sets().values())
        return all(current == sets[0] for current in sets[1:])

    @property
    def only_inmemory(self) -> FrozenSet[int]:
        return self.inmemory_indices - self.sql_indices

    @property
    def only_sql(self) -> FrozenSet[int]:
        return self.sql_indices - self.inmemory_indices

    @property
    def only_indexed(self) -> FrozenSet[int]:
        """Indices the indexed backend reports but the oracle does not."""
        return self.indexed_indices - self.inmemory_indices

    def disagreements(self) -> Dict[Tuple[str, str], FrozenSet[int]]:
        """Pairwise symmetric differences between backends, empty pairs omitted."""
        sets = self._index_sets()
        names = list(sets)
        result: Dict[Tuple[str, str], FrozenSet[int]] = {}
        for position, first in enumerate(names):
            for second in names[position + 1:]:
                difference = sets[first] ^ sets[second]
                if difference:
                    result[(first, second)] = frozenset(difference)
        return result


def cross_check(
    relation: Relation,
    cfds: Union[CFD, Sequence[CFD]],
    strategy: str = "per_cfd",
    form: str = "dnf",
) -> CrossCheckResult:
    """Run all three detection backends and compare the violating tuple indices.

    The in-memory oracle, the SQL detector and the partition-index backend
    are always all run and verified pairwise (the two-way
    ``include_indexed=False`` shape of PR 1 is gone).
    """
    cfds = compile_rules(cfds)
    inmemory = find_all_violations(relation, cfds)
    with SQLDetector(relation) as detector:
        sql_report = detector.detect(cfds, strategy=strategy, form=form).report
    indexed = find_violations_indexed(relation, cfds)
    return CrossCheckResult(
        inmemory_indices=inmemory.violating_indices(),
        sql_indices=sql_report.violating_indices(),
        indexed_indices=indexed.violating_indices(),
    )
