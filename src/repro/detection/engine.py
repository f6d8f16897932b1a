"""Unified violation detection API.

``detect_violations`` dispatches through the backend registry
(:mod:`repro.registry`) between the pure-Python detector
(:mod:`repro.core.satisfaction`), the SQL detector
(:mod:`repro.sql.engine`) and the partition-indexed detector
(:mod:`repro.detection.indexed`) — plus any backend user code registers.
The pure-Python detector serves as the correctness oracle; ``cross_check``
compares all three pairwise and is used heavily in the integration tests.

This module also registers the built-in detection backends, so importing it
(or anything that imports it, e.g. :mod:`repro`) populates the registry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union

from repro.config import DetectionConfig
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.core.violations import ViolationReport
from repro.detection.indexed import find_violations_indexed
from repro.errors import ConfigError, DetectionError, RegistryError
from repro.registry import (
    COLUMNAR_DETECTORS,
    apply_kernel,
    apply_storage,
    register_detector,
    resolve_detector,
)
from repro.relation.relation import Relation
from repro.sql.engine import SQLDetector

#: The built-in backends (the ``"auto"`` selector is not a backend).  Kept
#: for backward compatibility; the authoritative list is
#: ``repro.registry.detector_names()``.
DETECTION_METHODS = ("inmemory", "sql", "indexed")


# ---------------------------------------------------------------------------
# built-in backends (self-registering)
# ---------------------------------------------------------------------------
@register_detector("inmemory")
def _detect_inmemory(
    relation: Relation, cfds: Sequence[CFD], config: DetectionConfig
) -> ViolationReport:
    return find_all_violations(relation, cfds)


@register_detector("indexed")
def _detect_indexed(
    relation: Relation, cfds: Sequence[CFD], config: DetectionConfig
) -> ViolationReport:
    return find_violations_indexed(relation, cfds)


@register_detector("sql")
def _detect_sql(
    relation: Relation, cfds: Sequence[CFD], config: DetectionConfig
) -> ViolationReport:
    with SQLDetector(relation) as detector:
        return detector.detect(cfds, config=config).report


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------
def detect_violations(
    relation: Relation,
    cfds: Union[CFD, Sequence[CFD]],
    method: str = "inmemory",
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
        codes; ``"auto"`` picks a backend
        from the workload shape.  Any name registered via
        :func:`repro.registry.register_detector` also works.
    strategy, form:
        SQL-only knobs.  Passing them with a non-SQL ``method`` used to be
        silently ignored; it now raises a :class:`DeprecationWarning` (the
        config API rejects the combination outright).
    config:
        A :class:`~repro.config.DetectionConfig` carrying the same options;
        mutually exclusive with explicit ``method``/``strategy``/``form``.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> report = detect_violations(cust_relation(), cust_cfds())
    >>> report.is_clean()
    False
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    cfds = list(cfds)
    if config is not None:
        if method != "inmemory" or strategy is not None or form is not None:
            raise DetectionError(
                "pass either a DetectionConfig or explicit method/strategy/form "
                "keywords, not both"
            )
    else:
        if method != "sql" and (strategy is not None or form is not None):
            warnings.warn(
                f"strategy/form only apply to the SQL backend and are ignored for "
                f"method={method!r}; this will become an error "
                f"(DetectionConfig already rejects the combination)",
                DeprecationWarning,
                stacklevel=2,
            )
            strategy = form = None
        try:
            config = DetectionConfig(method=method, strategy=strategy, form=form)
        except ConfigError as error:
            raise DetectionError(str(error)) from None
    try:
        name, backend = resolve_detector(config.method, relation, cfds)
    except RegistryError as error:
        raise DetectionError(str(error)) from None
    # Columnar-capable backends see the relation in the configured storage
    # layer (encoded once here; already-encoded input passes through); every
    # other backend reads whatever the caller holds.  The configured kernel
    # is active for the duration of the backend call.  Reports are
    # byte-identical either way — storage and kernel are speed knobs, not
    # semantics knobs.
    if name in COLUMNAR_DETECTORS:
        relation = apply_storage(
            relation, config.storage, True, spill_dir=config.spill_dir
        )
    with apply_kernel(config.kernel):
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
    if isinstance(cfds, CFD):
        cfds = [cfds]
    cfds = list(cfds)
    inmemory = find_all_violations(relation, cfds)
    with SQLDetector(relation) as detector:
        sql_report = detector.detect(cfds, strategy=strategy, form=form).report
    indexed = find_violations_indexed(relation, cfds)
    return CrossCheckResult(
        inmemory_indices=inmemory.violating_indices(),
        sql_indices=sql_report.violating_indices(),
        indexed_indices=indexed.violating_indices(),
    )
