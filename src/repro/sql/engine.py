"""The SQLite execution engine for CFD violation detection.

:class:`SQLDetector` loads a relation into an (in-memory by default) SQLite
database and runs the detection queries of Section 4 against it, in any of
four configurations:

* per-CFD queries (``strategy="per_cfd"``), the paper's Section 4.1, with
  either the CNF or the DNF WHERE-clause formulation;
* merged queries (``strategy="merged"``), the paper's Section 4.2, which
  validate the whole CFD set with a single query pair and two passes over the
  data.

Results are returned as :class:`~repro.core.violations.ViolationReport`
objects whose tuple indices refer to the original in-memory relation, so they
can be compared directly with the pure-Python detector (the correctness
oracle used in the integration tests).  Timing of each executed query is
recorded for the benchmark harness.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.cfd import CFD
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    ViolationReport,
)
from repro.errors import DetectionError
from repro.relation.relation import Relation
from repro.sql.dialect import DEFAULT_DIALECT, SQLDialect
from repro.sql.loader import (
    create_indexes,
    data_table_name,
    load_merged_tableau,
    load_relation,
    load_single_tableau,
    tableau_table_name,
)
from repro.sql.merge import merge_cfds
from repro.sql.multi import MergedQueryBuilder
from repro.sql.single import SingleCFDQueryBuilder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.config import DetectionConfig


@dataclass
class QueryTiming:
    """Wall-clock timing of one executed detection query."""

    label: str
    sql: str
    seconds: float
    rows: int


@dataclass
class DetectionRun:
    """The outcome of one detection call: a report plus per-query timings."""

    report: ViolationReport
    timings: List[QueryTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.timings)

    def seconds_for(self, prefix: str) -> float:
        """Total time of the queries whose label starts with ``prefix`` (e.g. ``"qc"``)."""
        return sum(
            timing.seconds for timing in self.timings if timing.label.startswith(prefix)
        )


class SQLDetector:
    """Detects CFD violations with SQL, backed by SQLite.

    The data table is built by the first :meth:`detect` and holds only the
    attributes its rules name, ``attrs(Σ)``, beside the index column; a
    later call that names another attribute reloads it over the union.
    Reading :attr:`data_table` before any :meth:`detect` loads every
    attribute, for callers that query the table themselves.  With
    ``build_indexes`` each distinct LHS gets one index that covers the RHS
    of the CFDs sharing it (:func:`~repro.sql.loader.create_indexes`), so a
    DNF ``Q^C``/``Q^V`` branch that searches the data by that index reads no
    table row.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> detector = SQLDetector(cust_relation())
    >>> run = detector.detect(cust_cfds())
    >>> sorted(run.report.violating_indices())
    [0, 1, 2, 3]
    """

    def __init__(
        self,
        relation: Relation,
        connection: Optional[sqlite3.Connection] = None,
        dialect: SQLDialect = DEFAULT_DIALECT,
        build_indexes: bool = True,
    ) -> None:
        self.relation = relation
        self.dialect = dialect
        self.connection = connection or sqlite3.connect(":memory:")
        self._table_name = data_table_name(relation)
        self._loaded_attributes: FrozenSet[str] = frozenset()
        self._build_indexes = build_indexes
        self._loaded_tableaux: Dict[CFD, str] = {}

    @property
    def data_table(self) -> str:
        """The data table's name; loads every attribute if nothing is loaded."""
        if not self._loaded_attributes:
            self._load(frozenset(self.relation.schema.names))
        return self._table_name

    def _load(self, attributes: FrozenSet[str]) -> None:
        """(Re)load the data table over ``attributes``, dropping its indexes."""
        load_relation(
            self.connection,
            self.relation,
            self.dialect,
            table_name=self._table_name,
            attributes=attributes,
        )
        self._loaded_attributes = attributes

    # ------------------------------------------------------------------ plumbing
    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> SQLDetector:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _execute(
        self, label: str, sql: str, parameters: Sequence[Any] = ()
    ) -> Tuple[List[tuple], QueryTiming]:
        start = time.perf_counter()
        cursor = self.connection.execute(sql, tuple(parameters))
        rows = cursor.fetchall()
        elapsed = time.perf_counter() - start
        return rows, QueryTiming(label=label, sql=sql, seconds=elapsed, rows=len(rows))

    def _ensure_tableau(self, cfd: CFD) -> str:
        # Keyed by the CFD itself (not just its name): two distinct CFDs may
        # share a name (e.g. both auto-derived from the same embedded FD) and
        # must not silently reuse each other's tableau table.
        if cfd in self._loaded_tableaux:
            return self._loaded_tableaux[cfd]
        base_name = tableau_table_name(cfd)
        name = base_name
        suffix = 1
        while name in self._loaded_tableaux.values():
            name = f"{base_name}_{suffix}"
            suffix += 1
        load_single_tableau(self.connection, cfd, self.dialect, table_name=name)
        self._loaded_tableaux[cfd] = name
        return name

    # ------------------------------------------------------------------ public API
    def detect(
        self,
        cfds: Sequence[CFD],
        strategy: str = "per_cfd",
        form: str = "dnf",
        expand_variable_violations: bool = True,
        config: Optional[DetectionConfig] = None,
    ) -> DetectionRun:
        """Detect all violations of ``cfds`` in the loaded relation.

        Parameters
        ----------
        strategy:
            ``"per_cfd"`` runs one query pair per CFD (Section 4.1);
            ``"merged"`` merges all tableaux and runs a single pair
            (Section 4.2).
        form:
            WHERE-clause formulation for the per-CFD strategy: ``"cnf"`` or
            ``"dnf"``.  The merged strategy always uses the paper's CNF form
            (its DNF expansion is ``3^k`` and not practical, as the paper
            notes).
        expand_variable_violations:
            When True, the engine runs the extra "expansion" query that maps
            violating GROUP BY groups back to tuple indices, so that the
            resulting report is comparable with the in-memory detector.  The
            benchmarks disable it to time exactly the paper's query pair.
        config:
            A :class:`~repro.config.DetectionConfig`; when given, its
            ``strategy``/``form``/``expand_variable_violations`` override the
            keyword arguments (the pipeline passes configs, the keywords
            remain for direct use).
        """
        if config is not None:
            strategy = config.effective_strategy
            form = config.effective_form
            expand_variable_violations = config.expand_variable_violations
        cfds = list(cfds)
        if not cfds:
            return DetectionRun(report=ViolationReport())
        needed = {attr for cfd in cfds for attr in (*cfd.lhs, *cfd.rhs)}
        if not needed <= self._loaded_attributes:
            self._load(self._loaded_attributes | needed)
        if self._build_indexes:
            create_indexes(self.connection, self._table_name, cfds, self.dialect)
        if strategy == "per_cfd":
            return self._detect_per_cfd(cfds, form, expand_variable_violations)
        if strategy == "merged":
            return self._detect_merged(cfds, expand_variable_violations)
        raise DetectionError(f"unknown detection strategy {strategy!r}")

    # ------------------------------------------------------------------ per-CFD strategy
    def _detect_per_cfd(
        self, cfds: Sequence[CFD], form: str, expand: bool
    ) -> DetectionRun:
        report = ViolationReport()
        timings: List[QueryTiming] = []
        for cfd in cfds:
            tableau_table = self._ensure_tableau(cfd)
            builder = SingleCFDQueryBuilder(
                cfd, self._table_name, tableau_table, self.dialect
            )

            qc_rows, qc_timing = self._execute(f"qc:{cfd.name}", builder.qc_sql(form))
            timings.append(qc_timing)
            # The DNF (UNION ALL) form may report the same (tuple, pattern)
            # pair once per clashing RHS attribute; deduplicate so the report
            # is independent of the query formulation.
            seen_qc = set()
            for tuple_index, pattern_index in qc_rows:
                if (tuple_index, pattern_index) in seen_qc:
                    continue
                seen_qc.add((tuple_index, pattern_index))
                report.add(
                    ConstantViolation(
                        cfd_name=cfd.name,
                        pattern_index=pattern_index,
                        tuple_indices=(tuple_index,),
                    )
                )

            qv_rows, qv_timing = self._execute(f"qv:{cfd.name}", builder.qv_sql(form))
            timings.append(qv_timing)
            for group in qv_rows:
                indices: Tuple[int, ...] = ()
                if expand and cfd.lhs:
                    expanded, expansion_timing = self._execute(
                        f"qv_expand:{cfd.name}", builder.qv_expansion_sql(), group
                    )
                    timings.append(expansion_timing)
                    indices = tuple(row[0] for row in expanded)
                elif expand:
                    expanded, expansion_timing = self._execute(
                        f"qv_expand:{cfd.name}", builder.qv_expansion_sql()
                    )
                    timings.append(expansion_timing)
                    indices = tuple(row[0] for row in expanded)
                report.add(
                    VariableViolation(
                        cfd_name=cfd.name,
                        pattern_index=-1,
                        tuple_indices=indices,
                        attributes=tuple(cfd.lhs),
                        group_key=tuple(group) if cfd.lhs else (),
                    )
                )
        return DetectionRun(report=report, timings=timings)

    # ------------------------------------------------------------------ merged strategy
    def _detect_merged(self, cfds: Sequence[CFD], expand: bool) -> DetectionRun:
        merged = merge_cfds(cfds)
        tables = load_merged_tableau(self.connection, merged, self.dialect)
        builder = MergedQueryBuilder(
            merged, self._table_name, tables["x"], tables["y"], self.dialect
        )
        report = ViolationReport()
        timings: List[QueryTiming] = []
        pattern_by_id = {row.pattern_id: row for row in merged.rows}

        qc_rows, qc_timing = self._execute("qc:merged", builder.qc_sql())
        timings.append(qc_timing)
        for tuple_index, pattern_id in qc_rows:
            source = pattern_by_id[pattern_id]
            report.add(
                ConstantViolation(
                    cfd_name=source.source_cfd,
                    pattern_index=source.source_pattern_index,
                    tuple_indices=(tuple_index,),
                )
            )

        qv_rows, qv_timing = self._execute("qv:merged", builder.qv_sql())
        timings.append(qv_timing)
        if qv_rows:
            indices_by_group: Dict[Tuple[Any, ...], List[int]] = {}
            if expand:
                expanded, expansion_timing = self._execute(
                    "qv_expand:merged", builder.qv_expansion_sql()
                )
                timings.append(expansion_timing)
                for row in expanded:
                    indices_by_group.setdefault(tuple(row[:-1]), []).append(row[-1])
            for group in qv_rows:
                report.add(
                    VariableViolation(
                        cfd_name="merged",
                        pattern_index=-1,
                        tuple_indices=tuple(indices_by_group.get(tuple(group), ())),
                        attributes=tuple(merged.lhs_attributes),
                        group_key=tuple(group),
                    )
                )
        return DetectionRun(report=report, timings=timings)

    # ------------------------------------------------------------------ introspection
    def generated_sql(
        self, cfds: Sequence[CFD], strategy: str = "per_cfd", form: str = "dnf"
    ) -> Dict[str, str]:
        """The SQL text that :meth:`detect` would run, keyed by query label."""
        cfds = list(cfds)
        queries: Dict[str, str] = {}
        if strategy == "per_cfd":
            for cfd in cfds:
                builder = SingleCFDQueryBuilder(
                    cfd, self._table_name, tableau_table_name(cfd), self.dialect
                )
                queries[f"qc:{cfd.name}"] = builder.qc_sql(form)
                queries[f"qv:{cfd.name}"] = builder.qv_sql(form)
        elif strategy == "merged":
            merged = merge_cfds(cfds)
            builder = MergedQueryBuilder(
                merged, self._table_name, "tx_sigma", "ty_sigma", self.dialect
            )
            queries["qc:merged"] = builder.qc_sql()
            queries["qv:merged"] = builder.qv_sql()
        else:
            raise DetectionError(f"unknown detection strategy {strategy!r}")
        return queries
