"""The benchmark's workloads: how each makes its inputs, what it times, and
how its output is checked.

Every input comes from ``TaxRecordGenerator(rows, noise, seed).iter_rows()``
streamed to a CSV under the ``tax_schema()`` header (exactly what
``repro generate --stream`` writes), plus a rule file written with
``write_cfd_file``.  The timed operation reads both back the way the CLI
does: ``CSVSource(path)`` without a schema, so every cell is a string, and
``read_cfd_file``.

The output check is independent of the engines that did the work: a clean's
change log is replayed onto the input in this process and the result must
(1) hash to the relation the clean returned and (2) pass the paper's §4
``Q^C``/``Q^V`` queries in SQLite; a detection's report must equal the
partition-indexed detector's: the same distinct constant violations and the
same violating groups.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.datagen.cfd_catalog import experiment_cfd_set
from repro.datagen.generator import TaxRecordGenerator, tax_schema
from repro.detection.engine import detect_violations
from repro.detection.indexed import IndexedDetector
from repro.io import text_format
from repro.io.sources import CSVSource
from repro.io.text_format import read_cfd_file, write_cfd_file
from repro.pipeline import Cleaner
from repro.sql.engine import SQLDetector

DATA = "data.csv"
RULES = "rules.cfd"
SPILL = "spill"

#: ``--quick`` divides every row count by this.
QUICK_DIVISOR = 20

#: Fixed pool geometry: the same shard plan on any host, and never more
#: busy processes than the 2 CPUs the benchmark was sized on.
POOL = {"workers": 2, "shard_count": 2}


def _catalog_rules(num_consts: float) -> Callable[[int], List[CFD]]:
    def rules(seed: int) -> List[CFD]:
        return experiment_cfd_set(
            num_cfds=5, tabsz=1000, num_consts=num_consts, seed=seed
        )

    return rules


def _exemption_fd(seed: int) -> List[CFD]:
    return [
        CFD.build(
            ["ZIP", "MR", "CH"], ["STX", "MTX", "CTX"], [["_"] * 6], name="exemption_fd"
        )
    ]


def _default_cleaner(directory: Path) -> Cleaner:
    return Cleaner(DetectionConfig(**POOL), RepairConfig(**POOL))


def _outofcore_cleaner(directory: Path) -> Cleaner:
    spill = str(directory / SPILL)
    shared = dict(method="parallel", storage="mmap", spill_dir=spill, **POOL)
    return Cleaner(
        detection=DetectionConfig(**shared),
        repair=RepairConfig(**shared),
        verify_method="indexed",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    noise: float
    rules: Callable[[int], List[CFD]]
    #: Builds the ``Cleaner`` of a clean workload; ``None`` for detection.
    cleaner: Optional[Callable[[Path], Cleaner]]
    why: str

    @property
    def kind(self) -> str:
        return "detect" if self.cleaner is None else "clean"

    def size(self, quick: bool) -> int:
        return self.rows // QUICK_DIVISOR if quick else self.rows


# Sizes keep one operation at about 1-6 s on a 2-CPU host.  fd-clean must
# stay above repro.registry.PARALLEL_AUTO_ROW_THRESHOLD (150K rows) so that
# method="auto" escalates to the parallel engines, and constants-clean far
# below it.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "constants-clean",
            1_000,
            0.05,
            _catalog_rules(1.0),
            _default_cleaner,
            "large constant tableaux (2,314 patterns): oracle verify and the "
            "constant repair path do the work; no sharding, ingest or SQL",
        ),
        Workload(
            "fd-clean",
            160_000,
            0.05,
            _exemption_fd,
            _default_cleaner,
            "a wildcard FD past the 150K-row auto threshold: shard planning, "
            "pool IPC and per-shard fixpoints do the work; no constant patterns",
        ),
        Workload(
            "outofcore-clean",
            100_000,
            0.01,
            _exemption_fd,
            _outofcore_cleaner,
            "the bounded-memory mode (mmap storage, spilled shards): CSV parse, "
            "encoding and spill do most of the work",
        ),
        Workload(
            "sql-detect",
            60_000,
            0.05,
            _catalog_rules(0.5),
            None,
            "the paper's section 4 SQL detection, read-only: no repair, no "
            "verify; the only workload that runs repro.sql",
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def make_inputs(workload: Workload, seed: int, directory: Path, quick: bool) -> None:
    """Write the workload's CSV and rule file for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    generator = TaxRecordGenerator(workload.size(quick), workload.noise, seed)
    with open(directory / DATA, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(tax_schema().names)
        writer.writerows(generator.iter_rows())
    write_cfd_file(directory / RULES, workload.rules(seed))


# ---------------------------------------------------------------------------
# the timed operation
# ---------------------------------------------------------------------------
def run_operation(workload: Workload, directory: Path) -> Any:
    """The user-level operation: parse the rules, run, return the result."""
    # Looked up on the module so that the traced round sees the parse.
    cfds = text_format.read_cfd_file(directory / RULES)
    if workload.cleaner is None:
        relation = CSVSource(directory / DATA).to_relation()
        return detect_violations(relation, cfds, config=DetectionConfig(method="sql"))
    return workload.cleaner(directory).clean(CSVSource(directory / DATA), cfds)


def relation_digest(rows) -> str:
    """sha256 over every cell of ``rows`` (as strings), row by row."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update("\x1f".join(map(str, row)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def fingerprint(workload: Workload, outcome: Any) -> str:
    """What every repeat of one run must reproduce exactly."""
    digest = hashlib.sha256()
    if workload.kind == "detect":
        for line in sorted(repr(violation) for violation in outcome):
            digest.update(line.encode())
    else:
        digest.update(repr(outcome.clean).encode())
        for change in outcome.changes:
            entry = (
                change.tuple_index,
                change.attribute,
                change.old_value,
                change.new_value,
            )
            digest.update(repr(entry).encode())
    return digest.hexdigest()


def output_dump(workload: Workload, outcome: Any) -> Dict[str, Any]:
    """The output the independent check reads (written by the checked repeat)."""
    if workload.kind == "detect":
        return _normalized_report(outcome)
    return {
        "clean": outcome.clean,
        "changes": [
            [
                change.tuple_index,
                change.attribute,
                str(change.old_value),
                str(change.new_value),
            ]
            for change in outcome.changes
        ],
        "relation_sha256": relation_digest(outcome.relation),
    }


def spill_entries(directory: Path) -> int:
    """Files or directories left under the workload's spill dir."""
    spill = directory / SPILL
    return len(os.listdir(spill)) if spill.is_dir() else 0


# ---------------------------------------------------------------------------
# the independent check
# ---------------------------------------------------------------------------
def check_output(
    workload: Workload, directory: Path, dump: Dict[str, Any]
) -> Tuple[bool, str]:
    """Check one repeat's output with code the engines do not share."""
    cfds = read_cfd_file(directory / RULES)
    relation = CSVSource(directory / DATA).to_relation()
    if workload.kind == "detect":
        expected = _normalized_report(IndexedDetector(relation).detect(cfds))
        for kind, found in dump.items():
            if found != expected[kind]:
                return False, (
                    f"sql reports {len(found)} {kind} violations, "
                    f"indexed detection {len(expected[kind])}"
                )
        return True, (
            f"{len(expected['constant'])} constant and {len(expected['variable'])} "
            "variable violations agree with indexed detection"
        )
    if not dump["clean"]:
        return False, "clean() returned clean=False"
    problem = _replay(relation, dump["changes"])
    if problem:
        return False, problem
    if relation_digest(relation) != dump["relation_sha256"]:
        return False, "replaying the change log does not give the returned relation"
    with SQLDetector(relation) as detector:
        report = detector.detect(cfds, expand_variable_violations=False).report
    if len(report):
        return False, f"Q^C/Q^V find {len(report)} violations in the cleaned relation"
    changes = len(dump["changes"])
    return True, f"{changes} changes replay to a relation Q^C/Q^V find clean"


def _normalized_report(report) -> Dict[str, List[Any]]:
    """A report in a form both detectors produce: constant violations as
    distinct ``[cfd, pattern, tuple]`` (SQL reports one per pattern, the
    indexed detector one per RHS attribute), variable ones as their sorted
    member lists."""
    constant = {
        (violation.cfd_name, violation.pattern_index, violation.tuple_index)
        for violation in report.constant_violations()
    }
    variable = [sorted(v.tuple_indices) for v in report.variable_violations()]
    return {
        "constant": [list(key) for key in sorted(constant)],
        "variable": sorted(variable),
    }


def _replay(relation, changes: Sequence[Sequence[Any]]) -> str:
    """Apply a change log in order; a message when it is inconsistent."""
    for tuple_index, attribute, old, new in changes:
        current = relation.value(tuple_index, attribute)
        if str(current) != old:
            return (
                f"change log says ({tuple_index}, {attribute}) was {old!r}, "
                f"the relation holds {current!r}"
            )
        relation.update(tuple_index, attribute, new)
    return ""
