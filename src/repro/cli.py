"""Command-line interface: a subcommand per stage of the cleaning pipeline.

The CLI turns the library into a small standalone data-cleaning tool::

    python -m repro detect   --data customers.csv --cfds rules.cfd
    python -m repro repair   --data customers.csv --cfds rules.cfd --output fixed.csv
    python -m repro clean    --data customers.csv --cfds rules.cfd --output clean.csv
    python -m repro clean    --data tax.csv --cfds tax.cfd --repair-method parallel --workers 4
    python -m repro generate --dataset tax --size 10000 --output tax.csv --rules tax.cfd
    python -m repro bench    fig9a fig9c --scale 0.1
    python -m repro lint     --cfds rules.cfd --json
    python -m repro lint     --cfds rules.cfd --optimize minimal.cfd
    python -m repro check    --cfds rules.cfd
    python -m repro show     --cfds rules.cfd --json

``detect``/``repair``/``clean`` sit on top of the pipeline API
(:mod:`repro.pipeline`): backends are named by
:data:`repro.config.DETECTION_BACKENDS` /
:data:`repro.config.REPAIR_BACKENDS`, or ``auto`` to pick per workload.

CSV files must have a header row; every column is treated as a string
attribute.  CFD rule files use the text format of
:mod:`repro.io.text_format` (``.cfd``) or the JSON format (``.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.config import (
    AUTO,
    DEFAULT_KERNEL,
    DEFAULT_STORAGE,
    DETECTION_BACKENDS,
    KERNELS,
    REPAIR_BACKENDS,
    STORAGES,
    DetectionConfig,
    RepairConfig,
)
from repro.core.cfd import CFD
from repro.core.violations import ViolationReport
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.cust import cust_cfds, cust_relation
from repro.datagen.generator import TaxRecordGenerator
from repro.detection.engine import detect_violations
from repro.errors import ReproError
from repro.io.json_format import cfds_from_json, cfds_to_json
from repro.io.sources import CSVSource, RowSource, SQLiteSource
from repro.io.text_format import format_cfds, read_cfd_file, write_cfd_file
from repro.analysis import analyze
from repro.pipeline import Cleaner
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.repair.heuristic import repair


# ---------------------------------------------------------------------------
# loading helpers
# ---------------------------------------------------------------------------
def load_relation_csv(path: str, relation_name: Optional[str] = None) -> Relation:
    """Load a CSV file (header row required) as a string-typed relation."""
    return CSVSource(path, relation_name=relation_name).to_relation()


def load_cfds(path: str) -> List[CFD]:
    """Load CFDs from a ``.cfd`` text file or a ``.json`` file."""
    if path.endswith(".json"):
        return cfds_from_json(Path(path).read_text(encoding="utf-8"))
    return read_cfd_file(path)


def _data_source(args: argparse.Namespace) -> RowSource:
    """The row source named by ``--data`` (CSV) or ``--sqlite``/``--table``."""
    if args.data and args.sqlite:
        raise ReproError("--data and --sqlite are mutually exclusive; pass one input")
    if args.sqlite:
        return SQLiteSource(args.sqlite, args.table)
    if not args.data:
        raise ReproError("either --data (CSV) or --sqlite/--table is required")
    return CSVSource(args.data)


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="CSV file with a header row")
    parser.add_argument("--sqlite", help="SQLite database file (alternative to --data)")
    parser.add_argument("--table", default="data", help="table to read with --sqlite (default: data)")


def _add_storage_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--storage",
        choices=STORAGES,
        default=DEFAULT_STORAGE,
        help="storage layer for the columnar-capable engines: dictionary-encoded "
        "columns (default) or memory-mapped spill files for out-of-core "
        "workloads; outputs are identical either way",
    )
    parser.add_argument(
        "--spill-dir",
        help="base directory for --storage mmap spill files (default: "
        "REPRO_SPILL_DIR, then the system temp dir); each run spills into "
        "its own subdirectory, removed on success and preserved on crash",
    )


def _add_kernel_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=KERNELS + (AUTO,),
        default=DEFAULT_KERNEL,
        help="hot-loop implementation for the columnar engines: the pure-Python "
        "reference, the numpy-vectorised kernels (requires the [fast] extra), "
        "or auto to use numpy when installed (default); outputs are identical "
        "either way",
    )


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        help="worker processes for the parallel backend (default: one per CPU); "
        "takes effect with a parallel method, accepted and ignored on auto",
    )
    parser.add_argument(
        "--shard-count",
        type=int,
        help="shards for the parallel backend (default: the worker count)",
    )


def _release_spill(*relations) -> None:
    """Remove the spill run directories of mmap-backed relations.

    Called when a command completes (successfully or with a dirty result):
    the lifecycle contract is *cleanup on completion, preserved on crash* —
    an exception propagates past this call, leaving the spill files in place
    for debugging.
    """
    released = set()
    for relation in relations:
        if isinstance(relation, MmapColumnStore) and id(relation) not in released:
            released.add(id(relation))
            relation.release()


def _report_payload(report: ViolationReport, relation: Relation) -> dict:
    return {
        "summary": report.summary(),
        "violating_tuples": sorted(report.violating_indices()),
        "violations": [
            {
                "kind": violation.kind,
                "cfd": violation.cfd_name,
                "pattern_index": violation.pattern_index,
                "tuples": list(violation.tuple_indices),
                **(
                    {
                        "attribute": violation.attribute,
                        "expected": violation.expected,
                        "actual": violation.actual,
                    }
                    if violation.kind == "constant"
                    else {"group_attributes": list(violation.attributes),
                          "group_key": list(violation.group_key)}
                ),
            }
            for violation in report
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def cmd_detect(args: argparse.Namespace) -> int:
    source = _data_source(args)
    if args.storage == "mmap":
        # Out-of-core ingestion: stream the rows straight into spilled code
        # columns instead of materialising them as tuples first.
        relation = source.to_relation(storage="mmap", spill_dir=args.spill_dir)
    else:
        relation = source.to_relation()
    cfds = load_cfds(args.cfds)
    # strategy/form are SQL-only; forwarding them for other backends would
    # (rightly) be rejected by DetectionConfig.
    config = DetectionConfig(
        method=args.method,
        strategy=args.strategy if args.method == "sql" else None,
        form=args.form if args.method == "sql" else None,
        workers=args.workers,
        shard_count=args.shard_count,
        storage=args.storage,
        kernel=args.kernel,
        spill_dir=args.spill_dir,
    )
    report = detect_violations(relation, cfds, config=config)
    payload = _report_payload(report, relation)
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    summary = payload["summary"]
    print(
        f"{len(relation)} tuples checked against {len(cfds)} CFDs: "
        f"{summary['violations']} violations over {summary['violating_tuples']} tuples."
    )
    if not args.quiet:
        for violation in payload["violations"][: args.limit]:
            if violation["kind"] == "constant":
                print(
                    f"  [constant] {violation['cfd']}: tuple {violation['tuples'][0]} has "
                    f"{violation['attribute']} = {violation['actual']!r}, expected {violation['expected']!r}"
                )
            else:
                print(
                    f"  [variable] {violation['cfd']}: tuples {violation['tuples']} disagree "
                    f"on the RHS for {dict(zip(violation['group_attributes'], violation['group_key']))}"
                )
        hidden = len(payload["violations"]) - args.limit
        if hidden > 0:
            print(f"  ... and {hidden} more (use --limit to show them)")
    _release_spill(relation)
    return 1 if report else 0


def cmd_repair(args: argparse.Namespace) -> int:
    source = _data_source(args)
    if args.storage == "mmap":
        relation = source.to_relation(storage="mmap", spill_dir=args.spill_dir)
    else:
        relation = source.to_relation()
    cfds = load_cfds(args.cfds)
    config = RepairConfig(
        method=args.method,
        max_passes=args.max_passes,
        workers=args.workers,
        shard_count=args.shard_count,
        storage=args.storage,
        kernel=args.kernel,
        spill_dir=args.spill_dir,
    )
    result = repair(relation, cfds, config=config)
    result.relation.to_csv(args.output)
    _release_spill(relation, result.relation)
    print(
        f"Repaired {args.data or args.sqlite}: {len(result.changes)} cell changes "
        f"(cost {result.total_cost:.2f}) in {result.passes} pass(es); "
        f"clean = {result.clean}. Wrote {args.output}."
    )
    if args.changes:
        for change in result.changes:
            print(
                f"  tuple {change.tuple_index}, {change.attribute}: "
                f"{change.old_value!r} -> {change.new_value!r} ({change.reason})"
            )
    return 0 if result.clean else 1


def cmd_clean(args: argparse.Namespace) -> int:
    source = _data_source(args)
    cfds = load_cfds(args.cfds)
    cleaner = Cleaner(
        detection=DetectionConfig(
            method=args.detect_method,
            workers=args.workers,
            shard_count=args.shard_count,
            storage=args.storage,
            kernel=args.kernel,
            spill_dir=args.spill_dir,
        ),
        repair=RepairConfig(
            method=args.repair_method,
            max_passes=args.max_passes,
            workers=args.workers,
            shard_count=args.shard_count,
            storage=args.storage,
            kernel=args.kernel,
            spill_dir=args.spill_dir,
        ),
        verify_method=args.verify_method,
    )
    result = cleaner.clean(source, cfds)
    if args.output:
        result.relation.to_csv(args.output)
    _release_spill(result.relation)
    summary = result.summary()
    if args.audit:
        audit = dict(summary)
        audit["cell_changes"] = [
            {
                "tuple": change.tuple_index,
                "attribute": change.attribute,
                "old": change.old_value,
                "new": change.new_value,
                "cost": change.cost,
                "reason": change.reason,
            }
            for change in result.changes
        ]
        Path(args.audit).write_text(json.dumps(audit, indent=2), encoding="utf-8")
    print(
        f"Cleaned {summary['source']}: {summary['initial_violations']} violations "
        f"-> {summary['final_violations']} in {result.rounds} round(s) / "
        f"{result.passes} pass(es); {summary['changes']} cell changes "
        f"(cost {summary['total_cost']:.2f}); backends "
        f"detect={result.backends['detect']} repair={result.backends['repair']} "
        f"verify={result.backends['verify']}."
        + (f" Wrote {args.output}." if args.output else "")
    )
    if not result.clean:
        print("warning: the relation is still dirty (pass budget exhausted?)", file=sys.stderr)
    return 0 if result.clean else 1


def cmd_generate(args: argparse.Namespace) -> int:
    if args.stream:
        # Stream rows straight to the CSV — O(1) memory regardless of
        # --size, identical output to the materialised path (same seed,
        # same RNG call order inside the generator).
        import csv

        from repro.datagen.cust import cust_schema, iter_cust_rows
        from repro.datagen.generator import tax_schema

        if args.dataset == "cust":
            schema, rows, rules = cust_schema(), iter_cust_rows(), cust_cfds()
        else:
            generator = TaxRecordGenerator(
                size=args.size, noise=args.noise, seed=args.seed
            )
            schema, rows, rules = tax_schema(), generator.iter_rows(), [zip_state_cfd()]
        count = 0
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(schema.names)
            for row in rows:
                writer.writerow(row)
                count += 1
        print(f"Wrote {count} {args.dataset} tuples to {args.output} (streamed).")
        if args.rules:
            write_cfd_file(args.rules, rules)
            print(f"Wrote {len(rules)} matching CFDs to {args.rules}.")
        return 0
    if args.dataset == "cust":
        relation = cust_relation()
        rules = cust_cfds()
    else:
        relation = TaxRecordGenerator(
            size=args.size, noise=args.noise, seed=args.seed
        ).generate_relation()
        rules = [zip_state_cfd()]
    relation.to_csv(args.output)
    print(f"Wrote {len(relation)} {args.dataset} tuples to {args.output}.")
    if args.rules:
        write_cfd_file(args.rules, rules)
        print(f"Wrote {len(rules)} matching CFDs to {args.rules}.")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = list(args.experiments)
    if args.scale is not None:
        argv += ["--scale", str(args.scale)]
    if args.json_dir:
        argv += ["--json-dir", args.json_dir]
    return bench_main(argv)


def cmd_lint(args: argparse.Namespace) -> int:
    cfds = load_cfds(args.cfds)
    schema = None
    if args.data or args.sqlite:
        # An optional data source contributes only its *schema* — the
        # conformance checks (CFD006/CFD007) need attribute names and
        # domains, never the rows.
        schema = _data_source(args).schema
    report = analyze(
        cfds,
        schema,
        detection=DetectionConfig(method=args.detect_method),
        repair=RepairConfig(method=args.repair_method),
        deep=not args.fast,
        optimize=bool(args.optimize),
    )
    if args.json:
        print(report.to_json())
    else:
        print(f"{len(cfds)} CFDs loaded from {args.cfds}")
        print(report.render())
    if args.optimize:
        # Status lines go to stderr so --json output stays parseable.
        status = sys.stderr if args.json else sys.stdout
        if report.optimized is None:
            print("cannot optimize an inconsistent rule set", file=sys.stderr)
        else:
            write_cfd_file(args.optimize, report.optimized)
            before = sum(len(cfd.tableau) for cfd in cfds)
            after = sum(len(cfd.tableau) for cfd in report.optimized)
            print(
                f"Wrote minimal cover ({after} patterns, down from {before}) "
                f"to {args.optimize}.",
                file=status,
            )
    return 1 if report.has_errors else 0


def cmd_check(args: argparse.Namespace) -> int:
    cfds = load_cfds(args.cfds)
    # The same analysis the pipeline gate and `repro lint` run — the CLI can
    # never disagree with them about what "consistent" means.
    report = analyze(cfds, deep=False, optimize=args.mincover)
    consistent = not report.by_code("CFD001")
    print(f"{len(cfds)} CFDs loaded from {args.cfds}; consistent: {consistent}")
    if not consistent:
        return 1
    if args.mincover:
        cover = report.optimized or []
        print(f"Minimal cover: {len(cover)} normal-form CFDs.")
        print(format_cfds(cover))
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    cfds = load_cfds(args.cfds)
    if args.json:
        print(cfds_to_json(cfds))
    else:
        for cfd in cfds:
            print(cfd.render())
            print()
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conditional functional dependencies for data cleaning (ICDE 2007 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    detect_choices = DETECTION_BACKENDS + (AUTO,)
    repair_choices = REPAIR_BACKENDS + (AUTO,)

    detect = subparsers.add_parser("detect", help="detect CFD violations")
    _add_data_arguments(detect)
    detect.add_argument("--cfds", required=True, help=".cfd or .json rule file")
    detect.add_argument(
        "--method",
        choices=detect_choices,
        default="sql",
        help="detection backend: the SQL queries of Section 4 (default), the "
        "pure-Python oracle, the partition-index engine, its sharded "
        "parallel variant, or 'auto' to pick per workload",
    )
    detect.add_argument("--strategy", choices=["per_cfd", "merged"], default="per_cfd")
    detect.add_argument("--form", choices=["cnf", "dnf"], default="dnf")
    _add_storage_argument(detect)
    _add_kernel_argument(detect)
    _add_parallel_arguments(detect)
    detect.add_argument("--output", help="write the full report as JSON to this path")
    detect.add_argument("--limit", type=int, default=20, help="violations to print (default 20)")
    detect.add_argument("--quiet", action="store_true", help="print only the summary line")
    detect.set_defaults(handler=cmd_detect)

    repair_cmd = subparsers.add_parser("repair", help="repair the data so it satisfies the CFDs")
    _add_data_arguments(repair_cmd)
    repair_cmd.add_argument("--cfds", required=True)
    repair_cmd.add_argument("--output", required=True, help="path of the repaired CSV")
    repair_cmd.add_argument("--max-passes", type=int, default=25)
    repair_cmd.add_argument(
        "--method",
        choices=repair_choices,
        default="incremental",
        help="detection engine driving the repair passes: the delta-maintained "
        "incremental state (default), its sharded parallel variant, the "
        "pure-Python scan oracle, or 'auto' to pick per workload; all "
        "produce the same repair",
    )
    repair_cmd.add_argument("--changes", action="store_true", help="print every cell change")
    _add_storage_argument(repair_cmd)
    _add_kernel_argument(repair_cmd)
    _add_parallel_arguments(repair_cmd)
    repair_cmd.set_defaults(handler=cmd_repair)

    clean = subparsers.add_parser(
        "clean", help="run the full detect -> repair -> verify pipeline"
    )
    _add_data_arguments(clean)
    clean.add_argument("--cfds", required=True)
    clean.add_argument("--output", help="path of the cleaned CSV")
    clean.add_argument("--audit", help="write the full audit trail as JSON to this path")
    clean.add_argument("--detect-method", choices=detect_choices, default=AUTO)
    clean.add_argument("--repair-method", choices=repair_choices, default=AUTO)
    clean.add_argument(
        "--verify-method",
        choices=detect_choices,
        default="inmemory",
        help="backend for the final verification (default: the pure-Python oracle)",
    )
    clean.add_argument("--max-passes", type=int, default=25)
    _add_storage_argument(clean)
    _add_kernel_argument(clean)
    _add_parallel_arguments(clean)
    clean.set_defaults(handler=cmd_clean)

    generate = subparsers.add_parser("generate", help="generate a synthetic workload CSV")
    generate.add_argument(
        "--dataset",
        choices=["cust", "tax"],
        default="tax",
        help="the paper's running example (cust, 6 tuples) or the Section 5 "
        "tax-records generator",
    )
    generate.add_argument("--size", type=int, default=10_000, help="tax tuples to generate")
    generate.add_argument("--noise", type=float, default=0.05, help="fraction of dirty tuples")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="path of the generated CSV")
    generate.add_argument(
        "--stream",
        action="store_true",
        help="write rows to the CSV as they are generated (O(1) memory; "
        "identical output, suited to 1M-10M row inputs)",
    )
    generate.add_argument("--rules", help="also write the matching CFDs to this rule file")
    generate.set_defaults(handler=cmd_generate)

    bench = subparsers.add_parser("bench", help="run the Figure 9 experiment drivers")
    bench.add_argument("experiments", nargs="*", help="experiments to run (default: all)")
    bench.add_argument("--scale", type=float, default=None, help="workload scale factor")
    bench.add_argument(
        "--json-dir",
        help="also write each series as BENCH_<experiment>.json in this directory",
    )
    bench.set_defaults(handler=cmd_bench)

    lint = subparsers.add_parser(
        "lint",
        help="statically analyse a rule file: consistency (with a "
        "counterexample witness), implication-based redundancy, and "
        "engine-specific hazards, as stable CFD0xx/CFD1xx diagnostics",
    )
    lint.add_argument("--cfds", required=True, help=".cfd or .json rule file")
    _add_data_arguments(lint)
    lint.add_argument(
        "--detect-method",
        choices=detect_choices,
        default=AUTO,
        help="detection backend the rules are destined for; engine-specific "
        "hazards become warnings when their engine is explicitly requested",
    )
    lint.add_argument(
        "--repair-method",
        choices=repair_choices,
        default=AUTO,
        help="repair engine the rules are destined for (same effect as "
        "--detect-method on hazard severity)",
    )
    lint.add_argument(
        "--fast",
        action="store_true",
        help="skip the deep implication checks (CFD002/CFD003) — the same "
        "reduced pass the pipeline pre-flight gate runs",
    )
    lint.add_argument(
        "--optimize",
        metavar="OUT",
        help="also rewrite the rule set to its minimal cover (Figure 4 of "
        "the paper) and write it to this rule file",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    lint.set_defaults(handler=cmd_lint)

    check = subparsers.add_parser("check", help="check a rule file for consistency")
    check.add_argument("--cfds", required=True)
    check.add_argument("--mincover", action="store_true", help="also print a minimal cover")
    check.set_defaults(handler=cmd_check)

    show = subparsers.add_parser("show", help="pretty-print a rule file")
    show.add_argument("--cfds", required=True)
    show.add_argument("--json", action="store_true")
    show.set_defaults(handler=cmd_show)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
