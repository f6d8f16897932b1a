"""Demo: the dictionary-encoded columnar storage core (docs/columnar.md).

Builds a tax workload, shows the code protocol the engines compute over,
and cross-checks columnar detection and repair against the row-reading
oracle backends.

Run with: PYTHONPATH=src python examples/columnar_storage.py
"""

import time
from collections import Counter

from repro import DetectionConfig, RepairConfig, detect_violations, repair
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.generator import TaxRecordGenerator
from repro.relation.columnar import ColumnStore


def main() -> None:
    relation = TaxRecordGenerator(size=20_000, noise=0.05, seed=7).generate_relation()
    cfd = zip_state_cfd(tabsz=200, seed=7)

    # The code protocol the hot layers consume directly.
    store = ColumnStore.from_relation(relation)
    print(f"store: {store!r}")
    zip_codes = store.codes("ZIP")  # encodes the ZIP column on first demand
    print(f"ZIP dictionary: {store.dictionary_size('ZIP')} entries "
          f"for {len(store)} rows; first codes {list(zip_codes[:6])}")
    print(f"after touching ZIP only: {store!r}\n")

    # Indexed detection computes over codes; the in-memory oracle scans rows.
    reports = {}
    for method in ("indexed", "inmemory"):
        start = time.perf_counter()
        reports[method] = detect_violations(
            store, [cfd], config=DetectionConfig(method=method)
        )
        seconds = time.perf_counter() - start
        print(f"detection, method={method:8s}: "
              f"{len(reports[method])} violations in {seconds:.4f}s")
    indexed, oracle = reports["indexed"], reports["inmemory"]
    assert Counter(indexed.violations) == Counter(oracle.violations)
    print("the same violations as the oracle\n")

    # The incremental engine repairs over codes; the scan engine over rows.
    repairs = {
        method: repair(
            relation,
            [cfd],
            config=RepairConfig(method=method, check_consistency=False),
        )
        for method in ("incremental", "scan")
    }
    assert repairs["incremental"].relation.rows == repairs["scan"].relation.rows
    assert repairs["incremental"].changes == repairs["scan"].changes
    print(f"repair: {len(repairs['incremental'].changes)} cell changes, "
          f"byte-identical to the scan oracle, clean={repairs['incremental'].clean}")


if __name__ == "__main__":
    main()
