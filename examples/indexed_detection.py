"""The partition-indexed detection backend, end to end.

Builds a tax-records workload (Section 5 generator), then shows:

1. the three backends agreeing via ``cross_check``;
2. the indexed backend timed next to the oracle, with cache stats;
3. streaming ingestion over a row source that is read exactly once.

Run with:  PYTHONPATH=src python examples/indexed_detection.py
"""

from __future__ import annotations

import time

from repro.bench.harness import build_workload
from repro.core.satisfaction import find_all_violations
from repro.detection.engine import cross_check
from repro.detection.indexed import IndexedDetector, detect_stream


def main() -> None:
    workload = build_workload(
        size=10_000, noise=0.05, seed=42, num_attrs=3, tabsz=100, num_consts=0.5
    )
    relation, cfds = workload.relation, workload.cfds
    print(f"Workload: {workload.label}")
    print(f"{len(relation)} tuples, {sum(len(cfd.tableau) for cfd in cfds)} pattern tuples")
    print()

    # ------------------------------------------------------------ agreement
    result = cross_check(relation, cfds)
    print(f"cross_check over inmemory/sql/indexed: agree = {result.agree}")
    print(f"violating tuples: {len(result.inmemory_indices)}")
    print()

    # ------------------------------------------------------------ timings
    start = time.perf_counter()
    oracle_report = find_all_violations(relation, cfds)
    oracle_seconds = time.perf_counter() - start

    detector = IndexedDetector(relation)
    start = time.perf_counter()
    indexed_report = detector.detect(cfds)
    indexed_seconds = time.perf_counter() - start

    assert indexed_report.violating_indices() == oracle_report.violating_indices()
    print(f"oracle:           {oracle_seconds:.3f}s (one scan per constant-LHS mask)")
    print(f"partition index:  {indexed_seconds:.3f}s (cold cache)")
    print(f"cache stats after one batch: {detector.cache_stats()}")

    # A second batch over the same LHS attributes is all cache hits.
    start = time.perf_counter()
    detector.detect(cfds)
    warm_seconds = time.perf_counter() - start
    print(f"warm re-check:    {warm_seconds:.3f}s  {detector.cache_stats()}")
    print()

    # ------------------------------------------------------------ streaming
    def row_source():
        """Stand-in for a CSV reader or DB cursor: yields each row once."""
        yield from relation.rows

    start = time.perf_counter()
    stream_report = detect_stream(relation.schema, row_source(), cfds)
    stream_seconds = time.perf_counter() - start
    assert stream_report.violating_indices() == oracle_report.violating_indices()
    print(f"streaming (projected columns only): {stream_seconds:.3f}s, "
          f"{len(stream_report.violating_indices())} violating tuples")


if __name__ == "__main__":
    main()
