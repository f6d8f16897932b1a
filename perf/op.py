"""One operation of one workload, run in a fresh process by ``perf/run.py``.

The timer starts at the rule-file parse and stops when the result is
returned; interpreter start-up and imports are outside it.  The last line
of standard output is one JSON record: wall time, peak RSS of this process
and of its reaped children (the engines' pool workers), the host probe
taken just before and just after the operation, and the output
fingerprint.  With ``--trace 1`` the operation runs under :mod:`tracer` and
the record also carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.harness import peak_rss_mb  # noqa: E402
from repro.relation.mmap_store import MmapColumnStore  # noqa: E402

import tracer as tracing  # noqa: E402
from run import host_probe  # noqa: E402
from workloads import (  # noqa: E402
    DATA,
    WORKLOADS,
    fingerprint,
    output_dump,
    run_operation,
    spill_entries,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path, help="the input directory")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", type=Path, help="write the checked output here")
    parser.add_argument("--trace-out", type=Path, help="write the spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    before = host_probe()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    root = tracer.span("op") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with root:
        outcome = run_operation(workload, args.dir)
    wall = time.perf_counter() - start
    after = host_probe()

    record = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "worker_peak_rss_mb": peak_rss_mb(children=True),
        "host_probes_s": [before, after],
        "traced": bool(tracer),
        "fingerprint": fingerprint(workload, outcome),
        "summary": outcome.summary(),
    }
    if args.dump:
        args.dump.write_text(json.dumps(output_dump(workload, outcome)))
    if workload.kind == "clean":
        record["clean"] = outcome.clean
        if isinstance(outcome.relation, MmapColumnStore):
            # The caller owns the returned store; releasing it must leave
            # the spill dir empty.
            outcome.relation.release()
    record["spill_left"] = spill_entries(args.dir)
    if tracer:
        tracer.uninstall()
        input_bytes = (args.dir / DATA).stat().st_size
        record["layers"] = tracing.layer_metrics(
            tracer, outcome, workload.kind, wall, input_bytes
        )
        record["labels"] = tracing.labels(tracer, outcome, workload.kind)
        if args.trace_out:
            document = tracer.trace_document()
            document.update(workload=workload.name, wall_s=wall)
            args.trace_out.write_text(json.dumps(document))
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
