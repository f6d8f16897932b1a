"""Reporting of experiment series: aligned text tables and JSON artifacts.

:func:`format_table` renders the rows behind each figure for the terminal;
:func:`write_json` persists one series as a ``BENCH_<name>.json`` file, a
machine-readable copy to diff between two local runs.  These files are not
committed; the repository's performance record is the ``perf/`` benchmark.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union


def format_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Format a list of homogeneous dictionaries as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    rendered = [[_render(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def write_json(
    directory: Union[str, Path],
    name: str,
    rows: Sequence[Dict[str, Any]],
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one experiment's series as ``<directory>/BENCH_<name>.json``.

    The payload carries the rows verbatim plus enough environment context
    (timestamp, Python, platform) to compare artifacts across CI runs.
    Returns the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    payload = {
        "experiment": name,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "metadata": dict(metadata or {}),
        "rows": list(rows),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
