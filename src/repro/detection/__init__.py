"""A single façade over the in-memory, SQL and class-indexed detectors.

Backends are dispatched through the fixed
:data:`repro.detection.engine.DETECTORS` table.
"""

from repro.detection.engine import DETECTION_METHODS, CrossCheckResult, cross_check, detect_violations
from repro.detection.indexed import (
    IndexedDetector,
    detect_stream,
    find_cfd_violations_indexed,
    find_violations_indexed,
)
from repro.detection.partition_index import PartitionIndex, PartitionIndexCache

__all__ = [
    "DETECTION_METHODS",
    "CrossCheckResult",
    "IndexedDetector",
    "PartitionIndex",
    "PartitionIndexCache",
    "cross_check",
    "detect_stream",
    "detect_violations",
    "find_cfd_violations_indexed",
    "find_violations_indexed",
]
