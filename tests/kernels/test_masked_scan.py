"""Agreement tests for the masked fused ``Q^V`` scan.

The ``mask`` parameter of ``variable_violation_groups`` extends the fused
scan to mixed constant/wildcard patterns: constant LHS cells become
``(column, code)`` pairs applied as a row filter before the group-by.  The
python kernel is the semantics definition; the numpy kernel must reproduce
its output group for group, member for member, in the same order — across
window offsets, mask widths and the small-input fallback threshold.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.kernels.python_kernels import PYTHON_KERNEL

numpy_kernel = pytest.importorskip(
    "repro.kernels.numpy_kernels", reason="numpy kernels need the [fast] extra"
)
NUMPY_KERNEL = numpy_kernel.NUMPY_KERNEL
SMALL_INPUT_THRESHOLD = numpy_kernel.SMALL_INPUT_THRESHOLD


def _columns(rng, count, width, cardinality):
    return [
        array("i", (rng.randrange(cardinality) for _ in range(count)))
        for _ in range(width)
    ]


@pytest.mark.parametrize("count", [0, 8, SMALL_INPUT_THRESHOLD - 1, 200, 1_000])
@pytest.mark.parametrize("mask_width", [1, 2])
def test_masked_scan_agreement(count, mask_width):
    rng = random.Random(count * 31 + mask_width)
    lhs = _columns(rng, count, 2, 5)
    rhs = _columns(rng, count, 1, 3)
    mask_columns = _columns(rng, count, mask_width, 3)
    mask = [(column, rng.randrange(3)) for column in mask_columns]
    expected = PYTHON_KERNEL.variable_violation_groups(lhs, rhs, 0, count, mask=mask)
    actual = NUMPY_KERNEL.variable_violation_groups(lhs, rhs, 0, count, mask=mask)
    assert list(actual) == list(expected)


@pytest.mark.parametrize("start,stop", [(0, 500), (100, 500), (250, 251), (500, 500)])
def test_masked_scan_agreement_with_window(start, stop):
    rng = random.Random(start + stop)
    lhs = _columns(rng, 500, 1, 4)
    rhs = _columns(rng, 500, 2, 2)
    mask = [(_columns(rng, 500, 1, 2)[0], 1)]
    expected = PYTHON_KERNEL.variable_violation_groups(
        lhs, rhs, start, stop, mask=mask
    )
    actual = NUMPY_KERNEL.variable_violation_groups(lhs, rhs, start, stop, mask=mask)
    assert list(actual) == list(expected)


def test_mask_restricting_to_nothing():
    lhs = [array("i", [0, 0, 1, 1])]
    rhs = [array("i", [0, 1, 0, 1])]
    mask = [(array("i", [0, 0, 0, 0]), 7)]  # code 7 never occurs
    assert PYTHON_KERNEL.variable_violation_groups(lhs, rhs, 0, 4, mask=mask) == []
    assert NUMPY_KERNEL.variable_violation_groups(lhs, rhs, 0, 4, mask=mask) == []


def test_mask_selects_the_violating_subset():
    # Rows 0-3 share the LHS key; only rows where the mask column is 1
    # (0, 1, 3) survive, and their RHS codes disagree -> one group of three.
    lhs = [array("i", [5, 5, 5, 5, 6] * 20)]
    rhs = [array("i", [0, 1, 0, 0, 0] * 20)]
    mask_column = array("i", [1, 1, 0, 1, 1] * 20)
    expected = PYTHON_KERNEL.variable_violation_groups(
        lhs, rhs, 0, 100, mask=[(mask_column, 1)]
    )
    actual = NUMPY_KERNEL.variable_violation_groups(
        lhs, rhs, 0, 100, mask=[(mask_column, 1)]
    )
    assert actual == expected
    assert expected, "the construction must produce at least one violating group"
    for _key, members in expected:
        assert all(mask_column[index] == 1 for index in members)
        assert members == sorted(members)


def test_masked_agreement_randomized_sweep():
    rng = random.Random(20260807)
    for _ in range(50):
        count = rng.randrange(0, 400)
        lhs = _columns(rng, count, rng.randrange(1, 3), rng.randrange(2, 6))
        rhs = _columns(rng, count, rng.randrange(1, 3), rng.randrange(2, 4))
        mask = [
            (column, rng.randrange(3))
            for column in _columns(rng, count, rng.randrange(1, 3), 3)
        ]
        start = rng.randrange(0, count + 1)
        stop = rng.randrange(start, count + 1)
        expected = PYTHON_KERNEL.variable_violation_groups(
            lhs, rhs, start, stop, mask=mask
        )
        actual = NUMPY_KERNEL.variable_violation_groups(
            lhs, rhs, start, stop, mask=mask
        )
        assert list(actual) == list(expected)


def test_unmasked_calls_unchanged():
    # mask=None must remain byte-compatible with the historical signature.
    rng = random.Random(3)
    lhs = _columns(rng, 300, 2, 4)
    rhs = _columns(rng, 300, 1, 2)
    assert list(
        NUMPY_KERNEL.variable_violation_groups(lhs, rhs, 0, 300)
    ) == list(PYTHON_KERNEL.variable_violation_groups(lhs, rhs, 0, 300))


def test_detector_uses_fused_path_for_mixed_patterns():
    """Mixed constant/wildcard patterns detect identically across storages.

    End-to-end guard for the fused-path gate in ``detection/indexed.py``:
    a pattern with one constant and one wildcard LHS cell must produce the
    same violations whether it runs fused over code columns (numpy) or
    through the python reference kernel.
    """
    from repro.config import DetectionConfig
    from repro.core.cfd import CFD
    from repro.detection.engine import detect_violations
    from repro.relation.relation import Relation
    from repro.relation.schema import Schema

    rng = random.Random(99)
    schema = Schema("t", ["A", "B", "C"])
    rows = [
        (f"a{rng.randrange(6)}", f"b{rng.randrange(3)}", f"c{rng.randrange(4)}")
        for _ in range(400)
    ]
    relation = Relation(schema, rows)
    cfd = CFD.build(["A", "B"], ["C"], [["_", "b1", "_"]], name="mixed")
    reference = detect_violations(
        relation, [cfd], config=DetectionConfig(method="indexed", kernel="python")
    )
    fused = detect_violations(
        relation,
        [cfd],
        config=DetectionConfig(method="indexed", storage="columnar", kernel="numpy"),
    )
    assert list(fused.violations) == list(reference.violations)
    assert len(reference) > 0, "the workload must actually violate the CFD"
