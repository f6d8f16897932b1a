"""Numpy-vectorised kernels for the code-column hot loops.

This module imports :mod:`numpy` at the top — it is only ever imported by
the dispatcher (:mod:`repro.kernels`) after
:func:`repro.kernels.numpy_available` said yes, so a machine without the
``[fast]`` extra never touches it.

Each kernel reproduces the pure-Python reference
(:mod:`repro.kernels.python_kernels`) byte for byte; the interesting part is
recovering the reference *ordering* from sorted array output:

* grouping sorts the window with a **stable** lexsort, finds group
  boundaries as element-wise change points, then reorders the groups by
  their first member — stable sorting keeps each group's members in
  ascending original order, so the group whose first member is smallest is
  exactly the group whose key occurs first, recovering first-occurrence
  order without a hash table;
* disagreement and constant-mismatch checks are plain vectorised
  comparisons, which cannot reorder anything.

Tiny inputs fall back to the python kernel: below
:data:`SMALL_INPUT_THRESHOLD` elements the per-call numpy overhead (array
wrapping, fancy indexing) exceeds the loop it replaces, and the repair
loop's per-group checks are usually tiny.  The fallback is invisible —
both kernels produce identical output by contract.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.python_kernels import (
    PYTHON_KERNEL,
    ClassFinding,
    CodeColumn,
    CodeGroup,
)

#: Below this many elements the python loop wins; results are identical
#: either way, so the threshold is a pure speed knob.
SMALL_INPUT_THRESHOLD = 32

_INT_CODES = np.dtype(np.intc)


def _as_array(column: CodeColumn) -> np.ndarray:
    """A read-only ndarray view of a code column (zero-copy for ``array('i')``).

    ``array('i')`` exposes the buffer protocol, so the view costs nothing;
    the view is created fresh per kernel call and never outlives it, which
    keeps it safe against the column being resized by later inserts.
    """
    if isinstance(column, array):
        if len(column) == 0:
            return np.empty(0, dtype=_INT_CODES)
        return np.frombuffer(column, dtype=_INT_CODES)
    return np.asarray(column, dtype=_INT_CODES)


def _boundaries(sorted_cols: List[np.ndarray], count: int):
    """Start offsets of each run of equal keys in lexsorted columns."""
    change = np.zeros(count, dtype=bool)
    change[0] = True
    for sorted_col in sorted_cols:
        change[1:] |= sorted_col[1:] != sorted_col[:-1]
    starts = np.flatnonzero(change)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = count
    return starts, ends


def stable_argsort(key: np.ndarray) -> np.ndarray:
    """A stable argsort of non-negative integer keys.

    numpy's stable sort is an O(n) radix sort for <= 16-bit integers but a
    comparison sort above that — a ~4-7x gap on 50K keys.  Keys below
    ``2**16`` sort in one 16-bit pass; keys below ``2**32`` in two (low half,
    then high half: each pass is stable, so this is an LSD radix sort).
    """
    top = int(key.max()) if len(key) else 0
    if top < 2**16:
        return np.argsort(key.astype(np.uint16), kind="stable")
    if top < 2**32:
        low = np.argsort((key & 0xFFFF).astype(np.uint16), kind="stable")
        high = np.argsort((key[low] >> 16).astype(np.uint16), kind="stable")
        return low[high]
    return np.argsort(key, kind="stable")


def _stable_order(arrays: List[np.ndarray]) -> np.ndarray:
    """A stable sort order over multi-column keys.

    Fuses the columns into one ``int64`` composite key (codes are dense and
    non-negative, so ``key * radix + code`` is collision-free) and radix-sorts
    that — one pass instead of ``np.lexsort``'s pass per column.  Falls back
    to lexsort in the astronomical case where the fused key would overflow.
    Both routes are stable, so equal keys keep ascending position order.
    """
    if len(arrays) == 1:
        return stable_argsort(arrays[0])
    key = arrays[0].astype(np.int64)
    for arr in arrays[1:]:
        radix = int(arr.max()) + 1
        if int(key.max()) >= (2**62) // radix:
            return np.lexsort(tuple(reversed(arrays)))
        key *= radix
        key += arr
    return stable_argsort(key)


def _grouped(
    arrays: List[np.ndarray], base: "np.ndarray"
) -> Iterable[CodeGroup]:
    """Group positions ``0..n-1`` of ``arrays`` and map them through ``base``.

    ``base[p]`` is the caller-facing index of position ``p``.  Stable
    sorting keeps equal keys in ascending position order, so each group's
    members come out ascending and the group with the smallest first member
    is the group whose key occurred first — sorting groups by first member
    reproduces first-occurrence order exactly.
    """
    count = len(base)
    order = _stable_order(arrays)
    sorted_cols = [array_[order] for array_ in arrays]
    starts, ends = _boundaries(sorted_cols, count)
    members = base[order]
    for group in np.argsort(members[starts], kind="stable"):
        group_start = starts[group]
        key = tuple(int(sorted_col[group_start]) for sorted_col in sorted_cols)
        yield key, members[group_start : ends[group]].tolist()


class NumpyKernel:
    """Vectorised implementations of the code-column hot loops."""

    name = "numpy"

    def group_codes(
        self,
        columns: Sequence[CodeColumn],
        start: int,
        stop: int,
        sizes: Optional[Sequence[int]] = None,
    ) -> Iterable[CodeGroup]:
        count = stop - start
        if count <= 0:
            return []
        if count < SMALL_INPUT_THRESHOLD:
            return PYTHON_KERNEL.group_codes(columns, start, stop, sizes=sizes)
        arrays = [_as_array(column)[start:stop] for column in columns]
        base = np.arange(start, stop, dtype=np.intp)
        return _grouped(arrays, base)

    def group_projections(
        self, columns: Sequence[CodeColumn], indices: Sequence[int]
    ) -> Iterable[CodeGroup]:
        if len(indices) == 0:
            return []
        if len(indices) < SMALL_INPUT_THRESHOLD:
            return PYTHON_KERNEL.group_projections(columns, indices)
        base = np.asarray(indices, dtype=np.intp)
        arrays = [_as_array(column)[base] for column in columns]
        return _grouped(arrays, base)

    def codes_disagree(
        self, columns: Sequence[CodeColumn], indices: Sequence[int]
    ) -> bool:
        if len(indices) < SMALL_INPUT_THRESHOLD:
            return PYTHON_KERNEL.codes_disagree(columns, indices)
        gather = np.asarray(indices, dtype=np.intp)
        for column in columns:
            taken = _as_array(column)[gather]
            if bool((taken != taken[0]).any()):
                return True
        return False

    def variable_violation_groups(
        self,
        lhs_columns: Sequence[CodeColumn],
        rhs_columns: Sequence[CodeColumn],
        start: int,
        stop: int,
        mask: Optional[Sequence[Tuple[CodeColumn, int]]] = None,
    ) -> List[CodeGroup]:
        """The fused ``Q^V`` scan, entirely in array passes.

        One stable sort groups the window by its LHS codes; per-group RHS
        disagreement is then ``max != min`` over each run via ``reduceat``
        (codes are plain ints, so any two distinct codes differ in min/max).
        ``mask`` pairs (a pattern's constant LHS cells as ``(column, code)``)
        are applied as one boolean reduction *before* the radix group-by, so
        mixed constant/wildcard patterns stay on the fused path — the sort
        then only touches the surviving rows.  Only the violating groups are
        materialised back into python lists.
        """
        count = stop - start
        if count <= 0:
            return []
        if count < SMALL_INPUT_THRESHOLD:
            return PYTHON_KERNEL.variable_violation_groups(
                lhs_columns, rhs_columns, start, stop, mask=mask
            )
        if mask:
            keep = _as_array(mask[0][0])[start:stop] == mask[0][1]
            for column, code in mask[1:]:
                keep &= _as_array(column)[start:stop] == code
            base = np.flatnonzero(keep)
            count = len(base)
            if count == 0:
                return []
            lhs = [_as_array(column)[start:stop][base] for column in lhs_columns]
            rhs = [_as_array(column)[start:stop][base] for column in rhs_columns]
            masked_members: Optional[np.ndarray] = base + start if start else base
        else:
            lhs = [_as_array(column)[start:stop] for column in lhs_columns]
            rhs = [_as_array(column)[start:stop] for column in rhs_columns]
            masked_members = None
        order = _stable_order(lhs)
        sorted_lhs = [arr[order] for arr in lhs]
        starts, ends = _boundaries(sorted_lhs, count)
        disagree = np.zeros(len(starts), dtype=bool)
        for column in rhs:
            taken = column[order]
            disagree |= np.maximum.reduceat(taken, starts) != np.minimum.reduceat(
                taken, starts
            )
        disagree &= (ends - starts) > 1
        violating = np.flatnonzero(disagree)
        if len(violating) == 0:
            return []
        if masked_members is not None:
            members = masked_members[order]
        else:
            members = order + start if start else order
        # Stable sort keeps each group's members ascending, so the first
        # member is the key's first occurrence; sorting the violating groups
        # by it recovers first-occurrence emission order.
        violating = violating[np.argsort(members[starts[violating]], kind="stable")]
        out: List[CodeGroup] = []
        for group in violating:
            group_start = starts[group]
            key = tuple(int(sorted_col[group_start]) for sorted_col in sorted_lhs)
            out.append((key, members[group_start : ends[group]].tolist()))
        return out

    def constant_mismatches(
        self,
        column: CodeColumn,
        indices: Sequence[int],
        expected_code: Optional[int],
    ) -> List[int]:
        if expected_code is None:
            return list(indices)
        if len(indices) < SMALL_INPUT_THRESHOLD:
            return PYTHON_KERNEL.constant_mismatches(column, indices, expected_code)
        gather = np.asarray(indices, dtype=np.intp)
        taken = _as_array(column)[gather]
        return gather[taken != expected_code].tolist()

    # ------------------------------------------------------------------ repair-side batch primitives
    def partition_classes(
        self, columns: Sequence[CodeColumn], length: int
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """One stable radix sort instead of a hash table per row.

        The composite-key argsort of :func:`_stable_order` is monotone in the
        code-key tuple (first column most significant), so ascending sorted
        position *is* ascending key order — the reference class order falls
        out of the sort with no reordering pass, and stability keeps members
        ascending within each class.
        """
        if length <= 0:
            return [], []
        if length < SMALL_INPUT_THRESHOLD:
            return PYTHON_KERNEL.partition_classes(columns, length)
        if not columns:
            return np.arange(length, dtype=np.intp), np.zeros(1, dtype=np.intp)
        arrays = [_as_array(column)[:length] for column in columns]
        order = _stable_order(arrays).astype(np.intp, copy=False)
        sorted_cols = [array_[order] for array_ in arrays]
        starts, _ends = _boundaries(sorted_cols, length)
        return order, starts

    def evaluate_classes(
        self,
        rhs_columns: Sequence[CodeColumn],
        indices: Sequence[int],
        offsets: Sequence[int],
        const_columns: Sequence[Tuple[CodeColumn, Optional[int]]] = (),
    ) -> List[ClassFinding]:
        """The batch re-evaluation primitive as whole-array reductions.

        The caller already hands the dirty classes over contiguously, so no
        sort is needed at all: each RHS column is gathered once and per-class
        disagreement is ``max != min`` over each run via ``reduceat``; each
        constant check is one gathered comparison whose per-class ``any`` is
        a ``logical_or.reduceat``.  Only the flagged classes materialise
        python lists — on mostly-clean data almost nothing does.
        """
        count = len(indices)
        class_count = len(offsets)
        if count == 0 or class_count == 0:
            return []
        if count < SMALL_INPUT_THRESHOLD:
            return PYTHON_KERNEL.evaluate_classes(
                rhs_columns,
                [int(index) for index in indices],
                [int(offset) for offset in offsets],
                const_columns,
            )
        gather = np.asarray(indices, dtype=np.intp)
        starts = np.asarray(offsets, dtype=np.intp)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = count
        disagree = np.zeros(class_count, dtype=bool)
        for column in rhs_columns:
            taken = _as_array(column)[gather]
            disagree |= np.maximum.reduceat(taken, starts) != np.minimum.reduceat(
                taken, starts
            )
        disagree &= (ends - starts) > 1
        report = disagree.copy()
        masks: List[np.ndarray] = []
        for column, expected_code in const_columns:
            if expected_code is None:
                mask = np.ones(count, dtype=bool)
            else:
                mask = _as_array(column)[gather] != expected_code
            masks.append(mask)
            report |= np.logical_or.reduceat(mask, starts)
        findings: List[ClassFinding] = []
        for position in np.flatnonzero(report):
            start, end = starts[position], ends[position]
            mismatches = tuple(
                gather[start:end][mask[start:end]].tolist() for mask in masks
            )
            findings.append((int(position), bool(disagree[position]), mismatches))
        return findings


#: The module singleton the dispatcher hands out.
NUMPY_KERNEL = NumpyKernel()


__all__ = ["NumpyKernel", "NUMPY_KERNEL", "SMALL_INPUT_THRESHOLD"]
