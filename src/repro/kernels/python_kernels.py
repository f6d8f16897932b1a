"""The pure-Python reference kernels (always available).

These are the loops the hot layers ran inline before the kernel split:
dictionary-code grouping (:meth:`PythonKernel.group_codes`), the ``Q^V``
code-disagreement check (:meth:`PythonKernel.codes_disagree`) and
the ``Q^C`` constant-mismatch scan.  They are the *semantics definition* —
the numpy kernels (:mod:`repro.kernels.numpy_kernels`) must reproduce their
output element for element, in the same order, and the agreement grid in
``tests/integration/test_kernel_agreement.py`` pins exactly that.

Ordering contract (shared by every kernel):

* grouping yields groups in **first-occurrence order** of their key, with
  members in **ascending index order**;
* :meth:`~PythonKernel.constant_mismatches` returns the mismatching subset of
  ``indices`` in the given order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

#: A code column: an ``array('i')`` (or any int sequence) aligned with tuple
#: indices — ``column[i]`` is the dictionary code of tuple ``i``'s cell.
CodeColumn = Sequence[int]

#: One group: the key's code tuple plus the member indices (ascending).
CodeGroup = Tuple[Tuple[int, ...], List[int]]

#: One evaluated class with something to report: its position in the caller's
#: class sequence, whether the ``Q^V`` projection disagrees, and — aligned
#: with the caller's constant checks — each check's mismatching member subset
#: (ascending).
ClassFinding = Tuple[int, bool, Tuple[List[int], ...]]


class PythonKernel:
    """Reference implementations of the code-column hot loops."""

    name = "python"

    def group_codes(
        self,
        columns: Sequence[CodeColumn],
        start: int,
        stop: int,
        sizes: Optional[Sequence[int]] = None,
    ) -> Iterable[CodeGroup]:
        """Group row indices in ``[start, stop)`` by their code projection.

        ``sizes`` optionally gives each column's dictionary size, letting the
        single-column path bucket by direct list indexing instead of hashing.
        Groups come out in first-occurrence order, members ascending — the
        order :meth:`Relation.group_by` produces.
        """
        if stop <= start:
            return []
        if len(columns) == 1:
            return self._group_single(columns[0], start, stop, sizes)
        return self._group_multi(columns, start, stop)

    @staticmethod
    def _group_single(
        column: CodeColumn, start: int, stop: int, sizes: Optional[Sequence[int]]
    ) -> Iterable[CodeGroup]:
        window = (
            column if start == 0 and stop == len(column) else column[start:stop]
        )
        order: List[int] = []
        if sizes is not None:
            # Codes are dense in [0, dictionary size): bucket by direct list
            # indexing, no hashing at all.
            buckets: List[Optional[List[int]]] = [None] * sizes[0]
            index = start
            for code in window:
                bucket = buckets[code]
                if bucket is None:
                    buckets[code] = [index]
                    order.append(code)
                else:
                    bucket.append(index)
                index += 1
            for code in order:
                yield (code,), buckets[code]  # type: ignore[misc]
            return
        groups: dict = {}
        index = start
        for code in window:
            group = groups.get(code)
            if group is None:
                groups[code] = [index]
            else:
                group.append(index)
            index += 1
        for code, members in groups.items():
            yield (code,), members

    @staticmethod
    def _group_multi(
        columns: Sequence[CodeColumn], start: int, stop: int
    ) -> Iterable[CodeGroup]:
        windows = [
            column if start == 0 and stop == len(column) else column[start:stop]
            for column in columns
        ]
        groups: dict = {}
        for index, key in enumerate(zip(*windows), start):
            group = groups.get(key)
            if group is None:
                groups[key] = [index]
            else:
                group.append(index)
        return groups.items()

    def group_projections(
        self, columns: Sequence[CodeColumn], indices: Sequence[int]
    ) -> Iterable[CodeGroup]:
        """Group ``indices`` (ascending) by their code projection.

        The distinct-projection pass of the repair heuristic's plurality
        vote: same ordering contract as :meth:`group_codes`, but over an
        arbitrary index subset instead of a contiguous window.
        """
        groups: dict = {}
        if len(columns) == 1:
            column = columns[0]
            for index in indices:
                key = (column[index],)
                group = groups.get(key)
                if group is None:
                    groups[key] = [index]
                else:
                    group.append(index)
            return groups.items()
        for index in indices:
            key = tuple(column[index] for column in columns)
            group = groups.get(key)
            if group is None:
                groups[key] = [index]
            else:
                group.append(index)
        return groups.items()

    def codes_disagree(
        self, columns: Sequence[CodeColumn], indices: Sequence[int]
    ) -> bool:
        """Whether the code projections of ``indices`` take more than one value.

        Codes biject onto values per attribute, so code disagreement *is*
        value disagreement — the ``Q^V`` check without decoding a cell.
        """
        if len(columns) == 1:
            column = columns[0]
            first = column[indices[0]]
            return any(column[index] != first for index in indices[1:])
        first_index = indices[0]
        first = tuple(column[first_index] for column in columns)
        return any(
            tuple(column[index] for column in columns) != first
            for index in indices[1:]
        )

    def variable_violation_groups(
        self,
        lhs_columns: Sequence[CodeColumn],
        rhs_columns: Sequence[CodeColumn],
        start: int,
        stop: int,
        mask: Optional[Sequence[Tuple[CodeColumn, int]]] = None,
    ) -> List[CodeGroup]:
        """The fused ``Q^V`` scan: LHS groups whose RHS projection disagrees.

        Groups the rows of ``[start, stop)`` by their ``lhs_columns`` code
        projection and keeps exactly the groups a wildcard variable pattern
        violates: more than one member *and* more than one distinct
        ``rhs_columns`` projection.  ``mask`` — ``(column, code)`` pairs from
        a pattern's constant LHS cells — restricts the scan to the rows whose
        code equals the constant's in every pair, which is exactly the class
        subset a class index's ``matching_positions`` would select.  Same
        ordering contract as :meth:`group_codes` — groups in first-occurrence
        order of their LHS key, members ascending (restricting to masked rows
        preserves first-occurrence order among the surviving groups, whose
        members are all masked rows).

        No engine calls this primitive or :meth:`partition_classes` (the
        detector and the repair state evaluate through class indexes); both
        stay in the kernel interface because ``perf/tracer.py`` binds every
        primitive by name.
        """
        if mask:
            indices = [
                index
                for index in range(start, stop)
                if all(column[index] == code for column, code in mask)
            ]
            return [
                (key_codes, members)
                for key_codes, members in self.group_projections(lhs_columns, indices)
                if len(members) > 1 and self.codes_disagree(rhs_columns, members)
            ]
        return [
            (key_codes, members)
            for key_codes, members in self.group_codes(lhs_columns, start, stop)
            if len(members) > 1 and self.codes_disagree(rhs_columns, members)
        ]

    def constant_mismatches(
        self,
        column: CodeColumn,
        indices: Sequence[int],
        expected_code: Optional[int],
    ) -> List[int]:
        """The subset of ``indices`` whose code differs from ``expected_code``.

        Order-preserving (the ``Q^C`` check emits violations in index order).
        ``expected_code`` of ``None`` means the expected constant occurs
        nowhere in the column's dictionary, so every index mismatches.
        """
        if expected_code is None:
            return list(indices)
        return [index for index in indices if column[index] != expected_code]

    # ------------------------------------------------------------------ repair-side batch primitives
    def partition_classes(
        self, columns: Sequence[CodeColumn], length: int
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Partition rows ``0..length-1`` into equivalence classes, flat form.

        Returns ``(order, offsets)``: ``order`` lists every row index grouped
        class by class — classes in **ascending code-key order**, members
        **ascending** within each class — and ``offsets[c]`` is the start of
        class ``c`` in ``order`` (``len(offsets)`` is the class count; class
        ``c`` ends where class ``c+1`` starts, the last at ``length``).  The
        flat form is exactly what :meth:`evaluate_classes` consumes, so a
        whole-relation repair scan is one partition + one evaluation call.
        Note the class order differs from :meth:`group_codes` deliberately:
        key order is what a delta-maintained sorted index preserves cheaply,
        and the repair state re-sorts its report canonically anyway.  With no
        columns every row falls into one class; with no rows there are none.
        """
        if length <= 0:
            return [], []
        if not columns:
            return list(range(length)), [0]
        groups: dict = {}
        if len(columns) == 1:
            column = columns[0]
            for index in range(length):
                key = (column[index],)
                group = groups.get(key)
                if group is None:
                    groups[key] = [index]
                else:
                    group.append(index)
        else:
            for index in range(length):
                key = tuple(column[index] for column in columns)
                group = groups.get(key)
                if group is None:
                    groups[key] = [index]
                else:
                    group.append(index)
        order: List[int] = []
        offsets: List[int] = []
        for key in sorted(groups):
            offsets.append(len(order))
            order.extend(groups[key])
        return order, offsets

    def evaluate_classes(
        self,
        rhs_columns: Sequence[CodeColumn],
        indices: Sequence[int],
        offsets: Sequence[int],
        const_columns: Sequence[Tuple[CodeColumn, Optional[int]]] = (),
    ) -> List[ClassFinding]:
        """The batch re-evaluation primitive: ``Q^C`` + ``Q^V`` over many classes.

        ``indices`` concatenates the members of every dirty class (each class
        contiguous and non-empty, members ascending) and ``offsets`` holds the
        class start positions — the flat form :meth:`partition_classes`
        produces.  Each class is checked for ``Q^V`` disagreement over
        ``rhs_columns`` (more than one member and more than one distinct
        projection) and, per ``(column, expected_code)`` pair in
        ``const_columns``, for ``Q^C`` mismatches (``None`` meaning the
        expected constant occurs nowhere, so every member mismatches).  Only
        the classes with something to report come back — as
        ``(class_position, rhs_disagree, per_check_mismatches)`` in ascending
        class position, mismatch subsets in member (ascending index) order —
        so on mostly-clean data the result is a tiny fraction of the input.
        An empty dirty-set returns an empty list.
        """
        findings: List[ClassFinding] = []
        count = len(indices)
        class_count = len(offsets)
        for position in range(class_count):
            start = offsets[position]
            stop = offsets[position + 1] if position + 1 < class_count else count
            members = indices[start:stop]
            disagree = bool(
                rhs_columns
                and stop - start > 1
                and self.codes_disagree(rhs_columns, members)
            )
            mismatches = tuple(
                self.constant_mismatches(column, members, expected_code)
                for column, expected_code in const_columns
            )
            if disagree or any(mismatches):
                findings.append((position, disagree, mismatches))
        return findings


#: The module singleton the dispatcher hands out.
PYTHON_KERNEL = PythonKernel()


__all__ = ["ClassFinding", "CodeColumn", "CodeGroup", "PythonKernel", "PYTHON_KERNEL"]
