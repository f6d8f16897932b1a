"""The repair delta probes constant-LHS buckets instead of walking patterns.

:class:`RepairState` buckets the patterns mentioning each attribute by LHS
and constant mask, so a cell change dirties only the patterns whose LHS
constants the tuple's old or new key matches.  The property pins the
maintained report to a fresh state and to the oracle after every batch, on
change batches that move tuples between classes, change one tuple twice and
write values no cell held before.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.kernels import numpy_available, use_kernel
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.incremental import RepairState, canonical_order
from tests.integration.strategies import ATTRIBUTES, VALUES, cfds, relations

KERNELS = ("python", "numpy") if numpy_available() else ("python",)


@contextmanager
def kernel(name):
    """Activate ``name``; under numpy, with the small-input fallback off."""
    if name != "numpy":
        with use_kernel(name):
            yield
        return
    from repro.kernels import numpy_kernels

    previous = numpy_kernels.SMALL_INPUT_THRESHOLD
    numpy_kernels.SMALL_INPUT_THRESHOLD = 0
    try:
        with use_kernel(name):
            yield
    finally:
        numpy_kernels.SMALL_INPUT_THRESHOLD = previous


@st.composite
def rule_sets(draw):
    """One to three CFDs with distinct names, so report order is total."""
    drawn = draw(st.lists(cfds(), min_size=1, max_size=3))
    return [
        CFD(cfd.lhs, cfd.rhs, cfd.tableau, name=f"phi{number}")
        for number, cfd in enumerate(drawn)
    ]


@st.composite
def change_batches(draw, size, rules):
    """Batches of ``(tuple, attribute, value)`` changes for ``size`` rows.

    Every batch ends with an LHS move of one tuple followed by a second
    change to the same tuple, to a value no cell held before.
    """
    if not size:
        return []
    tuple_index = st.integers(min_value=0, max_value=size - 1)
    value = st.sampled_from(VALUES)
    change = st.tuples(tuple_index, st.sampled_from(ATTRIBUTES), value)
    batches = draw(st.lists(st.lists(change, max_size=4), min_size=1, max_size=3))
    for number, batch in enumerate(batches):
        moved = draw(tuple_index)
        lhs_attribute = draw(st.sampled_from(draw(st.sampled_from(rules)).lhs))
        batch.append((moved, lhs_attribute, draw(value)))
        batch.append((moved, draw(st.sampled_from(ATTRIBUTES)), f"fresh{number}"))
    return batches


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), relations(), rule_sets(), st.booleans())
def test_bucketed_delta_matches_fresh_state_and_oracle(data, relation, rules, encoded):
    batches = data.draw(change_batches(len(relation), rules))
    for name in KERNELS:
        work = ColumnStore.from_relation(relation) if encoded else relation.copy()
        with kernel(name):
            state = RepairState(work, rules)
            for batch in batches:
                state.apply_changes(batch)
                current = list(state.report())
                fresh = RepairState(work.copy(), rules)
                assert current == list(fresh.report()), name
                oracle = find_all_violations(work, rules)
                assert current == canonical_order(oracle, rules), name


def test_lhs_move_dirties_only_the_matching_constant_patterns():
    schema = Schema("r", ["A", "B"])
    relation = Relation(schema, [("a1", "x"), ("a2", "y"), ("a3", "z")])
    cfd = CFD.build(["A"], ["B"], [["a1", "x"], ["a2", "y"], ["a3", "z"]], name="phi")
    state = RepairState(relation, [cfd])
    before = state.stats()["patterns_reevaluated"]
    assert state.apply_change(0, "A", "a2")  # leaves a1's pattern, joins a2's
    assert state.stats()["patterns_reevaluated"] == before + 2
    [violation] = state.report().constant_violations()
    assert (violation.tuple_index, violation.actual) == (0, "x")
