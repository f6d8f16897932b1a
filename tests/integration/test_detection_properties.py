"""Property-based cross-checking of the three detection paths.

For random small relations and random CFDs, the pure-Python detector, the
per-CFD SQL detector (CNF and DNF forms) and the merged SQL detector must all
flag exactly the same set of tuples.  This is the strongest correctness net in
the suite: it exercises wildcard/constant handling, grouping, the union-form
DNF rewrite and the '@'-masked merged queries against the straightforward
semantics of Section 2.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.detection.indexed import detect_stream, find_violations_indexed
from repro.kernels import kernel_names, use_kernel
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair import canonical_order
from repro.sql.engine import SQLDetector

ATTRIBUTES = ("A", "B", "C", "D")
VALUES = ("v0", "v1", "v2")

row = st.tuples(*(st.sampled_from(VALUES) for _ in ATTRIBUTES))
cell = st.one_of(st.sampled_from(VALUES), st.just("_"))


@st.composite
def cfds(draw, allow_multi_rhs=True):
    n_lhs = draw(st.integers(min_value=1, max_value=2))
    lhs = list(draw(st.permutations(ATTRIBUTES)))[:n_lhs]
    remaining = [attr for attr in ATTRIBUTES if attr not in lhs]
    n_rhs = draw(st.integers(min_value=1, max_value=2 if allow_multi_rhs else 1))
    rhs = remaining[:n_rhs]
    n_patterns = draw(st.integers(min_value=1, max_value=3))
    patterns = []
    for _ in range(n_patterns):
        pattern = {attr: draw(cell) for attr in lhs}
        pattern.update({attr: draw(cell) for attr in rhs})
        patterns.append(pattern)
    return CFD.build(lhs, rhs, patterns)


@st.composite
def relations(draw):
    rows = draw(st.lists(row, min_size=0, max_size=8))
    return Relation(Schema("r", ATTRIBUTES), rows)


def _vectorised(kernel):
    """Under numpy, switch off the small-input fallback so the arrays run."""
    if kernel != "numpy":
        return nullcontext()
    from repro.kernels import numpy_kernels

    return mock.patch.object(numpy_kernels, "SMALL_INPUT_THRESHOLD", 0)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_all_detection_paths_agree(relation, cfd_list):
    oracle = find_all_violations(relation, cfd_list).violating_indices()
    indexed = find_violations_indexed(relation, cfd_list).violating_indices()
    with SQLDetector(relation, build_indexes=False) as detector:
        cnf = detector.detect(cfd_list, strategy="per_cfd", form="cnf").report.violating_indices()
        dnf = detector.detect(cfd_list, strategy="per_cfd", form="dnf").report.violating_indices()
        merged = detector.detect(cfd_list, strategy="merged").report.violating_indices()
    assert indexed == oracle
    assert cnf == oracle
    assert dnf == oracle
    assert merged == oracle


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
@example(
    # A constant RHS cell next to a wildcard one: tuple 0's class also holds
    # a Q^V violation, which must come after tuple 1's Q^C violation.
    Relation(
        Schema("r", ATTRIBUTES),
        [("v1", "v2", "v1", "v0"), ("v2", "v2", "v1", "v0"), ("v1", "v1", "v1", "v0")],
    ),
    [CFD.build(["A"], ["B", "C"], [{"A": "_", "B": "v1", "C": "_"}])],
)
def test_indexed_backend_reports_identical_violations(relation, cfd_list):
    """Stronger than index-set agreement: the same violations in the same order."""
    oracle = find_all_violations(relation, cfd_list)
    expected = canonical_order(oracle.violations, cfd_list)
    for kernel in kernel_names():
        with use_kernel(kernel), _vectorised(kernel):
            indexed = find_violations_indexed(relation, cfd_list)
        assert list(indexed.violations) == expected, kernel


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_streaming_detection_agrees_with_oracle(relation, cfd_list):
    oracle = find_all_violations(relation, cfd_list)
    streamed = detect_stream(relation.schema, iter(relation.rows), cfd_list)
    assert list(streamed.violations) == canonical_order(oracle.violations, cfd_list)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), cfds())
def test_constant_violation_counts_agree_between_oracle_and_cnf_sql(relation, cfd):
    """Beyond index sets: the per-tuple constant violators must coincide."""
    oracle = find_all_violations(relation, [cfd])
    oracle_constant = {v.tuple_indices[0] for v in oracle.constant_violations()}
    with SQLDetector(relation, build_indexes=False) as detector:
        run = detector.detect([cfd], strategy="per_cfd", form="cnf")
    sql_constant = {v.tuple_indices[0] for v in run.report.constant_violations()}
    assert sql_constant == oracle_constant


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_merged_tableau_cfd_view_matches_separate_checking(relation, cfd_list):
    """The '@'-filled merged CFD (Figure 6) is semantically the union of its sources."""
    from repro.sql.merge import merge_cfds

    merged_cfd = merge_cfds(cfd_list).to_cfd()
    separate = find_all_violations(relation, cfd_list).violating_indices()
    combined = find_all_violations(relation, [merged_cfd]).violating_indices()
    assert combined == separate
