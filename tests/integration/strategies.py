"""Hypothesis strategies shared by the storage and kernel agreement grids.

Besides uniformly random small relations and CFDs, the strategies draw the
shapes a data generator never produces, where off-by-one and empty-input
bugs in the code paths hide:

* empty relations;
* all-distinct rows, so that every equivalence class holds a single row;
* heavy skew, one value in at least 90% of every column;
* all-wildcard tableaux, every pattern cell ``_``.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.cfd import CFD
from repro.relation.relation import Relation
from repro.relation.schema import Schema

ATTRIBUTES = ("A", "B", "C", "D")
VALUES = ("v0", "v1", "v2")

row = st.tuples(*(st.sampled_from(VALUES) for _ in ATTRIBUTES))
cell = st.one_of(st.sampled_from(VALUES), st.just("_"))


@st.composite
def cfds(draw):
    n_lhs = draw(st.integers(min_value=1, max_value=2))
    lhs = list(draw(st.permutations(ATTRIBUTES)))[:n_lhs]
    remaining = [attr for attr in ATTRIBUTES if attr not in lhs]
    n_rhs = draw(st.integers(min_value=1, max_value=2))
    rhs = remaining[:n_rhs]
    pattern_cell = st.just("_") if draw(st.booleans()) else cell
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pattern = {attr: draw(pattern_cell) for attr in lhs}
        pattern.update({attr: draw(pattern_cell) for attr in rhs})
        patterns.append(pattern)
    return CFD.build(lhs, rhs, patterns)


def _skewed_column(draw, length):
    """A column holding one value in at least 90% of its cells."""
    dominant = draw(st.sampled_from(VALUES))
    others = [value for value in VALUES if value != dominant]
    column = [dominant] * length
    outliers = draw(
        st.lists(
            st.integers(min_value=0, max_value=length - 1),
            max_size=length // 10,
            unique=True,
        )
    )
    for position in outliers:
        column[position] = draw(st.sampled_from(others))
    return column


@st.composite
def relations(draw):
    shape = draw(st.sampled_from(("random", "empty", "distinct", "skewed")))
    if shape == "empty":
        rows = []
    elif shape == "distinct":
        # v0..v2 occur once each, so constant patterns can still match.
        length = draw(st.integers(min_value=1, max_value=8))
        rows = [tuple(f"v{index}" for _ in ATTRIBUTES) for index in range(length)]
    elif shape == "skewed":
        length = draw(st.integers(min_value=10, max_value=20))
        columns = [_skewed_column(draw, length) for _ in ATTRIBUTES]
        rows = list(zip(*columns))
    else:
        rows = draw(st.lists(row, min_size=0, max_size=8))
    return Relation(Schema("r", ATTRIBUTES), rows)
