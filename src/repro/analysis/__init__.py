"""Pre-flight static analysis of CFD rule sets.

The paper's reasoning results — consistency (Section 3.1), implication
(Section 3.2) and minimal covers (Section 3.3) — answer questions about a
rule set *before* any data is touched.  This package turns them, plus a
family of structural and engine-specific hazard checks, into a linter:

>>> from repro.analysis import analyze
>>> from repro.core.cfd import CFD
>>> report = analyze([CFD.build(["A"], ["B"], [["_", "b"]], name="p1"),
...                   CFD.build(["A"], ["B"], [["_", "c"]], name="p2")])
>>> report.has_errors
True
>>> report.by_code("CFD001")[0].witness["conflicting_cfds"]
['p1', 'p2']

Three front doors share it: the ``repro lint`` CLI subcommand, the
``repro check`` consistency shortcut, and the
:class:`repro.pipeline.Cleaner` pre-flight gate
(``Cleaner(analysis="strict"|"warn"|"off")``).  The checks are the fixed
tuple :data:`repro.analysis.checks.CHECKS`; they and the diagnostic code
table are documented in ``docs/analysis.md``.
"""

from repro.analysis.checks import AnalysisContext
from repro.analysis.diagnostics import (
    SEVERITIES,
    AnalysisReport,
    AnalysisWarning,
    Diagnostic,
    sort_diagnostics,
)
from repro.analysis.engine import analyze, require_clean

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "AnalysisWarning",
    "Diagnostic",
    "SEVERITIES",
    "analyze",
    "require_clean",
    "sort_diagnostics",
]
