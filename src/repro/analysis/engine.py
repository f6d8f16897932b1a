"""The analysis driver: run every check over a rule set.

:func:`analyze` is the one entry point behind the three front doors —
``repro lint``, ``repro check`` and the :class:`repro.pipeline.Cleaner`
pre-flight gate — so a rule set can never lint clean on the command line
and then trip the pipeline (or vice versa).
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence

from repro.analysis.checks import CHECKS, AnalysisContext
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, sort_diagnostics
from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.errors import AnalysisError, RegistryError
from repro.reasoning.mincover import minimal_cover
from repro.relation.schema import Schema
from repro.rules import compile_rules


def analyze(
    cfds: Sequence[CFD],
    schema: Optional[Schema] = None,
    *,
    detection: Optional[DetectionConfig] = None,
    repair: Optional[RepairConfig] = None,
    deep: bool = True,
    optimize: bool = False,
    checks: Optional[Iterable[str]] = None,
) -> AnalysisReport:
    """Statically analyse a rule set and return the :class:`AnalysisReport`.

    Parameters
    ----------
    cfds:
        The rule set to analyse (any form; normalisation happens internally).
    schema:
        Optional schema enabling the conformance checks (CFD006/CFD007) and
        finite-domain-aware consistency.
    detection, repair:
        Optional engine configs; hazard checks read them to judge severity
        (an engine-specific hazard is a warning when that engine was
        explicitly requested, an info otherwise).
    deep:
        Run the implication-based redundancy checks (CFD002/CFD003).  They
        chase once per normalised CFD — lint-time cost, so the pipeline gate
        passes ``deep=False``.
    optimize:
        Also compute the minimal cover (Figure 4 of the paper) and attach it
        as :attr:`AnalysisReport.optimized`.  Skipped (left ``None``) when
        the rule set is inconsistent — an inconsistent set has no cover.
    checks:
        Names of the checks to run (default: every one in
        :data:`~repro.analysis.checks.CHECKS`, sorted).  Unknown names raise
        :class:`~repro.errors.RegistryError`.

    >>> from repro.core.cfd import CFD
    >>> clash = [CFD.build(["A"], ["B"], [["_", "b"]], name="p1"),
    ...          CFD.build(["A"], ["B"], [["_", "c"]], name="p2")]
    >>> analyze(clash).by_code("CFD001")[0].severity
    'error'
    """
    start = time.perf_counter()
    by_name = dict(CHECKS)
    names = tuple(checks) if checks is not None else tuple(by_name)
    ctx = AnalysisContext(compile_rules(cfds), schema, detection, repair, deep)
    diagnostics: List[Diagnostic] = []
    for name in names:
        if name not in by_name:
            raise RegistryError(
                f"unknown analysis check {name!r}; expected one of "
                f"{', '.join(map(repr, by_name))}"
            )
        diagnostics.extend(by_name[name](ctx))
    report = AnalysisReport(
        diagnostics=sort_diagnostics(diagnostics),
        checks_run=names,
        deep=deep,
    )
    if optimize and ctx.cfds.consistent(schema):
        report.optimized = minimal_cover(list(ctx.cfds), schema)
    report.seconds = time.perf_counter() - start
    return report


def require_clean(report: AnalysisReport) -> None:
    """Raise :class:`~repro.errors.AnalysisError` when the report has errors.

    The ``analysis="strict"`` half of the pipeline gate, shared with any
    caller that wants refuse-on-error semantics.
    """
    if report.has_errors:
        first = report.errors()[0]
        raise AnalysisError(
            f"static analysis found {len(report.errors())} error(s) in the "
            f"rule set; first: {first.render()}",
            report=report,
        )
