"""Diagnostics: the structured findings of the pre-flight CFD analysis.

The paper's static analyses (consistency, Section 3.1; implication and
minimal covers, Sections 3.2–3.3) answer yes/no questions about a CFD set.
A *linter* needs more than a boolean: every finding is a :class:`Diagnostic`
with a stable code (``CFD001``, ...), a severity, a location (the CFD and,
where it applies, the attribute), a fix hint, and — where one exists — a
concrete witness such as the conflicting core of an inconsistent rule set.
:class:`AnalysisReport` collects them with JSON and plain-text renderings,
and is what :func:`repro.analysis.analyze`, the ``repro lint`` subcommand
and the :class:`repro.pipeline.Cleaner` pre-flight gate all share.

Diagnostic codes are a contract: tools may match on them (the CI smoke step
greps for ``CFD001``), so codes are never renumbered — new checks take new
codes.  The full table lives in ``docs/analysis.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Diagnostic severities, from blocking to informational.  ``"error"``
#: findings make ``analysis="strict"`` refuse to clean and ``repro lint``
#: exit non-zero; ``"warning"`` findings are surfaced but never block;
#: ``"info"`` findings are printed by the linter only.
SEVERITIES = ("error", "warning", "info")

_SEVERITY_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}


class AnalysisWarning(UserWarning):
    """Python warning category used by the ``analysis="warn"`` pipeline gate."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analysis.

    Parameters
    ----------
    code:
        Stable identifier (``CFD001`` ... ``CFD102``).  Codes are part of the
        public contract — match on them, not on messages.
    severity:
        ``"error"``, ``"warning"`` or ``"info"`` (see :data:`SEVERITIES`).
    message:
        One-line human description of the finding.
    check:
        Name of the check that produced it (see
        :data:`repro.analysis.checks.CHECKS`).
    cfd:
        Name of the CFD the finding is located in, when it is about one CFD.
    attribute:
        Attribute the finding is located at, when it is about one attribute.
    hint:
        A suggested fix, rendered after the message.
    witness:
        A JSON-friendly counterexample payload — e.g. the conflicting core
        of an inconsistent rule set, in the spirit of the counterexample
        witnesses of IC3-style property checking.
    """

    code: str
    severity: str
    message: str
    check: str = ""
    cfd: Optional[str] = None
    attribute: Optional[str] = None
    hint: Optional[str] = None
    witness: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown diagnostic severity {self.severity!r}; expected one of "
                f"{', '.join(map(repr, SEVERITIES))}"
            )

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def sort_key(self) -> Tuple[int, str, str, str, str]:
        """Canonical report order: severity first, then code, then location."""
        return (
            _SEVERITY_RANK[self.severity],
            self.code,
            self.cfd or "",
            self.attribute or "",
            self.message,
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly rendering (``repro lint --json`` emits a list of these)."""
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "check": self.check,
        }
        if self.cfd is not None:
            payload["cfd"] = self.cfd
        if self.attribute is not None:
            payload["attribute"] = self.attribute
        if self.hint is not None:
            payload["hint"] = self.hint
        if self.witness is not None:
            payload["witness"] = self.witness
        return payload

    def render(self) -> str:
        """One text line: ``CFD004 error [phi1]: message (hint: ...)``."""
        location = ""
        if self.cfd is not None and self.attribute is not None:
            location = f" [{self.cfd}.{self.attribute}]"
        elif self.cfd is not None:
            location = f" [{self.cfd}]"
        elif self.attribute is not None:
            location = f" [{self.attribute}]"
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.code} {self.severity}{location}: {self.message}{hint}"


@dataclass
class AnalysisReport:
    """Every diagnostic one :func:`repro.analysis.analyze` run produced."""

    #: The findings, in canonical order (errors first, then by code/location).
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Names of the checks that ran (by default all of them, sorted).
    checks_run: Tuple[str, ...] = ()
    #: Whether the implication-based deep checks (CFD002/CFD003) were enabled.
    deep: bool = False
    #: The minimal cover, when ``optimize=True`` was requested and the rule
    #: set is consistent; ``None`` otherwise.  Typed loosely to keep this
    #: module free of core imports.
    optimized: Optional[List[Any]] = None
    #: Wall-clock seconds the analysis took.
    seconds: float = 0.0

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        """Truthiness follows :class:`~repro.core.violations.ViolationReport`:
        a report is truthy when it found *something*."""
        return bool(self.diagnostics)

    # ------------------------------------------------------------------ views
    def errors(self) -> List[Diagnostic]:
        return [diag for diag in self.diagnostics if diag.severity == "error"]

    def warnings(self) -> List[Diagnostic]:
        return [diag for diag in self.diagnostics if diag.severity == "warning"]

    def infos(self) -> List[Diagnostic]:
        return [diag for diag in self.diagnostics if diag.severity == "info"]

    @property
    def has_errors(self) -> bool:
        """Whether any finding is blocking (what ``analysis="strict"`` gates on)."""
        return any(diag.is_error for diag in self.diagnostics)

    @property
    def ok(self) -> bool:
        """No blocking findings (warnings and infos are allowed)."""
        return not self.has_errors

    def codes(self) -> Tuple[str, ...]:
        """The distinct diagnostic codes present, sorted."""
        return tuple(sorted({diag.code for diag in self.diagnostics}))

    def by_code(self, code: str) -> List[Diagnostic]:
        return [diag for diag in self.diagnostics if diag.code == code]

    # ------------------------------------------------------------------ output
    def summary(self) -> Dict[str, Any]:
        return {
            "diagnostics": len(self.diagnostics),
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "infos": len(self.infos()),
            "codes": list(self.codes()),
            "deep": self.deep,
            "checks_run": list(self.checks_run),
            "seconds": round(self.seconds, 6),
        }

    def to_dict(self) -> Dict[str, Any]:
        """The full JSON payload of ``repro lint --json``."""
        payload: Dict[str, Any] = {
            "summary": self.summary(),
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
        }
        if self.optimized is not None:
            payload["optimized_patterns"] = sum(
                len(cfd.tableau) for cfd in self.optimized
            )
            payload["optimized_cfds"] = len(self.optimized)
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self) -> str:
        """The plain-text report ``repro lint`` prints."""
        lines = [diag.render() for diag in self.diagnostics]
        counts = self.summary()
        lines.append(
            f"{counts['errors']} error(s), {counts['warnings']} warning(s), "
            f"{counts['infos']} info(s) from {len(self.checks_run)} check(s)"
            + ("" if self.deep else " (deep implication checks skipped)")
        )
        return "\n".join(lines)


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Diagnostics in canonical report order (stable across runs)."""
    return sorted(diagnostics, key=Diagnostic.sort_key)
