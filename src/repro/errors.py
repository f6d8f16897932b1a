"""Exception hierarchy shared by every subpackage of :mod:`repro`."""


class ReproError(Exception):
    """Base class for every error raised by the library."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute reference does not resolve."""


class DomainError(ReproError):
    """A value is outside the (finite) domain declared for an attribute."""


class PatternError(ReproError):
    """A pattern tuple or tableau is malformed for its CFD."""


class CFDError(ReproError):
    """A CFD is syntactically invalid (empty RHS, unknown attributes, ...)."""


class InconsistentCFDsError(ReproError):
    """Raised when an operation requires a consistent CFD set but got none."""


class ReasoningError(ReproError):
    """An inference rule was applied to premises that do not satisfy its preconditions."""


class AnalysisError(ReproError):
    """The pre-flight static analysis refused a rule set (``analysis="strict"``).

    Carries the full :class:`~repro.analysis.AnalysisReport` as ``report``
    so callers can inspect every diagnostic, not just the message.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ReproError):
    """A pipeline configuration object combines options that cannot go together."""


class RegistryError(ReproError):
    """``method="auto"`` cannot be resolved, or an analysis check name is unknown."""


class DetectionError(ReproError):
    """Violation detection failed (bad method name, backend failure, ...)."""


class SQLGenerationError(ReproError):
    """SQL text could not be generated for the requested CFDs."""


class RepairError(ReproError):
    """The repair algorithm could not produce a valid repair."""


class ParallelExecutionError(ReproError):
    """Sharded parallel execution failed (bad shard/worker counts, a worker crashed)."""


class ParseError(ReproError):
    """A CFD specification (text or JSON) could not be parsed."""
