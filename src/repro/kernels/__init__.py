"""Kernel dispatch: pluggable implementations of the code-column hot loops.

PR 5 reduced detection and repair over a
:class:`~repro.relation.columnar.ColumnStore` to a family of integer
primitives — group-by over code columns, group-by over an index subset, the
``Q^V`` disagreement check, the ``Q^C`` constant-mismatch scan, the fused
variable-pattern scan, and the class pair (``partition_classes`` to flatten
a relation into equivalence classes, ``evaluate_classes`` to resolve all
``Q^C``/``Q^V`` checks of a class set in one call — the one evaluation
primitive of detection and repair).  This
package gives those primitives swappable implementations:

* ``"python"`` — the pure-Python reference
  (:mod:`repro.kernels.python_kernels`), always available, defines the
  semantics;
* ``"numpy"`` — vectorised array kernels
  (:mod:`repro.kernels.numpy_kernels`), available when numpy is installed
  (the optional ``[fast]`` extra);
* ``"auto"`` — numpy when importable, python otherwise (the default).

Every kernel is **byte-identical**: same violations in the same order, same
repairs, same partition iteration order.  The grid in
``tests/integration/test_kernel_agreement.py`` pins that contract, so a
kernel is a pure speed knob exactly like the storage layer.

Dispatch follows the storage pattern: configs carry a ``kernel=`` name
(:class:`~repro.config.DetectionConfig` /
:class:`~repro.config.RepairConfig`, default ``"auto"``).  The public entry
points (:func:`~repro.detection.engine.detect_violations`,
:func:`~repro.repair.heuristic.repair`,
:func:`~repro.detection.indexed.detect_stream`) activate the configured
kernel with :func:`use_kernel` for the duration of the call; the hot layers
read :func:`active_kernel` once per pass and call its primitives directly.
The active kernel is a module global (engines are processes, not threads);
outside any activation it is the ``"auto"`` kernel.  Worker processes of
the parallel backends inherit the activation of a forked parent or fall
back to ``"auto"`` — harmless either way, since kernels agree byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.config import AUTO, validate_kernel
from repro.errors import ConfigError
from repro.kernels.python_kernels import PYTHON_KERNEL, PythonKernel

__all__ = [
    "PythonKernel",
    "active_kernel",
    "get_kernel",
    "kernel_names",
    "numpy_available",
    "resolve_kernel_name",
    "use_kernel",
]

#: Tri-state import probe: ``None`` until first asked.
_numpy_available: Optional[bool] = None

#: The kernel pinned by the innermost :func:`use_kernel`; ``None`` when no
#: activation is in effect (then the ``"auto"`` kernel applies).
_active = None


def numpy_available() -> bool:
    """Whether the numpy kernel layer can be imported (probed once)."""
    global _numpy_available
    if _numpy_available is None:
        try:
            import numpy  # noqa: F401

            _numpy_available = True
        except ImportError:
            _numpy_available = False
    return _numpy_available


def kernel_names() -> tuple:
    """The kernels available *right now*: always python, numpy when importable."""
    return ("python", "numpy") if numpy_available() else ("python",)


def resolve_kernel_name(name: Optional[str] = None) -> str:
    """Resolve a kernel name (possibly ``None`` or ``"auto"``) to a concrete one.

    ``None`` means ``"auto"``, which degrades cleanly to ``"python"`` when
    numpy is missing.  An *explicit* ``"numpy"`` without numpy installed
    raises :class:`~repro.errors.ConfigError` instead of silently computing
    with the wrong kernel — the caller asked for something the machine lacks.
    """
    if name is None or name == AUTO:
        return "numpy" if numpy_available() else "python"
    validate_kernel(name)
    if name == "numpy" and not numpy_available():
        raise ConfigError(
            "kernel='numpy' requested but numpy is not importable; install "
            "the [fast] extra (pip install repro-cfd[fast]) or use "
            "kernel='auto' to fall back to the python kernel"
        )
    return name


def get_kernel(name: Optional[str] = None):
    """The kernel object for ``name`` (resolution rules of :func:`resolve_kernel_name`)."""
    if resolve_kernel_name(name) == "numpy":
        from repro.kernels.numpy_kernels import NUMPY_KERNEL

        return NUMPY_KERNEL
    return PYTHON_KERNEL


def active_kernel():
    """The kernel the hot loops should compute with, right now.

    Inside a :func:`use_kernel` activation this is the pinned kernel (a
    plain global read — the hot path); outside one, the ``"auto"`` kernel,
    for low-level entry points that no config ever flows through.
    """
    if _active is not None:
        return _active
    return get_kernel(AUTO)


@contextmanager
def use_kernel(name: Optional[str] = None) -> Iterator:
    """Activate a kernel for the duration of a ``with`` block.

    ``name`` follows :func:`resolve_kernel_name` (``None`` means
    ``"auto"``).  Activations nest; the previous kernel is restored on exit
    even when the block raises.  This is what the detection/repair dispatch
    sites wrap around their backend calls.
    """
    global _active
    previous = _active
    _active = get_kernel(name)
    try:
        yield _active
    finally:
        _active = previous
