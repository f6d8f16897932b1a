"""Unit tests for the kernel dispatch layer (resolution, defaults, activation)."""

from __future__ import annotations

import pytest

import repro.kernels as kernels
from repro.config import DetectionConfig, RepairConfig, validate_kernel
from repro.errors import ConfigError
from repro.kernels import (
    active_kernel,
    get_kernel,
    kernel_names,
    resolve_kernel_name,
    use_kernel,
)


def test_validate_kernel_accepts_known_names():
    for name in ("python", "numpy", "auto"):
        validate_kernel(name)


def test_validate_kernel_rejects_garbage():
    for name in ("fortran", None):
        with pytest.raises(ConfigError):
            validate_kernel(name)


def test_configs_carry_and_validate_kernel():
    assert DetectionConfig(kernel="python").kernel == "python"
    assert RepairConfig(kernel="auto").summary()["kernel"] == "auto"
    with pytest.raises(ConfigError):
        DetectionConfig(kernel="fortran")
    with pytest.raises(ConfigError):
        RepairConfig(kernel="fortran")


def test_kernel_default_ignores_env(monkeypatch):
    # The kernel is set by its keyword only: an exported REPRO_KERNEL changes
    # neither the config default nor what None or an unpinned hot loop uses.
    monkeypatch.setenv("REPRO_KERNEL", "python")
    assert DetectionConfig().kernel == RepairConfig().kernel == "auto"
    assert resolve_kernel_name(None) == resolve_kernel_name("auto")
    assert active_kernel() is get_kernel("auto")


def test_resolve_unknown_kernel_raises():
    with pytest.raises(ConfigError):
        resolve_kernel_name("fortran")


def test_auto_degrades_cleanly_without_numpy(monkeypatch):
    monkeypatch.setattr(kernels, "_numpy_available", False)
    assert resolve_kernel_name("auto") == "python"
    assert kernel_names() == ("python",)
    # An *explicit* numpy request without numpy is an error, not a silent
    # substitution.
    with pytest.raises(ConfigError, match="fast"):
        resolve_kernel_name("numpy")


def test_get_kernel_returns_named_singletons():
    assert get_kernel("python").name == "python"
    if kernels.numpy_available():
        assert get_kernel("numpy").name == "numpy"


def test_use_kernel_activates_and_restores():
    unpinned = active_kernel()
    assert unpinned is get_kernel("auto")
    with use_kernel("python") as outer:
        assert active_kernel() is outer
        if kernels.numpy_available():
            with use_kernel("numpy") as inner:
                assert active_kernel() is inner
                assert inner.name == "numpy"
            assert active_kernel() is outer
    assert active_kernel() is unpinned


def test_use_kernel_restores_on_error():
    before = active_kernel()
    with pytest.raises(RuntimeError):
        with use_kernel("python"):
            raise RuntimeError("boom")
    assert active_kernel().name == before.name
