"""Shared fixtures for the HIX reproduction test suite."""

from __future__ import annotations

import pytest

from repro.system import Machine, MachineConfig


@pytest.fixture
def machine() -> Machine:
    """A fresh machine with no data inflation (tests move real bytes)."""
    return Machine(MachineConfig())


@pytest.fixture
def gdev_app(machine):
    """A baseline (Gdev) session with a live context."""
    driver = machine.make_gdev()
    app = machine.gdev_session(driver, "test-app")
    app.cuCtxCreate()
    app._driver_ref = driver
    return app


@pytest.fixture(scope="module")
def hix_machine() -> Machine:
    """Module-scoped machine with a booted GPU enclave (boot is costly)."""
    machine = Machine(MachineConfig())
    machine.hix_service = machine.boot_secure()
    return machine


@pytest.fixture
def hix_app(hix_machine):
    """A fresh user-enclave session against the shared GPU enclave."""
    app = hix_machine.secure_session(hix_machine.hix_service, "test-user")
    app.cuCtxCreate()
    yield app
    try:
        app.cuCtxDestroy()
    except Exception:
        pass
