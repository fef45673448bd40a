"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.executor import (
    CACHE_DIR_ENV,
    WORKERS_ENV,
    set_default_executor,
)
from repro.audit.recorder import AUDIT_DIR_ENV, audit_state
from repro.reliability import (
    DURABLE_WRITES_ENV,
    FAILPOINTS_ENV,
    FAILPOINTS_SEED_ENV,
)
from repro.reliability.durability import durable_writes_state
from repro.reliability.failpoints import failpoints_state
from repro.simulation.config import tiny_config
from repro.telemetry.profiling import PROFILE_DIR_ENV, profile_dir_state
from repro.telemetry.registry import TELEMETRY_DIR_ENV, telemetry_state

#: Every per-process opt-in switch the suite must start and end without.
_OPT_IN_SWITCHES = (
    audit_state,
    durable_writes_state,
    failpoints_state,
    profile_dir_state,
    telemetry_state,
)

#: The environment variables that turn those switches on.
_OPT_IN_ENV = (
    FAILPOINTS_ENV,
    FAILPOINTS_SEED_ENV,
    DURABLE_WRITES_ENV,
    TELEMETRY_DIR_ENV,
    AUDIT_DIR_ENV,
    PROFILE_DIR_ENV,
)


def _clear_opt_in(patch: pytest.MonkeyPatch) -> None:
    for name in _OPT_IN_ENV:
        patch.delenv(name, raising=False)
    for switch in _OPT_IN_SWITCHES:
        switch.reset()


@pytest.fixture(scope="session", autouse=True)
def _isolated_default_executor():
    """Start the unit-test portion of a session from a fresh executor.

    In a mixed invocation (``pytest benchmarks/bench_x.py tests/``) the
    benchmark conftest installs a session-scoped executor backed by the
    persistent bench store; without this reset, harness-routed unit
    tests would silently read (and write) that store.
    """
    set_default_executor(None)
    yield
    set_default_executor(None)


@pytest.fixture(autouse=True)
def _hermetic_executor_env(monkeypatch):
    """Shield every test from the operator's executor environment.

    The default executor is built lazily from ``REPRO_WORKERS`` /
    ``REPRO_CACHE_DIR``; an exported cache dir would otherwise let
    harness-routed tests read stale persisted results (masking exactly
    the numeric drift the golden tests exist to catch), and a garbage
    worker count would crash unrelated tests.
    """
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_opt_in_session():
    """The per-test shield below, for the whole session: module- and
    session-scoped fixtures are set up before any per-test fixture."""
    with pytest.MonkeyPatch.context() as patch:
        _clear_opt_in(patch)
        yield
    for switch in _OPT_IN_SWITCHES:
        switch.reset()


@pytest.fixture(autouse=True)
def _hermetic_opt_in_env(monkeypatch):
    """Shield every test from operator chaos/durability/observability
    settings.

    An exported ``REPRO_FAILPOINTS`` would inject faults into every
    test in the suite, and an exported telemetry, audit or profile
    directory would collect every test's events, shards and dumps.
    The five per-process switches are reset to the lazy unresolved
    state on both sides of each test, so each one re-reads the
    (cleared) environment on first use.
    """
    _clear_opt_in(monkeypatch)
    yield
    for switch in _OPT_IN_SWITCHES:
        switch.reset()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def config():
    """The seconds-fast simulation environment."""
    return tiny_config()
