"""Opt-in power-loss durability for the repo's atomic writers.

Every durable record in the repo is written tempfile-then-rename, which
is *crash*-atomic: a reader never observes a half-written file, no
matter when the writer dies.  It is **not** *power-loss* durable: on a
kernel panic or power cut, the rename can survive while the file's data
blocks never reached the platter — leaving a fully-committed name with
torn contents, the one state the protocol promises cannot exist.

Setting ``REPRO_DURABLE_WRITES=1`` closes that window the standard way:
``fsync`` the temp file before the rename (data durable before the
name exists) and ``fsync`` the parent directory after it (the name
itself durable).  The tradeoff is honest: one-to-two extra disk
round-trips per record write — negligible next to a simulation, very
visible in a metadata-heavy microbenchmark, which is why it is opt-in
rather than default.  Process-crash safety (the thing the chaos
harness exercises) needs no fsync at all; turn this on when the
failure domain includes the whole machine.

Like the failpoint registry, the environment is read once per process
and cached — never on a hot path.  The writers themselves live in
:mod:`repro.reliability.artifacts`.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.reliability.singleton import ProcessSingleton

__all__ = [
    "DURABLE_WRITES_ENV",
    "configure_durable_writes",
    "durable_writes_enabled",
    "durable_writes_session",
    "durable_writes_state",
    "fsync_dir",
]

#: Truthy values ("1", "true", "yes", "on") enable fsync-before-rename
#: plus parent-directory fsync in every atomic writer.
DURABLE_WRITES_ENV = "REPRO_DURABLE_WRITES"

_TRUTHY = ("1", "true", "yes", "on")


def _from_environment() -> bool:
    raw = os.environ.get(DURABLE_WRITES_ENV, "").strip().lower()
    return raw in _TRUTHY


def _build(enabled: bool | None) -> bool:
    # ``None`` re-resolves from the environment (tests and embedders).
    return _from_environment() if enabled is None else bool(enabled)


durable_writes_state = ProcessSingleton(_from_environment, _build)

#: Whether writers must fsync (environment read once per process).
durable_writes_enabled = durable_writes_state.get
#: Force the decision, or re-read the environment with ``None``.
configure_durable_writes = durable_writes_state.configure
#: Scoped override for tests; restores the prior state.
durable_writes_session = durable_writes_state.session


def fsync_dir(path: Path | str) -> None:
    """``fsync`` a directory, making renames/links inside it durable.

    Filesystems that cannot fsync a directory (some network mounts
    return EINVAL/ENOTSUP) degrade silently: on such mounts directory
    durability is the server's problem and there is nothing more a
    client can do.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
