"""The one atomic-write path and the one digest stamp for every artefact.

Store entries, queue records, sweep manifests, figure exports, traces,
audit shards and manifests, telemetry streams, ops bundles, fleet
state and profile dumps are all written here, so crash atomicity,
power-loss durability and chaos reachability are implemented once:

1. the payload is staged in a fresh ``mkstemp`` file in the target
   directory, through the ``<site>.data`` torn-payload hook;
2. under ``REPRO_DURABLE_WRITES`` the temp file is fsynced;
3. ``<site>.before_replace`` fires, the temp is committed to the final
   name (``os.replace`` in :func:`atomic_write`, ``os.link`` in
   :func:`atomic_create`), and ``<site>.after_replace`` fires;
4. under ``REPRO_DURABLE_WRITES`` the parent directory is fsynced.

A writer killed at any instant leaves the final path absent or holding
its old bytes, plus at most one temp file: a hidden
``.<name>.<random>`` or, for writers that ask for a visible suffix
(audit shards: ``<stem>-<random>.npz.tmp``), a named husk.  Queue
``gc`` and ``fsck`` age-gate both footprints.  The site families are
listed in :mod:`repro.reliability.failpoints`.

:func:`stamp` is the truncated SHA-256 of a payload's canonical JSON —
the per-line stamp of telemetry events and the audit manifest stamp.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.reliability.durability import durable_writes_enabled, fsync_dir
from repro.reliability.failpoints import failpoint, torn_payload

__all__ = [
    "atomic_create",
    "atomic_write",
    "canonical_json",
    "stamp",
    "verify_stamp",
]

#: Hex digits of the SHA-256 kept as a digest stamp.
_STAMP_LENGTH = 16


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _stage(path: Path, data: bytes, site: str, tmp_suffix: str | None) -> str:
    """Write ``data`` to a new temp file beside ``path``; its name."""
    if tmp_suffix is None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    else:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f"{path.stem}-", suffix=tmp_suffix
        )
    try:
        with os.fdopen(fd, "wb") as handle:
            torn = torn_payload(f"{site}.data", data)
            if torn is not None:
                # A writer that died mid-write: a truncated temp file
                # and an error — the final path is never touched.
                handle.write(torn)
                handle.flush()
                raise OSError(
                    f"torn write (failpoint) while writing {path.name}"
                )
            handle.write(data)
            if durable_writes_enabled():
                handle.flush()
                os.fsync(handle.fileno())
    except BaseException:
        _unlink_quietly(tmp)
        raise
    return tmp


def _committed(path: Path, site: str) -> None:
    failpoint(f"{site}.after_replace")
    if durable_writes_enabled():
        fsync_dir(path.parent)


def atomic_write(
    path: Path | str,
    data: bytes,
    *,
    site: str,
    tmp_suffix: str | None = None,
) -> None:
    """Replace ``path`` with ``data``; nothing is ever partially visible.

    ``site`` names the failpoint family (``store.write``,
    ``trace.write``, ...).  ``tmp_suffix`` swaps the hidden temp name
    for a visible ``<stem>-<random><tmp_suffix>`` husk.
    """
    path = Path(path)
    tmp = _stage(path, data, site, tmp_suffix)
    try:
        failpoint(f"{site}.before_replace")
        os.replace(tmp, path)
    except BaseException:
        _unlink_quietly(tmp)
        raise
    _committed(path, site)


def atomic_create(path: Path | str, data: bytes, *, site: str) -> bool:
    """Create ``path`` holding ``data`` only if it does not exist yet.

    Stage + ``os.link`` gives both atomicity (the linked file is
    complete) and exclusivity (link fails if the name exists) —
    ``os.replace`` would clobber and ``O_EXCL`` alone is not atomic.
    Returns False when the path already existed.
    """
    path = Path(path)
    tmp = _stage(path, data, site, None)
    try:
        failpoint(f"{site}.before_replace")
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
    finally:
        _unlink_quietly(tmp)
    _committed(path, site)
    return True


def canonical_json(payload: object) -> str:
    """Sorted-keys, separator-compact JSON: one text per value."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stamp(payload: dict) -> str:
    """Truncated SHA-256 of ``payload``'s canonical JSON, ignoring its
    own ``digest`` key."""
    body = {key: value for key, value in payload.items() if key != "digest"}
    return hashlib.sha256(
        canonical_json(body).encode("utf-8")
    ).hexdigest()[:_STAMP_LENGTH]


def verify_stamp(payload: dict) -> bool:
    """Whether ``payload``'s ``digest`` stamp matches its content."""
    recorded = payload.get("digest")
    return isinstance(recorded, str) and stamp(payload) == recorded
