"""Digest-stamped JSONL span events: one schema, atomic files.

Every telemetry event — run/cell/phase spans, queue protocol events,
registry snapshots — is one JSON object per line with a common envelope
(:data:`EVENT_SCHEMA_VERSION`, a per-process sequence id, an optional
parent span id, a kind, a name, wall-clock timestamp, duration, and a
free-form ``attrs`` dict).  Each line carries a ``digest`` stamp — the
truncated SHA-256 of the line's canonical JSON without the stamp — so
the read side can tell a complete, untampered event from a torn or
hand-edited one and refuse loudly instead of aggregating garbage.

Files are written whole through the repo's one atomic writer
(:mod:`repro.reliability.artifacts`, a stdlib-only import leaf, so
telemetry stays import-cycle-free), so a reader never observes a
partially-written file from a live writer; a torn file therefore
indicates real corruption, not a race.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.reliability.artifacts import (
    atomic_write,
    canonical_json,
    stamp,
    verify_stamp,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "TelemetryReadError",
    "atomic_write_bytes",
    "encode_event",
    "read_events",
    "read_events_dir",
]

#: Bump when the event envelope changes incompatibly.  One schema for
#: every producer — engine, executor, store, queue — is an invariant:
#: the report surface parses exactly one shape.
EVENT_SCHEMA_VERSION = 1


class TelemetryReadError(ValueError):
    """A telemetry events file is torn, tampered, or not this schema."""


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write-then-rename a telemetry artefact (``telemetry.write``
    failpoint sites); readers never see a partial file."""
    atomic_write(path, data, site="telemetry.write")


def encode_event(event: dict) -> str:
    """One event as its stamped JSONL line (no trailing newline).

    The digest covers the canonical JSON of everything *except* the
    stamp itself, so verification is a recompute-and-compare.
    """
    return canonical_json({**event, "digest": stamp(event)})


#: Whether an event's digest stamp matches its content.
verify_event = verify_stamp


def read_events(path: Path | str) -> list[dict]:
    """Every event of one JSONL file, refusing torn or tampered lines.

    Raises :class:`TelemetryReadError` on the first undecodable or
    digest-mismatched line — a file written through
    :func:`atomic_write_bytes` is all-or-nothing, so a bad line means
    the file was truncated, concatenated, or edited and *none* of it
    should be trusted for aggregation.

    A zero-byte file is *not* torn: a worker killed between ``mkstemp``
    and its first flush leaves one behind legitimately, and it simply
    holds no events.  Queue gc/fsck age-gate such husks away like any
    other atomic-write litter.
    """
    path = Path(path)
    events: list[dict] = []
    text = path.read_text(encoding="utf-8")
    if not text:
        return events
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise TelemetryReadError(
                f"{path}:{number}: torn or non-JSON event line "
                f"({error.msg}); refusing the whole file"
            ) from None
        if not isinstance(event, dict) or not verify_event(event):
            raise TelemetryReadError(
                f"{path}:{number}: event digest mismatch — the file was "
                "tampered with or corrupted; refusing the whole file"
            )
        if event.get("v") != EVENT_SCHEMA_VERSION:
            raise TelemetryReadError(
                f"{path}:{number}: unsupported event schema "
                f"{event.get('v')!r} (this reader is "
                f"v{EVENT_SCHEMA_VERSION})"
            )
        events.append(event)
    return events


def read_events_dir(run_dir: Path | str) -> list[dict]:
    """All events under one telemetry run directory, file by file.

    Files are read in sorted-name order; dot-prefixed entries (atomic
    temp files of a live writer) are skipped, mirroring the queue's
    ``_live_entries`` convention.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise TelemetryReadError(f"no telemetry directory at {run_dir}")
    events: list[dict] = []
    for path in sorted(run_dir.glob("events-*.jsonl")):
        if path.name.startswith("."):
            continue
        events.extend(read_events(path))
    return events
