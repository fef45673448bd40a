"""Span recording around the calls the benchmark makes into ``repro``.

A :class:`Tracer` replaces module functions and class methods with thin
wrappers that record one span per call — name, start, end and parent —
and puts the originals back on :meth:`Tracer.uninstall`.  Nothing under
``src/`` is edited and the engine's own telemetry stays off, so a traced
run executes the same code as an untraced one plus the wrappers.

Spans live in per-thread logs (the queue worker renews its heartbeat
from a background thread), held in compact ``array`` columns so a run
of a million calls stays a few tens of MiB, and are written out once
when the run ends.  A span's *self time* is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import threading
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["SpanStats", "Tracer"]


class _SpanLog:
    """The spans one thread recorded, in call-start order."""

    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]


@dataclass(frozen=True)
class SpanStats:
    """Per-name reduction of the recorded spans (times in seconds)."""

    calls: int
    median_s: float
    median_self_s: float
    total_s: float
    self_s: float


class Tracer:
    """Installs span-recording wrappers and reduces what they record."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self._logs: list[_SpanLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Plain tallies recorded beside the spans (bytes written, ring
        #: push counts read from engines after each run, ...).
        self.counters: dict[str, float] = {}

    # -- recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._name_ids.setdefault(name, len(self._name_ids))

    def _thread_log(self) -> _SpanLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _SpanLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        function: Callable,
        name: str,
        rename: Callable[[object], str] | None = None,
    ) -> Callable:
        """``function`` recording one span per call under ``name``.

        ``rename`` maps the call's return value to the name the span is
        finally filed under (store hits versus misses).
        """
        name_id = self.name_id(name)
        thread_log = self._thread_log
        local = self._local
        renamed: dict[str, int] = {}

        @functools.wraps(function)
        def traced(*args, **kwargs):
            log = getattr(local, "log", None) or thread_log()
            index = len(log.starts)
            log.names.append(name_id)
            log.parents.append(log.stack[-1])
            log.ends.append(0.0)
            log.stack.append(index)
            log.starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                log.ends[index] = perf_counter()
                log.stack.pop()
            if rename is not None:
                final = rename(result)
                if final not in renamed:
                    renamed[final] = self.name_id(final)
                log.names[index] = renamed[final]
            return result

        return traced

    def patch(self, owner: object, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` until :meth:`uninstall`."""
        original = (
            vars(owner)[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement(original))

    def trace(
        self,
        owner: object,
        attribute: str,
        name: str,
        rename: Callable[[object], str] | None = None,
    ) -> None:
        """Record a span per call of ``owner.attribute`` until uninstall."""
        self.patch(
            owner,
            attribute,
            lambda original: self.wrap(original, name, rename),
        )

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reduction ----------------------------------------------------

    def _columns(self) -> dict[str, np.ndarray]:
        """All threads' spans as flat arrays with global parent indices."""
        names, parents, starts, ends = [], [], [], []
        offset = 0
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            # np.array copies: a view would pin the growable buffers.
            local_parents = np.array(log.parents, dtype=np.int64)
            parents.append(
                np.where(local_parents >= 0, local_parents + offset, -1)
            )
            names.append(np.array(log.names, dtype=np.int32))
            starts.append(np.array(log.starts, dtype=np.float64))
            ends.append(np.array(log.ends, dtype=np.float64))
            offset += len(log.starts)
        if not logs:
            empty_d = np.zeros(0, np.float64)
            return {
                "names": np.zeros(0, np.int32),
                "parents": np.zeros(0, np.int64),
                "starts": empty_d,
                "ends": empty_d,
            }
        return {
            "names": np.concatenate(names),
            "parents": np.concatenate(parents),
            "starts": np.concatenate(starts),
            "ends": np.concatenate(ends),
        }

    def stats(self) -> dict[str, SpanStats]:
        """Span name → calls, median duration, total and self time."""
        columns = self._columns()
        names = columns["names"]
        parents = columns["parents"]
        durations = columns["ends"] - columns["starts"]
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent],
            weights=durations[has_parent],
            minlength=durations.size,
        )
        self_times = durations - child_time
        by_id = {index: name for name, index in self._name_ids.items()}
        result = {}
        for name_id in np.unique(names):
            mask = names == name_id
            result[by_id[int(name_id)]] = SpanStats(
                calls=int(mask.sum()),
                median_s=float(np.median(durations[mask])),
                median_self_s=float(np.median(self_times[mask])),
                total_s=float(durations[mask].sum()),
                self_s=float(self_times[mask].sum()),
            )
        return result

    def write(self, path: Path) -> int:
        """Write every span to ``path`` (npz); returns the span count."""
        columns = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            np.savez_compressed(
                handle,
                name_table=np.array(json.dumps(self._name_ids)),
                **columns,
            )
        return int(columns["names"].size)
