"""One lazily resolved, per-process value behind every opt-in switch.

Telemetry, the decision audit, per-job profiling, failpoints and
durable writes are all off unless an environment variable (or an
explicit configure call) turns them on.  Each is one
:class:`ProcessSingleton`: the value is read from the environment on
first use, cached, and read again whenever the current process id is
not the one that cached it.  A forked pool child therefore inherits
the parent's object but never its value — each child owns its own
events file, audit buffer and failpoint hit counters, resolved from
the environment it inherited.

Stdlib-only and an import leaf (it imports nothing from the repo), so
telemetry, audit and the rest of :mod:`repro.reliability` can all
build on it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

__all__ = ["ProcessSingleton"]


class ProcessSingleton:
    """A value resolved lazily once per process.

    ``resolve`` reads the environment and returns the value (``None``
    meaning "off"); ``build`` turns :meth:`configure` / :meth:`session`
    arguments into a value.  Modules publish the bound methods under
    their own names (``get_telemetry``, ``configure_audit``, ...).
    """

    def __init__(
        self,
        resolve: Callable[[], Any],
        build: Callable[..., Any] | None = None,
    ) -> None:
        self._resolve = resolve
        self._build = build
        self._value: Any = None
        self._pid: int | None = None  # None: not resolved yet

    def get(self) -> Any:
        """This process's value, resolved from the environment on first
        use and again after a fork."""
        pid = os.getpid()
        if self._pid != pid:
            self._value = self._resolve()
            self._pid = pid
        return self._value

    def configure(self, *args: Any, **kwargs: Any) -> Any:
        """Pin this process's value to ``build(*args, **kwargs)``,
        whatever the environment says; returns it."""
        self._value = self._build(*args, **kwargs)
        self._pid = os.getpid()
        return self._value

    @contextmanager
    def session(self, *args: Any, **kwargs: Any) -> Iterator[Any]:
        """Scoped :meth:`configure`: yields the value, then restores the
        previous state, including the not-yet-resolved one."""
        previous = (self._value, self._pid)
        value = self.configure(*args, **kwargs)
        try:
            yield value
        finally:
            self._value, self._pid = previous

    def reset(self) -> None:
        """Forget the cached value; the next :meth:`get` reads the
        environment again."""
        self._value = None
        self._pid = None
