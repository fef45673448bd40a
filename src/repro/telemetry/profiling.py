"""Opt-in per-job cProfile capture and fleet-wide hotspot aggregation.

Profiling is a third, fully independent observability switch: setting
``$REPRO_PROFILE_DIR`` (or ``repro queue work --profile DIR``) makes
the executor wrap each job in :class:`cProfile.Profile` and dump one
``profile-{host}-{pid}-{n}.pstats`` file per job into that directory.
Everything about it follows the telemetry package's rules:

* **off by default, zero hot-path cost when off** — the executor
  checks one pid-cached environment lookup and otherwise touches no
  profiler, file, or clock;
* **per-job flush** — stats are dumped as each job finishes (atomic
  dot-temp + rename), so process-pool children that are torn down with
  the pool never lose data;
* **stdlib only** — ``cProfile``/``pstats`` ship with CPython.

``repro telemetry hotspots`` then aggregates every dump under the
directory with :meth:`pstats.Stats.add` and reports a deterministic
top-N table by cumulative time — "where did the fleet's CPU go",
answered across processes, the profile-side complement of the
timeline's wall-clock answer.
"""

from __future__ import annotations

import cProfile
import itertools
import marshal
import os
import socket
from contextlib import contextmanager
from pathlib import Path

from repro.reliability.artifacts import atomic_write
from repro.reliability.singleton import ProcessSingleton

__all__ = [
    "PROFILE_DIR_ENV",
    "active_profile_dir",
    "collect_hotspots",
    "format_hotspots",
    "profile_dir_state",
    "profile_job",
]

#: Setting this environment variable to a directory enables per-job
#: profiling process-wide (fork-based pool children inherit it).
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"

_dump_counter = itertools.count()


def _from_environment() -> Path | None:
    value = os.environ.get(PROFILE_DIR_ENV, "").strip()
    return Path(value) if value else None


profile_dir_state = ProcessSingleton(_from_environment)

#: The profile directory, or ``None`` when profiling is off — resolved
#: once per process, so the disabled path costs one function call and
#: an integer compare.
active_profile_dir = profile_dir_state.get


@contextmanager
def profile_job(profile_dir: Path | None):
    """Profile the block and dump its stats, or do nothing when off.

    The dump goes through the repo's one atomic writer
    (``profile.write`` failpoint sites) like every other artefact, so
    readers never see a torn stats file and queue gc recognises
    crashed-writer litter.
    """
    if profile_dir is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profile_dir.mkdir(parents=True, exist_ok=True)
        name = (
            f"profile-{socket.gethostname()}-{os.getpid()}"
            f"-{next(_dump_counter)}.pstats"
        )
        # The bytes ``Profile.dump_stats`` would write.
        profiler.create_stats()
        atomic_write(
            profile_dir / name,
            marshal.dumps(profiler.stats),
            site="profile.write",
        )


def collect_hotspots(profile_dir: Path | str, top: int = 15) -> dict:
    """Aggregate every per-job dump under ``profile_dir``.

    Returns ``{"jobs", "calls", "total_s", "rows"}`` where ``rows`` is
    the top-``top`` functions by cumulative time (ties broken by name,
    so the table is deterministic for a given set of dumps).
    """
    import pstats

    profile_dir = Path(profile_dir)
    paths = [
        path
        for path in sorted(profile_dir.glob("profile-*.pstats"))
        if not path.name.startswith(".")
    ]
    if not paths:
        raise FileNotFoundError(
            f"no profile-*.pstats files under {profile_dir}; run with "
            f"${PROFILE_DIR_ENV} or `queue work --profile` first"
        )
    stats = pstats.Stats(str(paths[0]))
    for path in paths[1:]:
        stats.add(str(path))
    rows = []
    for (filename, line, func), entry in stats.stats.items():
        cc, nc, tt, ct, _callers = entry
        where = os.path.basename(filename) if filename != "~" else "~"
        rows.append(
            {
                "function": f"{where}:{line}({func})",
                "ncalls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    rows.sort(key=lambda row: (-row["cumtime_s"], row["function"]))
    return {
        "jobs": len(paths),
        "calls": int(stats.total_calls),
        "total_s": float(stats.total_tt),
        "rows": rows[:top],
    }


def format_hotspots(report: dict) -> str:
    """Human-readable top-N hotspot table."""
    lines = [
        "fleet hotspots (cumulative, all profiled jobs merged)",
        f"  jobs {report['jobs']}  calls {report['calls']}"
        f"  cpu {report['total_s']:.3f}s",
        "",
        "       ncalls  tottime  cumtime  function",
    ]
    for row in report["rows"]:
        lines.append(
            f"  {row['ncalls']:>11}"
            f" {row['tottime_s']:>8.3f}"
            f" {row['cumtime_s']:>8.3f}"
            f"  {row['function']}"
        )
    return "\n".join(lines)
