"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload captive_paper --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped; ``--trace 1`` wraps the calls into every layer, prints the
per-layer metrics and writes the spans to
``.perfbench/spans-<workload>.npz``.  Each run prints every cell's
sampled-series SHA-256, one line per failed output check, a metric
table, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch queues, stores and
figures live under ``.perfbench/`` in the checkout and are removed
before the run exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Name, unit and direction of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("qps", "1/s", "higher"),
    ("qps.sqlb", "1/s", "higher"),
    ("qps_cpu", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("cells_per_hour", "1/h", "higher"),
)

#: Switches that make the program write or behave beyond its defaults;
#: the benchmark measures the defaults only.
FORBIDDEN_ENVIRONMENT = (
    "REPRO_TELEMETRY_DIR",
    "REPRO_AUDIT_DIR",
    "REPRO_PROFILE_DIR",
    "REPRO_FAILPOINTS",
    "REPRO_DURABLE_WRITES",
)

#: Units of the values printed beside the gated metrics.
_INFO_UNITS = {
    "qps.wall": "1/s",
    "machine_speed": "ratio",
    "warm_drain_s": "s",
    "report_s": "s",
}

DEFAULT_SEED = 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("captive_paper", "autonomy_paper", "grid_drain"),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("paper", "tiny"),
        default="paper",
        help="tiny: seconds-fast inputs for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds(repeats: int = 3) -> float:
    """Median reference seconds a fresh interpreter takes to import the
    program and the benchmark (the first set-up step of every run)."""
    from perfbench import calibrate

    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import perfbench.workloads"
    )
    times = []
    for _ in range(repeats):
        with calibrate.Stopwatch(probe=False) as watch:
            subprocess.run(
                [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT)],
                check=True,
                timeout=120,
            )
        times.append(watch.reference_s)
    return statistics.median(times)


def _refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    set_switches = [
        name for name in FORBIDDEN_ENVIRONMENT if os.environ.get(name)
    ]
    if set_switches:
        return _refuse(
            f"refusing to run with {', '.join(set_switches)} set: the "
            "benchmark measures the program's defaults"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _refuse(
            f"no program to measure: {ROOT / 'src' / 'repro'} is missing"
        )
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from perfbench import calibrate, layers, workloads
    from perfbench.tracer import Tracer

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = workloads.Checks()
    tracer = Tracer() if args.trace else None
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}",
        flush=True,
    )
    calibrate.warm_up()
    try:
        setup_s = import_seconds() + workloads.setup(
            args.workload, args.seed, args.scale, workdir
        )
        measured = workloads.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            tracer,
            args.scale,
            checks,
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        spans_path = scratch / f"spans-{args.workload}.npz"
        spans = tracer.write(spans_path)
        values = layers.per_layer_metrics(
            tracer.stats(),
            {**tracer.counters, **measured["counters"]},
            measured["wall_s"],
        )
        table = [(m.name, values[m.name], m.unit) for m in layers.PER_LAYER]
        extra = [
            ("spans", spans, f"count ({spans_path.relative_to(ROOT)})"),
            ("traced_wall_s", measured["wall_s"], "s"),
        ]
    else:
        info = measured.pop("info")
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            **measured,
        }
        table = [(name, values[name], unit) for name, unit, _ in END_TO_END]
        # Printed beside the gated metrics, not part of the result line.
        extra = [
            (name, value, _INFO_UNITS[name]) for name, value in info.items()
        ]
    extra.append(
        ("failed_frac", checks.failed / max(checks.attempted, 1), "ratio")
    )

    for name, value, unit in table + extra:
        print(f"metric {name:<56} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, value, unit in table
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
