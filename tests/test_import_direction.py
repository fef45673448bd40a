"""Import-direction invariant of the two leaf packages.

The engine's hot path imports :mod:`repro.telemetry`, and telemetry
builds on :mod:`repro.reliability`; neither may pull in numpy or any
other part of the repo, or the layering turns into a cycle.  Checked in
a fresh interpreter, with the top-level ``repro/__init__`` (which
imports everything) bypassed so only the packages' own imports count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys, types

package = types.ModuleType("repro")
package.__path__ = [sys.argv[1]]
sys.modules["repro"] = package


def loaded():
    return sorted(
        name
        for name in sys.modules
        if name.split(".")[0] in ("numpy", "repro") and name != "repro"
    )


import repro.reliability
after_reliability = loaded()
import repro.telemetry
print(json.dumps([after_reliability, loaded()]))
"""


def test_leaf_packages_import_no_numpy_and_nothing_else_from_repo():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC / "repro")],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    after_reliability, after_telemetry = json.loads(result.stdout)
    # The reliability layer is a true leaf: not even telemetry.
    assert after_reliability
    assert all(
        name.startswith("repro.reliability") for name in after_reliability
    ), after_reliability
    assert "repro.telemetry.registry" in after_telemetry
    assert all(
        name.startswith(("repro.reliability", "repro.telemetry"))
        for name in after_telemetry
    ), after_telemetry
