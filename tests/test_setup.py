"""What a fresh interpreter imports: set-up pays for what every run needs
(scipy.special places the bins) and nothing a run does not reach
(scipy.optimize solves only the stand-alone assignment)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """\
import sys
import imprintlab.cli
print("scipy.special" in sys.modules)
from imprintlab.scenarios import bundled_config, run_scenario, validate_config
validate_config(bundled_config("fullbatch64"))
print("scipy.optimize" in sys.modules)
for name in ("fullbatch64", "text128", "oneshot"):
    run_scenario(bundled_config(name))
    print(name, "scipy.optimize" in sys.modules)
"""


def test_set_up_and_runs_leave_scipy_optimize_unimported():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=env, timeout=300, check=True).stdout.split("\n")
    assert out[:5] == ["True", "False", "fullbatch64 False", "text128 False", "oneshot False"]
