"""What a fresh interpreter imports: neither set-up nor a run loads any scipy
module (the bins' normal quantile is distributions.ndtri, a numpy port), and
only the stand-alone assignment behind metrics.match brings in scipy.optimize."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """\
import sys
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
import imprintlab.cli
print("cli", scipy_loaded())
from imprintlab.scenarios import bundled_config, run_scenario, validate_config
validate_config(bundled_config("fullbatch64"))
print("validate", scipy_loaded())
for name in ("fullbatch64", "text128", "oneshot", "fedavg8x8"):
    run_scenario(bundled_config(name))
    print(name, scipy_loaded())
import numpy as np
from imprintlab.metrics import match
print("import match", scipy_loaded())
match(np.eye(3)[:2], np.eye(3))
print("match", "scipy.optimize" in sys.modules)
"""


def test_set_up_and_runs_import_no_scipy():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=env, timeout=300, check=True).stdout.split("\n")
    assert out[:8] == ["cli False", "validate False", "fullbatch64 False", "text128 False",
                       "oneshot False", "fedavg8x8 False", "import match False", "match True"]
