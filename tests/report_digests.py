"""Print one SHA-256 per report of the 22-config set, for byte-identity checks.

The set is the four bundled scenarios x seeds 0 and 1 x float32 and float64,
plus the three benchmark workload configs (from `imprintbench/workloads.py`)
x seeds 0 and 1. Each digest is taken over the report's canonical JSON with
the nondeterministic `timing` block removed, so two trees that print the same
lines produce byte-identical reports.

    PYTHONPATH=src python tests/report_digests.py > after.txt

Pointing PYTHONPATH at another checkout's `src/` digests that tree instead;
`diff` the two outputs. pytest does not collect this file (its name does not
start with `test_`). It runs with one BLAS thread, as the benchmark does.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from imprintlab.dataio import canonical_json  # noqa: E402
from imprintlab.scenarios import BUNDLED, bundled_config, run_scenario  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "imprintbench"))
from workloads import WORKLOADS  # noqa: E402


def configs():
    """(label, raw config) for every report of the set, in a fixed order."""
    for name in sorted(BUNDLED):
        for seed in (0, 1):
            for dtype in ("float32", "float64"):
                cfg = bundled_config(name)
                cfg.update(seed=seed, dtype=dtype)
                yield f"{name} seed={seed} {dtype}", cfg
    for name, workload in WORKLOADS.items():
        for seed in (0, 1):
            yield f"{name} seed={seed}", workload.build(seed)


def digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


if __name__ == "__main__":
    for label, cfg in configs():
        print(f"{digest(run_scenario(cfg).report)}  {label}", flush=True)
