"""What a report promises under another BLAS kernel: on one BLAS build and
kernel reports are byte-identical at any thread count, and across OpenBLAS
kernel families only four fields move, each a float that measures product
rounding. The four bundles run at seed 1 in both dtypes here and, at the same
time, in one subprocess per kernel forced with `OPENBLAS_CORETYPE`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from imprintlab.dataio import canonical_json
from imprintlab.scenarios import BUNDLED, bundled_config, run_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")
KERNELS = ("Haswell", "Sandybridge")
ROUNDING_FIELDS = ("recovery.mean_psnr", "recovery.mean_psnr_exact", "federation.mean_loss",
                   "trials.max_success_rel_err")

RUN = """\
import json, sys
from imprintlab.dataio import canonical_json
from imprintlab.scenarios import run_scenario
sys.stdout.write(canonical_json([run_scenario(cfg).report for cfg in json.loads(sys.argv[1])]))
"""


def _comparable(report: dict) -> dict:
    """The report as JSON values without `timing` and the rounding fields."""
    out = json.loads(canonical_json(report))
    out.pop("timing")
    for path in ROUNDING_FIELDS:
        section, key = path.split(".")
        out.get(section, {}).pop(key, None)
    return out


def test_only_the_rounding_fields_move_across_blas_kernels():
    configs = [{**bundled_config(name), "seed": 1, "dtype": dtype}
               for name in sorted(BUNDLED) for dtype in ("float32", "float64")]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1")
    procs = {}
    unreported = []
    try:
        for kernel in KERNELS:
            procs[kernel] = subprocess.Popen(
                [sys.executable, "-c", RUN, json.dumps(configs)],
                env=dict(env, OPENBLAS_CORETYPE=kernel), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
        ours = [_comparable(run_scenario(cfg).report) for cfg in configs]
        for kernel, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            if f"Core: {kernel}" not in err:  # another BLAS, or a CPU without the kernel
                unreported.append(kernel)
                continue
            theirs = [_comparable(report) for report in json.loads(out)]
            for cfg, a, b in zip(configs, ours, theirs, strict=True):
                assert a == b, (kernel, cfg["name"], cfg["dtype"])
    finally:  # a failed kernel leaves no other child running
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if unreported:
        pytest.skip(f"OPENBLAS_VERBOSE=2 did not report Core: {', '.join(unreported)}")
