"""Print one SHA-256 per report of the 26-config set, and per CLI output, for
byte-identity checks.

The set is the four bundled scenarios x seeds 0 and 1 x float32 and float64,
the three benchmark workload configs (from `imprintbench/workloads.py`) x
seeds 0 and 1, and four runs that reach what those do not: `fullbatch64` with
4 fed-SGD users, float32 `fedavg8x8` at head gain 1000 at seeds 0 and 2
(`drifted` 2 and 4), and `fedavg8x8` with 4 users x 4 steps. Each digest is
taken over the report's canonical JSON with the nondeterministic `timing`
block removed, so two trees that print the same lines produce byte-identical
reports. The CLI outputs are the CSV and SVG of
five sweeps, written to a temporary directory, and the stdout of `plan` and
`check`.

    PYTHONPATH=src python tests/report_digests.py > after.txt

Pointing PYTHONPATH at another checkout's `src/` digests that tree instead;
`diff` the two outputs. pytest does not collect this file (its name does not
start with `test_`). It runs with one BLAS thread, as the benchmark does.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from imprintlab.cli import main  # noqa: E402
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
    cfg = bundled_config("fullbatch64")
    cfg["federation"]["users"] = 4
    yield "fullbatch64 seed=0 float32 users=4", cfg
    for seed in (0, 2):
        cfg = bundled_config("fedavg8x8")
        cfg.update(seed=seed, dtype="float32")
        cfg["model"]["head"]["gain"] = 1000.0
        yield f"fedavg8x8 seed={seed} float32 gain=1000", cfg
    cfg = bundled_config("fedavg8x8")
    cfg["federation"].update(users=4, steps=4)
    yield "fedavg8x8 seed=0 float64 users=4 steps=4", cfg


# (scenario, axis, values, extra flags); every chart's tick labels differ at 6 digits
SWEEPS = [
    ("fullbatch64", "bins", "64,128,256", []),
    ("fullbatch64", "sigma", "0,0.001,0.01", ["--jobs", "2"]),
    ("fedavg8x8", "batch", "32,64,128", []),
    ("text128", "bins", "128,256,512", []),
    ("oneshot", "mass", "0.0001,0.0005", []),
]


def _stdout(args) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    if code != 0:
        raise SystemExit(f"imprintlab {' '.join(args)} exited {code}")
    return buf.getvalue().encode()


def cli_outputs(tmp: str):
    """(label, bytes) for every CLI output of the set, in a fixed order."""
    for scenario, axis, values, extra in SWEEPS:
        out = Path(tmp, f"{scenario}-{axis}")
        _stdout(["sweep", "--scenario", scenario, "--axis", axis, "--values", values,
                 "--out", str(out), *extra])
        for ext in ("csv", "svg"):
            label = " ".join(["sweep", scenario, axis, values, *extra, ext])
            yield label, (out / f"{scenario}_{axis}_sweep.{ext}").read_bytes()
    for args in (["plan", "--n", "64", "--k", "156", "--m", "64"], ["check"]):
        yield " ".join([*args, "stdout"]), _stdout(args)


def digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


if __name__ == "__main__":
    for label, cfg in configs():
        print(f"{digest(run_scenario(cfg).report)}  {label}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, data in cli_outputs(tmp):
            print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)
