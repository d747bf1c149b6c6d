"""Print one SHA-256 per report of the 58-config set, and per CLI output, for
byte-identity checks.

The set is the four bundled scenarios x seeds 0 and 1 x float32 and float64,
the three benchmark workload configs (from `imprintbench/workloads.py`) x
seeds 0 and 1, and runs that reach what those do not: `fullbatch64` with
4 fed-SGD users, float32 `fullbatch64` with an `avg_pool 2` front and a
5000-row pool (more than one pool block, not a whole number of them) at
seeds 0 and 1, float32 `fedavg8x8` at head gain 1000 at seeds 0 and 2
(`drifted` 2 and 4), `fedavg8x8` with 4 users x 4 steps, `fedavg8x8` at
n=96 with 3 users (the set's one user count whose 1/users rounds), six variants
(`VARIANTS`: front stages, a DCT measurement with decoys and a permutation,
a permuted Laplace layout, an empirical layout with a linear bridge, a random
head under clip and noise, fed-AVG over ReLU rows with a DCT measurement,
decoys and a permutation) x seeds 0 and 1 x float32 and float64, one CSV
run per normalization, and `oneshot` with `metrics.select: 1` and at the
default `metrics.pool`. Each digest is taken over the report's canonical JSON
with the nondeterministic `timing` block (and a CSV run's temporary
`config.data.path`) removed, so two trees that print the same lines produce
byte-identical reports. The CLI outputs are the CSV and SVG of nine sweeps,
written to a temporary directory, and the stdout of four `plan` commands and
of `check`.

    PYTHONPATH=src python tests/report_digests.py > after.txt

Pointing PYTHONPATH at another checkout's `src/` digests that tree instead;
`diff` the two outputs. pytest does not collect this file (its name does not
start with `test_`). It runs with one BLAS thread, as the benchmark does.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import copy  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from imprintlab.cli import main  # noqa: E402
import numpy as np  # noqa: E402

from imprintlab.dataio import NORMALIZATIONS, canonical_json, write_csv  # noqa: E402
from imprintlab.scenarios import BUNDLED, bundled_config, run_scenario  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "imprintbench"))
from workloads import WORKLOADS  # noqa: E402


# (label, bundle, {section: {key: value}}); each value replaces the bundle's
VARIANTS = [
    ("front=identity,avg_pool2,avg_pool2", "fullbatch64",
     {"model": {"front": [{"kind": "identity"}, {"kind": "avg_pool", "factor": 2},
                          {"kind": "avg_pool", "factor": 2}]}}),
    ("dct freq=3 decoys=5 permute", "fullbatch64",
     {"model": {"measurement": {"kind": "dct", "freq": 3},
                "imprint": {"variant": "relu", "k": 128, "decoys": 5, "permute": True}}}),
    ("permute laplace", "fedavg8x8",
     {"model": {"imprint": {"variant": "hard_threshold", "k": 128, "permute": True},
                "assumed": {"kind": "laplace"}}}),
    ("empirical identical_row_linear dim=3", "fullbatch64",
     {"model": {"assumed": {"kind": "empirical"}, "bridge": "identical_row_linear",
                "bridge_dim": 3}}),
    ("random head clip=1 gaussian sigma=1e-3", "fullbatch64",
     {"model": {"head": {"kind": "random"}},
      "defense": {"clip": 1.0, "noise": "gaussian", "sigma": 1e-3}}),
    ("relu dct freq=3 decoys=5 permute", "fedavg8x8",
     {"model": {"measurement": {"kind": "dct", "freq": 3},
                "imprint": {"variant": "relu", "k": 128, "decoys": 5, "permute": True}}}),
]


def _variant(name: str, over: dict, seed: int, dtype: str) -> dict:
    cfg = copy.deepcopy(BUNDLED[name])
    for section, keys in over.items():
        cfg.setdefault(section, {}).update(keys)
    return {**cfg, "seed": seed, "dtype": dtype}


def _csv_file(tmp: str) -> str:
    """A fixed 48 x 12 labelled CSV."""
    rng = np.random.default_rng(0)
    path = str(Path(tmp, "batch.csv"))
    with open(path, "w", newline="") as fh:
        write_csv(fh, [f"f{j}" for j in range(12)] + ["label"],
                  [[*map(float, rng.normal(2.0, 3.0, 12)), int(rng.integers(4))]
                   for _ in range(48)])
    return path


def configs(tmp: str):
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
    for seed in (0, 1):  # the pool's 4096-row blocks (input width 64): one full, one part
        cfg = bundled_config("fullbatch64")
        cfg.update(seed=seed, dtype="float32")
        cfg["model"]["front"] = [{"kind": "avg_pool", "factor": 2}]
        cfg["metrics"] = {"pool": 5000}
        yield f"fullbatch64 seed={seed} float32 front=avg_pool2 pool=5000", cfg
    for seed in (0, 2):
        cfg = bundled_config("fedavg8x8")
        cfg.update(seed=seed, dtype="float32")
        cfg["model"]["head"]["gain"] = 1000.0
        yield f"fedavg8x8 seed={seed} float32 gain=1000", cfg
    cfg = bundled_config("fedavg8x8")
    cfg["federation"].update(users=4, steps=4)
    yield "fedavg8x8 seed=0 float64 users=4 steps=4", cfg
    cfg = bundled_config("fedavg8x8")
    cfg["data"]["n"] = 96
    cfg["federation"]["users"] = 3
    yield "fedavg8x8 seed=0 float64 n=96 users=3", cfg
    for label, name, over in VARIANTS:
        for seed in (0, 1):
            for dtype in ("float32", "float64"):
                yield (f"{name} {label} seed={seed} {dtype}",
                       _variant(name, over, seed, dtype))
    path = _csv_file(tmp)
    for norm in NORMALIZATIONS:
        yield f"csv normalization={norm}", {
            "name": f"csv_{norm}",
            "data": {"kind": "csv", "path": path, "normalization": norm, "label_classes": 4},
            "model": {"imprint": {"variant": "relu", "k": 96}, "head": {"gain": 48.0}}}
    for key, value in (("select", 1), ("pool", 1000)):
        cfg = bundled_config("oneshot")
        cfg["metrics"][key] = value
        yield f"oneshot seed=0 float64 {key}={value}", cfg


# (scenario, axis, values, extra flags); every chart's tick labels differ at 6 digits
SWEEPS = [
    ("fullbatch64", "bins", "64,128,256", []),
    ("fullbatch64", "sigma", "0,0.001,0.01", ["--jobs", "2"]),
    ("fedavg8x8", "batch", "32,64,128", []),
    ("text128", "bins", "128,256,512", []),
    ("oneshot", "mass", "0.0001,0.0005", []),
    ("fullbatch64", "bins", "16,32,64,96,128", []),
    ("fullbatch64", "batch", "32,128,256", []),
    ("oneshot", "batch", "64,128", []),
    ("oneshot", "model.imprint.placement", "0.1,0.3", []),
]

PLANS = [
    ["plan", "--n", "64", "--k", "156", "--m", "64"],
    ["plan", "--n", "64", "--k", "156", "--m", "16", "--decoys", "5", "--bridge-params", "9"],
    ["plan", "--n", "4096", "--p", "0.000244140625", "--m", "32", "--decoys", "3"],
    ["plan", "--n", "3", "--k", "2", "--m", "4", "--decoys", "2"],
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
    for args in (*PLANS, ["check"]):
        yield " ".join([*args, "stdout"]), _stdout(args)


def digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k != "timing"}
    if stable["config"]["data"]["kind"] == "csv":  # drop the temporary path
        stable["config"] = copy.deepcopy(stable["config"])
        del stable["config"]["data"]["path"]
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg in configs(tmp):
            print(f"{digest(run_scenario(cfg).report)}  {label}", flush=True)
        for label, data in cli_outputs(tmp):
            print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)
