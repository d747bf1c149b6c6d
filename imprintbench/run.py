"""imprintlab benchmark: one workload, one seed, one run.

    python3 imprintbench/run.py --workload fullbatch_wide --seed 0 --seconds 32 --trace 0
    python3 imprintbench/run.py --workload all --seed 0 --seconds 32 --trace 0

Run from the repository root. A worker process sets up imprintlab once, then
for --seconds drives `imprintlab run --config <generated> --seed <s> --out
<tmp>` and checks every report. Between runs it starts a fresh interpreter
that imports the CLI and validates the workload config, and times that
set-up. With --trace 1 it reports per-layer metrics instead: the set-up
probes run under `-X importtime`, and runs alternate between untraced and
traced by an outside tracer.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a human-readable table. Scratch
files live under .bench_build/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKER_TIMEOUT_S = 150
# One BLAS thread: on a small shared machine, BLAS threads fighting other
# processes for cores make run times swing more than any change being measured.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("exact_fraction", "1"))

PER_LAYER = tuple((tracer.import_metric(m), "s") for m in tracer.IMPORT_MODULES) + (
    ("theory.self_s", "s"),
    ("metrics.score_s", "s"), ("numerics.assignment_s", "s"),
    ("numerics.assignment_cells", "count"), ("metrics.scored", "count"),
    ("metrics.exact_ratio", "1"),
    ("numerics.rng_s", "s"), ("dataio.load_s", "s"), ("numerics.rng_values", "count"),
    ("model.forward_backward_s", "s"), ("numerics.matmul_s", "s"),
    ("numerics.matmul_flops", "flop"), ("model.steps", "count"),
    ("scenarios.self_s", "s"), ("scenarios.validate_s", "s"),
    ("measurement.measure_s", "s"), ("cli.self_s", "s"),
    ("federation.fed_avg_s", "s"), ("federation.aggregate_s", "s"),
    ("defense.apply_s", "s"), ("federation.local_steps", "count"),
    ("federation.payload_bytes", "B"), ("defense.noise_values", "count"),
    ("recovery.recover_s", "s"), ("recovery.select_s", "s"),
    ("recovery.candidates", "count"), ("recovery.useful_ratio", "1"),
    ("recovery.token_lookup_s", "s"), ("recovery.verify_s", "s"),
    ("recovery.decoded", "count"), ("recovery.verified_ratio", "1"),
    ("imprint.build_s", "s"), ("model.build_s", "s"),
    ("distributions.quantile_calls", "count"),
    ("dataio.batch_bytes", "B"), ("dataio.report_bytes", "B"), ("dataio.report_s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def quartiles(values):
    """(q1, median, q3), interpolated within the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- the worker ----------------------------------------------------------------------

def run_worker(name, config_path, seeds, seconds, work, trace) -> dict:
    result_path = work / "result.json"
    out_dir = work / "reports"
    out_dir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--workload", name,
           "--config", str(config_path), "--seeds", ",".join(map(str, seeds)),
           "--seconds", str(seconds), "--out", str(out_dir), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=CHILD_ENV,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    with open(result_path) as fh:
        return json.load(fh)


# -- stamp ---------------------------------------------------------------------------

def source_stamp() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data + b"\0")
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


# -- one workload --------------------------------------------------------------------

def attempt_summary(attempts, notes=()):
    failed = [a for a in attempts if a["failures"]]
    lines = [f"failed: {len(failed)} of {len(attempts)} attempts"]
    lines += [f"  note: {note}" for note in notes]
    seen = set()
    for a in failed:
        for msg in a["failures"]:
            if (a["seed"], msg) not in seen:
                seen.add((a["seed"], msg))
                lines.append(f"  program seed {a['seed']}: {msg}")
    return len(attempts), len(failed), lines


def measure(name, seeds, seconds, work, config_path):
    result = run_worker(name, config_path, seeds, seconds, work, trace=False)
    attempts = result["attempts"]
    run_s = [a["run_s"] for a in attempts if a["ok"]]
    if not run_s or not result["exact"]:
        raise BenchError("no run of the CLI completed")
    exact = sum(e for e, _ in result["exact"].values())
    total = sum(t for _, t in result["exact"].values())
    samples = {"setup_s": result["setup_s"], "run_s": run_s,
               "peak_rss_mb": [result["maxrss_kb"] / 1024.0],
               "exact_fraction": [exact / total]}
    return samples, attempts, result["notes"], result["versions"]


def measure_layers(name, seeds, seconds, work, config_path):
    result = run_worker(name, config_path, seeds, seconds, work, trace=True)
    trace = result["trace"]
    counts = trace["counts"]
    samples = {tracer.import_metric(m): [p.get(m, 0.0) for p in result["imports"]]
               for m in tracer.IMPORT_MODULES}
    for metric in tracer.TIME_METRICS.values():
        samples[metric] = [layers[metric] for layers in trace["layers"]]
    for metric in tracer.COUNTS:
        samples[metric] = [counts[metric]]
    exact = result["exact"][str(seeds[0])][0] if result["exact"] else 0
    samples["metrics.exact_ratio"] = [_ratio(counts["metrics.exact"], counts["metrics.scored"])]
    samples["recovery.useful_ratio"] = [_ratio(exact, counts["recovery.candidates"])]
    samples["recovery.verified_ratio"] = [_ratio(counts["recovery.verified"],
                                                 counts["recovery.decoded"])]
    traced = statistics.median(trace["traced_run_s"])
    samples["trace.run_s"] = trace["traced_run_s"]
    samples["trace.overhead_s"] = [traced - statistics.median(trace["untraced_run_s"])]
    return samples, result["attempts"], result["notes"], result["versions"]


def table(samples, units, trace):
    """Rows: name, unit, median, q1, q3, n; traced times also get their share
    of the traced run (or, for imports, of the summed import time)."""
    medians = {name: statistics.median(samples[name]) for name, _ in units}
    if trace:
        run_total = medians["trace.run_s"]
        import_total = sum(v for k, v in medians.items() if k.endswith(".import_s"))
    lines = [f"{'metric':<30} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}"]
    for name, unit in units:
        values = samples[name]
        q1, med, q3 = quartiles(values)
        row = f"{name:<30} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>4}"
        # a tail percentile only where at least ten samples lie beyond it
        for pct in (99, 90):
            if len(values) * (100 - pct) >= 1000:
                row += f"  p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"
                break
        if trace and name.endswith(".import_s"):
            row += f"  {100.0 * med / import_total:5.1f}% of imports"
        elif trace and unit == "s" and not name.startswith("trace."):
            row += f"  {100.0 * med / run_total:5.1f}% of traced run_s"
        lines.append(row)
    return lines


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (attempted, failed, metrics, printed lines)."""
    seeds = workloads.program_seeds(name, seed)
    work = ROOT / ".bench_build" / "imprintbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workloads.WORKLOADS[name].build(seeds[0]), indent=2))
        if trace:
            samples, attempts, notes, versions = measure_layers(name, seeds, seconds, work,
                                                                config_path)
            units = PER_LAYER
        else:
            samples, attempts, notes, versions = measure(name, seeds, seconds, work,
                                                         config_path)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = dict(source_stamp(), **versions, nproc=os.cpu_count(),
                 cpus_usable=len(os.sched_getaffinity(0)), seed=seed, program_seeds=seeds,
                 seconds=seconds, trace=int(trace))
    attempted, failed, lines = attempt_summary(attempts, notes)
    lines = [f"== {name}", f"stamp: {json.dumps(stamp, sort_keys=True)}", *lines,
             *table(samples, units, trace)]
    metrics = {metric: {"value": statistics.median(samples[metric]), "unit": unit}
               for metric, unit in units}
    return attempted, failed, metrics, lines


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "imprintlab" / "cli.py").is_file():
        print(f"imprintbench: no imprintlab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"imprintbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
