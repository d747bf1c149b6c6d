"""Benchmark worker: one fresh interpreter that sets up imprintlab once, then
calls the CLI (`imprintlab run --config ... --seed ... --out ...`) in a loop
and checks every report. A workload's check reference, if it has one, is
computed once per program seed before the timed loop starts. Before each run
it times the set-up of a fresh interpreter, so set-up and run samples are
spread over the same interval.
Started by run.py; writes its result as JSON to --result.

Usage: python3 worker.py --src SRC --workload NAME --config CFG --seeds 0,1
                         --seconds 32 --out DIR --result FILE [--trace]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

PROBE = """\
import json, sys
sys.path.insert(0, {src!r})
import imprintlab.cli
from imprintlab.scenarios import validate_config
with open({config!r}) as fh:
    validate_config(json.load(fh))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def _probe_cmd(src, config_path, *flags):
    return [sys.executable, *flags, "-c", PROBE.format(src=src, config=config_path)]


def setup_probe(src, config_path) -> float:
    """Seconds from starting a fresh interpreter until it has imported the CLI
    and validated the workload config."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_probe_cmd(src, config_path), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line != "ready\n":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def import_probe(src, config_path) -> dict:
    """Per-module import self times of one set-up, from -X importtime."""
    from tracer import import_self_times
    proc = subprocess.run(_probe_cmd(src, config_path, "-X", "importtime"),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import-time probe failed: {proc.stderr[-2000:]}")
    return import_self_times(proc.stderr)


def _stable(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, sort_keys=True)


class Runner:
    """Runs the CLI on one seed and checks the report it wrote."""

    def __init__(self, cli, workloads, workload, config_path, out_dir):
        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.config_path = config_path
        self.out_dir = out_dir
        self.first = {}       # seed -> stable report text of the first run
        self.reports = {}     # seed -> first report
        self.attempts = []    # {"seed", "run_s", "failures"}
        self.refs = {}        # seed -> the workload's check reference
        self.notes = []       # "program seed S: note", from each seed's first report

    def prepare(self, seeds) -> None:
        """Computes the workload's check reference for each seed, if it has one."""
        workload = self.workloads.WORKLOADS[self.workload]
        if workload.reference is None:
            return
        with open(self.config_path) as fh:
            cfg = json.load(fh)
        for seed in seeds:
            self.refs[seed] = workload.reference(cfg, seed)

    def run(self, seed: int) -> float:
        argv = ["run", "--config", self.config_path, "--seed", str(seed),
                "--out", self.out_dir]
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        run_s = time.perf_counter() - t0
        failures = []
        if code != 0:
            failures.append(f"exit code {code}")
        else:
            path = os.path.join(self.out_dir, f"{self.workload}_report.json")
            with open(path) as fh:
                report = json.load(fh)
            os.remove(path)
            workload = self.workloads.WORKLOADS[self.workload]
            failures += workload.check(report, self.refs.get(seed))
            stable = _stable(report)
            if seed not in self.first:
                self.first[seed] = stable
                self.reports[seed] = report
                if workload.note is not None:
                    self.notes += [f"program seed {seed}: {note}"
                                   for note in workload.note(report, self.refs.get(seed))]
            elif stable != self.first[seed]:
                failures.append("report differs from the first report for this seed")
        self.attempts.append({"seed": seed, "run_s": run_s, "ok": code == 0,
                              "failures": failures})
        return run_s


def _blas_info():
    """(OpenBLAS runtime config string, BLAS thread count), or Nones."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and ".so" in line})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def _versions() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    runtime, threads = _blas_info()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_runtime": runtime, "blas_threads": threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    # set-up, as a user's process pays it: import the CLI, read and validate
    sys.path.insert(0, args.src)
    from imprintlab import cli
    from imprintlab.scenarios import validate_config
    with open(args.config) as fh:
        validate_config(json.load(fh))

    import workloads  # the benchmark's own module, next to this file

    seeds = [int(s) for s in args.seeds.split(",")]
    runner = Runner(cli, workloads, args.workload, args.config, args.out)
    result = {"versions": _versions()}
    runner.prepare(seeds[:1] if args.trace else seeds)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        imports = result["imports"] = []
        result["trace"] = _trace_loop(
            runner, seeds[0], deadline,
            probe=lambda: imports.append(import_probe(args.src, args.config)))
    else:
        result["setup_s"] = []
        i = 0
        # every program seed runs at least once, so exact_fraction never
        # depends on how many runs fit in the time
        while i < len(seeds) or time.perf_counter() < deadline:
            result["setup_s"].append(setup_probe(args.src, args.config))
            runner.run(seeds[i % len(seeds)])
            i += 1
    result["attempts"] = runner.attempts
    result["notes"] = runner.notes
    result["exact"] = {str(s): list(workloads.exact_and_total(r))
                       for s, r in runner.reports.items()}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _trace_loop(runner: Runner, seed: int, deadline: float, probe) -> dict:
    """After one warm-up run, runs of one seed in the order untraced, traced,
    traced, untraced, ... (so drift favours neither side) until at least two
    of each are done and the time is up, with an import-time probe before
    each run.

    Fails loudly if the counts differ between traced runs, or if the summed
    self times exceed the traced run's wall time.
    """
    from tracer import COUNTS, Tracer, layer_metrics

    untraced, traced, layers, counts = [], [], [], None
    probe()
    runner.run(seed)  # the first run in a process pays one-off costs
    i = 0
    while min(len(traced), len(untraced)) < 2 or time.perf_counter() < deadline:
        probe()
        if i % 4 in (0, 3):
            untraced.append(runner.run(seed))
            i += 1
            continue
        i += 1
        tracer = Tracer()
        tracer.install()
        try:
            run_s = runner.run(seed)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer)
        if sum(metrics.values()) > run_s:
            raise AssertionError(f"summed self times {sum(metrics.values())} s exceed "
                                 f"the traced run's {run_s} s")
        run_counts = {name: tracer.counts.get(name, 0) for name in COUNTS}
        if counts is not None and run_counts != counts:
            diff = {k: (counts[k], v) for k, v in run_counts.items() if counts[k] != v}
            raise AssertionError(f"counts differ between traced runs: {diff}")
        counts = run_counts
        traced.append(run_s)
        layers.append(metrics)
    return {"untraced_run_s": untraced, "traced_run_s": traced, "layers": layers,
            "counts": counts}


if __name__ == "__main__":
    sys.exit(main())
