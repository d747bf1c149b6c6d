"""Outside tracer: times and counts calls into imprintlab's public functions.

Nothing in the program is edited. `Tracer.install` replaces each traced name
where its caller looks it up (a module global such as
`imprintlab.scenarios.score`, or a method on a class) with a wrapper that
records a span (name, start, end, parent) and updates counters. Spans and
counts stay in memory until the run ends; `uninstall` puts every original
back.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict

# Per-layer counters the traced run reports (besides the *_s self times).
COUNTS = ("numerics.assignment_cells", "metrics.scored", "metrics.exact",
          "numerics.rng_values", "numerics.matmul_flops", "model.steps",
          "federation.local_steps", "federation.payload_bytes", "defense.noise_values",
          "recovery.candidates", "recovery.decoded", "recovery.verified",
          "distributions.quantile_calls", "dataio.batch_bytes", "dataio.report_bytes")


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the part of it
    that the union of its child spans covers, summed over spans of a name.

    `spans` is a sequence of (name, start, end, parent) where parent is the
    index of the enclosing span or -1.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out[name] += (end - start) - covered
    return dict(out)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, count=None):
        """Wrap fn so each call records a span `name` (None: count only)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([name, time.perf_counter(), None, parent])
                tracer._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._stack.pop()
                    tracer.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result
        return traced

    def install(self):
        for owner_path, attr, name, count in PATCHES:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, count))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(path: str):
    """'pkg.mod' -> module; 'pkg.mod:Class' -> class."""
    mod_name, _, cls = path.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


# -- counters: (counts, args, kwargs, result) -> None ----------------------------

def _matmul_flops(counts, args, kwargs, result):
    a, b = args[0], args[1]
    counts["numerics.matmul_flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _assignment_cells(counts, args, kwargs, result):
    counts["numerics.assignment_cells"] += math.prod(args[0].shape)


def _scored(counts, args, kwargs, result):
    counts["metrics.scored"] += result.n_candidates
    counts["metrics.exact"] += result.exact_count


def _rng_values(counts, args, kwargs, result):
    counts["numerics.rng_values"] += result.size


def _steps(counts, args, kwargs, result):
    counts["model.steps"] += 1


def _local_steps(counts, args, kwargs, result):
    counts["federation.local_steps"] += kwargs["steps"]


def _payload_bytes(counts, args, kwargs, result):
    counts["federation.payload_bytes"] += sum(t.nbytes for p in args[0]
                                              for t in p.tensors.values())


def _noise_values(counts, args, kwargs, result):
    config = args[1]
    if config.noise is not None and config.sigma > 0:
        counts["defense.noise_values"] += sum(t.size for t in result.tensors.values())


def _candidates(counts, args, kwargs, result):
    counts["recovery.candidates"] += len(result)


def _decoded(counts, args, kwargs, result):
    counts["recovery.decoded"] += 1


def _verified(counts, args, kwargs, result):
    counts["recovery.verified"] += int(bool(result))


def _quantile_calls(counts, args, kwargs, result):
    counts["distributions.quantile_calls"] += 1


def _batch_bytes(counts, args, kwargs, result):
    counts["dataio.batch_bytes"] += result.x.nbytes + result.labels.nbytes


def _report_bytes(counts, args, kwargs, result):
    from imprintlab.dataio import canonical_json
    # timing is the one part of a report that varies between identical runs
    stable = {k: v for k, v in args[0].items() if k != "timing"}
    counts["dataio.report_bytes"] += len(canonical_json(stable).encode())


# (owner, attribute, span name or None, counter). The owner is where the
# caller looks the name up: `from x import f` callers need the importer's
# global patched, `module.f` callers the defining module's.
PATCHES = (
    ("imprintlab.cli", "main", "cli", None),
    ("imprintlab.cli", "run_scenario", "scenarios", None),
    ("imprintlab.cli", "write_report", "dataio.report", _report_bytes),
    ("imprintlab.scenarios", "validate_config", "scenarios.validate", None),
    ("imprintlab.dataio", "load_synthetic_gaussian", "dataio.load", _batch_bytes),
    ("imprintlab.dataio", "load_token_sequences", "dataio.load", _batch_bytes),
    ("imprintlab.scenarios", "make_layout", "imprint.build", None),
    ("imprintlab.scenarios", "build_relu", "imprint.build", None),
    ("imprintlab.scenarios", "build_hard_threshold", "imprint.build", None),
    ("imprintlab.scenarios", "fuse_one_shot", "imprint.build", None),
    ("imprintlab.scenarios", "make_imprint_model", "model.build", None),
    ("imprintlab.model:ModelGraph", "forward_features", "model.forward_backward", None),
    ("imprintlab.model:ModelGraph", "loss_and_grads", "model.forward_backward", _steps),
    ("imprintlab.model", "matmul", "numerics.matmul", _matmul_flops),
    ("imprintlab.numerics:RngStream", "normal", "numerics.rng", _rng_values),
    ("imprintlab.numerics:RngStream", "uniform", "numerics.rng", _rng_values),
    ("imprintlab.numerics:RngStream", "laplace", "numerics.rng", _rng_values),
    ("imprintlab.numerics:RngStream", "integers", "numerics.rng", _rng_values),
    ("imprintlab.numerics:RngStream", "permutation", "numerics.rng", _rng_values),
    ("imprintlab.measurement:Measurement", "measure", "measurement.measure", None),
    ("imprintlab.scenarios", "fed_avg", "federation.fed_avg", _local_steps),
    ("imprintlab.scenarios", "apply_defense", "defense.apply", _noise_values),
    ("imprintlab.scenarios", "secure_aggregate", "federation.aggregate", _payload_bytes),
    ("imprintlab.scenarios", "recover_bins", "recovery.recover", _candidates),
    ("imprintlab.scenarios", "select_candidates", "recovery.select", None),
    ("imprintlab.scenarios", "score", "metrics.score", _scored),
    ("imprintlab.metrics", "assignment", "numerics.assignment", _assignment_cells),
    ("imprintlab.scenarios", "token_lookup", "recovery.token_lookup", _decoded),
    ("imprintlab.scenarios", "decoding_verified", "recovery.verify", _verified),
    ("imprintlab.theory", "iid_expected", "theory", None),
    ("imprintlab.theory", "prop1_closed_form", "theory", None),
    ("imprintlab.theory", "prop1_exact", "theory", None),
    ("imprintlab.theory", "one_shot_success", "theory", None),
    ("imprintlab.theory", "overhead", "theory", None),
    ("imprintlab.distributions:Normal", "quantile", None, _quantile_calls),
    ("imprintlab.distributions:Laplace", "quantile", None, _quantile_calls),
    ("imprintlab.distributions:Empirical", "quantile", None, _quantile_calls),
)

# Span name -> reported self-time metric.
TIME_METRICS = {
    "cli": "cli.self_s",
    "scenarios": "scenarios.self_s",
    "scenarios.validate": "scenarios.validate_s",
    "theory": "theory.self_s",
    "metrics.score": "metrics.score_s",
    "numerics.assignment": "numerics.assignment_s",
    "numerics.rng": "numerics.rng_s",
    "dataio.load": "dataio.load_s",
    "model.forward_backward": "model.forward_backward_s",
    "numerics.matmul": "numerics.matmul_s",
    "measurement.measure": "measurement.measure_s",
    "federation.fed_avg": "federation.fed_avg_s",
    "federation.aggregate": "federation.aggregate_s",
    "defense.apply": "defense.apply_s",
    "recovery.recover": "recovery.recover_s",
    "recovery.select": "recovery.select_s",
    "recovery.token_lookup": "recovery.token_lookup_s",
    "recovery.verify": "recovery.verify_s",
    "imprint.build": "imprint.build_s",
    "model.build": "model.build_s",
    "dataio.report": "dataio.report_s",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Self time per layer metric, every traced layer present (0.0 if unused)."""
    times = self_times(tracer.spans)
    return {metric: times.get(span, 0.0) for span, metric in TIME_METRICS.items()}


# -- import-time breakdown -------------------------------------------------------

# imprintlab modules that set-up (import cli, validate a config) loads.
IMPORT_MODULES = ("imprintlab", "imprintlab.errors", "imprintlab.numerics",
                  "imprintlab.scenarios", "imprintlab.dataio", "imprintlab.theory",
                  "imprintlab.defense", "imprintlab.federation", "imprintlab.imprint",
                  "imprintlab.measurement", "imprintlab.metrics", "imprintlab.model",
                  "imprintlab.recovery", "imprintlab.cli", "imprintlab._svg")


def import_metric(module: str) -> str:
    short = module.rpartition(".")[2] if "." in module else module
    return f"{short.lstrip('_')}.import_s"


def import_self_times(stderr_text: str, package: str = "imprintlab") -> dict:
    """Seconds of import self time per package module, from `python -X importtime`.

    A module outside the package (numpy, scipy, ...) is charged to the
    nearest package module that imported it, i.e. to the module that first
    imported it. Imports with no package module above them are dropped.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name_field = fields[2]
        level = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        rows.append((int(fields[0]), level, name_field.strip()))
    # Output is post-order (children first), so walking it backwards meets
    # each parent before its children.
    owner_at_level = {}
    out = defaultdict(float)
    for self_us, level, name in reversed(rows):
        if name == package or name.startswith(package + "."):
            owner = name
        else:
            owner = owner_at_level.get(level - 1)
        owner_at_level[level] = owner
        if owner is not None:
            out[owner] += self_us * 1e-6
    return dict(out)
