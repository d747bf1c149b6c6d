"""The benchmark's workloads: config generators and per-run correctness checks.

Each workload turns the benchmark seed into one scenario config (a plain dict
that the program validates) and a list of program seeds the run cycles
through. The program only ever sees the generated config file and a --seed.
A workload may also compute, once per program seed and outside the timed
runs, a reference its check compares the report against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], dict]        # program seed -> scenario config
    check: Callable[[dict, object], list]  # report, reference -> failure messages
    seeds_per_run: int                  # program seeds one benchmark run cycles through
    reference: Callable[[dict, int], object] | None = None  # config, seed -> reference
    note: Callable[[dict, object], list] | None = None  # report, reference -> notes


def _base(name: str, seed: int, dtype: str) -> dict:
    return {"name": name, "seed": seed, "dtype": dtype,
            "federation": {"protocol": "fed_sgd", "users": 1},
            "defense": {"clip": None, "noise": None, "sigma": 0.0}}


def _fullbatch_wide(seed: int) -> dict:
    cfg = _base("fullbatch_wide", seed, "float32")
    cfg["data"] = {"kind": "synthetic_gaussian", "n": 1024, "m": 3072, "label_classes": 10}
    cfg["model"] = {"front": [], "measurement": {"kind": "mean", "c0": "auto"},
                    "assumed": {"kind": "normal"},
                    "imprint": {"variant": "relu", "k": 2048, "decoys": 0, "permute": False},
                    "bridge": "sum", "head": {"kind": "pinned", "gain": 1024.0}}
    cfg["metrics"] = {"pool": 1000, "rel_tol": 1e-4}
    return cfg


def _oneshot_trials(seed: int) -> dict:
    cfg = _base("oneshot_trials", seed, "float64")
    cfg["data"] = {"kind": "synthetic_gaussian", "n": 16384, "m": 32, "label_classes": 10}
    cfg["model"] = {"front": [], "measurement": {"kind": "mean", "c0": "auto"},
                    "assumed": {"kind": "normal"},
                    "imprint": {"variant": "one_shot", "target_mass": "1/n",
                                "placement": None},
                    "bridge": "sum", "head": {"kind": "pinned", "gain": 1.0}}
    cfg["metrics"] = {"pool": 0, "rel_tol": 1e-4}
    cfg["trials"] = 200
    return cfg


def _fedavg_tokens(seed: int) -> dict:
    # float64: in float32 the fed-AVG parameter delta (final minus initial
    # weights at lr 1e-4) cancels away and nothing is recovered
    cfg = _base("fedavg_tokens", seed, "float64")
    cfg["data"] = {"kind": "token_sequences", "n_seq": 512, "seq_len": 16, "vocab": 4096,
                   "embed_dim": 48, "label_classes": 10}
    cfg["model"] = {"front": [], "measurement": {"kind": "random_gaussian", "c0": "auto"},
                    "assumed": {"kind": "normal"},
                    "imprint": {"variant": "hard_threshold", "k": 1024, "permute": True},
                    "bridge": "sum", "head": {"kind": "pinned", "gain": 1.0}}
    cfg["federation"] = {"protocol": "fed_avg", "users": 8, "steps": 8, "lr": 1e-4}
    cfg["defense"] = {"clip": 1.0, "noise": "laplace", "sigma": 1e-12}
    cfg["metrics"] = {"pool": 1000, "rel_tol": 1e-4, "verify_rel_tol": 1e-2}
    return cfg


def _model_singletons(cfg: dict, seed: int) -> list:
    """Bins that hold exactly one example by the imprint pre-activations the
    model itself computes, in the run's dtype: the bins exact recovery must hit.

    This is the occupancy the recovery actually sees. The report's own
    occupancy bins the measurement in a different order of operations, so at
    float32 an example next to a boundary can land in the neighbouring bin
    there (ROADMAP item 4); the report's singleton_match is then false although
    the recovery is right.
    """
    import numpy as np
    from imprintlab.scenarios import run_scenario
    art = run_scenario(cfg, seed=seed).artifacts
    model, imp = art["model"], art["imprint"]
    pre = art["feats"] @ model.params["imprint.weight"].T + model.params["imprint.bias"]
    active = pre[:, imp.row_of_bin] > 0  # (n, k), bins in ascending boundary order
    # bin i reads row i minus row i+1, so an example is in it where the two
    # rows differ; the top bin is read from its row alone
    members = active.copy()
    members[:, :-1] ^= active[:, 1:]
    return [int(b) for b in np.flatnonzero(members.sum(axis=0) == 1)]


def _check_fullbatch(report: dict, singletons: list) -> list:
    exact = report["recovery"]["exact_bins"]
    if exact == singletons:
        return []
    missed = sorted(set(singletons) - set(exact))
    extra = sorted(set(exact) - set(singletons))
    return [f"exact bins differ from the model's singleton bins: {len(missed)} "
            f"singletons not recovered (first {missed[:5]}), {len(extra)} exact bins "
            f"not singletons (first {extra[:5]})"]


def _note_fullbatch(report: dict, singletons: list) -> list:
    if report["recovery"]["singleton_match"] or report["recovery"]["exact_bins"] != singletons:
        return []
    return ["known defect (ROADMAP item 4): the report's singleton_match is false "
            f"(report occupancy {report['occupancy']['singletons']} singletons) although "
            f"the exact bins equal the model's {len(singletons)} singleton bins"]


def _check_oneshot(report: dict, _ref=None) -> list:
    tr = report["trials"]
    out = []
    if tr["successes"] != tr["singleton_trials"]:
        out.append(f"successes {tr['successes']} != singleton trials {tr['singleton_trials']}")
    err = tr["max_success_rel_err"]
    if err is not None and not err <= 1e-4:
        out.append(f"max_success_rel_err {err} > 1e-4")
    return out


def _non_finite(obj, path="report"):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _non_finite(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _non_finite(val, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield path


def _check_fedavg_tokens(report: dict, _ref=None) -> list:
    out = [f"{path} is not finite" for path in _non_finite(report)]
    singleton_frac = report["occupancy"]["singletons"] / report["n"]
    accuracy = report["tokens"]["token_accuracy"]
    if abs(accuracy - singleton_frac) * 100.0 > 1.0:
        out.append(f"token accuracy {accuracy:.4f} is more than 1pp from the "
                   f"singleton fraction {singleton_frac:.4f}")
    return out


WORKLOADS = {w.name: w for w in (
    Workload("fullbatch_wide",
             "fed-SGD n=1024 m=3072 k=2048 float32: one large gradient read once; "
             "theory, scoring and BLAS carry it, trials/fed-AVG/noise/tokens are bypassed",
             _fullbatch_wide, _check_fullbatch, seeds_per_run=1,
             reference=_model_singletons, note=_note_fullbatch),
    Workload("oneshot_trials",
             "one-shot trap, n=16384 m=32 float64, 200 trials: RNG, per-trial "
             "forward/backward and loop overhead; no scoring and no theory work",
             _oneshot_trials, _check_oneshot, seeds_per_run=4),
    Workload("fedavg_tokens",
             "512 token sequences, k=1024 hard-threshold bins, fed-AVG 8 users x 8 steps, "
             "clip plus Laplace noise: many small steps, defense, aggregation, token decoding",
             _fedavg_tokens, _check_fedavg_tokens, seeds_per_run=4),
)}


def program_seeds(name: str, seed: int) -> list:
    """Program seeds for one benchmark run: disjoint across benchmark seeds."""
    per_run = WORKLOADS[name].seeds_per_run
    return [seed * per_run + j for j in range(per_run)]


def exact_and_total(report: dict) -> tuple:
    """(exact recoveries, examples) -- for trial runs, (successes, trials)."""
    if "trials" in report:
        return report["trials"]["successes"], report["trials"]["n_trials"]
    return report["recovery"]["exact_count"], report["n"]
