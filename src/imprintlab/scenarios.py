"""End-to-end experiment scenarios.

A scenario wires the whole chain together: build the malicious model around a
measurement + bin layout, then run rounds. A round takes one batch through the
model's features and their bin occupancy, the federated update, the defense,
secure aggregation and recovery. A plain run is one round, scored against the
ground truth; a one-shot trial run is one round per trial on a fresh batch,
each reduced to its trial record. `run_scenario` returns a JSON-friendly
report plus in-memory artifacts; everything nondeterministic (wall-clock
timing) lives under the single report key "timing" so reports are otherwise
byte-reproducible.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from . import dataio, theory
from .defense import DefenseConfig, apply_defense
from .errors import ConfigError
from .federation import fed_avg, fed_sgd, secure_aggregate
from .imprint import (DEFAULT_P_MIN, build_hard_threshold, build_relu,
                      fuse_one_shot, make_layout)
from .measurement import assumed_distribution, build_measurement
from .metrics import score
from .model import FrontStage, make_imprint_model
from .numerics import RngStream
from .recovery import (Readout, decoding_verified, recover_bins, select_candidates,
                       token_lookup)

# fixed subsystem stream ids: every draw a scenario makes descends from
# (master seed, one of these), so subsystems stay independent and reordering
# one never shifts another
STREAM_DATA = 1
STREAM_MEASUREMENT = 2
STREAM_IMPRINT_PERM = 3
STREAM_DECOYS = 4
STREAM_HEAD = 5
STREAM_DEFENSE = 6
STREAM_POOL = 7
STREAM_SURROGATE = 8
STREAM_TRIALS = 9

SWEEP_AXES = ("bins", "batch", "sigma", "placement")

_TOP_KEYS = ("name", "seed", "dtype", "data", "model", "federation", "defense",
             "metrics", "trials")


# -- config validation ----------------------------------------------------------

def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _section(raw, path, allowed):
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in allowed:
            _fail(f"{path}.{key}", f"unknown key (allowed: {', '.join(allowed)})")
    return raw


def _get_int(raw, key, path, default=None, *, lo=None, hi=None):
    v = raw.get(key, default)
    if v is None:
        _fail(f"{path}.{key}", "required")
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        _fail(f"{path}.{key}", f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(f"{path}.{key}", f"must be <= {hi}, got {v}")
    return v


def _get_float(raw, key, path, default=None, *, lo=None, lo_open=False):
    v = raw.get(key, default)
    if v is None:
        _fail(f"{path}.{key}", "required")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        _fail(f"{path}.{key}", f"must be finite, got {v}")
    if lo is not None and (v <= lo if lo_open else v < lo):
        _fail(f"{path}.{key}", f"must be {'>' if lo_open else '>='} {lo}, got {v}")
    return v


def _get_choice(raw, key, path, choices, default=None):
    v = raw.get(key, default)
    if v not in choices:
        _fail(f"{path}.{key}", f"expected one of {list(choices)}, got {v!r}")
    return v


def _validate_data(raw):
    kind = _get_choice(raw, "kind", "data",
                       ("synthetic_gaussian", "token_sequences", "csv"))
    if kind == "synthetic_gaussian":
        _section(raw, "data", ("kind", "n", "m", "label_classes"))
        return {"kind": kind,
                "n": _get_int(raw, "n", "data", lo=1),
                "m": _get_int(raw, "m", "data", lo=1),
                "label_classes": _get_int(raw, "label_classes", "data", 10, lo=1)}
    if kind == "token_sequences":
        _section(raw, "data", ("kind", "n_seq", "seq_len", "vocab", "embed_dim",
                               "label_classes"))
        return {"kind": kind,
                "n_seq": _get_int(raw, "n_seq", "data", lo=1),
                "seq_len": _get_int(raw, "seq_len", "data", lo=1),
                "vocab": _get_int(raw, "vocab", "data", lo=2),
                "embed_dim": _get_int(raw, "embed_dim", "data", lo=1),
                "label_classes": _get_int(raw, "label_classes", "data", 10, lo=1)}
    _section(raw, "data", ("kind", "path", "normalization", "label_classes"))
    path = raw.get("path")
    if not isinstance(path, str) or not path:
        _fail("data.path", "required (string path to a CSV file)")
    return {"kind": kind, "path": path,
            "normalization": _get_choice(raw, "normalization", "data",
                                         ("none", "standardize", "unit_interval"), "none"),
            "label_classes": _get_int(raw, "label_classes", "data", 10, lo=1)}


def _validate_model(raw):
    raw = _section(raw, "model", ("front", "measurement", "assumed", "imprint",
                                  "bridge", "bridge_dim", "head"))
    front_raw = raw.get("front", [])
    if not isinstance(front_raw, list):
        _fail("model.front", "expected a list of stages")
    front = []
    for i, st in enumerate(front_raw):
        p = f"model.front[{i}]"
        _section(st, p, ("kind", "factor"))
        kind = _get_choice(st, "kind", p, ("identity", "avg_pool"))
        factor = _get_int(st, "factor", p, 1, lo=1)
        front.append({"kind": kind, "factor": factor})

    meas_raw = _section(raw.get("measurement", {}), "model.measurement",
                        ("kind", "c0", "freq"))
    meas = {"kind": _get_choice(meas_raw, "kind", "model.measurement",
                                ("mean", "dct", "random_gaussian"), "mean")}
    c0 = meas_raw.get("c0", "auto")
    if c0 != "auto":
        if isinstance(c0, bool) or not isinstance(c0, (int, float)) \
                or not math.isfinite(float(c0)) or float(c0) == 0.0:
            _fail("model.measurement.c0", f'expected "auto" or a nonzero number, got {c0!r}')
        c0 = float(c0)
    meas["c0"] = c0
    if meas["kind"] == "dct":
        meas["freq"] = _get_int(meas_raw, "freq", "model.measurement", lo=0)
    elif "freq" in meas_raw:
        _fail("model.measurement.freq", "only valid for the dct measurement")

    assumed_raw = _section(raw.get("assumed", {}), "model.assumed",
                           ("kind", "mean", "sd", "scale", "surrogate_n"))
    akind = _get_choice(assumed_raw, "kind", "model.assumed",
                        ("normal", "laplace", "empirical"), "normal")
    assumed = {"kind": akind}
    if akind == "normal":
        assumed["mean"] = _get_float(assumed_raw, "mean", "model.assumed", 0.0)
        assumed["sd"] = _get_float(assumed_raw, "sd", "model.assumed", 1.0, lo=0.0, lo_open=True)
    elif akind == "laplace":
        assumed["mean"] = _get_float(assumed_raw, "mean", "model.assumed", 0.0)
        assumed["scale"] = _get_float(assumed_raw, "scale", "model.assumed",
                                      1.0 / math.sqrt(2.0), lo=0.0, lo_open=True)
    else:
        assumed["surrogate_n"] = _get_int(assumed_raw, "surrogate_n", "model.assumed",
                                          4096, lo=2)

    imp_raw = raw.get("imprint", {})
    variant = _get_choice(imp_raw, "variant", "model.imprint",
                          ("relu", "hard_threshold", "one_shot"))
    if variant == "one_shot":
        _section(imp_raw, "model.imprint", ("variant", "target_mass", "placement"))
        mass = imp_raw.get("target_mass")
        if mass != "1/n":
            mass = _get_float(imp_raw, "target_mass", "model.imprint")
            if not (0.0 < mass < 1.0):
                _fail("model.imprint.target_mass", f"must lie in (0, 1), got {mass}")
        placement = imp_raw.get("placement")
        if placement is not None:
            placement = _get_float(imp_raw, "placement", "model.imprint")
            if not (0.0 < placement < 1.0):
                _fail("model.imprint.placement", f"must lie in (0, 1), got {placement}")
        imprint = {"variant": variant, "target_mass": mass, "placement": placement}
    else:
        allowed = ("variant", "k", "p_min", "permute")
        if variant == "relu":
            allowed += ("decoys",)
        _section(imp_raw, "model.imprint", allowed)
        imprint = {"variant": variant,
                   "k": _get_int(imp_raw, "k", "model.imprint", lo=2),
                   "p_min": _get_float(imp_raw, "p_min", "model.imprint",
                                       DEFAULT_P_MIN, lo=0.0, lo_open=True),
                   "permute": imp_raw.get("permute", False)}
        if not isinstance(imprint["permute"], bool):
            _fail("model.imprint.permute", f"expected true or false, got {imprint['permute']!r}")
        if variant == "relu":
            imprint["decoys"] = _get_int(imp_raw, "decoys", "model.imprint", 0, lo=0)
        if imprint["p_min"] >= 1.0 / imprint["k"]:
            _fail("model.imprint.p_min", f"must be < 1/k, got {imprint['p_min']}")

    head_raw = _section(raw.get("head", {}), "model.head", ("kind", "gain", "scale"))
    hkind = _get_choice(head_raw, "kind", "model.head", ("pinned", "random"), "pinned")
    head = {"kind": hkind}
    if hkind == "pinned":
        head["gain"] = _get_float(head_raw, "gain", "model.head", 1.0, lo=0.0, lo_open=True)
    else:
        head["scale"] = _get_float(head_raw, "scale", "model.head", 1e-2, lo=0.0, lo_open=True)

    bridge = _get_choice(raw, "bridge", "model", ("sum", "identical_row_linear"), "sum")
    out = {"front": front, "measurement": meas, "assumed": assumed, "imprint": imprint,
           "bridge": bridge, "head": head}
    if bridge == "identical_row_linear":
        out["bridge_dim"] = _get_int(raw, "bridge_dim", "model", 1, lo=1)
    elif "bridge_dim" in raw:
        _fail("model.bridge_dim", "only valid for the identical_row_linear bridge")
    return out


def _validate_federation(raw):
    raw = _section(raw, "federation", ("protocol", "users", "steps", "lr"))
    protocol = _get_choice(raw, "protocol", "federation", ("fed_sgd", "fed_avg"), "fed_sgd")
    out = {"protocol": protocol, "users": _get_int(raw, "users", "federation", 1, lo=1)}
    if protocol == "fed_avg":
        out["steps"] = _get_int(raw, "steps", "federation", lo=1)
        out["lr"] = _get_float(raw, "lr", "federation", lo=0.0, lo_open=True)
    else:
        for key in ("steps", "lr"):
            if raw.get(key) is not None:
                _fail(f"federation.{key}", "only valid for the fed_avg protocol")
    return out


def _validate_defense(raw):
    raw = _section(raw, "defense", ("clip", "noise", "sigma"))
    clip = raw.get("clip")
    if clip is not None:
        clip = _get_float(raw, "clip", "defense", lo=0.0, lo_open=True)
    noise = raw.get("noise")
    if noise not in (None, "gaussian", "laplace"):
        _fail("defense.noise", f"expected gaussian, laplace or null, got {noise!r}")
    sigma = _get_float(raw, "sigma", "defense", 0.0, lo=0.0)
    if sigma > 0 and noise is None:
        _fail("defense.sigma", "sigma without a noise kind")
    return {"clip": clip, "noise": noise, "sigma": sigma}


def _validate_metrics(raw):
    raw = _section(raw, "metrics", ("pool", "rel_tol", "select", "verify_rel_tol"))
    select = raw.get("select")
    if select is not None:
        select = _get_int(raw, "select", "metrics", lo=1)
    return {"pool": _get_int(raw, "pool", "metrics", 1000, lo=0),
            "rel_tol": _get_float(raw, "rel_tol", "metrics", 1e-4, lo=0.0, lo_open=True),
            "select": select,
            "verify_rel_tol": _get_float(raw, "verify_rel_tol", "metrics", 1e-2,
                                         lo=0.0, lo_open=True)}


def _front_dim(m, front):
    """Feature width after the front chain, from the raw input width m."""
    for i, st in enumerate(front):
        try:
            m = FrontStage(st["kind"], st["factor"]).out_dim(m)
        except ValueError as exc:
            _fail(f"model.front[{i}].factor", str(exc))
    return m


def _check_batch(cfg, n):
    """Users split a batch of n evenly, and fed-AVG steps split each user's shard."""
    fed = cfg["federation"]
    if n % fed["users"] != 0:
        _fail("federation.users", f"{fed['users']} does not divide the batch size {n}")
    if fed["protocol"] == "fed_avg" and (n // fed["users"]) % fed["steps"] != 0:
        _fail("federation.steps",
              f"{fed['steps']} does not divide the per-user shard {n // fed['users']}")


def validate_config(raw: dict) -> dict:
    """Full validation; returns the canonical config with defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _section(raw, "config", _TOP_KEYS)
    name = raw.get("name", "custom")
    if not isinstance(name, str) or not name:
        _fail("name", f"expected a nonempty string, got {name!r}")
    cfg = {
        "name": name,
        "seed": _get_int(raw, "seed", "config", 0, lo=0),
        "dtype": _get_choice(raw, "dtype", "config", ("float32", "float64"), "float32"),
        "data": _validate_data(raw.get("data", {"kind": None})),
        "model": _validate_model(raw.get("model", {})),
        "federation": _validate_federation(raw.get("federation", {})),
        "defense": _validate_defense(raw.get("defense", {})),
        "metrics": _validate_metrics(raw.get("metrics", {})),
    }
    trials = raw.get("trials")
    cfg["trials"] = None if trials is None else _get_int(raw, "trials", "config", lo=1)

    # cross-field consistency
    data, model, fed = cfg["data"], cfg["model"], cfg["federation"]
    top = float(np.finfo(cfg["dtype"]).max)
    for key in ("gain", "scale"):
        if model["head"].get(key, 0.0) > top:
            _fail(f"model.head.{key}", f"must be finite in {cfg['dtype']} (at most "
                  f"{top:g}), got {model['head'][key]:g}")
    if data["kind"] == "synthetic_gaussian":
        m_feat = _front_dim(data["m"], model["front"])
    elif data["kind"] == "token_sequences":
        m_feat = _front_dim(data["seq_len"] * data["embed_dim"], model["front"])
    else:
        m_feat = None  # a CSV's width is known only once it is loaded
    if m_feat is not None and model["measurement"]["kind"] == "dct" \
            and model["measurement"]["freq"] >= m_feat:
        _fail("model.measurement.freq", f"must be < feature width {m_feat}")
    n = data.get("n", data.get("n_seq"))
    if n is not None:
        _check_batch(cfg, n)
    imprint = model["imprint"]
    if imprint["variant"] == "one_shot":
        mass = imprint["target_mass"]
        if mass == "1/n":
            if n is None:
                _fail("model.imprint.target_mass", '"1/n" needs a known batch size')
            mass = 1.0 / n
        if imprint["placement"] is not None and imprint["placement"] + mass >= 1.0:
            _fail("model.imprint.placement", f"{imprint['placement']} plus target_mass "
                  f"{mass} leaves the interval outside (0, 1)")
    if cfg["trials"] is not None:
        if imprint["variant"] != "one_shot":
            _fail("trials", "trial loops only make sense for the one_shot imprint")
        if data["kind"] != "synthetic_gaussian":
            _fail("trials", "trial loops need synthetic_gaussian data")
        if fed["users"] != 1:
            _fail("trials", "trial loops run single-user federation only")
    return cfg


# -- pipeline -------------------------------------------------------------------

@dataclass(eq=False)
class ScenarioResult:
    report: dict
    artifacts: dict


def _load_batch(cfg, dtype, data_stream):
    data = cfg["data"]
    if data["kind"] == "synthetic_gaussian":
        return dataio.load_synthetic_gaussian(data["n"], data["m"],
                                              label_classes=data["label_classes"],
                                              stream=data_stream, dtype=dtype)
    if data["kind"] == "token_sequences":
        return dataio.load_token_sequences(data["n_seq"], data["seq_len"],
                                           vocab=data["vocab"], embed_dim=data["embed_dim"],
                                           label_classes=data["label_classes"],
                                           stream=data_stream, dtype=dtype)
    try:
        batch = dataio.load_csv(data["path"], dtype=dtype,
                                normalization=data["normalization"])
    except ValueError as exc:  # the file's contents; a missing file stays a runtime error
        raise ConfigError(f"data.path: {exc}") from None
    if batch.labels is None:
        labels = data_stream.derive(3).integers(batch.n, low=0, high=data["label_classes"])
        return dataio.Batch(x=batch.x, labels=labels, normalization=batch.normalization,
                            meta=batch.meta)
    if int(batch.labels.max()) >= data["label_classes"]:
        raise ConfigError(f"data.label_classes: file holds label "
                          f"{int(batch.labels.max())}, configured {data['label_classes']}")
    return batch


def _build_attack(cfg, m_feat, n, dtype):
    """Measurement, assumed distribution, imprint module and model."""
    seed = cfg["seed"]
    model_cfg = cfg["model"]
    meas_cfg = model_cfg["measurement"]
    h = build_measurement(meas_cfg["kind"], m_feat, c0=meas_cfg["c0"],
                          freq=meas_cfg.get("freq"),
                          stream=RngStream(seed, STREAM_MEASUREMENT))
    assumed = model_cfg["assumed"]
    surrogate = None
    if assumed["kind"] == "empirical":
        surrogate = RngStream(seed, STREAM_SURROGATE).normal(
            (assumed["surrogate_n"], m_feat))
    dist = assumed_distribution(h, assumed, surrogate=surrogate)

    imp_cfg = model_cfg["imprint"]
    if imp_cfg["variant"] == "one_shot":
        mass = imp_cfg["target_mass"]
        if mass == "1/n":
            mass = 1.0 / n
        imp = fuse_one_shot(dist, h, mass, placement=imp_cfg["placement"], dtype=dtype)
    else:
        layout = make_layout(dist, imp_cfg["k"], p_min=imp_cfg["p_min"])
        perm_stream = RngStream(seed, STREAM_IMPRINT_PERM) if imp_cfg["permute"] else None
        if imp_cfg["variant"] == "relu":
            imp = build_relu(layout, h, decoys=imp_cfg["decoys"], perm_stream=perm_stream,
                             decoy_stream=RngStream(seed, STREAM_DECOYS), dtype=dtype)
        else:
            imp = build_hard_threshold(layout, h, perm_stream=perm_stream, dtype=dtype)

    stages = tuple(FrontStage(st["kind"], st["factor"]) for st in model_cfg["front"])
    head = model_cfg["head"]
    model = make_imprint_model(
        imp, label_classes=cfg["data"]["label_classes"], bridge=model_cfg["bridge"],
        bridge_dim=model_cfg.get("bridge_dim", 1), head=head["kind"],
        gain=head.get("gain", 1.0), head_stream=RngStream(seed, STREAM_HEAD),
        head_scale=head.get("scale", 1e-2), stages=stages, dtype=dtype)
    return imp, model


def _federate(cfg, model, x, labels, defense_base: RngStream):
    """Per-user payloads -> defense -> secure aggregation."""
    fed = cfg["federation"]
    users = fed["users"]
    shard = x.shape[0] // users
    dconf = DefenseConfig(clip=cfg["defense"]["clip"], noise=cfg["defense"]["noise"],
                          sigma=cfg["defense"]["sigma"])
    payloads, losses, logs = [], [], []
    for u in range(users):
        sl = slice(u * shard, (u + 1) * shard)
        if fed["protocol"] == "fed_sgd":
            loss, payload = fed_sgd(model, x[sl], labels[sl])
            losses.append(loss)
        else:
            payload, log = fed_avg(model, x[sl], labels[sl], steps=fed["steps"],
                                   lr=fed["lr"], record=True)
            logs.append(log)
            losses.extend(entry["loss"] for entry in log)
        payloads.append(apply_defense(payload, dconf, defense_base.derive(u)))
    return secure_aggregate(payloads), losses, logs


@dataclass(eq=False)
class _Round:
    """One batch through the attack: what the imprint layer saw, where the
    examples fell, and what the server read back from the update."""

    feats: np.ndarray
    bins: np.ndarray    # bin of each example by its measurement; -1 below range
    counts: np.ndarray  # examples per bin
    readout: Readout
    losses: list
    logs: list          # per-user fed-AVG step logs; empty under fed-SGD


def _round(cfg, imp, model, batch, defense_base: RngStream) -> _Round:
    feats = model.forward_features(batch.x)
    bins = imp.layout.bin_of(imp.measurement.measure(feats))
    counts = np.bincount(bins[bins >= 0], minlength=imp.k)
    agg, losses, logs = _federate(cfg, model, batch.x, batch.labels, defense_base)
    return _Round(feats, bins, counts, recover_bins(agg, imp), losses, logs)


def _theory_block(imp, model, n, m_feat):
    k = imp.k
    block = {"iid_expected": theory.iid_expected(n, k)}
    try:
        block["prop1_expected"] = theory.prop1_closed_form(n, k)
    except ValueError:
        block["prop1_expected"] = None
    if imp.fused_mass is not None:
        block["one_shot_success"] = theory.one_shot_success(n, imp.fused_mass)
    bridge = model.params.get("bridge.weight")
    over = theory.overhead(m_feat, k, decoys=len(imp.decoy_rows),
                           bridge_params=0 if bridge is None else int(bridge.size),
                           base_params=model.param_count())
    block["overhead_params"] = over["absolute"]
    block["overhead_relative"] = over["relative"]
    return block


def _unit_transform(feats64):
    lo = float(feats64.min())
    hi = float(feats64.max())
    if hi <= lo:
        return lambda v: v, lo, hi
    return lambda v: (v - lo) / (hi - lo), lo, hi


def _round_report(cfg, model, batch, rnd: _Round) -> dict:
    """Occupancy, federation and recovery blocks (plus tokens) of a plain run."""
    counts, bins = rnd.counts, rnd.bins
    singleton_bins = [int(b) for b in np.flatnonzero(counts == 1)]
    selected = select_candidates(rnd.readout, cfg["metrics"]["select"] or batch.n)

    feats64 = np.asarray(rnd.feats, dtype=np.float64)
    pool = _draw_pool(cfg, model, batch)
    tf, lo, hi = _unit_transform(feats64)
    rep = score(selected.vectors, feats64,
                pool=pool, peak=1.0, rel_tol=cfg["metrics"]["rel_tol"],
                psnr_transform=tf) if selected else None
    exact_bins = [] if rep is None else sorted(selected.bins[rep.exact].tolist())

    fed = cfg["federation"]
    fed_block = {"protocol": fed["protocol"], "users": fed["users"],
                 "mean_loss": float(np.mean(rnd.losses))}
    if rnd.logs:
        fed_block["steps"] = fed["steps"]
        fed_block["lr"] = fed["lr"]
        fed_block["drift_pre_bound"] = _drift_bound(fed["lr"], rnd.logs)

    blocks = {
        "occupancy": {
            "k": len(counts),
            "singletons": len(singleton_bins),
            "singleton_bins": singleton_bins,
            "empty": int((counts == 0).sum()),
            "collisions": int((counts >= 2).sum()),
            "max_count": int(counts.max()),
            "below_range": int((bins < 0).sum()),
        },
        "federation": fed_block,
        "recovery": {
            "n_candidates": len(rnd.readout),
            "n_selected": len(selected),
            "exact_count": len(exact_bins),
            "exact_fraction": len(exact_bins) / batch.n,
            "exact_bins": exact_bins,
            "singleton_match": exact_bins == singleton_bins,
            "mean_psnr": rep.mean_psnr if rep else None,
            "mean_psnr_exact": float(np.mean(rep.psnr[rep.exact])) if exact_bins else None,
            "iip": rep.iip if rep else 0.0,
            "psnr_scale": {"lo": lo, "hi": hi},
        },
    }
    if batch.meta.get("table") is not None:
        blocks["tokens"] = _token_block(cfg, batch, selected, rep)
    return blocks


def _drift_bound(lr, logs):
    """Upper bound on how far any pre-activation can drift over local training:
    lr * sum_steps ||dL/da||_1,max * (||x||_max^2 + 1), from the logged stats."""
    worst = 0.0
    for log in logs:
        x_max = max((e["x_norm_max"] for e in log), default=0.0)
        bound = lr * sum(e["da_abs_sum_max"] * (e["x_norm_max"] * x_max + 1.0) for e in log)
        worst = max(worst, bound)
    return worst


def _draw_pool(cfg, model, batch):
    p = cfg["metrics"]["pool"]
    if p == 0:
        return None
    stream = RngStream(cfg["seed"], STREAM_POOL)
    dtype = np.dtype(cfg["dtype"])
    data = cfg["data"]
    if data["kind"] == "token_sequences":
        table = batch.meta["table"]
        ids = stream.integers((p, data["seq_len"]), low=0, high=data["vocab"])
        raw = np.asarray(table, dtype=dtype)[ids].reshape(p, -1)
    else:
        raw = stream.normal((p, batch.m), dtype=dtype)
    return np.asarray(model.forward_features(raw), dtype=np.float64)


def _token_block(cfg, batch, selected, rep):
    # one float64 table and one set of row norms for every decoded row
    table = np.asarray(batch.meta["table"], dtype=np.float64)
    table_sq = (table * table).sum(axis=1)
    seq_len = batch.meta["seq_len"]
    truth_ids = batch.meta["ids"]
    total = int(truth_ids.size)
    correct = 0
    verified = 0
    if rep is not None:
        for vector, row in zip(selected.vectors, rep.truth_row):
            ids = token_lookup(vector, table, seq_len, table_sq=table_sq)
            if decoding_verified(vector, ids, table,
                                 rel_tol=cfg["metrics"]["verify_rel_tol"]):
                verified += 1
                correct += int((ids == truth_ids[row]).sum())
    return {
        "total_tokens": total,
        "correct_tokens": correct,
        "token_accuracy": correct / total,
        "verified_candidates": verified,
    }


def _trial_record(t, rnd: _Round, rel_tol):
    """A trial succeeds when the trap bin (bin 0) reads out one of its own
    members to within rel_tol."""
    readout = rnd.readout
    read_out = bool(len(readout) and readout.bins[0] == 0)  # bins ascend
    members = np.asarray(rnd.feats[rnd.bins == 0], dtype=np.float64)
    rel_err = None
    if read_out and len(members):
        dist2 = ((members - readout.vectors[0]) ** 2).sum(axis=1)
        j = int(dist2.argmin())
        norm = float(np.linalg.norm(members[j]))
        rel_err = float(math.sqrt(dist2[j])) / norm if norm > 0 else float("inf")
    return {"trial": t, "trap_count": int(rnd.counts[0]), "read_out": read_out,
            "rel_err": rel_err, "success": rel_err is not None and rel_err <= rel_tol}


def _trials_block(records, imp, expected_success):
    n_trials = len(records)
    successes = sum(r["success"] for r in records)
    success_errs = [r["rel_err"] for r in records if r["success"]]
    return {
        "n_trials": n_trials,
        "successes": int(successes),
        "success_rate": successes / n_trials,
        "expected_success": expected_success,
        "fused_mass": imp.fused_mass,
        "singleton_trials": int(sum(r["trap_count"] == 1 for r in records)),
        "max_success_rel_err": max(success_errs) if success_errs else None,
        "mean_trap_count": float(np.mean([r["trap_count"] for r in records])),
    }


def run_scenario(raw_cfg: dict, *, seed: int | None = None,
                 use_float64: bool = False) -> ScenarioResult:
    """Validate, run, and score one scenario end to end.

    A plain run is one round on the data stream. A trial run (the one-shot
    trap) is one round per trial on a fresh batch against the same model,
    each reduced to its trial record.
    """
    t0 = time.perf_counter()
    raw_cfg = dict(raw_cfg)
    if seed is not None:
        raw_cfg["seed"] = seed
    if use_float64:
        raw_cfg["dtype"] = "float64"
    cfg = validate_config(raw_cfg)
    seed = cfg["seed"]
    dtype = np.dtype(cfg["dtype"])
    trials = cfg["trials"]
    if trials is None:
        batch = _load_batch(cfg, dtype, RngStream(seed, STREAM_DATA))
        _check_batch(cfg, batch.n)
        n, m = batch.n, batch.m
    else:
        n, m = cfg["data"]["n"], cfg["data"]["m"]
    m_feat = _front_dim(m, cfg["model"]["front"])
    imp, model = _build_attack(cfg, m_feat, n, dtype)
    theory_block = _theory_block(imp, model, n, m_feat)
    report = {"config": cfg, "n": n, "m_features": m_feat}
    artifacts = {"model": model, "imprint": imp}

    if trials is None:
        rnd = _round(cfg, imp, model, batch, RngStream(seed, STREAM_DEFENSE))
        report.update(_round_report(cfg, model, batch, rnd))
        artifacts.update(batch=batch, feats=rnd.feats, candidates=rnd.readout,
                         occupancy_counts=rnd.counts)
    else:
        trial_base = RngStream(seed, STREAM_TRIALS)
        defense_base = RngStream(seed, STREAM_DEFENSE)
        records = []
        for t in range(trials):
            rnd = _round(cfg, imp, model, _load_batch(cfg, dtype, trial_base.derive(t)),
                         defense_base.derive(t))
            records.append(_trial_record(t, rnd, cfg["metrics"]["rel_tol"]))
        report["trials"] = _trials_block(records, imp, theory_block["one_shot_success"])
        artifacts["trial_records"] = records

    report["theory"] = theory_block
    report["timing"] = {"total_s": time.perf_counter() - t0}
    return ScenarioResult(report=report, artifacts=artifacts)


# -- sweeps ----------------------------------------------------------------------

def _sweep_config(cfg, axis, value):
    out = copy.deepcopy(cfg)
    if axis == "bins":
        if out["model"]["imprint"]["variant"] == "one_shot":
            raise ConfigError("sweep.axis: bins sweep needs a binned imprint variant")
        out["model"]["imprint"]["k"] = int(value)
    elif axis == "batch":
        if out["data"]["kind"] != "synthetic_gaussian":
            raise ConfigError("sweep.axis: batch sweep needs synthetic_gaussian data")
        out["data"]["n"] = int(value)
    elif axis == "sigma":
        out["defense"]["sigma"] = float(value)
        if out["defense"]["noise"] is None:
            out["defense"]["noise"] = "laplace"
    elif axis == "placement":
        if out["model"]["imprint"]["variant"] != "one_shot":
            raise ConfigError("sweep.axis: placement sweep needs the one_shot imprint")
        out["model"]["imprint"]["target_mass"] = float(value)
    else:
        raise ConfigError(f"sweep.axis: unknown axis {axis!r}")
    return out


SWEEP_HEADER = ["axis", "value", "prop1_expected", "iid_expected", "model_gap",
                "one_shot_expected", "exact_count", "exact_fraction", "mean_psnr",
                "iip", "success_rate"]


def _sweep_row(axis, value, report):
    th = report["theory"]
    prop1 = th.get("prop1_expected")
    iid = th.get("iid_expected")
    gap = (prop1 - iid) if (prop1 is not None and iid is not None) else ""
    row = [axis, value,
           prop1 if prop1 is not None else "",
           iid if iid is not None else "",
           gap,
           th.get("one_shot_success", "")]
    if "trials" in report:
        tr = report["trials"]
        return row + [tr["successes"], tr["success_rate"], "", "", tr["success_rate"]]
    rec = report["recovery"]
    return row + [rec["exact_count"], rec["exact_fraction"],
                  rec["mean_psnr"] if rec["mean_psnr"] is not None else "",
                  rec["iip"], ""]


def sweep_scenario(raw_cfg: dict, axis: str, values, *, jobs: int = 1,
                   seed: int | None = None, use_float64: bool = False):
    """Run the scenario once per axis value; returns (header, rows, reports).

    Rows come back in input order regardless of how many worker threads run
    the points, so the CSV is reproducible for any --jobs.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis: expected one of {list(SWEEP_AXES)}, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep.values: need at least one value")
    base = validate_config(dict(raw_cfg, **({"seed": seed} if seed is not None else {}),
                                **({"dtype": "float64"} if use_float64 else {})))
    configs = [_sweep_config(base, axis, v) for v in values]

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_scenario, configs))
    else:
        results = [run_scenario(c) for c in configs]
    reports = [r.report for r in results]
    rows = [_sweep_row(axis, v, rep) for v, rep in zip(values, reports)]
    return SWEEP_HEADER, rows, reports


# -- bundled scenarios ------------------------------------------------------------

BUNDLED: dict[str, dict] = {
    "fullbatch64": {
        "name": "fullbatch64",
        "seed": 0,
        "dtype": "float32",
        "data": {"kind": "synthetic_gaussian", "n": 64, "m": 64, "label_classes": 10},
        "model": {
            "front": [],
            "measurement": {"kind": "mean", "c0": "auto"},
            "assumed": {"kind": "normal"},
            "imprint": {"variant": "relu", "k": 128, "decoys": 0, "permute": False},
            "bridge": "sum",
            "head": {"kind": "pinned", "gain": 64.0},
        },
        "federation": {"protocol": "fed_sgd", "users": 1},
        "defense": {"clip": None, "noise": None, "sigma": 0.0},
        "metrics": {"pool": 1000, "rel_tol": 1e-4},
    },
    "oneshot": {
        "name": "oneshot",
        "seed": 0,
        "dtype": "float64",
        "data": {"kind": "synthetic_gaussian", "n": 4096, "m": 32, "label_classes": 10},
        "model": {
            "front": [],
            "measurement": {"kind": "mean", "c0": "auto"},
            "assumed": {"kind": "normal"},
            "imprint": {"variant": "one_shot", "target_mass": "1/n", "placement": None},
            "bridge": "sum",
            "head": {"kind": "pinned", "gain": 1.0},
        },
        "federation": {"protocol": "fed_sgd", "users": 1},
        "defense": {"clip": None, "noise": None, "sigma": 0.0},
        "metrics": {"pool": 0, "rel_tol": 1e-4},
        "trials": 200,
    },
    "fedavg8x8": {
        "name": "fedavg8x8",
        "seed": 0,
        "dtype": "float64",
        "data": {"kind": "synthetic_gaussian", "n": 64, "m": 64, "label_classes": 10},
        "model": {
            "front": [],
            "measurement": {"kind": "mean", "c0": "auto"},
            "assumed": {"kind": "normal"},
            "imprint": {"variant": "hard_threshold", "k": 128, "permute": False},
            "bridge": "sum",
            "head": {"kind": "pinned", "gain": 1.0},
        },
        "federation": {"protocol": "fed_avg", "users": 1, "steps": 8, "lr": 1e-4},
        "defense": {"clip": None, "noise": None, "sigma": 0.0},
        "metrics": {"pool": 1000, "rel_tol": 1e-4},
    },
    "text128": {
        "name": "text128",
        "seed": 0,
        "dtype": "float32",
        "data": {"kind": "token_sequences", "n_seq": 128, "seq_len": 8, "vocab": 1000,
                 "embed_dim": 32, "label_classes": 10},
        "model": {
            "front": [],
            "measurement": {"kind": "random_gaussian", "c0": "auto"},
            "assumed": {"kind": "normal"},
            "imprint": {"variant": "relu", "k": 512, "decoys": 0, "permute": False},
            "bridge": "sum",
            "head": {"kind": "pinned", "gain": 128.0},
        },
        "federation": {"protocol": "fed_sgd", "users": 1},
        "defense": {"clip": None, "noise": None, "sigma": 0.0},
        "metrics": {"pool": 1000, "rel_tol": 1e-4, "verify_rel_tol": 1e-2},
    },
}


def bundled_config(name: str) -> dict:
    if name not in BUNDLED:
        raise ConfigError(f"scenario: unknown bundled scenario {name!r} "
                          f"(have: {', '.join(sorted(BUNDLED))})")
    return copy.deepcopy(BUNDLED[name])


def check_bundled(result: ScenarioResult) -> list[tuple[str, bool, str]]:
    """Threshold checks for `--check` mode: (label, passed, detail) per check."""
    rep = result.report
    name = rep["config"]["name"]
    checks = []
    if name == "fullbatch64":
        rec = rep["recovery"]
        checks.append(("exact set == singleton bins", rec["singleton_match"],
                       f"exact {rec['exact_count']} vs singletons "
                       f"{rep['occupancy']['singletons']}"))
        ok = rec["mean_psnr_exact"] is not None and rec["mean_psnr_exact"] >= 60.0
        checks.append(("mean PSNR over exact >= 60 dB", ok,
                       f"mean_psnr_exact={rec['mean_psnr_exact']}"))
    elif name == "oneshot":
        tr = rep["trials"]
        gap = abs(tr["success_rate"] - tr["expected_success"])
        checks.append(("success rate within 0.07 of theory", gap <= 0.07,
                       f"rate={tr['success_rate']:.4f} expected="
                       f"{tr['expected_success']:.4f}"))
        ok = tr["max_success_rel_err"] is None or tr["max_success_rel_err"] <= 1e-4
        checks.append(("every success exact to 1e-4", ok,
                       f"max_rel_err={tr['max_success_rel_err']}"))
    elif name == "fedavg8x8":
        rec = rep["recovery"]
        checks.append(("IIP >= 0.60", rec["iip"] >= 0.60, f"iip={rec['iip']:.4f}"))
    elif name == "text128":
        tok = rep["tokens"]
        sf = rep["occupancy"]["singletons"] / rep["n"]
        gap = abs(tok["token_accuracy"] - sf) * 100.0
        checks.append(("token accuracy == singleton fraction (1pp)", gap <= 1.0,
                       f"accuracy={tok['token_accuracy']:.4f} singleton_frac={sf:.4f}"))
    return checks
