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
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dataio, measurement, theory
from .defense import MAX_NOISE_SCALES, DefenseConfig, apply_defense
from .errors import ConfigError
from .federation import fed_avg, fed_sgd, secure_aggregate
from .imprint import (DEFAULT_P_MIN, build_hard_threshold, build_relu,
                      fuse_one_shot, make_layout, trap_ends)
from .measurement import assumed_distribution, build_measurement
from .metrics import EXACT_REL_TOL, ScoreReport, score
from .model import FrontStage, make_imprint_model
from .numerics import _DERIVE_SPAN, RngStream, row_blocks
from .recovery import (Readout, bin_members, decoding_verified, recover_bins,
                       select_candidates, token_lookup)

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

# trials and users each index a child stream (derive), which must stay below
# _DERIVE_SPAN - 1
_MAX_CHILDREN = _DERIVE_SPAN - 1


# -- config schema ----------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    """One config leaf. `type` is int, float, bool, str or a tuple of choices;
    `default` is ... when the leaf is required; `bounds` are comparisons such as
    "> 0, < 1"; `also` holds literal values accepted as they are; `when` is
    (sibling key, *values): the leaf exists only while that sibling holds one
    of the values."""

    path: str
    type: object
    default: object = ...
    bounds: str = ""
    also: tuple = ()
    when: tuple = ()


_BINNED = ("variant", "relu", "hard_threshold")
_ONE_SHOT = ("variant", "one_shot")

CONFIG_LEAVES = (
    Leaf("name", str, "custom"),
    Leaf("seed", int, 0, f">= 0, <= {(1 << 64) - 1}"),
    Leaf("dtype", ("float32", "float64"), "float32"),
    Leaf("data.kind", ("synthetic_gaussian", "token_sequences", "csv")),
    Leaf("data.n", int, ..., ">= 1", when=("kind", "synthetic_gaussian")),
    Leaf("data.m", int, ..., ">= 1", when=("kind", "synthetic_gaussian")),
    Leaf("data.n_seq", int, ..., ">= 1", when=("kind", "token_sequences")),
    Leaf("data.seq_len", int, ..., ">= 1", when=("kind", "token_sequences")),
    Leaf("data.vocab", int, ..., ">= 2", when=("kind", "token_sequences")),
    Leaf("data.embed_dim", int, ..., ">= 1", when=("kind", "token_sequences")),
    Leaf("data.path", str, when=("kind", "csv")),
    Leaf("data.normalization", dataio.NORMALIZATIONS, "none", when=("kind", "csv")),
    Leaf("data.label_classes", int, 10, ">= 1"),
    Leaf("model.front[].kind", ("identity", "avg_pool")),
    Leaf("model.front[].factor", int, 1, ">= 1"),
    Leaf("model.measurement.kind", measurement.KINDS, "mean"),
    Leaf("model.measurement.c0", float, "auto", "!= 0", also=("auto",)),
    Leaf("model.measurement.freq", int, ..., ">= 0", when=("kind", "dct")),
    Leaf("model.assumed.kind", ("normal", "laplace", "empirical"), "normal"),
    Leaf("model.assumed.mean", float, 0.0, when=("kind", "normal", "laplace")),
    Leaf("model.assumed.sd", float, 1.0, "> 0", when=("kind", "normal")),
    Leaf("model.assumed.scale", float, 1.0 / math.sqrt(2.0), "> 0",
         when=("kind", "laplace")),
    Leaf("model.assumed.surrogate_n", int, 4096, ">= 2", when=("kind", "empirical")),
    Leaf("model.imprint.variant", ("relu", "hard_threshold", "one_shot")),
    Leaf("model.imprint.target_mass", float, ..., "> 0, < 1", also=("1/n",), when=_ONE_SHOT),
    Leaf("model.imprint.placement", float, None, "> 0, < 1", also=(None,), when=_ONE_SHOT),
    Leaf("model.imprint.k", int, ..., ">= 2", when=_BINNED),
    Leaf("model.imprint.p_min", float, DEFAULT_P_MIN, "> 0", when=_BINNED),
    Leaf("model.imprint.permute", bool, False, when=_BINNED),
    Leaf("model.imprint.decoys", int, 0, ">= 0", when=("variant", "relu")),
    Leaf("model.bridge", ("sum", "identical_row_linear"), "sum"),
    Leaf("model.bridge_dim", int, 1, ">= 1", when=("bridge", "identical_row_linear")),
    Leaf("model.head.kind", ("pinned", "random"), "pinned"),
    Leaf("model.head.gain", float, 1.0, "> 0", when=("kind", "pinned")),
    Leaf("model.head.scale", float, 1e-2, "> 0", when=("kind", "random")),
    Leaf("federation.protocol", ("fed_sgd", "fed_avg"), "fed_sgd"),
    Leaf("federation.users", int, 1, f">= 1, <= {_MAX_CHILDREN}"),
    Leaf("federation.steps", int, ..., ">= 1", when=("protocol", "fed_avg")),
    Leaf("federation.lr", float, ..., "> 0", when=("protocol", "fed_avg")),
    Leaf("defense.clip", float, None, "> 0", also=(None,)),
    Leaf("defense.noise", ("gaussian", "laplace"), None, also=(None,)),
    Leaf("defense.sigma", float, 0.0, ">= 0"),
    Leaf("metrics.pool", int, 1000, ">= 0"),
    Leaf("metrics.rel_tol", float, EXACT_REL_TOL, "> 0"),
    Leaf("metrics.select", int, None, ">= 1", also=(None,)),
    Leaf("metrics.verify_rel_tol", float, 1e-2, "> 0"),
    Leaf("trials", int, None, f">= 1, <= {_MAX_CHILDREN}", also=(None,)),
)


def _nest(leaves) -> dict:
    """The leaves as nested objects. A "name[]" section is a list of objects:
    a one-element list holds the node that each item is checked against."""
    root: dict = {}
    for leaf in leaves:
        node = root
        *sections, key = leaf.path.split(".")
        for s in sections:
            node = node.setdefault(s[:-2], [{}])[0] if s.endswith("[]") else \
                node.setdefault(s, {})
        node[key] = leaf
    return root


_SCHEMA = _nest(CONFIG_LEAVES)

# a sweep axis is a numeric leaf outside lists, by its path or by an alias
_NUMERIC = {lf.path: lf for lf in CONFIG_LEAVES
            if lf.type in (int, float) and "[]" not in lf.path}
SWEEP_AXES = {"bins": _NUMERIC["model.imprint.k"], "batch": _NUMERIC["data.n"],
              "sigma": _NUMERIC["defense.sigma"],
              "mass": _NUMERIC["model.imprint.target_mass"], **_NUMERIC}

_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a nonempty string"}


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _leaf_value(v, leaf: Leaf, path: str):
    """One leaf's canonical value, or a ConfigError naming its path."""
    if v is ...:
        _fail(path, "required")
    if v in leaf.also:
        return v
    t = leaf.type
    if isinstance(t, tuple):
        ok = v in t
    elif t in (bool, str):
        ok = type(v) is t and v != ""
    else:
        ok = isinstance(v, (int, float) if t is float else int) and not isinstance(v, bool)
    if not ok:
        what = ["null" if a is None else f'"{a}"' for a in leaf.also]
        what.append(f"one of {list(t)}" if isinstance(t, tuple) else _EXPECTED[t])
        _fail(path, f"expected {' or '.join(what)}, got {v!r}")
    if t is float:
        try:
            v = float(v)
        except OverflowError:  # an integer past the float range reads as +-inf
            v = math.inf if v > 0 else -math.inf
        if not math.isfinite(v):
            _fail(path, f"must be finite, got {v}")
    for term in filter(None, leaf.bounds.split(", ")):
        op, bound = term.split()
        bound = t(bound)
        if not {">": v > bound, ">=": v >= bound, "<": v < bound, "<=": v <= bound,
                "!=": v != bound}[op]:
            _fail(path, f"must be {op} {bound}, got {v}")
    return v


def _walk(raw, node: dict, where: str) -> dict:
    """Check one config object against its node of the schema; returns it
    canonical. A key whose leaf does not exist under its siblings is unknown."""
    if not isinstance(raw, dict):
        _fail(where, f"expected an object, got {type(raw).__name__}")
    out = {}
    for key, spec in node.items():
        path = f"{where}.{key}"
        if isinstance(spec, Leaf):
            if not spec.when or out[spec.when[0]] in spec.when[1:]:
                out[key] = _leaf_value(raw.get(key, spec.default), spec, path)
        elif isinstance(spec, dict):  # a section is named from the root
            out[key] = _walk(raw.get(key, {}), spec, path.removeprefix("config."))
        else:
            items = raw.get(key, [])
            if not isinstance(items, list):
                _fail(path, f"expected a list, got {type(items).__name__}")
            out[key] = [_walk(item, spec[0], f"{path}[{i}]") for i, item in enumerate(items)]
    for key in raw:
        if key not in out:
            _fail(f"{where}.{key}", f"unknown key (allowed: {', '.join(out)})")
    return out


def _stages(cfg):
    """The configured front chain as FrontStage objects."""
    return tuple(FrontStage(st["kind"], st["factor"]) for st in cfg["model"]["front"])


def _feature_width(cfg, n, m):
    """The feature width after the front chain from the raw input width m, after
    the checks that need it and the batch size n."""
    for i, stage in enumerate(_stages(cfg)):
        try:
            m = stage.out_dim(m)
        except ValueError as exc:
            _fail(f"model.front[{i}].factor", str(exc))
    meas = cfg["model"]["measurement"]
    if meas["kind"] == "dct" and meas["freq"] >= m:
        _fail("model.measurement.freq", f"must be < feature width {m}")
    fed = cfg["federation"]
    if n % fed["users"] != 0:
        _fail("federation.users", f"{fed['users']} does not divide the batch size {n}")
    if fed["protocol"] == "fed_avg" and (n // fed["users"]) % fed["steps"] != 0:
        _fail("federation.steps",
              f"{fed['steps']} does not divide the per-user shard {n // fed['users']}")
    return m


def _layout_blame(assumed) -> str:
    """The leaf a degenerate layout is blamed on: a mean past the width, else the width."""
    width = "sd" if assumed["kind"] == "normal" else "scale"
    return "mean" if abs(assumed["mean"]) > assumed[width] else width


def _check_law(assumed, place):
    """Fail, naming `_layout_blame`'s leaf, when a closed-form assumed law gives
    boundaries place(law) that are not finite and strictly increasing (an
    empirical law is measured through c0, so the build checks it)."""
    if assumed["kind"] == "empirical":
        return
    try:
        with np.errstate(all="ignore"):  # an overflow shows as an infinite boundary
            ok = np.isfinite(place(assumed_distribution(None, assumed))).all()
    except ValueError:  # the boundaries are not strictly increasing
        ok = False
    if not ok:
        leaf = _layout_blame(assumed)
        _fail(f"model.assumed.{leaf}", f"{assumed[leaf]:g} gives bin boundaries that are "
              "not finite and strictly increasing")


def validate_config(raw: dict) -> dict:
    """Full validation; returns the canonical config with defaults filled in."""
    cfg = _walk(raw, _SCHEMA, "config")
    if {os.sep, os.altsep, "\0"} & set(cfg["name"]):  # the name names output files
        _fail("config.name", f"must not hold a path separator or NUL, got {cfg['name']!r}")

    # cross-field consistency
    data, model, fed = cfg["data"], cfg["model"], cfg["federation"]
    imprint = model["imprint"]
    if "p_min" in imprint and imprint["p_min"] >= 1.0 / imprint["k"]:
        _fail("model.imprint.p_min", f"must be < 1/k, got {imprint['p_min']}")
    if "k" in imprint:
        _check_law(model["assumed"], partial(make_layout, k=imprint["k"], p_min=imprint["p_min"]))
    top = float(np.finfo(cfg["dtype"]).max)
    # fed-AVG's read factor: the server reads a delta as a gradient times 1/(lr*steps)
    read = 1.0 / (fed["lr"] * fed["steps"]) if fed["protocol"] == "fed_avg" else 1.0
    if read > top:
        _fail("federation.lr", f"1/(lr*steps) must be finite in {cfg['dtype']}, got lr "
              f"{fed['lr']:g} over {fed['steps']} steps")
    for key in ("gain", "scale"):
        if model["head"].get(key, 0.0) > top:
            _fail(f"model.head.{key}", f"must be finite in {cfg['dtype']} (at most "
                  f"{top:g}), got {model['head'][key]:g}")
    sigma = cfg["defense"]["sigma"]
    if sigma > 0 and cfg["defense"]["noise"] is None:
        _fail("defense.sigma", "sigma without a noise kind")
    # the largest noise the read-out forms, in noise scales: the users' draws summed,
    # or their mean over lr*steps under fed-AVG, differenced across two ReLU rows in
    # the run dtype only in float64 (float32 rows are differenced in float64)
    reach = MAX_NOISE_SCALES * max(fed["users"], read * (2 if cfg["dtype"] == "float64" else 1))
    if sigma * reach > top:
        _fail("defense.sigma", f"must be at most {top / reach:g} in {cfg['dtype']} (the read-out "
              f"forms noise up to {reach:g} sigma), got {sigma:g}")
    n = data.get("n", data.get("n_seq"))
    if data["kind"] != "csv":  # a CSV's shape is known only once it is loaded
        m = data["m"] if "m" in data else data["seq_len"] * data["embed_dim"]
        _feature_width(cfg, n, m)
    if imprint["variant"] == "one_shot":
        mass = imprint["target_mass"]
        if mass == "1/n":
            if n is None or n == 1:  # 1/1 is past the leaf's bound "< 1"
                _fail("model.imprint.target_mass", '"1/n" needs a known batch size above 1')
            mass = 1.0 / n
        if imprint["placement"] is not None and imprint["placement"] + mass >= 1.0:
            _fail("model.imprint.placement", f"{imprint['placement']} plus target_mass "
                  f"{mass} leaves the interval outside (0, 1)")
        ends = partial(trap_ends, target_mass=mass, placement=imprint["placement"])
        try:  # the two probabilities themselves: a mass lost next to the placement
            ends(None)
        except ValueError:
            _fail("model.imprint.target_mass", f"{mass:g} gives bin boundaries that are not "
                  "finite and strictly increasing")
        _check_law(model["assumed"], ends)
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
        return dataio.Batch(x=batch.x, labels=labels, meta=batch.meta)
    if int(batch.labels.max()) >= data["label_classes"]:
        raise ConfigError(f"data.label_classes: file holds label "
                          f"{int(batch.labels.max())}, configured {data['label_classes']}")
    return batch


def _build_attack(cfg, m_feat, n, dtype, public):
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
        surrogate = public(STREAM_SURROGATE, assumed["surrogate_n"])
    imp_cfg = model_cfg["imprint"]
    with np.errstate(over="ignore", invalid="ignore"):  # past the dtype's range: named below
        try:  # closed-form layouts are validated; an empirical one is measured through c0
            dist = assumed_distribution(h, assumed, surrogate=surrogate)
            if imp_cfg["variant"] == "one_shot":
                mass = 1.0 / n if imp_cfg["target_mass"] == "1/n" else imp_cfg["target_mass"]
                imp = fuse_one_shot(dist, h, mass, placement=imp_cfg["placement"], dtype=dtype)
            else:
                bounds = make_layout(dist, imp_cfg["k"], p_min=imp_cfg["p_min"])
        except ValueError as exc:
            _fail("model.measurement.c0", f"{meas_cfg['c0']} degenerates the measured assumed "
                  f"distribution ({exc})")
        if imp_cfg["variant"] != "one_shot":
            perm_stream = RngStream(seed, STREAM_IMPRINT_PERM) if imp_cfg["permute"] else None
            if imp_cfg["variant"] == "relu":
                imp = build_relu(bounds, h, decoys=imp_cfg["decoys"], perm_stream=perm_stream,
                                 decoy_stream=RngStream(seed, STREAM_DECOYS), dtype=dtype)
            else:
                imp = build_hard_threshold(bounds, h, perm_stream=perm_stream, dtype=dtype)
        if not (np.isfinite(imp.weight).all() and np.isfinite(imp.bias).all()):
            # the measurement row itself, else the assumed boundaries or bin widths
            if np.abs(h.row()).max() > np.finfo(dtype).max or assumed["kind"] == "empirical":
                leaf, value = "measurement.c0", meas_cfg["c0"]
            else:
                key = _layout_blame(assumed)
                leaf, value = f"assumed.{key}", assumed[key]
            _fail(f"model.{leaf}", f"{value} puts imprint weights or biases past the "
                  f"{dtype} range")

    head = model_cfg["head"]
    try:
        with np.errstate(over="raise"):  # a random head's draws past the dtype's range
            model = make_imprint_model(
                imp, label_classes=cfg["data"]["label_classes"], bridge=model_cfg["bridge"],
                bridge_dim=model_cfg.get("bridge_dim"), head=head["kind"],
                gain=head.get("gain"), head_stream=RngStream(seed, STREAM_HEAD),
                head_scale=head.get("scale"), stages=_stages(cfg), dtype=dtype)
    except FloatingPointError:
        _fail("model.head.scale", f"{head['scale']:g} draws head weights past the {dtype} range")
    return imp, model


def _blame_overflow(cfg, batch, exc: FloatingPointError) -> ConfigError:
    """A federated pass left the run dtype's range: blame the largest factor it
    multiplies by, among a set (not "auto") |c0|, the head's gain or scale,
    fed-AVG's lr, a CSV batch's largest |value| (named data.path) and a
    closed-form assumed law's `_layout_blame` leaf, whose boundaries are the
    imprint's biases, at its magnitude; ties go to the first."""
    c0, assumed = cfg["model"]["measurement"]["c0"], cfg["model"]["assumed"]
    factors = {f"model.head.{k}": v for k, v in cfg["model"]["head"].items() if k != "kind"}
    factors.update({"model.measurement.c0": 0.0 if c0 == "auto" else abs(c0),
                    "federation.lr": cfg["federation"].get("lr", 0.0),
                    "data.path": np.abs(batch.x).max() if cfg["data"]["kind"] == "csv" else 0.0})
    if assumed["kind"] != "empirical":
        leaf = _layout_blame(assumed)
        factors[f"model.assumed.{leaf}"] = abs(assumed[leaf])
    leaf = max(factors, key=factors.get)
    return ConfigError(f"{leaf}: {factors[leaf]:g} is the largest factor of a federated pass "
                       f"that left the {cfg['dtype']} range ({exc})")


def _federate(cfg, model, imp, batch, defense_base: RngStream):
    """Per-user payloads -> defense -> secure aggregation, the (examples, bins)
    membership of each user's pass (fed-AVG's covers its local steps) and
    fed-AVG's `_drifted` count. Users' passes run one at a time as
    `secure_aggregate` pulls them, so a round holds the running sum plus one
    user's pass; each pass's mask and losses are reduced as it ends."""
    fed = cfg["federation"]
    shard = batch.n // fed["users"]
    dconf = DefenseConfig(**cfg["defense"])
    losses, examples, bins, drifted = [], [], [], 0

    def defended(u):  # its locals, the undefended update among them, die on return
        nonlocal drifted
        x, labels = batch.x[u * shard:(u + 1) * shard], batch.labels[u * shard:(u + 1) * shard]
        if fed["protocol"] == "fed_sgd":
            loss, payload, active = fed_sgd(model, x, labels)
            losses.append(loss)
        else:
            payload, step_losses, active = fed_avg(model, x, labels, steps=fed["steps"],
                                                   lr=fed["lr"])
            losses.extend(step_losses)
            drifted += _drifted(model, imp, x, active, fed["steps"])
        ex, b = bin_members(active, imp)
        examples.append(ex + u * shard)
        bins.append(b)
        return apply_defense(payload, dconf, defense_base.derive(u))

    try:
        with np.errstate(over="raise", invalid="raise"):
            agg = secure_aggregate(defended(u) for u in range(fed["users"]))
    except FloatingPointError as exc:
        raise _blame_overflow(cfg, batch, exc) from None
    return agg, losses, drifted, np.concatenate(examples), np.concatenate(bins)


def _drifted(model, imp, x, active, steps) -> int:
    """How many of one user's examples x sit in other bins at their own local
    step (fed_avg's mask `active`) than under the initial weights, which step 0
    ran at. An example's bins are a one-to-one function of its bin rows' masks
    (a ReLU bin is its row XOR the next one up), so those rows are compared."""
    start = len(x) // steps
    initial = model.imprint_pre(model.forward_features(x[start:]))[1]
    return int((active[start:, imp.row_of_bin] != initial[:, imp.row_of_bin]).any(axis=1).sum())


@dataclass(eq=False)
class _Round:
    """One batch through the attack, scored. `table` holds k-length columns
    indexed by bin: `count` (members), `live` (the read-out kept the bin),
    `den` and `conf` (its denominator and confidence; NaN where not live),
    `selected` (its index in the selected read-out), `row` (the paired truth
    row; both -1 where not selected), `rel_err` (NaN where not selected),
    `exact` and `spurious` (selected, with no member)."""

    feats: np.ndarray
    examples: np.ndarray  # example of each (example, bin) pair, by bin_members
    readout: Readout      # the selected read-out
    losses: list
    drifted: int          # by `_drifted`; 0 under fed-SGD
    table: dict
    score: ScoreReport    # indexed like the selected read-out
    psnr_scale: dict | None  # the features' range PSNR is quoted over; None in a trial


def _columns(k, bins, **columns) -> dict:
    """Table columns: each (values, fill) as a k-length array, values at bins."""
    out = {}
    for key, (values, fill) in columns.items():
        out[key] = np.full(k, fill, dtype=np.result_type(values, fill))
        out[key][bins] = values
    return out


def _round(cfg, imp, model, batch, defense_base: RngStream) -> _Round:
    feats = model.forward_features(batch.x)
    agg, losses, drifted, examples, bins = _federate(cfg, model, imp, batch, defense_base)
    live = recover_bins(agg, imp)
    del agg  # the update and the live read-out are freed before scoring builds its arrays
    sel = select_candidates(live, cfg["metrics"]["select"] or batch.n)
    table = {"count": np.bincount(bins, minlength=imp.k),
             **_columns(imp.k, live.bins, live=(True, False), den=(live.denominators, np.nan),
                        conf=(live.confidences, np.nan)),
             **_columns(imp.k, sel.bins, selected=(np.arange(len(sel)), -1))}
    del live
    pool = tf = scale = None
    if not cfg["trials"]:  # a trial's record holds neither IIP nor PSNR
        pool = partial(_draw_pool, cfg, batch.m, batch.meta.get("table"), STREAM_POOL,
                       cfg["metrics"]["pool"])  # score draws it once truth is freed
        lo, hi = float(feats.min()), float(feats.max())
        tf = (lambda v: (v - lo) / (hi - lo)) if hi > lo else None
        scale = {"lo": lo, "hi": hi}
    cand = table["selected"][bins]  # each (example, bin) pair's candidate, or -1
    rep = score(sel.vectors, feats, (cand[cand >= 0], examples[cand >= 0]), pool=pool,
                rel_tol=cfg["metrics"]["rel_tol"], psnr_transform=tf)
    table.update(_columns(imp.k, sel.bins, row=(rep.truth_row, -1),
                          rel_err=(rep.rel_err, np.nan), exact=(rep.exact, False),
                          spurious=(rep.spurious, False)))
    return _Round(feats, examples, sel, losses, drifted, table, rep, scale)


def _theory_block(imp, model, n, m_feat):
    k = imp.k
    # the one-shot trap's two bins are not equiprobable: one_shot_success predicts it
    block = {"iid_expected": None if imp.fused_mass else theory.iid_expected(n, k)}
    try:
        block["prop1_expected"] = theory.prop1_closed_form(n, k)
    except ValueError:
        block["prop1_expected"] = None
    if imp.fused_mass is not None:
        block["one_shot_success"] = theory.one_shot_success(n, imp.fused_mass)
    bridge = model.params.get("bridge.weight")
    block["overhead_params"] = theory.overhead(
        m_feat, k, decoys=len(imp.decoy_rows),
        bridge_params=0 if bridge is None else int(bridge.size))
    return block


def _round_report(cfg, batch, rnd: _Round) -> dict:
    """Occupancy, federation and recovery blocks (plus tokens) of a plain run,
    reduced from the round's table."""
    table, rep = rnd.table, rnd.score
    counts = table["count"]
    singleton_bins = np.flatnonzero(counts == 1).tolist()
    exact_bins = np.flatnonzero(table["exact"]).tolist()
    n_selected = int((table["selected"] >= 0).sum())

    fed = cfg["federation"]
    fed_block = dict(fed, mean_loss=float(np.mean(rnd.losses)))  # steps and lr under fed-AVG
    if fed["protocol"] == "fed_avg":
        fed_block["drifted"] = rnd.drifted

    blocks = {
        "occupancy": {
            "k": len(counts),
            "singletons": len(singleton_bins),
            "singleton_bins": singleton_bins,
            "empty": int((counts == 0).sum()),
            "collisions": int((counts >= 2).sum()),
            "max_count": int(counts.max()),
            "below_range": batch.n - len(np.unique(rnd.examples)),
        },
        "federation": fed_block,
        "recovery": {
            "n_candidates": int(table["live"].sum()),
            "n_selected": n_selected,
            "exact_count": len(exact_bins),
            "exact_fraction": len(exact_bins) / batch.n,
            "exact_bins": exact_bins,
            "singleton_match": exact_bins == singleton_bins,
            "spurious": int(table["spurious"].sum()),
            "mean_psnr": rep.mean_psnr if n_selected else None,
            "mean_psnr_exact": float(np.mean(rep.psnr[rep.exact])) if exact_bins else None,
            "iip": rep.iip,
            "psnr_scale": rnd.psnr_scale,
        },
    }
    if batch.meta.get("table") is not None:
        blocks["tokens"] = _token_block(cfg, batch, rnd.readout, rep)
    return blocks


def _draw_pool(cfg, m, table, stream_id, rows):
    """The one draw of public data, for the IIP pool and the empirical law's
    surrogate: `rows` rows from stream `stream_id`, through the front stages,
    as float64; None at 0. Rows are drawn as the batch is: N(0, 1) rows at
    input width m (a CSV file's width too), or token ids embedded through the
    batch's run-dtype `table`. Each `row_blocks` block comes from the stream's
    one generator in the run dtype, so the rows hold one whole draw's values
    and no whole draw exists in the run dtype."""
    if rows == 0:
        return None
    stream = RngStream(cfg["seed"], stream_id)
    gen = stream.generator()
    dtype = np.dtype(cfg["dtype"])
    data, stages = cfg["data"], _stages(cfg)
    out = None
    for blk in row_blocks(rows, m):
        count = blk.stop - blk.start
        if table is not None:
            ids = stream.integers((count, data["seq_len"]), low=0, high=data["vocab"], gen=gen)
            block = table[ids].reshape(count, -1)
        else:
            block = stream.normal((count, m), dtype=dtype, gen=gen)
        for stage in stages:
            block = stage.apply(block)
        if out is None:
            out = np.empty((rows, block.shape[1]))
        out[blk] = block
    return out


def _token_block(cfg, batch, selected, rep):
    # one blocked lookup decodes every selected row against one float64
    # table; the re-embedding check goes row by row, and only verified rows count
    table = np.asarray(batch.meta["table"], dtype=np.float64)
    truth_ids = batch.meta["ids"]
    total = int(truth_ids.size)
    decoded = token_lookup(selected.vectors, table, batch.meta["seq_len"])
    ok = np.array([decoding_verified(vector, ids, table, rel_tol=cfg["metrics"]["verify_rel_tol"])
                   for vector, ids in zip(selected.vectors, decoded)], dtype=bool)
    correct = int((decoded[ok] == truth_ids[rep.truth_row[ok]]).sum())
    return {
        "total_tokens": total,
        "correct_tokens": correct,
        "token_accuracy": correct / total,
        "verified_candidates": int(ok.sum()),
    }


def _trial_record(t, table):
    """A trial reads the trap bin, bin 0, of its round's table: it succeeds
    when that bin is exact."""
    rel_err = float(table["rel_err"][0])
    return {"trial": t, "trap_count": int(table["count"][0]), "read_out": bool(table["live"][0]),
            "rel_err": None if math.isnan(rel_err) else rel_err,
            "success": bool(table["exact"][0])}


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


def _resolve(raw_cfg: dict, seed: int | None) -> dict:
    """The validated config under the --seed override."""
    return validate_config(raw_cfg if seed is None else {**raw_cfg, "seed": seed})


def run_scenario(raw_cfg: dict, *, seed: int | None = None) -> ScenarioResult:
    """Validate, run, and score one scenario end to end.

    A plain run is one round on the data stream. A trial run (the one-shot
    trap) is one round per trial on a fresh batch against the same model,
    each reduced to its trial record.
    """
    t0 = time.perf_counter()
    cfg = _resolve(raw_cfg, seed)
    seed = cfg["seed"]
    dtype = np.dtype(cfg["dtype"])
    trials = cfg["trials"]
    if trials is None:
        batch = _load_batch(cfg, dtype, RngStream(seed, STREAM_DATA))
        n, m, token_table = batch.n, batch.m, batch.meta.get("table")
    else:  # synthetic only: no batch exists until a trial draws one
        n, m, token_table = cfg["data"]["n"], cfg["data"]["m"], None
    m_feat = _feature_width(cfg, n, m)
    imp, model = _build_attack(cfg, m_feat, n, dtype, partial(_draw_pool, cfg, m, token_table))
    theory_block = _theory_block(imp, model, n, m_feat)
    report = {"config": cfg, "n": n, "m_features": m_feat}
    artifacts = {"model": model, "imprint": imp}

    if trials is None:
        rnd = _round(cfg, imp, model, batch, RngStream(seed, STREAM_DEFENSE))
        report.update(_round_report(cfg, batch, rnd))
        artifacts.update(batch=batch, feats=rnd.feats, candidates=rnd.readout,
                         occupancy_counts=rnd.table["count"])
    else:
        trial_base = RngStream(seed, STREAM_TRIALS)
        defense_base = RngStream(seed, STREAM_DEFENSE)
        records = []
        for t in range(trials):  # keeping only the table frees each round before the next draw
            table = _round(cfg, imp, model, _load_batch(cfg, dtype, trial_base.derive(t)),
                           defense_base.derive(t)).table
            records.append(_trial_record(t, table))
        report["trials"] = _trials_block(records, imp, theory_block["one_shot_success"])
        artifacts["trial_records"] = records

    report["theory"] = theory_block
    report["timing"] = {"total_s": time.perf_counter() - t0}
    return ScenarioResult(report=report, artifacts=artifacts)


# -- sweeps ----------------------------------------------------------------------

def _sweep_config(cfg, axis, value):
    """The validated config with the axis's leaf set to value."""
    leaf = SWEEP_AXES[axis]
    *sections, key = leaf.path.split(".")
    out = copy.deepcopy(cfg)
    node = out
    for section in sections:
        node = node[section]
    if leaf.when and node[leaf.when[0]] not in leaf.when[1:]:
        raise ConfigError(f"sweep.axis: {axis} sweep needs "
                          f"{'.'.join([*sections, leaf.when[0]])} "
                          f"{' or '.join(leaf.when[1:])}, got {node[leaf.when[0]]}")
    node[key] = value
    if leaf.path == "defense.sigma" and node["noise"] is None:
        node["noise"] = "laplace"  # a noiseless config is swept under Laplace noise
    return validate_config(out)


SWEEP_HEADER = ["axis", "value", "prop1_expected", "iid_expected", "model_gap",
                "one_shot_expected", "exact_count", "exact_fraction", "mean_psnr",
                "iip", "success_rate"]


def _sweep_row(axis, value, report):
    th = report["theory"]
    prop1 = th.get("prop1_expected")
    iid = th.get("iid_expected")
    gap = prop1 - iid if prop1 is not None and iid is not None else None
    row = [axis, value, prop1, iid, gap, th.get("one_shot_success")]
    if "trials" in report:
        tr = report["trials"]
        return row + [tr["successes"], tr["success_rate"], None, None, tr["success_rate"]]
    rec = report["recovery"]
    return row + [rec["exact_count"], rec["exact_fraction"], rec["mean_psnr"], rec["iip"], None]


def sweep_scenario(raw_cfg: dict, axis: str, values, *, jobs: int = 1,
                   seed: int | None = None):
    """Run the scenario once per axis value; returns (header, rows, reports).

    Rows come back in input order regardless of how many worker threads run
    the points, so the CSV is reproducible for any --jobs.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis: expected bins, batch, sigma, mass or a numeric "
                          f"leaf path, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep.values: need at least one value")
    base = _resolve(raw_cfg, seed)
    configs = [_sweep_config(base, axis, v) for v in values]

    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(run_scenario, configs))
    reports = [r.report for r in results]
    rows = [_sweep_row(axis, v, rep) for v, rep in zip(values, reports)]
    return SWEEP_HEADER, rows, reports


# -- bundled scenarios ------------------------------------------------------------

# a bundle names only the leaves it sets away from their CONFIG_LEAVES defaults
BUNDLED: dict[str, dict] = {
    "fullbatch64": {
        "name": "fullbatch64",
        "data": {"kind": "synthetic_gaussian", "n": 64, "m": 64},
        "model": {"imprint": {"variant": "relu", "k": 128}, "head": {"gain": 64.0}},
    },
    "oneshot": {
        "name": "oneshot", "dtype": "float64",
        "data": {"kind": "synthetic_gaussian", "n": 4096, "m": 32},
        "model": {"imprint": {"variant": "one_shot", "target_mass": "1/n"}},
        "metrics": {"pool": 0}, "trials": 200,
    },
    "fedavg8x8": {
        "name": "fedavg8x8", "dtype": "float64",
        "data": {"kind": "synthetic_gaussian", "n": 64, "m": 64},
        "model": {"imprint": {"variant": "hard_threshold", "k": 128}},
        "federation": {"protocol": "fed_avg", "steps": 8, "lr": 1e-4},
    },
    "text128": {
        "name": "text128",
        "data": {"kind": "token_sequences", "n_seq": 128, "seq_len": 8, "vocab": 1000,
                 "embed_dim": 32},
        "model": {"measurement": {"kind": "random_gaussian"},
                  "imprint": {"variant": "relu", "k": 512}, "head": {"gain": 128.0}},
    },
}


def bundled_config(name: str) -> dict:
    """The bundle's canonical config: each leaf it omits holds its default."""
    if name not in BUNDLED:
        raise ConfigError(f"scenario: unknown bundled scenario {name!r} "
                          f"(have: {', '.join(sorted(BUNDLED))})")
    return validate_config(BUNDLED[name])


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
