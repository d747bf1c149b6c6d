import copy
import math
import os
import re
import warnings
import weakref
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imprintlab import model as model_module
from imprintlab import scenarios
from imprintlab.dataio import canonical_json, write_csv
from imprintlab.errors import ConfigError
from imprintlab.measurement import build_measurement
from imprintlab.numerics import RngStream
from imprintlab.recovery import Readout, bin_members
from imprintlab.scenarios import (BUNDLED, CONFIG_LEAVES, SWEEP_HEADER, bundled_config,
                                  check_bundled, run_scenario, sweep_scenario,
                                  validate_config)
from imprintlab.theory import one_shot_success


def _small_cfg(**over):
    cfg = {
        "name": "small",
        "seed": 1,
        "data": {"kind": "synthetic_gaussian", "n": 16, "m": 16, "label_classes": 4},
        "model": {
            "measurement": {"kind": "mean", "c0": "auto"},
            "imprint": {"variant": "relu", "k": 32},
            "head": {"kind": "pinned", "gain": 16.0},
        },
        "metrics": {"pool": 50, "rel_tol": 1e-4},
    }
    cfg.update(copy.deepcopy(over))
    return cfg


def _strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing"}


def test_validate_fills_defaults():
    cfg = validate_config(_small_cfg())
    assert cfg["dtype"] == "float32"
    assert cfg["federation"] == {"protocol": "fed_sgd", "users": 1}
    assert cfg["defense"] == {"clip": None, "noise": None, "sigma": 0.0}
    assert cfg["metrics"]["select"] is None
    assert cfg["metrics"]["verify_rel_tol"] == 1e-2
    assert cfg["model"]["imprint"]["p_min"] > 0
    assert cfg["model"]["bridge"] == "sum"
    assert cfg["model"]["assumed"] == {"kind": "normal", "mean": 0.0, "sd": 1.0}
    assert cfg["trials"] is None


@pytest.mark.parametrize("mutate,path", [
    (lambda c: c.update(bogus=1), "config.bogus"),
    (lambda c: c["model"]["imprint"].pop("k"), "model.imprint.k: required"),
    (lambda c: c["model"]["imprint"].update(k=1), "model.imprint.k: must be >= 2"),
    (lambda c: c["model"]["imprint"].update(p_min=0.5), "model.imprint.p_min"),
    (lambda c: c["data"].update(n=15), "federation.users"),
    (lambda c: c["model"]["measurement"].update(freq=3), "model.measurement.freq"),
    (lambda c: c["model"].update(bridge_dim=2), "model.bridge_dim"),
    (lambda c: c.update(seed=-1), "config.seed"),
    (lambda c: c.update(seed=1 << 64), "config.seed: must be <= 18446744073709551615"),
    (lambda c: c.update(trials=1 << 20), "config.trials: must be <= 1048575"),
    (lambda c: c["federation"].update(users=1 << 20), "federation.users: must be <= 1048575"),
    (lambda c: c.update(name=""), "name"),
    (lambda c: c.update(name="a/b"), "config.name: must not hold a path separator or NUL"),
    (lambda c: c["model"]["head"].update(kind="huge"), "model.head.kind"),
    (lambda c: c["model"]["head"].update(gain=1e39), "model.head.gain: must be finite"),
    (lambda c: c["model"].update(head={"kind": "random", "scale": 1e39}),
     "model.head.scale: must be finite"),
    (lambda c: c["defense"].update(sigma=0.1), "defense.sigma"),
    (lambda c: c["federation"].update(lr=0.1), "federation.lr"),
    (lambda c: c.update(trials=5), "trials"),
    (lambda c: (c.update(trials=3), c["model"].update(imprint={"variant": "one_shot",
                                                                 "target_mass": "1/n"})),
     "trials: trial loops run single-user federation only"),
    (lambda c: (c.update(trials=3, data={"kind": "token_sequences", "n_seq": 8, "seq_len": 2,
                                         "vocab": 8, "embed_dim": 4}),
                c["federation"].update(users=1),
                c["model"].update(imprint={"variant": "one_shot", "target_mass": "1/n"})),
     "trials: trial loops need synthetic_gaussian data"),
    (lambda c: c["data"].update(kind="images"), "data.kind"),
    (lambda c: c["model"]["measurement"].update(c0=0.0), "model.measurement.c0"),
    (lambda c: c["model"]["imprint"].update(permute="no"), "model.imprint.permute"),
    (lambda c: c["model"].update(imprint={"variant": "one_shot", "target_mass": 0.2,
                                          "placement": 0.9}), "model.imprint.placement"),
    (lambda c: c["model"].update(imprint={"variant": "one_shot", "target_mass": "1/n",
                                          "placement": 0.95}), "model.imprint.placement"),
    # "1/n" of a batch of 1 is a mass of 1, past the schema's own bound
    (lambda c: (c["data"].update(n=1), c["federation"].update(users=1),
                c["model"].update(imprint={"variant": "one_shot", "target_mass": "1/n"})),
     "model.imprint.target_mass: \"1/n\" needs a known batch size above 1"),
    (lambda c: (c["data"].update(n=1), c["federation"].update(users=1), c.update(trials=3),
                c["model"].update(imprint={"variant": "one_shot", "target_mass": "1/n"})),
     "model.imprint.target_mass"),
    (lambda c: (c.update(data={"kind": "token_sequences", "n_seq": 1, "seq_len": 2,
                               "vocab": 8, "embed_dim": 4}),
                c["federation"].update(users=1),
                c["model"].update(imprint={"variant": "one_shot", "target_mass": "1/n"})),
     "model.imprint.target_mass"),
    (lambda c: c["defense"].update(clip=10 ** 400), "defense.clip: must be finite, got inf"),
    (lambda c: c["defense"].update(clip=-10 ** 400), "defense.clip: must be finite, got -inf"),
    (lambda c: c["defense"].update(sigma=math.nan), "defense.sigma: must be finite, got nan"),
    (lambda c: c["model"]["head"].update(gain=-math.inf),
     "model.head.gain: must be finite, got -inf"),
    (lambda c: c.update(data=3), "data: expected an object, got int"),
    (lambda c: c["model"].update(imprint=[1]), "model.imprint: expected an object, got list"),
    # a leaf of another variant is an unknown key, with the allowed list
    (lambda c: c["model"]["head"].update(scale=-7),
     r"model.head.scale: unknown key \(allowed: kind, gain\)"),
    (lambda c: c["model"].update(head={"kind": "random", "gain": 2.0}),
     r"model.head.gain: unknown key \(allowed: kind, scale\)"),
    (lambda c: c["model"].update(assumed={"kind": "empirical", "sd": -1}),
     r"model.assumed.sd: unknown key \(allowed: kind, surrogate_n\)"),
])
def test_validation_errors_name_the_field(mutate, path):
    raw = _small_cfg(federation={"protocol": "fed_sgd", "users": 2},
                     defense={})
    mutate(raw)
    with pytest.raises(ConfigError, match=path.replace("[", r"\[")):
        validate_config(raw)


def test_largest_valid_counts_still_have_child_streams():
    # validation only: a run this size is never started
    trial_cfg = bundled_config("oneshot")
    trial_cfg["trials"] = (1 << 20) - 1
    user_cfg = _small_cfg(federation={"protocol": "fed_sgd", "users": (1 << 20) - 1})
    user_cfg["data"]["n"] = (1 << 20) - 1
    seed_cfg = _small_cfg(seed=(1 << 64) - 1)
    last_trial = validate_config(trial_cfg)["trials"] - 1
    last_user = validate_config(user_cfg)["federation"]["users"] - 1
    seed = validate_config(seed_cfg)["seed"]
    for last in (last_trial, last_user):
        RngStream(seed, 9).derive(last).derive(1)


def test_validation_fed_avg_step_splitting():
    raw = _small_cfg(federation={"protocol": "fed_avg", "users": 2, "steps": 3,
                                 "lr": 1e-3})
    with pytest.raises(ConfigError, match="federation.steps"):
        validate_config(raw)  # shard of 8 not divisible by 3
    raw["federation"]["steps"] = 4
    assert validate_config(raw)["federation"]["steps"] == 4


def test_validation_fed_avg_rate_counts_the_steps():
    # 1/(lr*steps) is finite in float32 at lr 1e-39 over 8 steps, not over 1
    raw = _small_cfg(dtype="float32", federation={"protocol": "fed_avg", "users": 2,
                                                  "steps": 8, "lr": 1e-39})
    assert validate_config(raw)["federation"]["lr"] == 1e-39
    raw["federation"]["steps"] = 1
    with pytest.raises(ConfigError, match="federation.lr: 1/.lr.steps. must be finite"):
        validate_config(raw)


def test_validation_one_shot_needs_known_n(tmp_path):
    path = str(tmp_path / "d.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n0.1,0.2\n0.3,0.4\n")
    raw = _small_cfg(data={"kind": "csv", "path": path, "label_classes": 4},
                     model={"imprint": {"variant": "one_shot", "target_mass": "1/n"}})
    with pytest.raises(ConfigError, match="target_mass"):
        validate_config(raw)
    raw["model"]["imprint"]["target_mass"] = 0.25
    assert validate_config(raw)["model"]["imprint"]["target_mass"] == 0.25


_BY_PATH = {leaf.path: leaf for leaf in CONFIG_LEAVES}
# leaves that a cross-field check ties to others, drawn where every tie holds
_TIED = {
    "federation.users": st.just(1),
    "federation.steps": st.just(1),
    "model.measurement.freq": st.just(0),
    "model.front[].factor": st.just(1),
    "model.imprint.p_min": st.floats(1e-12, 1e-3),
    "model.imprint.target_mass": st.just("1/n") | st.floats(1e-6, 0.5),
    "model.imprint.placement": st.none() | st.floats(1e-6, 0.49),
    # the layout's boundaries must be finite and strictly increasing, and
    # 1/(lr*steps) finite in float32
    "model.assumed.sd": st.floats(1e-6, 1e6),
    "model.assumed.scale": st.floats(1e-6, 1e6),
    "federation.lr": st.floats(1e-30, 1e6),
    # not a tie: c0 also spans magnitudes up to 1e308, log-uniformly; past a
    # dtype's range the imprint weights or the imprint layer's reach name it
    "model.measurement.c0": st.just("auto") | st.floats(-1e6, 1e6).filter(bool) | st.builds(
        lambda sign, exp: sign * 10.0 ** exp, st.sampled_from([-1.0, 1.0]), st.floats(6, 308)),
}


def _values(leaf):
    """Values the leaf's own row accepts: its choices, literals and bounds."""
    if leaf.path in _TIED:
        return _TIED[leaf.path]
    t = leaf.type
    if isinstance(t, tuple):
        values = st.sampled_from(t)
    elif t is bool:
        values = st.booleans()
    elif t is str:  # a name may hold no path separator or NUL
        seps = "".join(filter(None, (os.sep, os.altsep, "\0")))
        values = st.text(st.characters(exclude_characters=seps), min_size=1, max_size=6)
    else:
        kw = {"min_value": -1e6}
        for term in filter(None, leaf.bounds.split(", ")):
            op, bound = term.split()
            if op != "!=":
                side = "min" if op[0] == ">" else "max"
                kw[f"{side}_value"] = t(bound)
                kw[f"exclude_{side}"] = len(op) == 1
        lo = kw["min_value"]
        if t is int:  # small sizes keep every draw cheap to check
            values = st.integers(lo, min(kw.get("max_value", lo + 64), lo + 64))
        else:
            kw.setdefault("max_value", lo + 2e6)
            values = st.floats(**kw).filter(lambda v: "!=" not in leaf.bounds or v != 0)
    return st.sampled_from(leaf.also) | values if leaf.also else values


@st.composite
def _configs(draw):
    """A valid raw config, drawn leaf by leaf from the schema; a leaf with a
    default is left out half the time."""
    raw = {}
    stages = [{} for _ in range(draw(st.integers(0, 2)))]
    for leaf in CONFIG_LEAVES:
        *sections, key = leaf.path.split(".")
        nodes = [raw]
        for section in sections:
            if section.endswith("[]"):
                nodes[0][section[:-2]] = stages
                nodes = stages
            else:
                nodes = [node.setdefault(section, {}) for node in nodes]
        for node in nodes:
            if leaf.when:
                sibling = _BY_PATH[".".join([*sections, leaf.when[0]])]
                if node.get(leaf.when[0], sibling.default) not in leaf.when[1:]:
                    continue
            if leaf.default is ... or draw(st.booleans()):
                node[key] = draw(_values(leaf))
    # the remaining ties span sections
    data, imprint, defense = raw["data"], raw["model"]["imprint"], raw["defense"]
    if data.get("n", data.get("n_seq")) in (None, 1) and imprint.get("target_mass") == "1/n":
        imprint["target_mass"] = 0.25
    if defense.get("noise") is None:
        defense.pop("sigma", None)
    if imprint["variant"] != "one_shot" or data["kind"] != "synthetic_gaussian":
        raw.pop("trials", None)
    # the factors the federated pass multiplies by also reach within 12 decades
    # of the run dtype's top, where the pass may leave its range
    fed, head = raw["federation"], raw["model"]["head"]
    factors = [(raw["model"]["measurement"], "c0"),
               (head, "scale" if head.get("kind") == "random" else "gain")]
    if "lr" in fed:
        factors.append((fed, "lr"))
    top = float(np.finfo(raw.get("dtype", "float32")).max)
    for node, key in factors:
        if draw(st.integers(0, 3)) == 0:
            node[key] = top / 10.0 ** draw(st.floats(0, 12))
    return raw


def _out_of_row(leaf):
    """A value of the wrong type, and the first value past each bound."""
    bad = [[]]
    for term in filter(None, leaf.bounds.split(", ")):
        op, bound = term.split()
        bound = leaf.type(bound)
        bad.append({">=": bound - 1, ">": bound, "<=": bound + 1, "<": bound,
                    "!=": bound}[op])
    return bad


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=_configs(), data=st.data())
def test_schema_is_idempotent_and_names_every_bad_leaf(raw, data):
    cfg = validate_config(raw)
    assert validate_config(copy.deepcopy(cfg)) == cfg
    for leaf in CONFIG_LEAVES:
        bad = copy.deepcopy(cfg)
        node = bad
        *sections, key = leaf.path.split(".")
        for section in sections:  # a list leaf is tried on the first stage
            node = (node[section[:-2]] or [{}])[0] if section.endswith("[]") else node[section]
        if key not in node:
            continue  # the leaf does not exist in this config
        node[key] = data.draw(st.sampled_from(_out_of_row(leaf)), label=leaf.path)
        with pytest.raises(ConfigError) as exc:
            validate_config(bad)
        where = leaf.path.replace("[]", "[0]") if sections else f"config.{key}"
        assert str(exc.value).startswith(f"{where}: "), str(exc.value)


@pytest.fixture(scope="module")
def _csv_path(tmp_path_factory):
    """A small labelled CSV for the csv draws of `_configs`."""
    path = tmp_path_factory.mktemp("csv") / "batch.csv"
    x = RngStream(7, 0).normal((8, 6))
    with open(path, "w", newline="") as fh:
        write_csv(fh, [f"f{j}" for j in range(6)] + ["label"],
                  [[*row, i % 2] for i, row in enumerate(x.tolist())])
    return str(path)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(raw=_configs())
def test_every_drawn_config_fails_at_a_leaf_or_runs_clean(raw, _csv_path):
    """Bad input fails at a leaf: the run (its validation and its federated
    pass included) rejects the draw naming a leaf, or returns a report that
    strict JSON can write, with no RuntimeWarning."""
    if raw["data"]["kind"] == "csv":
        raw["data"]["path"] = _csv_path
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = run_scenario(raw).report
        except ConfigError as exc:
            where = str(exc).split(": ")[0].removeprefix("config.")
            assert re.sub(r"\[\d+\]", "[]", where) in _BY_PATH, str(exc)
            return
    canonical_json(report)


def test_fullbatch_report_structure():
    res = run_scenario(_small_cfg())
    rep = res.report
    assert list(rep)[-1] == "timing"
    assert set(rep) == {"config", "n", "m_features", "occupancy", "federation",
                        "recovery", "theory", "timing"}
    occ = rep["occupancy"]
    assert occ["singletons"] + occ["empty"] + occ["collisions"] <= occ["k"]
    counts = res.artifacts["occupancy_counts"]
    assert counts.sum() + occ["below_range"] == rep["n"]
    rec = rep["recovery"]
    assert rec["exact_count"] == len(rec["exact_bins"])
    assert rec["singleton_match"] == (rec["exact_bins"] == occ["singleton_bins"])
    assert 0.0 <= rec["iip"] <= 1.0
    assert rep["theory"]["overhead_params"] == 32 * (16 + 1)
    # the block's count is the one overhead figure: a relative one needs the carrier's
    assert set(rep["theory"]) == {"iid_expected", "prop1_expected", "overhead_params"}
    assert rep["config"] == validate_config(_small_cfg())
    # artifacts expose the live objects
    assert res.artifacts["model"].params["imprint.weight"].shape == (32, 16)
    assert len(res.artifacts["candidates"]) == rec["n_selected"]


def test_live_readout_is_freed_before_scoring(monkeypatch):
    live, scored = [], []
    real_select, real_score = scenarios.select_candidates, scenarios.score

    def select(readout, n):
        live.append(weakref.ref(readout))
        return real_select(readout, n)

    def score(*args, **kwargs):
        scored.append(live[0]() is None)
        return real_score(*args, **kwargs)

    monkeypatch.setattr(scenarios, "select_candidates", select)
    monkeypatch.setattr(scenarios, "score", score)
    run_scenario(bundled_config("fullbatch64"))
    assert scored == [True]


@pytest.mark.parametrize("name", ["fullbatch64", "text128"])
def test_empty_readout_scores_nothing(monkeypatch, name):
    def recover_nothing(payload, imp):  # as a read-out with no live row returns
        m = imp.weight.shape[1]
        return Readout(bins=np.zeros(0, dtype=np.int64), vectors=np.zeros((0, m)),
                       denominators=np.zeros(0), confidences=np.zeros(0))

    monkeypatch.setattr(scenarios, "recover_bins", recover_nothing)
    rep = run_scenario(bundled_config(name)).report
    rec = rep["recovery"]
    assert (rec["n_candidates"], rec["n_selected"], rec["exact_bins"]) == (0, 0, [])
    assert (rec["spurious"], rec["iip"]) == (0, 0.0)
    assert rec["mean_psnr"] is None and rec["mean_psnr_exact"] is None
    if name == "text128":
        tokens = rep["tokens"]
        assert tokens["correct_tokens"] == tokens["verified_candidates"] == 0
        assert tokens["token_accuracy"] == 0.0 and tokens["total_tokens"] > 0


@pytest.mark.parametrize("federation", [
    {"protocol": "fed_sgd", "users": 4},
    {"protocol": "fed_avg", "users": 2, "steps": 4, "lr": 1e-4},
])
def test_occupancy_counts_every_example_once_across_users_and_steps(federation):
    res = run_scenario(_small_cfg(dtype="float64", federation=federation))
    occ, rec = res.report["occupancy"], res.report["recovery"]
    assert res.artifacts["occupancy_counts"].sum() + occ["below_range"] == res.report["n"]
    assert rec["singleton_match"]


def test_reports_byte_identical_across_runs():
    a = run_scenario(_small_cfg())
    b = run_scenario(_small_cfg())
    assert canonical_json(_strip_timing(a.report)) == canonical_json(_strip_timing(b.report))
    assert "timing" in a.report and "total_s" in a.report["timing"]


def test_seed_and_dtype_overrides_are_echoed():
    res = run_scenario(_small_cfg(dtype="float64"), seed=7)
    assert res.report["config"]["seed"] == 7
    assert res.report["config"]["dtype"] == "float64"
    assert res.artifacts["model"].params["imprint.weight"].dtype == np.float64
    # a different seed draws a different batch
    other = run_scenario(_small_cfg(dtype="float64"), seed=8)
    assert not np.array_equal(res.artifacts["batch"].x, other.artifacts["batch"].x)


def test_sweep_rows_independent_of_jobs():
    header, rows1, reports1 = sweep_scenario(_small_cfg(), "bins", [8, 16, 24], jobs=1)
    header4, rows4, reports4 = sweep_scenario(_small_cfg(), "bins", [8, 16, 24], jobs=4)
    assert header == SWEEP_HEADER == header4
    assert rows1 == rows4
    assert [r["config"]["model"]["imprint"]["k"] for r in reports1] == [8, 16, 24]
    for ra, rb in zip(reports1, reports4):
        assert canonical_json(_strip_timing(ra)) == canonical_json(_strip_timing(rb))
    # bins column drives recovery; values echo the axis
    assert [r[0] for r in rows1] == ["bins"] * 3
    assert [r[1] for r in rows1] == [8, 16, 24]


def test_sweep_axis_validation():
    with pytest.raises(ConfigError, match="sweep.axis"):
        sweep_scenario(_small_cfg(), "gain", [1, 2])
    with pytest.raises(ConfigError, match="sweep.values"):
        sweep_scenario(_small_cfg(), "bins", [])
    one_shot = _small_cfg(model={"imprint": {"variant": "one_shot",
                                             "target_mass": 0.1}})
    with pytest.raises(ConfigError, match="bins sweep"):
        sweep_scenario(one_shot, "bins", [4])
    with pytest.raises(ConfigError, match="mass sweep"):
        sweep_scenario(_small_cfg(), "mass", [0.1])


def test_sweep_by_leaf_path_matches_its_alias():
    _, by_alias, _ = sweep_scenario(_small_cfg(), "bins", [8, 16])
    _, by_path, _ = sweep_scenario(_small_cfg(), "model.imprint.k", [8, 16])
    assert [r[0] for r in by_path] == ["model.imprint.k"] * 2
    assert [r[1:] for r in by_path] == [r[1:] for r in by_alias]
    # sigma keeps its Laplace default under either name
    _, _, reports = sweep_scenario(_small_cfg(), "defense.sigma", [0.0])
    assert reports[0]["config"]["defense"]["noise"] == "laplace"
    with pytest.raises(ConfigError, match="sweep.axis: model.imprint.placement sweep needs "
                       "model.imprint.variant one_shot, got relu"):
        sweep_scenario(_small_cfg(), "model.imprint.placement", [0.5])


def test_one_shot_trials_block():
    cfg = _small_cfg(
        data={"kind": "synthetic_gaussian", "n": 64, "m": 8, "label_classes": 4},
        model={"imprint": {"variant": "one_shot", "target_mass": "1/n"},
               "measurement": {"kind": "mean", "c0": "auto"},
               "head": {"kind": "pinned", "gain": 1.0}},
        trials=25)
    cfg["dtype"] = "float64"
    res = run_scenario(cfg)
    tr = res.report["trials"]
    assert tr["n_trials"] == 25
    assert tr["fused_mass"] == 1.0 / 64
    assert tr["expected_success"] == one_shot_success(64, 1.0 / 64)
    assert 0.0 <= tr["success_rate"] <= 1.0
    assert tr["successes"] <= tr["n_trials"]
    assert len(res.artifacts["trial_records"]) == 25
    # successes are singleton trap hits read out essentially exactly
    if tr["successes"]:
        assert tr["max_success_rel_err"] <= 1e-4
    # sweep over trap mass reports the success-rate column
    header, rows, _ = sweep_scenario(cfg, "mass", [1.0 / 64, 2.0 / 64])
    rate_col = header.index("success_rate")
    assert [r[0] for r in rows] == ["mass", "mass"]
    assert all(isinstance(r[rate_col], float) for r in rows)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_reports_are_reductions_of_the_round_table(monkeypatch, name):
    rounds = []
    real_round = scenarios._round
    monkeypatch.setattr(scenarios, "_round", lambda *args: rounds.append(real_round(*args))
                        or rounds[-1])
    res = run_scenario(bundled_config(name))
    for rnd in rounds:
        t, sel = rnd.table, rnd.table["selected"] >= 0
        assert {len(col) for col in t.values()} == {res.artifacts["imprint"].k}
        assert np.isnan(t["den"]).tolist() == np.isnan(t["conf"]).tolist() == \
            (~t["live"]).tolist()
        assert (t["selected"][rnd.readout.bins] == np.arange(len(rnd.readout))).all()
        assert (t["row"][~sel] == -1).all() and np.isnan(t["rel_err"][~sel]).all()
        assert not (t["exact"] | t["spurious"])[~sel].any()
        assert (t["spurious"] == (sel & (t["count"] == 0))).all()
    if "trials" in res.report:
        records = res.artifacts["trial_records"]
        assert len(rounds) == len(records)
        for rnd, rec in zip(rounds, records):
            rel_err = rnd.table["rel_err"][0]
            assert rec == {"trial": rec["trial"], "trap_count": rnd.table["count"][0],
                           "read_out": rnd.table["live"][0], "success": rnd.table["exact"][0],
                           "rel_err": None if np.isnan(rel_err) else rel_err}
            # the trap is recovered exactly when one example lands in it alone
            assert rec["success"] == (rec["trap_count"] == 1)
        return
    (rnd,) = rounds
    t, occ, rec = rnd.table, res.report["occupancy"], res.report["recovery"]
    assert occ["k"] == len(t["count"])
    assert occ["singleton_bins"] == np.flatnonzero(t["count"] == 1).tolist()
    assert (occ["empty"], occ["collisions"], occ["max_count"]) == (
        (t["count"] == 0).sum(), (t["count"] >= 2).sum(), t["count"].max())
    assert (rec["n_candidates"], rec["n_selected"], rec["spurious"]) == (
        t["live"].sum(), (t["selected"] >= 0).sum(), t["spurious"].sum())
    assert rec["exact_bins"] == np.flatnonzero(t["exact"]).tolist()
    assert (res.artifacts["occupancy_counts"] == t["count"]).all()


def test_csv_scenario_end_to_end(tmp_path):
    path = str(tmp_path / "feats.csv")
    stream = np.random.default_rng(3)
    rows = [[float(v) for v in stream.normal(size=4)] for _ in range(12)]
    with open(path, "w", newline="") as fh:
        write_csv(fh, ["f0", "f1", "f2", "f3"], rows)
    cfg = _small_cfg(data={"kind": "csv", "path": path, "label_classes": 4},
                     model={"imprint": {"variant": "relu", "k": 8},
                            "measurement": {"kind": "mean", "c0": "auto"},
                            "head": {"kind": "pinned", "gain": 12.0}})
    res = run_scenario(cfg)
    assert res.report["n"] == 12
    assert res.report["m_features"] == 4
    labels = res.artifacts["batch"].labels
    assert labels is not None and labels.shape == (12,)  # drawn, file has none
    assert res.report["recovery"]["n_candidates"] >= 1


def test_csv_label_column_is_the_batch_labels(tmp_path):
    path = tmp_path / "labelled.csv"
    labels = [i % 4 for i in range(12)]
    path.write_text("f0,label,f1\n" + "".join(f"{i}.5,{y},{i}.25\n"
                                              for i, y in enumerate(labels)))
    cfg = _small_cfg(data={"kind": "csv", "path": str(path), "label_classes": 4},
                     model={"imprint": {"variant": "relu", "k": 8},
                            "head": {"kind": "pinned", "gain": 12.0}})
    res = run_scenario(cfg)
    batch = res.artifacts["batch"]
    assert batch.labels.tolist() == labels
    assert batch.x[:, 1].tolist() == [i + 0.25 for i in range(12)]  # label column dropped
    # a label the head has no class for is the config's fault, named by its leaf
    cfg["data"]["label_classes"] = 3
    with pytest.raises(ConfigError, match="data.label_classes: file holds label 3, "
                                          "configured 3"):
        run_scenario(cfg)


def test_empirical_assumed_bins_the_surrogate_measurements():
    """The empirical layout's boundaries are the equal-mass quantiles of the
    measured surrogate block, drawn from the scenario's own surrogate stream."""
    cfg = _small_cfg(dtype="float64", model={
        "measurement": {"kind": "mean", "c0": "auto"},
        "assumed": {"kind": "empirical", "surrogate_n": 300},
        "imprint": {"variant": "relu", "k": 8},
        "head": {"kind": "pinned", "gain": 16.0}})
    res = run_scenario(cfg)
    surrogate = RngStream(1, scenarios.STREAM_SURROGATE).normal((300, 16))
    h = build_measurement("mean", 16, c0="auto",
                          stream=RngStream(1, scenarios.STREAM_MEASUREMENT))
    probs = np.maximum(np.arange(8) / 8, validate_config(cfg)["model"]["imprint"]["p_min"])
    expect = np.quantile(h.measure(surrogate), probs)
    assert np.allclose(res.artifacts["imprint"].boundaries, expect, rtol=0, atol=1e-12)
    assert res.report["recovery"]["singleton_match"]


def test_empirical_surrogate_passes_the_front_like_the_batch():
    """`fullbatch64` in float64 at pool 0, seeds 0-39, under the empirical
    law: an `[avg_pool 2, avg_pool 2]` front keeps the mean exact count
    within 3 se of the no-front mean, since the surrogate is drawn at the
    input width and pooled as the batch is (a surrogate drawn at the feature
    width read 30.80 +- 0.75 there, against 38.08 +- 0.86), and each run's
    exact set is its singleton bins."""
    exact = []
    for front in ([], [{"kind": "avg_pool", "factor": 2}] * 2):
        cfg = bundled_config("fullbatch64")
        cfg.update(dtype="float64", metrics=dict(cfg["metrics"], pool=0))
        cfg["model"].update(front=front, assumed={"kind": "empirical"})
        recs = [run_scenario(cfg, seed=seed).report["recovery"] for seed in range(40)]
        assert all(rec["singleton_match"] for rec in recs), front
        exact.append(np.array([rec["exact_count"] for rec in recs], dtype=np.float64))
    se = exact[0].std(ddof=1) / math.sqrt(len(exact[0]))
    assert abs(exact[1].mean() - exact[0].mean()) <= 3 * se, (exact[0].mean(), exact[1].mean())


def _token_surrogate(front, dtype):
    """`text128` under a 300-row empirical law, its batch, and the surrogate
    the rows of the batch's table at ids from the surrogate stream's
    generator give, through the front, as float64."""
    cfg = bundled_config("text128")
    cfg.update(dtype=dtype, metrics=dict(cfg["metrics"], pool=0))
    cfg["model"].update(front=front, assumed={"kind": "empirical", "surrogate_n": 300})
    batch = scenarios._load_batch(cfg, np.dtype(dtype), RngStream(0, scenarios.STREAM_DATA))
    ids = RngStream(0, scenarios.STREAM_SURROGATE).generator().integers(0, 1000, (300, 8))
    rows = batch.meta["table"][ids].reshape(300, -1)
    for st in front:
        rows = rows.reshape(300, -1, st["factor"]).mean(axis=2)
    return cfg, batch, np.asarray(rows, dtype=np.float64)


def _spy_law():
    return mock.patch.object(scenarios, "assumed_distribution",
                             wraps=scenarios.assumed_distribution)


def test_token_surrogate_is_table_rows_from_its_stream():
    """A run on token data measures, as its empirical law, the batch's table
    at ids drawn from the surrogate stream's generator."""
    cfg, _, expect = _token_surrogate([], "float32")
    with _spy_law() as law:
        run_scenario(cfg)
    assert law.call_args.kwargs["surrogate"].tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_token_surrogate_runs_through_the_front(dtype):
    """The token surrogate passes the front stages as the batch does. A token
    run cannot yet decode pooled features, so the attack is built alone."""
    front = [{"kind": "avg_pool", "factor": 2}]
    cfg, batch, expect = _token_surrogate(front, dtype)
    public = partial(scenarios._draw_pool, cfg, batch.m, batch.meta["table"])
    with _spy_law() as law:
        scenarios._build_attack(cfg, 128, batch.n, np.dtype(dtype), public)
    assert law.call_args.kwargs["surrogate"].tobytes() == expect.tobytes()


def test_bundled_configs_are_isolated_copies():
    a = bundled_config("fullbatch64")
    a["seed"] = 99
    b = bundled_config("fullbatch64")
    assert b["seed"] == 0
    with pytest.raises(ConfigError, match="unknown bundled"):
        bundled_config("nope")


def _leaves(node, prefix=""):
    """(leaf path, value) for every leaf of a raw config; list items' leaves
    carry "[]" in their path, as CONFIG_LEAVES writes them."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        elif isinstance(value, list):
            for item in value:
                yield from _leaves(item, f"{prefix}{key}[].")
        else:
            yield f"{prefix}{key}", value


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundles_name_only_non_default_leaves(name):
    defaults = {leaf.path: leaf.default for leaf in CONFIG_LEAVES}
    raw = BUNDLED[name]
    assert [path for path, v in _leaves(raw) if v == defaults[path]] == []
    assert raw.get("model", {}).get("front") != []
    # the canonical config, in objects of its own
    cfg = bundled_config(name)
    assert cfg == validate_config(cfg)
    before = copy.deepcopy(raw)
    cfg["data"]["label_classes"] = 3
    cfg["model"]["imprint"]["variant"] = "changed"
    cfg["metrics"]["pool"] = 7
    assert BUNDLED[name] == before


def test_check_bundled_fullbatch64_passes():
    res = run_scenario(bundled_config("fullbatch64"))
    checks = check_bundled(res)
    assert len(checks) == 2
    assert all(ok for _, ok, _ in checks)
    labels = [c[0] for c in checks]
    assert "exact set == singleton bins" in labels


def test_float32_example_next_to_a_boundary_is_counted_where_the_model_put_it():
    # in float32 one example lies next to a bin boundary; it counts in the bin
    # whose rows saw it, which is the bin that reads it out
    cfg = bundled_config("fullbatch64")
    cfg["data"]["n"] = 512
    cfg["model"]["imprint"]["k"] = 4096
    cfg["metrics"]["pool"] = 0
    rec = run_scenario(cfg, seed=15).report["recovery"]
    assert rec["singleton_match"] and rec["exact_count"] == 444


def test_example_above_a_hard_threshold_top_row_is_in_no_bin():
    # the top row's linear region ends one interior width above its boundary;
    # an example beyond it reaches no row, so it is no singleton
    cfg = bundled_config("fullbatch64")
    cfg["dtype"] = "float64"
    cfg["model"]["imprint"] = {"variant": "hard_threshold", "k": 128, "permute": False}
    rep = run_scenario(cfg, seed=6).report
    assert rep["recovery"]["singleton_match"]
    assert rep["occupancy"]["below_range"] == 1


def test_front_stage_reduces_features():
    cfg = _small_cfg()
    cfg["model"]["front"] = [{"kind": "avg_pool", "factor": 4}]
    res = run_scenario(cfg)
    assert res.report["m_features"] == 4
    assert res.artifacts["model"].params["imprint.weight"].shape == (32, 4)
    cfg["model"]["front"] = [{"kind": "avg_pool", "factor": 5}]
    with pytest.raises(ConfigError, match=r"front\[0\]"):
        run_scenario(cfg)


def _narrow_cfg(m):
    """16 examples of m features in 32 ReLU bins, float64, no pool."""
    cfg = bundled_config("fullbatch64")
    cfg["dtype"] = "float64"
    cfg["data"].update(n=16, m=m)
    cfg["model"]["imprint"]["k"] = 32
    cfg["metrics"]["pool"] = 0
    return cfg


def test_exact_singleton_read_out_pairs_with_its_own_member():
    # bin 16's read-out equals its one member; an optimal candidate-truth
    # assignment paired it with another truth row
    rep = run_scenario(_narrow_cfg(2), seed=0).report
    assert 16 in rep["occupancy"]["singleton_bins"]
    assert 16 in rep["recovery"]["exact_bins"]
    assert rep["recovery"]["singleton_match"]


def test_singleton_match_holds_at_narrow_feature_widths():
    # the optimal assignment mispaired 36 of these 160 runs
    failed = [(m, seed) for m in (2, 3, 4, 6) for seed in range(40)
              if not run_scenario(_narrow_cfg(m), seed=seed).report["recovery"]["singleton_match"]]
    assert failed == []


@st.composite
def _noise_free_fed_sgd(draw):
    users = draw(st.sampled_from([1, 2, 4]))
    n = users * draw(st.integers(1, 12))
    variant = draw(st.sampled_from(["relu", "hard_threshold"]))
    imprint = {"variant": variant, "k": draw(st.integers(2, 96)),
               "permute": draw(st.booleans())}
    if variant == "relu":
        imprint["decoys"] = draw(st.integers(0, 3))
    return _small_cfg(
        dtype=draw(st.sampled_from(["float32", "float64"])), seed=draw(st.integers(0, 10_000)),
        data={"kind": "synthetic_gaussian", "n": n, "m": draw(st.integers(1, 8)),
              "label_classes": 4},
        model={"measurement": {"kind": draw(st.sampled_from(["mean", "random_gaussian"]))},
               "imprint": imprint, "head": {"kind": "pinned", "gain": float(n)}},
        federation={"protocol": "fed_sgd", "users": users},
        metrics={"pool": 0, "rel_tol": 1e-4})


def _singleton_errors(cfg):
    """Run a noise-free fed-SGD cfg; return its result and, for each singleton
    bin, (bin, rel_err, bound): its read-out's relative error to its member
    (None when the bin is not read out) and a bound on that error from the
    sums that form the read-out (Higham 2002, section 3.1, u the run dtype's
    unit roundoff and gamma_j = j u / (1 - j u)):
      - a user's row entry, a sum of `shard` products d_e f_e, is off by at most
        gamma_shard times the sum of |d_e f_e| (its bias entry likewise);
      - the secure sum over U users adds gamma_(U-1) times the sum of the
        users' |entries|, and the factor c = dtype(1/U) rounds each entry once
        more; c scales numerator and denominator alike, so it cancels:
        together gamma_(shard+U) (gamma_shard for one user), times c;
      - the ReLU difference of two rows adds both rows' bounds; in exact
        arithmetic it leaves c d_e f_e over c d_e, which is f_e;
      - the float64 difference and division round once each, and the factor
        1 + 1e-12 covers the float64 sums here and in the error itself.
    With eps and eps_b the numerator's and the denominator's bounds, D = c d_e,
    rel_err <= (|eps| / |f| + eps_b) / (|D| - eps_b)."""
    seen, last = [], []
    real_matmul, real_pass = model_module.matmul, model_module.ModelGraph.loss_and_grads

    def spy(a, b):
        last[:] = [a]
        return real_matmul(a, b)

    def recorded(self, x, labels):  # the pass's last product is dpre.T @ feats
        out = real_pass(self, x, labels)
        seen.append((np.abs(last[0]).astype(np.float64), out[2]))
        return out

    with mock.patch.object(model_module, "matmul", spy), \
            mock.patch.object(model_module.ModelGraph, "loss_and_grads", recorded):
        res = run_scenario(cfg)
    dtype, users = np.dtype(cfg["dtype"]), cfg["federation"]["users"]
    terms = cfg["data"]["n"] // users + (users if users > 1 else 0)
    u, u64 = np.finfo(dtype).eps / 2, np.finfo(np.float64).eps / 2
    gamma, c = terms * u / (1 - terms * u), float(dtype.type(1.0 / users))
    dpre = np.concatenate([d for d, _ in seen], axis=1)  # (rows, n): |d_e| where active
    imp, feats = res.artifacts["imprint"], res.artifacts["feats"].astype(np.float64)
    w, wb = c * gamma * (dpre @ np.abs(feats)), c * gamma * dpre.sum(axis=1)
    examples, bins = bin_members(np.concatenate([act for _, act in seen]), imp)
    cand = res.artifacts["candidates"]
    out = []
    for b in np.flatnonzero(np.bincount(bins, minlength=imp.k) == 1):
        e = examples[bins == b][0]
        rows = imp.row_of_bin[b:b + 1 + (imp.variant == "relu")]
        f, big_d = feats[e], c * dpre[rows, e].max()
        eps = w[rows].sum(axis=0) * (1 + u64) + u64 * big_d * np.abs(f)
        eps_b = wb[rows].sum() * (1 + u64) + u64 * big_d
        norm = np.linalg.norm(f)
        bound = math.inf if eps_b >= big_d else \
            ((np.linalg.norm(eps) / norm + eps_b) / (big_d - eps_b) * (1 + u64) + u64) * \
            (1 + 1e-12)
        at = np.flatnonzero(cand.bins == b)
        err = float(np.linalg.norm(cand.vectors[at[0]] - f) / norm) if len(at) else None
        out.append((int(b), err, bound))
    return res, out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cfg=_noise_free_fed_sgd())
# float32 singleton bin 6 (member -0.00477) reads rel_err 1.0e-4, past rel_tol, under its
# bound of 5.7e-3: its two rows sum 20 and 19 terms, with features up to 430 times its own
@example(cfg=_small_cfg(dtype="float32", seed=0,
                        data={"kind": "synthetic_gaussian", "n": 40, "m": 1, "label_classes": 4},
                        model={"imprint": {"variant": "relu", "k": 13},
                               "head": {"kind": "pinned", "gain": 40.0}},
                        federation={"protocol": "fed_sgd", "users": 4},
                        metrics={"pool": 0, "rel_tol": 1e-4}))
def test_exact_bins_are_the_singleton_bins_without_noise(cfg):
    res, singles = _singleton_errors(cfg)
    occ, rec = res.report["occupancy"], res.report["recovery"]
    assert rec["spurious"] == 0
    assert [b for b, _, _ in singles] == occ["singleton_bins"]
    # every singleton read out is within its bound, and one whose bound is
    # within rel_tol is exact; in float64 that is every singleton
    tol = cfg["metrics"]["rel_tol"]
    assert all(err <= bound for _, err, bound in singles if err is not None)
    assert cfg["dtype"] == "float32" or all(bound <= tol for _, _, bound in singles)
    assert {b for b, _, bound in singles if bound <= tol} <= set(rec["exact_bins"])
    extra = set(rec["exact_bins"]) - set(occ["singleton_bins"])
    if cfg["data"]["m"] >= 2:
        assert extra == set()
        return
    # m = 1: a bin is an interval of the one feature, so a collision's members
    # can agree with their average to rel_tol; that read-out counts as exact
    # (it reproduces a member), so each exact bin that is no singleton is a collision
    assert all(res.artifacts["occupancy_counts"][b] >= 2 for b in extra)


def test_one_shot_theory_leaves_the_iid_model_empty():
    # the trap's two bins hold mass 1/n and 1 - 1/n, so the equal-bin iid model
    # does not describe it; one_shot_success is its prediction
    cfg = _small_cfg(
        dtype="float64",
        data={"kind": "synthetic_gaussian", "n": 64, "m": 8, "label_classes": 4},
        model={"imprint": {"variant": "one_shot", "target_mass": "1/n"},
               "head": {"kind": "pinned", "gain": 1.0}},
        trials=2)
    theory = run_scenario(cfg).report["theory"]
    assert theory["iid_expected"] is None
    assert theory["one_shot_success"] == one_shot_success(64, 1.0 / 64)
    header, rows, _ = sweep_scenario(cfg, "mass", [1.0 / 64])
    assert rows[0][header.index("iid_expected")] is None
    assert rows[0][header.index("model_gap")] is None
    assert rows[0][header.index("one_shot_expected")] == theory["one_shot_success"]


def test_digest_configs_validate_under_distinct_labels(tmp_path, monkeypatch):
    """`tests/report_digests.py`, the byte-identity check, keeps working: each
    config it yields validates, and no two share a label. It runs none."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # undone after the test,
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # whatever the import sets
    import report_digests
    labels = []
    for label, raw in report_digests.configs(str(tmp_path)):
        validate_config(raw)
        labels.append(label)
    assert len(labels) == len(set(labels)) > 0
