import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imprintlab.distributions import Normal
from imprintlab.federation import (UpdatePayload, fed_avg, fed_sgd,
                                   secure_aggregate, to_gradient_form)
from imprintlab.imprint import build_relu, make_layout
from imprintlab.measurement import build_measurement
from imprintlab.model import make_imprint_model
from imprintlab.numerics import RngStream
from imprintlab.scenarios import bundled_config, run_scenario
from oracles import loop_drifted, loop_fed_avg


def _model(m=8, k=4, classes=3, dtype=np.float64):
    lay = make_layout(Normal(), k)
    h = build_measurement("mean", m, c0="auto")
    imp = build_relu(lay, h, dtype=dtype)
    return make_imprint_model(imp, label_classes=classes, dtype=dtype)


def test_fed_sgd_payload_is_the_mean_gradient():
    model = _model()
    x = RngStream(20, 0).normal((1, 8))
    labels = np.array([1])
    loss, payload = fed_sgd(model, x, labels)
    ref_loss, grads = model.loss_and_grads(x, labels)
    assert loss == ref_loss
    assert payload.kind == "gradient"
    for key, g in grads.items():
        assert np.array_equal(payload.tensors[key], g)


def test_two_users_average_to_the_joint_batch():
    model = _model()
    x = RngStream(20, 1).normal((4, 8))
    labels = np.array([0, 2, 1, 1])
    _, full = fed_sgd(model, x, labels)
    parts = [fed_sgd(model, x[i:i + 2], labels[i:i + 2])[1] for i in (0, 2)]
    mean = secure_aggregate(parts).mean_payload()
    assert mean.users == 1
    for key in full.tensors:
        assert np.allclose(mean.tensors[key], full.tensors[key], rtol=1e-12, atol=1e-15)


def test_sharding_is_invisible_after_aggregation():
    # 10 users x 100 examples vs one user holding all 1000: the averaged
    # aggregate matches the joint gradient up to f32 summation order.
    model = _model(m=16, k=6, classes=4, dtype=np.float32)
    x = RngStream(21, 0).normal((1000, 16), dtype=np.float32)
    labels = RngStream(21, 1).integers(1000, low=0, high=4)
    _, full = fed_sgd(model, x, labels)
    shards = [fed_sgd(model, x[u * 100:(u + 1) * 100], labels[u * 100:(u + 1) * 100])[1]
              for u in range(10)]
    agg = secure_aggregate(shards)
    assert agg.users == 10
    mean = agg.mean_payload()
    for key in full.tensors:
        scale = max(float(np.abs(full.tensors[key]).max()), 1e-12)
        gap = float(np.abs(mean.tensors[key] - full.tensors[key]).max())
        assert gap < 1e-5 * scale


def test_single_local_step_is_a_scaled_gradient():
    # delta = -lr * g holds exactly in real arithmetic; in float64 the
    # parameter subtraction leaves rounding at the params' own ulp scale.
    model = _model()
    x = RngStream(22, 0).normal((6, 8))
    labels = np.array([0, 1, 2, 0, 1, 2])
    lr = 1e-4
    payload, _ = fed_avg(model, x, labels, steps=1, lr=lr)
    assert payload.kind == "param_delta"
    assert payload.steps == 1 and payload.lr == lr
    _, grads = model.loss_and_grads(x, labels)
    for key, g in grads.items():
        ref = -lr * g
        err = float(np.abs(payload.tensors[key] - ref).max())
        assert err <= 1e-10 * max(float(np.abs(ref).max()), 1e-30)


def test_gradient_form_error_shrinks_with_lr():
    # Multi-step deltas converge to the average start-point gradient as lr
    # drops; halving-style comparison: lr=1e-7 must sit ~10x closer than 1e-6.
    model = _model()
    x = RngStream(22, 1).normal((8, 8))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    chunks = [model.loss_and_grads(x[i:i + 4], labels[i:i + 4])[1] for i in (0, 4)]
    ref = {k: 0.5 * (chunks[0][k] + chunks[1][k]) for k in chunks[0]}

    def err(lr):
        eff = to_gradient_form(fed_avg(model, x, labels, steps=2, lr=lr)[0])
        worst = 0.0
        for key in ref:
            scale = max(float(np.abs(ref[key]).max()), 1e-12)
            worst = max(worst, float(np.abs(eff.tensors[key] - ref[key]).max()) / scale)
        return worst

    coarse, fine = err(1e-6), err(1e-7)
    assert coarse < 1e-3
    assert fine < coarse


def _oracle_drift(res):
    """loop_drifted summed over the users' shards of a fed-AVG run."""
    fed, model = res.report["config"]["federation"], res.artifacts["model"]
    x, labels = res.artifacts["batch"].x, res.artifacts["batch"].labels
    shard = len(labels) // fed["users"]
    return sum(loop_drifted(model, x[u * shard:(u + 1) * shard],
                            labels[u * shard:(u + 1) * shard], steps=fed["steps"], lr=fed["lr"])
               for u in range(fed["users"]))


def test_drifted_counts_the_examples_local_steps_move():
    # float32 at head gain 1,000: the local steps move a few examples to other bins
    cfg = bundled_config("fedavg8x8")
    cfg["dtype"] = "float32"
    cfg["model"]["head"]["gain"] = 1000.0
    for seed in (0, 2):
        res = run_scenario(cfg, seed=seed)
        assert res.report["federation"]["drifted"] == _oracle_drift(res) > 0, seed


def test_tiny_rate_twin_does_not_drift():
    # criterion 07's twin, whose exact bins equal the single-gradient run's
    cfg = bundled_config("fedavg8x8")
    cfg["federation"]["lr"] = 1e-8
    assert [run_scenario(cfg, seed=seed).report["federation"]["drifted"]
            for seed in range(10)] == [0] * 10


@st.composite
def _fed_avg_configs(draw):
    users, steps = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 4]))
    variant = draw(st.sampled_from(["relu", "hard_threshold"]))
    imprint = {"variant": variant, "k": draw(st.integers(2, 64)),
               "permute": draw(st.booleans())}
    if variant == "relu":
        imprint["decoys"] = draw(st.integers(0, 2))
    cfg = bundled_config("fedavg8x8")
    cfg.update(dtype=draw(st.sampled_from(["float32", "float64"])),
               seed=draw(st.integers(0, 10_000)))
    cfg["data"].update(n=users * steps * draw(st.integers(1, 6)), m=draw(st.integers(1, 8)))
    cfg["model"]["imprint"] = imprint
    cfg["model"]["head"]["gain"] = draw(st.sampled_from([1.0, 100.0, 1000.0]))
    cfg["federation"].update(users=users, steps=steps,
                             lr=draw(st.sampled_from([1e-4, 1e-3, 1e-2])))
    cfg["metrics"]["pool"] = 0
    return cfg


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=_fed_avg_configs())
def test_drifted_is_the_oracle_and_zero_for_one_step(cfg):
    res = run_scenario(cfg)
    drifted = res.report["federation"]["drifted"]
    assert drifted == _oracle_drift(res)
    if cfg["federation"]["steps"] == 1:
        assert drifted == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fed_avg_matches_reference_local_sgd(dtype):
    model = _model(m=8, k=6, classes=3, dtype=dtype)
    x = RngStream(23, 4).normal((12, 8), dtype=dtype)
    labels = np.array([0, 1, 2] * 4)
    payload, log = fed_avg(model, x, labels, steps=3, lr=0.05)
    ref_delta, ref_log = loop_fed_avg(model, x, labels, steps=3, lr=0.05)
    assert set(payload.tensors) == set(ref_delta)
    for key, ref in ref_delta.items():
        got = payload.tensors[key]
        assert got.dtype == ref.dtype == dtype
        assert np.array_equal(got, ref), key
    assert any(np.any(d != 0) for d in ref_delta.values())
    assert [e["step"] for e in log] == [0, 1, 2]
    for entry, ref in zip(log, ref_log, strict=True):
        assert entry["loss"] == ref["loss"]
        assert np.array_equal(entry["active"], ref["active"])


def test_fed_avg_is_deterministic():
    model = _model()
    x = RngStream(23, 1).normal((4, 8))
    labels = np.array([2, 0, 1, 1])
    a, _ = fed_avg(model, x, labels, steps=2, lr=1e-3)
    b, _ = fed_avg(model, x, labels, steps=2, lr=1e-3)
    for key in a.tensors:
        assert np.array_equal(a.tensors[key], b.tensors[key])


def test_fed_avg_leaves_caller_model_untouched():
    model = _model()
    imp = model.imprint
    before = {k: v.copy() for k, v in model.params.items()}
    imp_before = imp.weight.copy(), imp.bias.copy()
    x = RngStream(23, 2).normal((4, 8))
    fed_avg(model, x, np.array([0, 1, 2, 0]), steps=2, lr=0.1)
    for key, v in model.params.items():
        assert np.array_equal(v, before[key])
    # the model shares the imprint module's arrays; local steps must not write them
    assert np.array_equal(imp.weight, imp_before[0])
    assert np.array_equal(imp.bias, imp_before[1])


def test_fed_avg_validation():
    model = _model()
    x = RngStream(23, 3).normal((4, 8))
    labels = np.array([0, 1, 2, 0])
    with pytest.raises(ValueError, match="steps"):
        fed_avg(model, x, labels, steps=0, lr=0.1)
    with pytest.raises(ValueError, match="divide"):
        fed_avg(model, x, labels, steps=3, lr=0.1)
    with pytest.raises(ValueError, match="lr"):
        fed_avg(model, x, labels, steps=2, lr=0.0)


def test_to_gradient_form_inverts_the_step_scaling():
    model = _model()
    x = RngStream(24, 0).normal((4, 8))
    labels = np.array([1, 1, 0, 2])
    payload, _ = fed_avg(model, x, labels, steps=1, lr=1e-3)
    eff = to_gradient_form(payload)
    assert eff.kind == "gradient"
    _, grads = model.loss_and_grads(x, labels)
    for key, g in grads.items():
        assert np.allclose(eff.tensors[key], g, rtol=1e-9, atol=1e-14)
    # gradient payloads pass through unchanged
    _, direct = fed_sgd(model, x, labels)
    assert to_gradient_form(direct) is direct
    bare = UpdatePayload(kind="param_delta", tensors={})
    with pytest.raises(ValueError, match="lr"):
        to_gradient_form(bare)


def test_secure_aggregate_sum_and_cancellation():
    stream = RngStream(25, 0)
    payloads = []
    for u in range(3):
        tensors = {"a": stream.derive(u).normal((2, 3)),
                   "b": stream.derive(u + 8).normal((4,))}
        payloads.append(UpdatePayload(kind="gradient", tensors=tensors))
    agg = secure_aggregate(payloads)
    for key in ("a", "b"):
        oracle = payloads[0].tensors[key] + payloads[1].tensors[key] + payloads[2].tensors[key]
        assert np.allclose(agg.tensors[key], oracle, rtol=1e-15, atol=1e-15)
    assert agg.users == 3
    solo = secure_aggregate([payloads[0]])
    for key in ("a", "b"):
        assert np.array_equal(solo.tensors[key], payloads[0].tensors[key])
    anti = secure_aggregate([payloads[0], payloads[0].scaled(-1.0)])
    for key in ("a", "b"):
        assert np.all(anti.tensors[key] == 0.0)


def test_secure_aggregate_validation():
    g = UpdatePayload(kind="gradient", tensors={"a": np.ones(3)})
    d = UpdatePayload(kind="param_delta", tensors={"a": np.ones(3)},
                      steps=2, lr=0.1)
    with pytest.raises(ValueError, match="nothing"):
        secure_aggregate([])
    with pytest.raises(ValueError, match="mixed"):
        secure_aggregate([g, d])
    other = UpdatePayload(kind="gradient", tensors={"b": np.ones(3)})
    with pytest.raises(ValueError, match="parameter sets"):
        secure_aggregate([g, other])
    wide = UpdatePayload(kind="gradient", tensors={"a": np.ones(4)})
    with pytest.raises(ValueError, match="shape"):
        secure_aggregate([g, wide])
    d2 = UpdatePayload(kind="param_delta", tensors={"a": np.ones(3)},
                       steps=3, lr=0.1)
    with pytest.raises(ValueError, match="steps/lr"):
        secure_aggregate([d, d2])
