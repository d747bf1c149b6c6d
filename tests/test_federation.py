import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imprintlab.distributions import Normal
from imprintlab.federation import (UpdatePayload, fed_avg, fed_sgd,
                                   secure_aggregate, to_gradient_form)
from imprintlab.imprint import build_hard_threshold, build_relu, make_layout
from imprintlab.measurement import build_measurement
from imprintlab.model import make_imprint_model
from imprintlab.numerics import RngStream
from imprintlab.scenarios import bundled_config, run_scenario
from oracles import loop_drifted, loop_fed_avg, two_step_read


def _model(m=8, k=4, classes=3, dtype=np.float64):
    lay = make_layout(Normal(), k)
    h = build_measurement("mean", m, c0="auto")
    imp = build_relu(lay, h, dtype=dtype)
    return make_imprint_model(imp, label_classes=classes, dtype=dtype)


def test_fed_sgd_payload_is_the_mean_gradient():
    model = _model()
    x = RngStream(20, 0).normal((1, 8))
    labels = np.array([1])
    loss, payload, active = fed_sgd(model, x, labels)
    ref_loss, grads, ref_active = model.loss_and_grads(x, labels)
    assert loss == ref_loss
    assert active.shape == (1, model.imprint.n_rows) and np.array_equal(active, ref_active)
    assert payload.kind == "gradient"
    for key, g in grads.items():
        assert np.array_equal(payload.tensors[key], g)


def test_two_users_average_to_the_joint_batch():
    model = _model()
    x = RngStream(20, 1).normal((4, 8))
    labels = np.array([0, 2, 1, 1])
    full = fed_sgd(model, x, labels)[1]
    parts = [fed_sgd(model, x[i:i + 2], labels[i:i + 2])[1] for i in (0, 2)]
    mean = to_gradient_form(secure_aggregate(parts))
    assert mean.users == 1
    for key in full.tensors:
        assert np.allclose(mean.tensors[key], full.tensors[key], rtol=1e-12, atol=1e-15)


def test_sharding_is_invisible_after_aggregation():
    # 10 users x 100 examples vs one user holding all 1000: the averaged
    # aggregate matches the joint gradient up to f32 summation order.
    model = _model(m=16, k=6, classes=4, dtype=np.float32)
    x = RngStream(21, 0).normal((1000, 16), dtype=np.float32)
    labels = RngStream(21, 1).integers(1000, low=0, high=4)
    full = fed_sgd(model, x, labels)[1]
    shards = [fed_sgd(model, x[u * 100:(u + 1) * 100], labels[u * 100:(u + 1) * 100])[1]
              for u in range(10)]
    agg = secure_aggregate(shards)
    assert agg.users == 10
    mean = to_gradient_form(agg)
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
    payload = fed_avg(model, x, labels, steps=1, lr=lr)[0]
    assert payload.kind == "param_delta"
    assert payload.steps == 1 and payload.lr == lr
    grads = model.loss_and_grads(x, labels)[1]
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


# A step whose chunk activates at most a quarter of the imprint rows moves
# only those rows, which equals the dense step only while every other row's
# gradient is +0.0. The draws take both paths (a hard-threshold example
# lights one row, a ReLU example every row below it) and include -0.0 weights
# (p - (+0.0 * lr) must keep them; the delta cannot show their sign, since it
# subtracts the start) and chunks whose examples share rows.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["relu", "hard_threshold"]), decoys=st.integers(0, 3),
       permute=st.booleans(), steps=st.sampled_from([1, 2, 4, 8]), chunk=st.integers(1, 4),
       m=st.integers(1, 6), k=st.integers(2, 40), gain=st.sampled_from([1.0, 1000.0]),
       lr=st.sampled_from([1e-4, 1e-2, 0.5]), neg_zero=st.booleans(), shared=st.booleans(),
       seed=st.integers(0, 2**16))
@example(variant="relu", decoys=2, permute=True, steps=8, chunk=1, m=3, k=16, gain=1.0,
         lr=0.5, neg_zero=True, shared=False, seed=0)
@example(variant="hard_threshold", decoys=0, permute=True, steps=4, chunk=3, m=2, k=24,
         gain=1000.0, lr=1e-2, neg_zero=True, shared=True, seed=1)
def test_fed_avg_matches_reference_local_sgd(dtype, variant, decoys, permute, steps, chunk,
                                             m, k, gain, lr, neg_zero, shared, seed):
    stream = RngStream(27, seed)
    lay, h = make_layout(Normal(), k), build_measurement("mean", m, c0="auto")
    perm = stream.derive(0) if permute else None
    if variant == "relu":
        imp = build_relu(lay, h, decoys=decoys, perm_stream=perm,
                         decoy_stream=stream.derive(1), dtype=dtype)
    else:
        imp = build_hard_threshold(lay, h, perm_stream=perm, dtype=dtype)
    model = make_imprint_model(imp, label_classes=3, gain=gain, dtype=dtype)
    if neg_zero:  # a private copy: the imprint module shares the model's array
        w = model.params["imprint.weight"] = model.params["imprint.weight"].copy()
        w[stream.derive(2).uniform(w.shape) < 0.5] = -0.0
    x = stream.derive(3).normal((steps * chunk, m), dtype=dtype)
    if shared and chunk > 1:
        x[1::chunk] = x[::chunk]  # each chunk's first two examples: the same rows
    labels = stream.derive(4).integers(steps * chunk, low=0, high=3)
    payload, losses, active = fed_avg(model, x, labels, steps=steps, lr=lr)
    ref_delta, ref_losses, ref_actives = loop_fed_avg(model, x, labels, steps=steps, lr=lr)
    assert payload.tensors.keys() == ref_delta.keys()
    for key, ref in ref_delta.items():
        got = payload.tensors[key]
        assert got.dtype == ref.dtype == dtype and got.tobytes() == ref.tobytes(), key
    assert any(np.any(d != 0) for d in ref_delta.values())
    assert losses == ref_losses and len(losses) == steps
    # one mask over the user's examples: each at the step that saw it
    assert np.array_equal(active, np.concatenate(ref_actives))


def test_fed_avg_is_deterministic():
    model = _model()
    x = RngStream(23, 1).normal((4, 8))
    labels = np.array([2, 0, 1, 1])
    a = fed_avg(model, x, labels, steps=2, lr=1e-3)[0]
    b = fed_avg(model, x, labels, steps=2, lr=1e-3)[0]
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
    payload = fed_avg(model, x, labels, steps=1, lr=1e-3)[0]
    eff = to_gradient_form(payload)
    assert eff.kind == "gradient"
    grads = model.loss_and_grads(x, labels)[1]
    for key, g in grads.items():
        assert np.allclose(eff.tensors[key], g, rtol=1e-9, atol=1e-14)
    # gradient payloads pass through unchanged
    direct = fed_sgd(model, x, labels)[1]
    assert to_gradient_form(direct) is direct
    bare = UpdatePayload(kind="param_delta", tensors={})
    with pytest.raises(ValueError, match="lr"):
        to_gradient_form(bare)


# 1/users is exact at 2, 4 and 8 users, so only other counts show a folded
# or reordered product (at 3 users folding moves most float32 entries)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(users=st.integers(1, 8), kind=st.sampled_from(["gradient", "param_delta"]),
       dtype=st.sampled_from([np.float32, np.float64]), steps=st.integers(1, 8),
       lr=st.sampled_from([1e-4, 3e-3, 0.1]), seed=st.integers(0, 2**16))
@example(users=3, kind="param_delta", dtype=np.float32, steps=8, lr=1e-4, seed=0)
@example(users=5, kind="param_delta", dtype=np.float64, steps=3, lr=3e-3, seed=1)
@example(users=3, kind="gradient", dtype=np.float32, steps=1, lr=0.1, seed=2)
def test_one_step_read_is_the_two_step_read(users, kind, dtype, steps, lr, seed):
    stream = RngStream(26, seed)
    tensors = {"w": stream.derive(0).normal((6, 5), dtype=dtype),
               "b": stream.derive(1).normal((6,), dtype=dtype)}
    payload = UpdatePayload(kind=kind, tensors=tensors, steps=steps, lr=lr, users=users)
    eff = to_gradient_form(payload)
    ref = two_step_read(payload)
    assert (eff.kind, eff.users, eff.steps, eff.lr) == ("gradient", 1, steps, lr)
    assert eff.tensors.keys() == ref.keys()
    for key, t in ref.items():
        assert eff.tensors[key].dtype == dtype
        assert eff.tensors[key].tobytes() == t.tobytes(), key
    # one user's gradient comes back uncopied
    assert (eff is payload) == (users == 1 and kind == "gradient")
    bare = UpdatePayload(kind="param_delta", tensors=tensors, steps=steps, users=users)
    with pytest.raises(ValueError, match="without lr"):
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
    negated = UpdatePayload(kind="gradient",
                            tensors={k: -t for k, t in payloads[0].tensors.items()})
    anti = secure_aggregate([payloads[0], negated])
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


# -- streaming: secure_aggregate consumes an iterable one payload at a time

def _users(count, shapes, dtype, seed):
    """`count` users' gradient payloads over `shapes` (key -> shape), drawn
    from one seed. Entry 0 of every tensor is -0.0 for every user; entry 1 is
    x for the first user, -x for the second and 0 for the rest."""
    rng = np.random.default_rng(seed)
    payloads = []
    for u in range(count):
        tensors = {}
        for key, shape in shapes.items():
            t = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)).astype(dtype)
            flat = t.reshape(-1)
            flat[0] = -0.0
            if flat.size > 1 and u:
                flat[1] = -payloads[0].tensors[key].reshape(-1)[1] if u == 1 else 0.0
            tensors[key] = t
        payloads.append(UpdatePayload(kind="gradient", tensors=tensors))
    return payloads


def _assert_list_sum(agg, payloads):
    """agg is bit for bit the list `sum()` the aggregate used to take."""
    assert agg.users == len(payloads) and agg.kind == payloads[0].kind
    assert agg.tensors.keys() == payloads[0].tensors.keys()
    for key, t in agg.tensors.items():
        ref = sum(p.tensors[key] for p in payloads)
        assert t.dtype == ref.dtype and t.shape == ref.shape
        assert t.tobytes() == ref.tobytes(), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_streamed_aggregate_is_the_list_sum_bit_for_bit(dtype, count):
    payloads = _users(count, {"w": (7, 5), "b": (7,)}, dtype, seed=[count, dtype == np.float32])
    agg = secure_aggregate(p for p in payloads)
    _assert_list_sum(agg, payloads)
    for t in agg.tensors.values():
        assert t.reshape(-1)[0] == 0.0 and not np.signbit(t.reshape(-1)[0])  # 0 + -0.0
        if count > 1:
            assert t.reshape(-1)[1] == 0.0  # x + -x cancels exactly
        assert not any(np.shares_memory(t, q) for p in payloads for q in p.tensors.values())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(count=st.integers(1, 8), dtype=st.sampled_from([np.float32, np.float64]),
       shapes=st.dictionaries(st.sampled_from(["a", "b", "c"]),
                              st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
                              min_size=1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_aggregate_property(count, dtype, shapes, seed):
    payloads = _users(count, shapes, dtype, seed)
    _assert_list_sum(secure_aggregate(iter(payloads)), payloads)


def test_each_payload_is_dropped_before_the_next_is_pulled():
    refs = []

    def fresh(u):  # so the generator keeps no reference to what it yields
        p = _users(1, {"w": (3, 2), "b": (3,)}, np.float64, seed=u)[0]
        refs.extend(weakref.ref(t) for t in p.tensors.values())
        return p

    def stream():
        for u in range(4):
            assert all(r() is None for r in refs), u  # the earlier users' tensors are dead
            yield fresh(u)

    agg = secure_aggregate(stream())
    assert agg.users == 4 and len(refs) == 8
    assert all(r() is None for r in refs)


def test_empty_stream_raises():
    for empty in ([], iter([]), (p for p in [])):
        with pytest.raises(ValueError, match="nothing"):
            secure_aggregate(empty)


@pytest.mark.parametrize("bad, match", [
    (dict(kind="param_delta", steps=2, lr=0.1), "mixed"),
    (dict(tensors={"w": np.ones((3, 2)), "c": np.ones(3)}), "parameter sets"),
    (dict(tensors={"w": np.ones((3, 2))}), "parameter sets"),
    (dict(tensors={"w": np.ones((2, 3)), "b": np.ones(3)}), "shape"),
    (dict(tensors={"w": np.ones((3, 2), "f4"), "b": np.ones(3)}), "dtype"),
    (dict(steps=2), "steps/lr"),
    (dict(lr=0.5), "steps/lr"),
])
def test_mismatch_mid_stream_raises(bad, match):
    good = {"kind": "gradient", "tensors": {"w": np.ones((3, 2)), "b": np.ones(3)}}
    pulled = []

    def stream():
        for u in range(4):
            pulled.append(u)
            yield UpdatePayload(**dict(good, **bad)) if u == 2 else UpdatePayload(**good)

    with pytest.raises(ValueError, match=match):
        secure_aggregate(stream())
    assert pulled == [0, 1, 2]  # raised on the bad payload, before pulling the last
