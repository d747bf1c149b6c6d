import numpy as np
import pytest

from imprintlab.distributions import Empirical, Normal
from imprintlab.imprint import build_hard_threshold, build_relu, make_layout
from imprintlab.measurement import build_measurement
from imprintlab.model import (FrontStage, ModelGraph, make_imprint_model,
                              make_logistic_model)
from imprintlab.numerics import RngStream
from oracles import fd_gradcheck


def _relu_model(m=8, k=4, classes=3, dtype=np.float64, **kw):
    lay = make_layout(Normal(), k)
    h = build_measurement("mean", m, c0="auto")
    imp = build_relu(lay, h, dtype=dtype)
    return make_imprint_model(imp, label_classes=classes, dtype=dtype, **kw)


def test_logistic_single_example_gradient_identity():
    """For one example, the weight-gradient row i is (dL/dy_i) * x and the
    bias gradient is softmax minus the label one-hot."""
    model = make_logistic_model(6, 4, head_stream=RngStream(1, 0), dtype=np.float64)
    x = RngStream(1, 1).normal((1, 6))
    labels = np.array([2])
    _, grads, active = model.loss_and_grads(x, labels)
    assert active is None  # no imprint layer, no mask
    logits = (x @ model.params["head.weight"].T + model.params["head.bias"])[0]
    sm = np.exp(logits - logits.max())
    sm /= sm.sum()
    dlog = sm.copy()
    dlog[2] -= 1.0
    assert np.allclose(grads["head.bias"], dlog, rtol=1e-12, atol=1e-15)
    assert np.allclose(grads["head.weight"], np.outer(dlog, x[0]), rtol=1e-12, atol=1e-15)
    # generic softmax: every row sees gradient signal
    assert np.all(np.abs(grads["head.bias"]) > 0)


def test_batch_gradient_is_mean_of_per_example():
    model = _relu_model(dtype=np.float64)
    x = RngStream(2, 0).normal((4, 8))
    labels = np.array([0, 1, 2, 0])
    batch = model.loss_and_grads(x, labels)[1]
    singles = [model.loss_and_grads(x[i:i + 1], labels[i:i + 1])[1] for i in range(4)]
    for key in batch:
        mean = np.mean([s[key] for s in singles], axis=0)
        assert np.allclose(batch[key], mean, rtol=1e-6, atol=1e-12)


def test_gradcheck_relu_imprint():
    model = _relu_model(m=8, k=4, classes=3)
    x = RngStream(3, 0).normal((3, 8))
    labels = np.array([0, 2, 1])
    assert fd_gradcheck(model, x, labels) < 1e-4


def test_gradcheck_hard_threshold_bridge():
    lay = make_layout(Normal(), 5)
    h = build_measurement("mean", 6, c0="auto")
    imp = build_hard_threshold(lay, h, dtype=np.float64)
    model = make_imprint_model(imp, label_classes=4, bridge="identical_row_linear",
                               bridge_dim=2, dtype=np.float64)
    x = RngStream(4, 16).normal((3, 6))
    labels = np.array([1, 3, 0])
    # keep clear of the clamp kinks so finite differences see smooth loss
    pre = x @ model.params["imprint.weight"].T + model.params["imprint.bias"]
    assert np.all(np.minimum(np.abs(pre), np.abs(pre - 1.0)) > 0.05)
    assert fd_gradcheck(model, x, labels) < 1e-4


def test_gradcheck_logistic_random_head():
    model = make_logistic_model(5, 3, head_stream=RngStream(5, 0), dtype=np.float64)
    x = RngStream(5, 1).normal((2, 5))
    labels = np.array([0, 2])
    assert fd_gradcheck(model, x, labels) < 1e-4


def test_relu_kink_contributes_nothing():
    """h(x) exactly at a boundary: that row's activation derivative is defined
    as zero, so the row's gradient vanishes identically."""
    lay = make_layout(Normal(), 2)  # boundaries [q(1e-6), 0.0]
    h = build_measurement("mean", 1, c0=1.0)
    imp = build_relu(lay, h, dtype=np.float64)
    model = make_imprint_model(imp, label_classes=2, dtype=np.float64)
    grads = model.loss_and_grads(np.array([[0.0]]), np.array([0]))[1]
    assert np.all(grads["imprint.weight"][1] == 0.0)
    assert grads["imprint.bias"][1] == 0.0
    assert grads["imprint.bias"][0] != 0.0  # row below is active


def test_hard_threshold_kinks_contribute_nothing():
    # lattice-valued empirical quantiles make the kinks exactly representable:
    # boundaries [-0.25, 0.0], deltas 0.25, rows 4.0, biases [1.0, -0.0]
    lattice = Empirical(np.array([-0.5, 0.0, 0.5]))
    lay = make_layout(lattice, 2, p_min=0.25)
    assert lay.tolist() == [-0.25, 0.0]
    h = build_measurement("mean", 1, c0=1.0)
    imp = build_hard_threshold(lay, h, dtype=np.float64)
    model = make_imprint_model(imp, label_classes=2, dtype=np.float64)
    for xv in (0.25, 0.0):  # upper kink of row 1, then lower kink of row 1
        grads = model.loss_and_grads(np.array([[xv]]), np.array([0]))[1]
        pre = xv * imp.weight[:, 0] + imp.bias
        assert np.all((pre == 0.0) | (pre >= 1.0))  # every row saturated or at a kink
        assert np.all(grads["imprint.weight"] == 0.0)
        assert np.all(grads["imprint.bias"] == 0.0)


def test_front_empty_chain():
    model = _relu_model()
    x = RngStream(6, 0).normal((3, 8))
    assert np.array_equal(model.forward_features(x), x)


def test_avg_pool_block_means():
    st = FrontStage("avg_pool", 2)
    x = np.arange(8.0).reshape(1, 8)
    assert st.apply(x).tolist() == [[0.5, 2.5, 4.5, 6.5]]


def test_front_composition():
    stages = (FrontStage("identity"), FrontStage("avg_pool", 2), FrontStage("avg_pool", 2))
    x = RngStream(6, 1).normal((5, 16))
    model = ModelGraph(stages=stages, n_classes=2, params={}, dtype=np.float64)
    out = model.forward_features(x)
    ref = x.reshape(5, 4, 4).mean(axis=2)
    assert np.allclose(out, ref, rtol=1e-12, atol=0)


def test_front_validation():
    with pytest.raises(ValueError):
        FrontStage("conv")
    with pytest.raises(ValueError):
        FrontStage("avg_pool", 3).out_dim(8)
    with pytest.raises(ValueError, match="avg_pool factor must be >= 1, got 0"):
        FrontStage("avg_pool", 0)


def test_pinned_head_weights_every_example_equally():
    model = _relu_model(gain=2.0)
    x = RngStream(8, 0).normal((4, 8))
    labels = np.array([0, 1, 2, 0])
    grads = model.loss_and_grads(x, labels)[1]
    # the pin class soaks up probability 1 for each example
    assert abs(float(grads["head.bias"][-1]) - 1.0) < 1e-6
    assert float(grads["head.bias"][labels[0]]) < 0


def test_label_validation():
    model = _relu_model(classes=3)
    x = np.zeros((2, 8))
    with pytest.raises(ValueError):
        model.loss_and_grads(x, np.array([0, 4]))  # 4 exceeds pinned class range
    with pytest.raises(ValueError):
        model.loss_and_grads(x, np.array([0]))  # length mismatch
    with pytest.raises(ValueError):
        model.forward_features(np.zeros(8))  # not a batch
    with pytest.raises(ValueError, match="label_classes must be >= 1, got 0"):
        _relu_model(classes=0)
    with pytest.raises(ValueError, match="label_classes must be >= 2, got 1"):
        make_logistic_model(6, 1, head_stream=RngStream(1, 0))


def test_imprint_arrays_are_held_once():
    lay = make_layout(Normal(), 4)
    imp = build_relu(lay, build_measurement("mean", 8, c0="auto"), dtype=np.float32)
    same = make_imprint_model(imp, label_classes=3, dtype=np.float32)
    assert same.params["imprint.weight"] is imp.weight
    assert same.params["imprint.bias"] is imp.bias
    # a dtype change still converts
    wide = make_imprint_model(imp, label_classes=3, dtype=np.float64)
    assert wide.params["imprint.weight"].dtype == np.float64
    assert np.array_equal(wide.params["imprint.weight"], imp.weight)


def test_copy_isolates_parameters():
    model = _relu_model()
    clone = model.copy()
    clone.params["imprint.bias"][0] += 1.0
    assert model.params["imprint.bias"][0] != clone.params["imprint.bias"][0]


def test_copy_shares_everything_but_the_parameter_arrays():
    model = _relu_model(bridge="identical_row_linear", bridge_dim=2,
                        stages=(FrontStage("identity"),), dtype=np.float32)
    clone = model.copy()
    assert clone.params.keys() == model.params.keys()
    for key, v in model.params.items():
        assert clone.params[key] is not v and not np.shares_memory(clone.params[key], v)
        assert clone.params[key].dtype == v.dtype and np.array_equal(clone.params[key], v)
    for name in ("imprint", "stages", "bridge", "dtype", "n_classes"):
        assert getattr(clone, name) is getattr(model, name), name


def test_unknown_bridge_is_refused_by_name():
    imp = _relu_model().imprint
    with pytest.raises(ValueError, match="unknown bridge 'sideways'"):
        make_imprint_model(imp, label_classes=3, bridge="sideways")
    params = _relu_model().params
    for bridge in ("sideways", None):
        with pytest.raises(ValueError, match=f"unknown bridge {bridge!r}"):
            ModelGraph(imprint=imp, bridge=bridge, n_classes=4, params=params)
    with pytest.raises(ValueError, match="bridge without an imprint layer"):
        ModelGraph(bridge="sum", n_classes=4, params=params)
    # the head is refused by name too, and a random one needs its stream
    with pytest.raises(ValueError, match="unknown head 'square'"):
        make_imprint_model(imp, label_classes=3, head="square")
    with pytest.raises(ValueError, match="random head requires head_stream"):
        make_imprint_model(imp, label_classes=3, head="random")
