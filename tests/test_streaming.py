"""The read-out, the scoring, the forward/backward pass and the defense's
noise work in row blocks of BLOCK_ROWS and reuse their buffers; the softmax
and the normal draw work in place, and scoring casts its truth and pool to
float64 only for their own products. These tests hold them to the
whole-array expressions bit for bit at the block edges, and bound the bytes
each allocates with tracemalloc (allocation counts, not RSS). A federated
round streams its users into a running secure sum, and is bounded the same
way at two user counts; a fed-AVG call holds its local copy plus one step's
gradients; a one-shot trial loop holds one trial's round at a time."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imprintlab import scenarios
from imprintlab.cli import main
from imprintlab.dataio import canonical_json
from imprintlab.defense import DefenseConfig, apply_defense
from imprintlab.distributions import Normal
from imprintlab.errors import ConfigError
from imprintlab.federation import UpdatePayload, fed_avg
from imprintlab.imprint import ImprintModule, build_hard_threshold, build_relu, make_layout
from imprintlab.measurement import build_measurement
from imprintlab.metrics import _pairwise_sq, score
from imprintlab.model import PIN_OFFSET, _softmax_ce, make_imprint_model
from imprintlab.numerics import BLOCK_ROWS as B
from imprintlab.numerics import RngStream
from imprintlab.recovery import recover_bins
from oracles import (loop_readout, unblocked_exact_psnr, unblocked_imprint_pass,
                     unblocked_pairwise_sq, unblocked_softmax_ce, whole_draw_noise)

EDGES = (0, 1, B - 1, B, B + 1)


def _imprint(variant, k, rng, decoys=1):
    """An imprint of k bins served by permuted rows, plus decoy rows no bin
    reads; only the variant and the row map matter to the read-out."""
    perm = rng.permutation(k + decoys)
    return ImprintModule(variant=variant, weight=np.zeros((k + decoys, 1)),
                         bias=np.zeros(k + decoys),
                         boundaries=np.arange(k, dtype=np.float64),
                         row_of_bin=perm[:k], decoy_rows=np.sort(perm[k:]))


def _payload(imp, live, m, dtype, rng):
    """A gradient payload whose bins in `live` have a nonzero denominator and
    every other bin exactly zero: ReLU rows carry cumulative sums from the
    top bin down, so a dead bin's two rows are equal. Weight rows are random
    with every fifth entry -0.0, and the decoy rows are huge."""
    k, rows = imp.k, len(imp.bias)
    den = np.zeros(k)
    den[live] = rng.uniform(0.5, 2.0, len(live)) * rng.choice([-1.0, 1.0], len(live))
    by_bin = np.cumsum(den[::-1])[::-1] if imp.variant == "relu" else den
    gb = np.full(rows, 1e30)
    gb[imp.row_of_bin] = by_bin
    gw = rng.standard_normal((rows, m))
    gw.reshape(-1)[::5] = -0.0
    gw[imp.decoy_rows] = 1e30
    return UpdatePayload(kind="gradient",
                         tensors={"imprint.weight": gw.astype(dtype),
                                  "imprint.bias": gb.astype(dtype)})


def _live_bins(k, count, rng):
    """`count` bins, the block edges and the top bin first."""
    edges = [B - 1, B, k - 1, 0, 2 * B - 1, 2 * B]
    rest = [b for b in rng.permutation(k).tolist() if b not in edges]
    return np.sort(np.array((edges + rest)[:count], dtype=np.int64))


def _readout_rows(readout):
    return [(int(b), v.tobytes(), float(d), float(c)) for b, v, d, c in
            zip(readout.bins, readout.vectors, readout.denominators, readout.confidences)]


@pytest.mark.parametrize("count", EDGES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["relu", "hard_threshold"])
def test_readout_is_the_unblocked_readout_at_block_edges(variant, dtype, count):
    rng = np.random.default_rng([count, variant == "relu", dtype == np.float32])
    imp = _imprint(variant, 2 * B + 5, rng)  # three blocks, the last one partial
    live = _live_bins(imp.k, count, rng)
    payload = _payload(imp, live, 9, dtype, rng)
    readout = recover_bins(payload, imp)
    assert readout.bins.tolist() == live.tolist()
    assert readout.vectors.shape == (count, 9)
    assert _readout_rows(readout) == [(b, v.tobytes(), d, c)
                                      for b, v, d, c in loop_readout(payload, imp)]


@pytest.mark.parametrize("tensor, value", [("imprint.weight", np.inf),
                                           ("imprint.weight", np.nan),
                                           ("imprint.bias", np.nan)])
@pytest.mark.parametrize("variant", ["relu", "hard_threshold"])
def test_non_finite_entry_in_a_dead_bin_still_raises(variant, tensor, value):
    rng = np.random.default_rng(7)
    imp = _imprint(variant, 2 * B + 5, rng)
    payload = _payload(imp, np.array([B - 1]), 9, np.float32, rng)
    dead = 2 * B + 2  # it and the bin below it (which a ReLU row also feeds) are dead
    payload.tensors[tensor][imp.row_of_bin[dead], ...] = value
    with pytest.raises(ValueError, match="non-finite gradient"):
        recover_bins(payload, imp)


def test_non_finite_entry_in_a_dead_bin_exits_3(tmp_path, monkeypatch, capsys):
    real = scenarios.recover_bins

    def poisoned(payload, imp):
        live = {b for b, *_ in loop_readout(payload, imp)}
        dead = next(b for b in range(1, imp.k) if b not in live and b - 1 not in live)
        payload.tensors["imprint.weight"][imp.row_of_bin[dead], 0] = np.inf
        return real(payload, imp)

    monkeypatch.setattr(scenarios, "recover_bins", poisoned)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(canonical_json(scenarios.bundled_config("fullbatch64")))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "(ValueError): non-finite gradient in the payload" in capsys.readouterr().err


@pytest.mark.parametrize("rows", EDGES + (2 * B + 3,))
@pytest.mark.parametrize("others", [3, B + 7])
def test_pairwise_distances_are_the_unblocked_expression(rows, others):
    rng = np.random.default_rng([rows, others])
    a = rng.standard_normal((rows, 33))
    b = rng.standard_normal((others, 33))
    a[:rows // 2] = b[0]  # exact copies: distances that clip at 0
    assert _pairwise_sq(a, b).tobytes() == unblocked_pairwise_sq(a, b).tobytes()


def _score_inputs(count, rng, dtype=np.float64):
    """B + 9 truth rows of width 40 in dtype, `count` float64 candidates that
    copy truth rows (about half of them off by 1e-3), and their member pairs."""
    n, m = B + 9, 40
    truth = rng.standard_normal((n, m)).astype(dtype)
    truth[3] = 0.0  # a zero row: only an exact zero is exact
    truth[4, ::2] = -0.0
    rows = rng.permutation(n)[:count]
    cands = truth[rows] + np.where(rng.random((count, 1)) < 0.5, 0.0, 1e-3)
    pairs = (np.arange(count), rows)
    if count > 2:  # candidate 0 holds two rows, the last candidate none
        pairs = (np.r_[np.arange(count - 1), 0], np.r_[rows[:-1], (rows[0] + 1) % n])
    return truth, cands, pairs


@pytest.mark.parametrize("transform", [None, lambda v: (v + 4.0) / 8.0])
@pytest.mark.parametrize("count", EDGES)
def test_score_is_the_unblocked_exactness_and_psnr_at_block_edges(count, transform):
    rng = np.random.default_rng(count)
    truth, cands, pairs = _score_inputs(count, rng)
    rep = score(cands, truth, pairs, pool=rng.standard_normal((50, 40)), rel_tol=1e-4,
                psnr_transform=transform)
    exact, psnr = unblocked_exact_psnr(cands, truth, rep.truth_row, rel_tol=1e-4,
                                       psnr_transform=transform)
    assert rep.exact.tolist() == (exact & ~rep.spurious).tolist()
    assert rep.psnr.tobytes() == psnr.tobytes()


def _fields(rep):
    """Each ScoreReport field as bytes (the float IIP as a float64)."""
    return {f.name: np.asarray(getattr(rep, f.name)).tobytes() for f in dataclasses.fields(rep)}


@pytest.mark.parametrize("p", [0, 50])
@pytest.mark.parametrize("count", EDGES)
def test_score_on_float32_truth_and_pool_is_score_on_their_float64_casts(count, p):
    rng = np.random.default_rng([count, p])
    truth, cands, pairs = _score_inputs(count, rng, np.float32)
    pool = rng.standard_normal((p, 40)).astype(np.float32) if p else None
    kw = dict(rel_tol=1e-4, psnr_transform=lambda v: (v + 4.0) / 8.0)
    rep = score(cands, truth, pairs, pool=pool, **kw)
    ref = score(cands, truth.astype(np.float64), pairs,
                pool=None if pool is None else pool.astype(np.float64), **kw)
    assert _fields(rep) == _fields(ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sd", [1.0, 1e-2, 40 ** -0.25, 3.0])
def test_normal_draw_is_the_out_of_place_product(sd, dtype):
    stream, shape = RngStream(5, 11), (B + 1, 40)
    ref = np.asarray(stream.generator().standard_normal(shape) * sd, dtype=dtype)
    out = stream.normal(shape, sd=sd, dtype=dtype)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("noise, sigma", [("gaussian", 0.3), ("laplace", 1e-3)])
@pytest.mark.parametrize("rows", EDGES + (2 * B + 3,))
def test_block_streamed_noise_is_one_whole_draw(rows, noise, sigma, dtype):
    stream = RngStream(6, rows)
    tensors = {"w": stream.derive(0).normal((rows, 7), dtype=dtype),
               "b": stream.derive(1).normal((rows,), dtype=dtype),
               "h": stream.derive(2).normal((3, 1), dtype=dtype)}
    payload = UpdatePayload(kind="gradient", tensors=tensors)
    config = DefenseConfig(noise=noise, sigma=sigma)
    out = apply_defense(payload, config, RngStream(7, rows)).tensors
    ref = whole_draw_noise(payload, config, RngStream(7, rows))
    assert out.keys() == ref.keys()
    for key, t in ref.items():
        assert out[key].dtype == t.dtype == dtype and out[key].tobytes() == t.tobytes(), key


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300), classes=st.integers(1, 12),
       dtype=st.sampled_from([np.float32, np.float64]), gain=st.floats(0.0, 1e6),
       pinned=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_softmax_ce_is_the_out_of_place_expression(n, classes, dtype, gain, pinned, seed):
    """Logits as a pinned or random head gives them: gain times a normal
    draw, the pinned class offset by PIN_OFFSET."""
    rng = np.random.default_rng(seed)
    logits = (rng.standard_normal((n, classes)) * gain).astype(dtype)
    if pinned:
        logits[:, -1] += dtype(PIN_OFFSET)
    labels = rng.integers(0, classes, n)
    ref_loss, ref = unblocked_softmax_ce(logits, labels)
    loss, dlogits = _softmax_ce(logits.copy(), labels)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert dlogits.dtype == ref.dtype and dlogits.tobytes() == ref.tobytes()


def _integer_model(variant, bridge, dtype, seed):
    """An imprint model whose weights, biases and inputs are small integers,
    so pre-activations land exactly on 0 and 1, plus one row no example
    activates. A random head gives the activation gradient both signs, a
    pinned head one sign for every example."""
    lay = make_layout(Normal(), 6)
    h = build_measurement("mean", 5, c0="auto")
    imp = (build_relu if variant == "relu" else build_hard_threshold)(lay, h, dtype=dtype)
    head = {"head": "random", "head_stream": RngStream(seed, 0)} if seed < 2 else \
        {"head": "pinned", "gain": 3.0 if seed % 2 else -3.0}
    model = make_imprint_model(imp, label_classes=3, bridge=bridge, bridge_dim=2,
                               dtype=dtype, **head)
    rng = np.random.default_rng(seed)
    model.params["imprint.weight"] = rng.integers(-2, 3, (6, 5)).astype(dtype)
    bias = rng.integers(-2, 3, 6).astype(dtype)
    bias[2] = -100.0
    model.params["imprint.bias"] = bias
    return model, rng.integers(-2, 3, (40, 5)).astype(dtype), rng.integers(0, 3, 40)


@pytest.mark.parametrize("bridge", ["sum", "identical_row_linear"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["relu", "hard_threshold"])
def test_forward_backward_is_the_unblocked_pass(variant, dtype, bridge):
    for seed in range(5):
        model, x, labels = _integer_model(variant, bridge, dtype, seed)
        loss, grads, active = model.loss_and_grads(x, labels)
        ref_loss, ref_grads, ref_active, _ = unblocked_imprint_pass(model, x, labels)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for key, g in grads.items():
            assert g.dtype == ref_grads[key].dtype and g.tobytes() == ref_grads[key].tobytes()
        assert np.array_equal(active, ref_active)


# -- memory: tracemalloc counts every numpy data allocation; the bounds are
# derived from the arrays each stage may hold at once, never fitted.

def _peak_bytes(fn, *args, **kw):
    """Peak bytes traced while fn runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kw)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


SMALL = 64 * 1024  # interpreter objects: frames, slices, scalars, the lambda


def test_readout_peaks_at_the_live_readout_plus_two_blocks():
    k, m = 2048, 3072
    rng = np.random.default_rng(0)
    imp = _imprint("relu", k, rng, decoys=0)
    live = np.flatnonzero(rng.random(k) < 0.4)
    payload = _payload(imp, live, 1, np.float32, rng)
    payload.tensors["imprint.weight"] = rng.standard_normal((k, m), dtype=np.float32)
    # the result: (c, m) float64 vectors and three (c,) arrays
    readout_bytes = len(live) * (m + 3) * 8
    # a float64 block of BLOCK_ROWS bins plus the ReLU row above it, and one
    # more such block for the gather of its live rows or their |.|
    blocks = 2 * (B + 1) * m * 8
    # per-bin arrays: the denominators, |den|, the live mask and indices and
    # the bias-row gather, each at most k float64 or int64
    per_bin = 8 * k * 8
    peak = _peak_bytes(recover_bins, payload, imp)
    assert peak <= readout_bytes + blocks + per_bin + SMALL, (peak, readout_bytes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0, 1000])
def test_score_peaks_at_its_distance_matrices_plus_two_blocks(p, dtype):
    # truth wider than the distances and two blocks: one (n, m) temporary would show
    c, n, m = 288, 1024, 2048
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((n, m)).astype(dtype)
    pool = rng.standard_normal((p, m)).astype(dtype) if p else None
    cands = truth[rng.permutation(n)[:c]] + np.float64(1e-6)  # float64, as read-outs are
    pairs = (rng.integers(0, c, n), np.arange(n))
    # the candidate-truth and candidate-pool distance matrices
    dists = c * (n + p) * 8
    # a block of candidate rows against the widest operand: its squared
    # rows, a product row block, a paired truth block, its difference
    blocks = 2 * B * max(m, n, p) * 8
    # index and value arrays over candidates, truth, pool rows and pairs
    per_row = 16 * (c + n + p + len(pairs[0])) * 8
    # the float64 cast of float32 truth or pool: each lives only during its
    # own distance product, so only the larger counts
    cast = 0 if dtype == np.float64 else max(n, p) * m * 8
    peak = _peak_bytes(score, cands, truth, pairs, pool=pool, rel_tol=1e-4,
                       psnr_transform=lambda v: v * 0.5)
    assert peak <= dists + blocks + per_row + cast + SMALL, (peak, dists)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normal_draw_peaks_at_one_float64_draw_plus_its_cast(dtype):
    """Where numpy elides temporaries (glibc builds), `draw * sd` reuses the
    draw as well, so this bound guards the in-place scale on every platform
    but does not tell the two apart here."""
    shape = (1024, 256)
    draw = shape[0] * shape[1] * 8
    cast = 0 if dtype == np.float64 else shape[0] * shape[1] * np.dtype(dtype).itemsize
    peak = _peak_bytes(RngStream(3, 0).normal, shape, sd=0.5, dtype=dtype)
    assert peak <= draw + cast + SMALL, (peak, draw)


def test_trial_loop_holds_one_round_at_a_time():
    """Four trials peak where one does: each round is freed before the next
    trial's batch is drawn, and a trial keeps only its k-length table."""
    raw = scenarios.bundled_config("oneshot")  # n 4096 x m 32 float64: 1 MiB a batch
    peaks = []
    for trials in (1, 1, 4):  # the first run warms up what a run caches
        peaks.append(_peak_bytes(scenarios.run_scenario, dict(raw, trials=trials)))
    assert peaks[2] <= peaks[1] + SMALL, peaks


def _fed_avg_round(users, shard, m=4096, k=64, variant="hard_threshold"):
    """The inputs `_federate` takes for a float64 fed-AVG round of `users`
    users x `shard` examples in 2 local steps, under clip and Laplace noise."""
    raw = scenarios.bundled_config("fedavg8x8")
    raw["data"] = dict(raw["data"], n=users * shard, m=m)
    raw["model"]["imprint"] = {"variant": variant, "k": k}
    raw["federation"] = dict(raw["federation"], users=users, steps=2)
    raw["defense"] = {"clip": 1.0, "noise": "laplace", "sigma": 1e-12}
    cfg = scenarios.validate_config(raw)
    dtype = np.dtype(cfg["dtype"])
    batch = scenarios._load_batch(cfg, dtype, RngStream(cfg["seed"], scenarios.STREAM_DATA))
    imp, model = scenarios._build_attack(
        cfg, scenarios._feature_width(cfg, batch.n, batch.m), batch.n, dtype)
    return cfg, model, imp, batch, RngStream(cfg["seed"], scenarios.STREAM_DEFENSE)


@pytest.mark.parametrize("users", [2, 8])
def test_federate_peaks_at_the_sum_plus_one_users_pass(users):
    shard = 4
    cfg, model, imp, batch, stream = _fed_avg_round(users, shard)
    update = sum(p.nbytes for p in model.params.values())  # one payload, or the sum
    # one user's pass: the local model copy, a step's gradient, the delta,
    # the defended copy, one block of Laplace noise (here the whole imprint
    # weight: its 64 rows are fewer than BLOCK_ROWS), and the (shard, rows)
    # active mask twice over (each step's and their concatenation). The
    # defense runs after the local copy and the step gradient are freed.
    one_pass = 4 * update + 2 * shard * imp.n_rows
    peak = _peak_bytes(scenarios._federate, cfg, model, imp, batch, stream)
    assert peak <= update + one_pass + SMALL, (peak, update)


@pytest.mark.parametrize("variant", ["hard_threshold", "relu"])
@pytest.mark.parametrize("steps", [2, 4])
def test_fed_avg_peaks_at_its_copy_plus_one_steps_gradient(steps, variant):
    _, model, _, batch, _ = _fed_avg_round(1, 8, variant=variant)
    update = sum(p.nbytes for p in model.params.values())
    # the local copy and one step's gradients (each step's are freed before
    # the next pass), then the copy and the delta. A step that touches at
    # most a quarter of the imprint rows gathers their gradient and weight
    # rows: at most half the imprint weight. Here a hard-threshold chunk
    # touches at most its 4 or 2 examples' rows of 64, a ReLU chunk most rows.
    gathers = model.params["imprint.weight"].nbytes // 2
    peak = _peak_bytes(fed_avg, model, batch.x, batch.labels, steps=steps, lr=1e-4)
    assert peak <= 2 * update + gathers + SMALL, (peak, update)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_defense_peaks_at_its_copies_plus_one_noise_block(dtype):
    rows, w = 4 * B + 1, 512
    stream = RngStream(8, 0)
    payload = UpdatePayload(kind="gradient", tensors={
        "w": stream.derive(0).normal((rows, w), dtype=dtype),
        "b": stream.derive(1).normal((rows,), dtype=dtype)})
    copies = sum(t.nbytes for t in payload.tensors.values())
    # one block of float64 noise and its cast to the tensor's dtype
    block = B * w * (8 + (np.dtype(dtype).itemsize if dtype != np.float64 else 0))
    for noise in ("gaussian", "laplace"):  # unclipped: in float32 the norm's cast would peak
        config = DefenseConfig(noise=noise, sigma=1e-3)
        peak = _peak_bytes(apply_defense, payload, config, RngStream(9, 0))
        assert peak <= copies + block + SMALL, (noise, peak, copies)


@pytest.mark.parametrize("exc, code", [(ConfigError("model.head.gain: bad"), 2),
                                       (ValueError("non-finite delta"), 3)])
def test_error_inside_a_users_pass_keeps_its_exit_code(tmp_path, monkeypatch, capsys, exc, code):
    real, calls = scenarios.fed_avg, []

    def third_user_fails(*args, **kw):
        calls.append(len(calls))
        if len(calls) == 3:
            raise exc
        return real(*args, **kw)

    monkeypatch.setattr(scenarios, "fed_avg", third_user_fails)
    raw = scenarios.bundled_config("fedavg8x8")
    raw["federation"] = dict(raw["federation"], users=4, steps=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(canonical_json(raw))
    assert main(["run", "--config", str(cfg)]) == code
    assert calls == [0, 1, 2]
    assert str(exc) in capsys.readouterr().err
