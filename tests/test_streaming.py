"""The read-out, the scoring, the forward/backward pass and the defense's
noise work in `row_blocks` blocks and reuse their buffers; the softmax
and the normal draw work in place, and scoring casts its truth and pool to
float64 only for their own products. These tests hold them to the
whole-array expressions bit for bit at the block edges, and bound the bytes
each allocates with tracemalloc (allocation counts, not RSS). A federated
round streams its users into a running secure sum, and is bounded the same
way at two user counts; a fed-AVG call holds its local copy plus one step's
gradients; a one-shot trial loop holds one trial's round at a time."""

import dataclasses
import tracemalloc
from functools import partial

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
from imprintlab.numerics import BLOCK_CELLS, RngStream, row_blocks
from imprintlab.recovery import recover_bins
from oracles import (loop_readout, unblocked_exact_psnr, unblocked_imprint_pass,
                     unblocked_pairwise_sq, unblocked_softmax_ce, whole_draw_noise,
                     whole_pool)

WIDTHS = (40, 768, 3072)  # 6553, 341 and 85 rows a block


def _edges(width):
    """Row counts at the block edges of rows of `width`: none, one, one below,
    at and one above a block, and one above two blocks."""
    r = BLOCK_CELLS // width
    return (0, 1, r - 1, r, r + 1, 2 * r + 1)


AT_EDGES = [(m, count) for m in WIDTHS for count in _edges(m)]


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


def _live_bins(k, r, count, rng):
    """`count` bins, the edges of blocks of r bins and the top bin first."""
    edges = [r - 1, r, k - 1, 0, 2 * r - 1, 2 * r]
    rest = [b for b in rng.permutation(k).tolist() if b not in edges]
    return np.sort(np.array((edges + rest)[:count], dtype=np.int64))


def _readout_rows(readout):
    return [(int(b), v.tobytes(), float(d), float(c)) for b, v, d, c in
            zip(readout.bins, readout.vectors, readout.denominators, readout.confidences)]


@pytest.mark.parametrize("m, count", AT_EDGES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["relu", "hard_threshold"])
def test_readout_is_the_unblocked_readout_at_block_edges(variant, dtype, m, count):
    rng = np.random.default_rng([count, variant == "relu", dtype == np.float32])
    r = BLOCK_CELLS // m
    imp = _imprint(variant, 2 * r + 5, rng)  # three blocks, the last one partial
    assert len(row_blocks(imp.k, m)) == 3
    live = _live_bins(imp.k, r, count, rng)
    payload = _payload(imp, live, m, dtype, rng)
    readout = recover_bins(payload, imp)
    assert readout.bins.tolist() == live.tolist()
    assert readout.vectors.shape == (count, m)
    assert _readout_rows(readout) == [(b, v.tobytes(), d, c)
                                      for b, v, d, c in loop_readout(payload, imp)]


@pytest.mark.parametrize("tensor, value", [("imprint.weight", np.inf),
                                           ("imprint.weight", np.nan),
                                           ("imprint.bias", np.nan)])
@pytest.mark.parametrize("variant", ["relu", "hard_threshold"])
@pytest.mark.parametrize("m", WIDTHS)
def test_non_finite_entry_in_a_dead_bin_still_raises(m, variant, tensor, value):
    rng = np.random.default_rng(7)
    r = BLOCK_CELLS // m
    imp = _imprint(variant, 2 * r + 5, rng)
    assert len(row_blocks(imp.k, m)) == 3
    payload = _payload(imp, np.array([r - 1]), m, np.float32, rng)
    dead = 2 * r + 2  # it and the bin below it (which a ReLU row also feeds) are dead
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


def _pairwise_cases():
    """(rows, others, m): b's `others` rows of width m span three blocks, and
    a's `rows` sit at the block edges of a's pass, which is as wide as b's
    row count or m, whichever is larger (13107 at m 40, m at 768 and 3072)."""
    for m in WIDTHS:
        others = 2 * (BLOCK_CELLS // m) + 1
        for rows in _edges(max(m, others)):
            yield rows, others, m


@pytest.mark.parametrize("rows, others, m", _pairwise_cases())
def test_pairwise_distances_are_the_unblocked_expression(rows, others, m):
    assert len(row_blocks(others, m)) == 3
    rng = np.random.default_rng([rows, others])
    a = rng.standard_normal((rows, m))
    b = rng.standard_normal((others, m))
    a[:rows // 2] = b[0]  # exact copies: distances that clip at 0
    assert _pairwise_sq(a, b).tobytes() == unblocked_pairwise_sq(a, b).tobytes()


def _score_inputs(count, m, rng, dtype=np.float64):
    """64 truth rows of width m in dtype, `count` float64 candidates that copy
    truth rows drawn with replacement (about half of them off by 1e-3), and
    their member pairs. Few truth rows keep 13107 candidates' distances small."""
    n = 64
    truth = rng.standard_normal((n, m)).astype(dtype)
    truth[3] = 0.0  # a zero row: only an exact zero is exact
    truth[4, ::2] = -0.0
    rows = rng.integers(0, n, count)
    cands = truth[rows] + np.where(rng.random((count, 1)) < 0.5, 0.0, 1e-3)
    pairs = (np.arange(count), rows)
    if count > 2:  # candidate 0 holds two rows, the last candidate none
        pairs = (np.r_[np.arange(count - 1), 0], np.r_[rows[:-1], (rows[0] + 1) % n])
    return truth, cands, pairs


@pytest.mark.parametrize("transform", [None, lambda v: (v + 4.0) / 8.0])
@pytest.mark.parametrize("m, count", AT_EDGES)
def test_score_is_the_unblocked_exactness_and_psnr_at_block_edges(m, count, transform):
    rng = np.random.default_rng([count, m])
    truth, cands, pairs = _score_inputs(count, m, rng)
    rep = score(cands, truth, pairs, pool=rng.standard_normal((50, m)), rel_tol=1e-4,
                psnr_transform=transform)
    exact, psnr = unblocked_exact_psnr(cands, truth, rep.truth_row, rel_tol=1e-4,
                                       psnr_transform=transform)
    assert rep.exact.tolist() == (exact & ~rep.spurious).tolist()
    assert rep.psnr.tobytes() == psnr.tobytes()


def _fields(rep):
    """Each ScoreReport field as bytes (the float IIP as a float64)."""
    return {f.name: np.asarray(getattr(rep, f.name)).tobytes() for f in dataclasses.fields(rep)}


@pytest.mark.parametrize("p", [0, 50])
@pytest.mark.parametrize("m, count", AT_EDGES)
def test_score_on_float32_truth_and_pool_is_score_on_their_float64_casts(m, count, p):
    rng = np.random.default_rng([count, m, p])
    truth, cands, pairs = _score_inputs(count, m, rng, np.float32)
    pool = rng.standard_normal((p, m)).astype(np.float32) if p else None
    kw = dict(rel_tol=1e-4, psnr_transform=lambda v: (v + 4.0) / 8.0)
    rep = score(cands, truth, pairs, pool=pool, **kw)
    ref = score(cands, truth.astype(np.float64), pairs,
                pool=None if pool is None else pool.astype(np.float64), **kw)
    assert _fields(rep) == _fields(ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sd", [1.0, 1e-2, 40 ** -0.25, 3.0])
def test_normal_draw_is_the_out_of_place_product(sd, dtype):
    stream, shape = RngStream(5, 11), (257, 40)
    ref = np.asarray(stream.generator().standard_normal(shape) * sd, dtype=dtype)
    out = stream.normal(shape, sd=sd, dtype=dtype)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("noise, sigma", [("gaussian", 0.3), ("laplace", 1e-3)])
@pytest.mark.parametrize("m, rows", AT_EDGES)
def test_block_streamed_noise_is_one_whole_draw(m, rows, noise, sigma, dtype):
    """`w` has rows at the block edges of its width; `b`, one cell a row,
    spans three blocks."""
    stream = RngStream(6, rows)
    tensors = {"w": stream.derive(0).normal((rows, m), dtype=dtype),
               "b": stream.derive(1).normal((2 * BLOCK_CELLS + 1,), dtype=dtype),
               "h": stream.derive(2).normal((3, 1), dtype=dtype)}
    assert len(row_blocks(len(tensors["b"]), 1)) == 3
    payload = UpdatePayload(kind="gradient", tensors=tensors)
    config = DefenseConfig(noise=noise, sigma=sigma)
    out = apply_defense(payload, config, RngStream(7, rows)).tensors
    ref = whole_draw_noise(payload, config, RngStream(7, rows))
    assert out.keys() == ref.keys()
    for key, t in ref.items():
        assert out[key].dtype == t.dtype == dtype and out[key].tobytes() == t.tobytes(), key


def _pool_inputs(kind, front, dtype, blocks, extra):
    """_draw_pool's config, input width, token table and row count for a draw
    of `blocks` whole blocks plus `extra` rows: synthetic rows of width 4096
    (64 per block), or 7-token sequences over a width-448 table in the run
    dtype (width 3136, 83 per block, so an odd count of ids in every block)."""
    if kind == "synthetic_gaussian":
        data, m, table = {"kind": kind}, 4096, None
    else:
        data, m = {"kind": kind, "seq_len": 7, "vocab": 300}, 7 * 448
        table = np.random.default_rng(0).standard_normal((300, 448)).astype(dtype)
    rows = blocks * (BLOCK_CELLS // m) + extra
    cfg = {"dtype": np.dtype(dtype).name, "data": data,
           "model": {"front": [{"kind": stage, "factor": factor} for stage, factor in front]}}
    return cfg, m, table, rows


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)])
@pytest.mark.parametrize("front", [[], [("avg_pool", 2)]])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["synthetic_gaussian", "token_sequences"])
def test_block_built_pool_is_one_whole_draw(kind, dtype, front, blocks, extra, seed):
    """Both draws of public data, the IIP pool's and the surrogate's."""
    cfg, m, table, rows = _pool_inputs(kind, front, dtype, blocks, extra)
    cfg["seed"] = seed
    for stream_id in (scenarios.STREAM_POOL, scenarios.STREAM_SURROGATE):
        pool = scenarios._draw_pool(cfg, m, table, stream_id, rows)
        if rows == 0:
            assert pool is None
            continue
        ref = whole_pool(cfg, m, table, stream_id, rows)
        assert pool.dtype == ref.dtype == np.float64
        assert pool.shape == ref.shape and pool.tobytes() == ref.tobytes()


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
    # a float64 block of at most BLOCK_CELLS cells plus the ReLU row above
    # it, and one more block for the gather of its live rows or their |.|
    blocks = (2 * BLOCK_CELLS + m) * 8
    # per-bin arrays: the denominators, |den|, the live mask and indices and
    # the bias-row gather, each at most k float64 or int64
    per_bin = 8 * k * 8
    peak = _peak_bytes(recover_bins, payload, imp)
    assert peak <= readout_bytes + blocks + per_bin + SMALL, (peak, readout_bytes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0, 1000])
def test_score_peaks_at_its_distance_matrices_plus_two_blocks(p, dtype):
    """One distance matrix and one full-size float64 operand at a time: the
    candidate-truth distances and truth's float64 cast are freed before the
    pool is drawn or cast. The pool comes as rows in dtype, and as a function
    returning float64 rows (as a run passes it), whose bytes count."""
    # truth wider than the distances and two blocks: one (n, m) temporary
    # would show, and so would a second distance matrix
    c, n, m = 1000, 1024, 2048
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((n, m)).astype(dtype)
    rows = rng.standard_normal((p, m)) if p else None
    cands = truth[rng.permutation(n)[:c]] + np.float64(1e-6)  # float64, as read-outs are
    pairs = (rng.integers(0, c, n), np.arange(n))
    # one distance matrix: candidate-truth or candidate-pool
    dists = c * max(n, p) * 8
    # two blocks of at most BLOCK_CELLS cells: candidate rows squared, then
    # their row norms plus the operand's; or a paired truth block beside its
    # difference, its transform, or the candidates' transform
    blocks = 2 * BLOCK_CELLS * 8
    # index and value arrays over candidates, truth, pool rows and pairs
    per_row = 16 * (c + n + p + len(pairs[0])) * 8
    truth_cast = 0 if dtype == np.float64 else n * m * 8
    for pool, pool_bytes in ((None if rows is None else rows.astype(dtype),
                              0 if dtype == np.float64 else p * m * 8),
                             (lambda: None if rows is None else rows.copy(), p * m * 8)):
        # the larger float64 operand: truth's cast, or the pool's rows or cast
        operand = max(truth_cast, pool_bytes)
        peak = _peak_bytes(score, cands, truth, pairs, pool=pool, rel_tol=1e-4,
                           psnr_transform=lambda v: v * 0.5)
        assert peak <= dists + operand + blocks + per_row + SMALL, (peak, dists, operand)


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
        cfg, scenarios._feature_width(cfg, batch.n, batch.m), batch.n, dtype,
        partial(scenarios._draw_pool, cfg, batch.m, batch.meta.get("table")))
    return cfg, model, imp, batch, RngStream(cfg["seed"], scenarios.STREAM_DEFENSE)


@pytest.mark.parametrize("users", [2, 8])
def test_federate_peaks_at_the_sum_plus_one_users_pass(users):
    shard = 4
    cfg, model, imp, batch, stream = _fed_avg_round(users, shard)
    update = sum(p.nbytes for p in model.params.values())  # one payload, or the sum
    # one user's pass: the local model copy, a step's gradient, the delta,
    # the defended copy, one block of Laplace noise (here half the imprint
    # weight: 32 of its 64 rows of width 4096), and the (shard, rows)
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


@pytest.mark.parametrize("w", [512, 3072])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_defense_peaks_at_its_copies_plus_one_noise_block(dtype, w):
    rows = 4 * (BLOCK_CELLS // w) + 1
    stream = RngStream(8, 0)
    payload = UpdatePayload(kind="gradient", tensors={
        "w": stream.derive(0).normal((rows, w), dtype=dtype),
        "b": stream.derive(1).normal((rows,), dtype=dtype)})
    copies = sum(t.nbytes for t in payload.tensors.values())
    # one block of float64 noise and its cast to the tensor's dtype
    block = BLOCK_CELLS * (8 + (np.dtype(dtype).itemsize if dtype != np.float64 else 0))
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
