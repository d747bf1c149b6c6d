"""The read-out, the scoring and the forward/backward pass work in row blocks
of BLOCK_ROWS and reuse their buffers. These tests hold them to the
whole-array expressions bit for bit at the block edges, and bound the bytes
each allocates with tracemalloc (allocation counts, not RSS)."""

import tracemalloc

import numpy as np
import pytest

from imprintlab import scenarios
from imprintlab.cli import main
from imprintlab.dataio import canonical_json
from imprintlab.distributions import Normal
from imprintlab.federation import UpdatePayload
from imprintlab.imprint import ImprintModule, build_hard_threshold, build_relu, make_layout
from imprintlab.measurement import build_measurement
from imprintlab.metrics import _pairwise_sq, score
from imprintlab.model import make_imprint_model
from imprintlab.numerics import BLOCK_ROWS as B
from imprintlab.numerics import RngStream
from imprintlab.recovery import recover_bins
from oracles import (loop_readout, unblocked_exact_psnr, unblocked_imprint_pass,
                     unblocked_pairwise_sq)

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


@pytest.mark.parametrize("transform", [None, lambda v: (v + 4.0) / 8.0])
@pytest.mark.parametrize("count", EDGES)
def test_score_is_the_unblocked_exactness_and_psnr_at_block_edges(count, transform):
    rng = np.random.default_rng(count)
    n, m = B + 9, 40
    truth = rng.standard_normal((n, m))
    truth[3] = 0.0  # a zero row: only an exact zero is exact
    truth[4, ::2] = -0.0
    rows = rng.permutation(n)[:count]
    cands = truth[rows] + np.where(rng.random((count, 1)) < 0.5, 0.0, 1e-3)
    pairs = (np.arange(count), rows)
    if count > 2:  # candidate 0 holds two rows, the last candidate none
        pairs = (np.r_[np.arange(count - 1), 0], np.r_[rows[:-1], (rows[0] + 1) % n])
    rep = score(cands, truth, pairs, pool=rng.standard_normal((50, m)), rel_tol=1e-4,
                psnr_transform=transform)
    exact, psnr = unblocked_exact_psnr(cands, truth, rep.truth_row, rel_tol=1e-4,
                                       psnr_transform=transform)
    assert rep.exact.tolist() == (exact & ~rep.spurious).tolist()
    assert rep.psnr.tobytes() == psnr.tobytes()


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
        stats = {}
        loss, grads = model.loss_and_grads(x, labels, stats=stats)
        ref_loss, ref_grads, active, _ = unblocked_imprint_pass(model, x, labels)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for key, g in grads.items():
            assert g.dtype == ref_grads[key].dtype and g.tobytes() == ref_grads[key].tobytes()
        assert np.array_equal(stats["active"], active)


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


@pytest.mark.parametrize("p", [0, 1000])
def test_score_peaks_at_its_distance_matrices_plus_two_blocks(p):
    # truth wider than the distances and two blocks: one (n, m) temporary would show
    c, n, m = 288, 1024, 2048
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((n, m))
    pool = rng.standard_normal((p, m)) if p else None
    cands = truth[rng.permutation(n)[:c]] + 1e-6
    pairs = (rng.integers(0, c, n), np.arange(n))
    # the candidate-truth and candidate-pool distance matrices
    dists = c * (n + p) * 8
    # a block of candidate rows against the widest operand: its squared
    # rows, a product row block, a paired truth block, its difference
    blocks = 2 * B * max(m, n, p) * 8
    # index and value arrays over candidates, truth, pool rows and pairs
    per_row = 16 * (c + n + p + len(pairs[0])) * 8
    peak = _peak_bytes(score, cands, truth, pairs, pool=pool, rel_tol=1e-4,
                       psnr_transform=lambda v: v * 0.5)
    assert peak <= dists + blocks + per_row + SMALL, (peak, dists)
