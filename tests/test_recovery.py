import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imprintlab.distributions import Normal
from imprintlab.federation import fed_avg, fed_sgd, secure_aggregate, to_gradient_form
from imprintlab.imprint import build_hard_threshold, build_relu, make_layout
from imprintlab.measurement import build_measurement
from imprintlab.model import make_imprint_model, make_logistic_model
from imprintlab.numerics import SCORE_CELLS, RngStream
from imprintlab.recovery import (NoActiveRow, Readout, bin_members, decoding_verified,
                                 recover_bins, recover_unique_labels, select_candidates,
                                 token_lookup)
from oracles import loop_readout, loop_select, loop_token_lookup


def _place_in_bins(bounds, h, bins, stream):
    """One point per requested bin, nudged along the row direction so the
    measurement lands mid-bin (top bin reuses the last interior width)."""
    w = h.row()
    top = bounds[-1] + (bounds[-1] - bounds[-2])
    xs = []
    for j, b in enumerate(bins):
        lo = bounds[b]
        hi = bounds[b + 1] if b + 1 < len(bounds) else top
        target = 0.5 * (lo + hi)
        x = stream.derive(j).normal((w.size,))
        xs.append(x + (target - float(x @ w)) * w / float(w @ w))
    return np.stack(xs)


def _vectors_by_bin(readout):
    return dict(zip(readout.bins.tolist(), readout.vectors))


def _rows(readout):
    """A read-out as (bin, vector bytes, denominator, confidence) tuples."""
    return [(int(b), v.tobytes(), float(d), float(c)) for b, v, d, c in
            zip(readout.bins, readout.vectors, readout.denominators, readout.confidences)]


def _relu_setup(m=16, k=8, classes=4, gain=8.0, dtype=np.float64, **kw):
    lay = make_layout(Normal(), k)
    h = build_measurement("mean", m, c0="auto")
    imp = build_relu(lay, h, dtype=dtype, **kw)
    model = make_imprint_model(imp, label_classes=classes, gain=gain, dtype=dtype)
    return lay, h, imp, model


def test_unique_labels_recover_every_example():
    # pinned head: off-class softmax mass is ~e^-40, so each class row is its
    # own example to working precision
    model = make_logistic_model(10, 5, head="pinned", dtype=np.float64)
    x = RngStream(33, 1).normal((5, 10))
    labels = np.array([3, 0, 4, 1, 2])
    grads = model.loss_and_grads(x, labels)[1]
    cands = recover_unique_labels(grads["head.weight"], grads["head.bias"])
    row = {int(b): i for i, b in enumerate(cands.bins)}
    for e, lab in enumerate(labels):
        rel = np.abs(cands.vectors[row[lab]] - x[e]).max() / np.abs(x[e]).max()
        assert rel < 1e-12
        assert abs(cands.denominators[row[lab]] + 1 / 5) < 1e-15


def test_repeated_label_row_blends_its_class():
    model = make_logistic_model(6, 3, head="pinned", dtype=np.float64)
    x = RngStream(34, 1).normal((3, 6))
    labels = np.array([1, 1, 0])
    grads = model.loss_and_grads(x, labels)[1]
    cands = _vectors_by_bin(recover_unique_labels(grads["head.weight"], grads["head.bias"]))
    # both class-1 examples carry the same weight, so the row blends to their mean
    assert np.allclose(cands[1], x[:2].mean(axis=0), rtol=1e-12, atol=1e-15)
    assert np.abs(cands[0] - x[2]).max() < 1e-12
    with pytest.raises(NoActiveRow):
        recover_unique_labels(np.zeros((3, 6)), np.zeros(3))


def test_softmax_head_row_blends_all_examples():
    # with a generic softmax head every example leaks into every class row;
    # the read-out is the dlogits-weighted blend over the whole batch
    model = make_logistic_model(6, 3, head_stream=RngStream(34, 0), dtype=np.float64)
    x = RngStream(34, 1).normal((3, 6))
    labels = np.array([1, 1, 0])
    grads = model.loss_and_grads(x, labels)[1]
    cands = _vectors_by_bin(recover_unique_labels(grads["head.weight"], grads["head.bias"]))
    singles = [model.loss_and_grads(x[i:i + 1], labels[i:i + 1])[1] for i in range(3)]
    for c in (0, 1, 2):
        wts = np.array([s["head.bias"][c] for s in singles])
        oracle = (wts[:, None] * x).sum(axis=0) / wts.sum()
        assert np.allclose(cands[c], oracle, rtol=1e-10, atol=1e-13)
    # contamination is real: class 0's row is visibly off its own example
    assert np.abs(cands[0] - x[2]).max() > 0.01


def test_relu_singletons_recover_exactly():
    lay, h, imp, model = _relu_setup()
    bins = [0, 2, 4, 7]
    x = _place_in_bins(lay, h, bins, RngStream(35, 0))
    payload = fed_sgd(model, x, np.array([0, 1, 2, 3]))[1]
    cands = recover_bins(payload, imp)
    assert cands.bins.tolist() == bins
    for v, xe in zip(cands.vectors, x):
        assert np.abs(v - xe).max() / np.abs(xe).max() < 1e-9


def test_relu_empty_bins_stay_silent():
    lay, h, imp, model = _relu_setup()
    occupied = [1, 5]
    x = _place_in_bins(lay, h, occupied, RngStream(35, 1))
    payload = fed_sgd(model, x, np.array([0, 1]))[1]
    assert recover_bins(payload, imp).bins.tolist() == occupied


def test_relu_collision_reads_out_weighted_average():
    # two examples in one bin: the differenced row returns their
    # per-example-denominator weighted average (random head, so the
    # weights genuinely differ)
    lay = make_layout(Normal(), 8)
    h = build_measurement("mean", 16, c0="auto")
    imp = build_relu(lay, h, dtype=np.float64)
    model = make_imprint_model(imp, label_classes=4, head="random",
                               head_stream=RngStream(36, 0), dtype=np.float64)
    x = _place_in_bins(lay, h, [3, 3], RngStream(36, 1))
    labels = np.array([0, 2])
    payload = fed_sgd(model, x, labels)[1]
    cands = recover_bins(payload, imp)
    assert cands.bins.tolist() == [3]
    singles = [recover_bins(fed_sgd(model, x[i:i + 1], labels[i:i + 1])[1], imp)
               for i in range(2)]
    dens = np.array([s.denominators[0] for s in singles])
    assert abs(dens[0] - dens[1]) > 1e-12 * abs(dens[0])
    oracle = (dens[:, None] * x).sum(axis=0) / dens.sum()
    assert np.allclose(cands.vectors[0], oracle, rtol=1e-10, atol=1e-14)


def test_recovery_ignores_row_permutation_and_decoys():
    # the pinned head gives every genuine row the same per-example activation
    # gradient, so shuffling rows or adding decoys leaves the recovered
    # vectors bit-identical
    lay = make_layout(Normal(), 8)
    h = build_measurement("mean", 16, c0="auto")
    x = _place_in_bins(lay, h, [1, 3, 6], RngStream(37, 0))
    labels = np.array([0, 1, 2])
    outs = []
    variants = [
        dict(),
        dict(perm_stream=RngStream(37, 1)),
        dict(perm_stream=RngStream(37, 2), decoys=4, decoy_stream=RngStream(37, 3)),
    ]
    for kw in variants:
        imp = build_relu(lay, h, dtype=np.float64, **kw)
        model = make_imprint_model(imp, label_classes=4, gain=8.0, dtype=np.float64)
        payload = fed_sgd(model, x, labels)[1]
        outs.append(recover_bins(payload, imp))
    assert outs[0].bins.tolist() == [1, 3, 6]
    for other in outs[1:]:
        assert other.bins.tolist() == [1, 3, 6]
        assert np.array_equal(outs[0].vectors, other.vectors)


def test_hard_threshold_singletons_recover_exactly():
    lay = make_layout(Normal(), 8)
    h = build_measurement("mean", 16, c0="auto")
    imp = build_hard_threshold(lay, h, dtype=np.float64)
    model = make_imprint_model(imp, label_classes=4, gain=8.0, dtype=np.float64)
    bins = [0, 3, 5, 7]
    x = _place_in_bins(lay, h, bins, RngStream(38, 0))
    payload = fed_sgd(model, x, np.array([0, 1, 2, 3]))[1]
    cands = recover_bins(payload, imp)
    assert cands.bins.tolist() == bins
    for v, xe in zip(cands.vectors, x):
        assert np.abs(v - xe).max() / np.abs(xe).max() < 1e-9


def test_param_delta_recovery_matches_gradient_route():
    # steps=1 at a power-of-two rate: the local update itself is exact, the
    # only rounding is the initial-parameter subtraction, so the two payload
    # routes agree to ~1e-11 relative (measured 1.4e-11; bound 1e-9)
    lay = make_layout(Normal(), 8)
    h = build_measurement("mean", 16, c0="auto")
    imp = build_hard_threshold(lay, h, dtype=np.float64)
    model = make_imprint_model(imp, label_classes=4, gain=8.0, dtype=np.float64)
    bins = [0, 2, 3, 6]
    x = _place_in_bins(lay, h, bins, RngStream(30, 0))
    labels = np.array([0, 1, 2, 3])
    grad_payload = fed_sgd(model, x, labels)[1]
    ref = recover_bins(grad_payload, imp)
    delta_payload = fed_avg(model, x, labels, steps=1, lr=2.0 ** -20)[0]
    cands = recover_bins(delta_payload, imp)
    assert np.array_equal(cands.bins, ref.bins)
    for c, r in zip(cands.vectors, ref.vectors):
        assert np.abs(c - r).max() / np.abs(r).max() < 1e-9


def test_aggregate_recovery_matches_joint_batch():
    lay, h, imp, model = _relu_setup()
    bins = [0, 2, 4, 7]
    x = _place_in_bins(lay, h, bins, RngStream(39, 0))
    labels = np.array([0, 1, 2, 3])
    joint = fed_sgd(model, x, labels)[1]
    users = [fed_sgd(model, x[i:i + 2], labels[i:i + 2])[1] for i in (0, 2)]
    agg = secure_aggregate(users)
    # the sum-form aggregate is accepted directly and matches its own mean form
    from_agg = recover_bins(agg, imp)
    from_mean = recover_bins(to_gradient_form(agg), imp)
    assert _rows(from_agg) == _rows(from_mean)
    ref = recover_bins(joint, imp)
    assert np.array_equal(from_agg.bins, ref.bins)
    for a, r in zip(from_agg.vectors, ref.vectors):
        assert np.abs(a - r).max() / np.abs(r).max() < 1e-10


def _model_members(model, imp, x):
    """(n, k) membership of each example in each logical bin, from the imprint
    pre-activations the model itself computes."""
    pre = x @ model.params["imprint.weight"].T + model.params["imprint.bias"]
    pre = pre[:, imp.row_of_bin]
    if imp.variant == "hard_threshold":
        return (pre > 0) & (pre < 1)
    members = pre > 0
    members[:, :-1] ^= members[:, 1:]  # row i minus row i+1 isolates bin i
    return members


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["relu", "hard_threshold"]), shard=st.integers(1, 12),
       users=st.sampled_from([1, 2, 4]), k=st.integers(2, 24), m=st.integers(2, 12),
       permute=st.booleans(), decoys=st.integers(0, 4), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_recover_bins_properties(variant, shard, users, k, m, permute, decoys, seed, dtype):
    n = shard * users
    lay = make_layout(Normal(), k)
    h = build_measurement("mean", m, c0="auto")
    x = RngStream(seed, 0).normal((n, m)).astype(dtype)
    labels = RngStream(seed, 1).integers(n, low=0, high=4)

    def recover(**kw):
        build = build_relu if variant == "relu" else build_hard_threshold
        imp = build(lay, h, dtype=dtype, **kw)
        model = make_imprint_model(imp, label_classes=4, gain=8.0, dtype=dtype)
        agg = secure_aggregate(fed_sgd(model, x[u * shard:(u + 1) * shard],
                                       labels[u * shard:(u + 1) * shard])[1]
                               for u in range(users))
        before = {key: t.copy() for key, t in agg.tensors.items()}
        readout = recover_bins(agg, imp)
        # the read-out never writes into the payload
        assert all(agg.tensors[key].tobytes() == t.tobytes() for key, t in before.items())
        # the array read-out and selection equal the per-row loop bit for bit
        ref = loop_readout(agg, imp)
        assert _rows(readout) == [(b, v.tobytes(), d, c) for b, v, d, c in ref]
        for top in (0, len(ref) // 2, n):
            assert _rows(select_candidates(readout, top)) == \
                [(b, v.tobytes(), d, c) for b, v, d, c in loop_select(ref, top)]
        return model, imp, readout

    model, imp, plain = recover()
    kw = {"perm_stream": RngStream(seed, 2)} if permute else {}
    if variant == "relu" and decoys:
        kw.update(decoys=decoys, decoy_stream=RngStream(seed, 3))
    _, _, moved = recover(**kw)
    # bias sums are exact; the weight rows come out of a matmul whose
    # blocking may differ with the row count, so vectors get a tolerance
    assert np.array_equal(moved.bins, plain.bins)
    assert np.array_equal(moved.denominators, plain.denominators)
    assert np.allclose(plain.vectors, moved.vectors, rtol=1e-12, atol=0.0)

    if dtype is np.float64:
        by_bin = _vectors_by_bin(plain)
        members = _model_members(model, imp, x)
        for b in np.flatnonzero(members.sum(axis=0) == 1):
            xe = x[members[:, b]][0]
            assert np.linalg.norm(by_bin[int(b)] - xe) <= 1e-8 * np.linalg.norm(xe)


def test_bin_members_apply_the_readout_rule():
    lay = make_layout(Normal(), 3)
    h = build_measurement("mean", 4, c0="auto")
    relu = build_relu(lay, h, decoys=1, perm_stream=RngStream(44, 0),
                      decoy_stream=RngStream(44, 1), dtype=np.float64)
    # rows in bin order, then the decoy: example 0 is above every boundary,
    # 1 sits in bin 0, 2 below range, 3 in bin 1; the decoy row is ignored
    by_bin = np.array([[1, 1, 1, 0], [1, 0, 0, 1], [0, 0, 0, 1], [1, 1, 0, 0]], dtype=bool)
    active = np.empty_like(by_bin)
    active[:, relu.row_of_bin] = by_bin[:, :3]
    active[:, relu.decoy_rows] = by_bin[:, 3:]
    examples, bins = bin_members(active, relu)
    assert examples.tolist() == [0, 1, 3] and bins.tolist() == [2, 0, 1]
    # a hard-threshold row stands alone: an example in two linear regions is
    # a member of both bins, one in none is in no bin
    hard = build_hard_threshold(lay, h, perm_stream=RngStream(44, 2), dtype=np.float64)
    active = np.zeros((3, 3), dtype=bool)
    active[0, hard.row_of_bin[[1, 2]]] = True
    active[2, hard.row_of_bin[2]] = True
    examples, bins = bin_members(active, hard)
    assert examples.tolist() == [0, 0, 2] and bins.tolist() == [1, 2, 2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["relu", "hard_threshold"]), shard=st.integers(1, 12),
       users=st.sampled_from([1, 2, 4]), k=st.integers(2, 24), m=st.integers(2, 12),
       permute=st.booleans(), decoys=st.integers(0, 4), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_every_bin_reads_the_mean_of_its_members(variant, shard, users, k, m, permute,
                                                 decoys, seed, dtype):
    n = shard * users
    lay = make_layout(Normal(), k)
    h = build_measurement("mean", m, c0="auto")
    kw = {"perm_stream": RngStream(seed, 2)} if permute else {}
    if variant == "relu":
        imp = build_relu(lay, h, decoys=decoys, decoy_stream=RngStream(seed, 3),
                         dtype=dtype, **kw)
    else:
        imp = build_hard_threshold(lay, h, dtype=dtype, **kw)
    model = make_imprint_model(imp, label_classes=4, gain=8.0, dtype=dtype)
    x = RngStream(seed, 0).normal((n, m)).astype(dtype)
    labels = RngStream(seed, 1).integers(n, low=0, high=4)
    payloads, members = [], np.zeros((n, k), dtype=bool)
    for u in range(users):
        sl = slice(u * shard, (u + 1) * shard)
        _, payload, active = fed_sgd(model, x[sl], labels[sl])
        payloads.append(payload)
        examples, bins = bin_members(active, imp)
        members[examples + u * shard, bins] = True
        # the same rule restated on pre-activations computed outside the model
        assert np.array_equal(members[sl], _model_members(model, imp, x[sl]))
    readout = recover_bins(secure_aggregate(payloads), imp)
    counts = members.sum(axis=0)
    assert readout.bins.tolist() == np.flatnonzero(counts > 0).tolist()
    tol = 1e4 * np.finfo(dtype).eps
    x64 = x.astype(np.float64)
    for b, v in zip(readout.bins, readout.vectors):
        inside = x64[members[:, b]]
        err = np.linalg.norm(v - inside.mean(axis=0))
        assert err <= tol * np.linalg.norm(inside, axis=1).max()


def test_missing_imprint_grads_error():
    relu = build_relu(make_layout(Normal(), 4), build_measurement("mean", 8, c0="auto"),
                      dtype=np.float64)
    from imprintlab.federation import UpdatePayload
    bare = UpdatePayload(kind="gradient", tensors={"head.bias": np.ones(3)})
    with pytest.raises(ValueError, match="imprint gradients"):
        recover_bins(bare, relu)
    # a NaN would slip the |den| > floor mask; it is refused instead
    model = make_imprint_model(relu, label_classes=3, dtype=np.float64)
    payload = fed_sgd(model, RngStream(43, 0).normal((2, 8)), np.array([0, 1]))[1]
    payload.tensors["imprint.bias"][1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        recover_bins(payload, relu)


def test_select_candidates_ranking():
    def readout(confidences):
        bins = np.arange(len(confidences))
        return Readout(bins=bins, vectors=np.repeat(bins[:, None], 2, axis=1) * 1.0,
                       denominators=bins * -1.0,
                       confidences=np.asarray(confidences, dtype=np.float64))

    pool = readout([0.5, 2.0, 0.5, 0.01])
    top = select_candidates(pool, 3)
    assert top.bins.tolist() == [1, 0, 2]  # ties fall back to bin order
    # every array follows the ranking
    assert top.vectors[:, 0].tolist() == [1, 0, 2]
    assert top.denominators.tolist() == [-1, 0, -2]
    assert top.confidences.tolist() == [2.0, 0.5, 0.5]
    assert select_candidates(pool, 10).bins.tolist() == [1, 0, 2, 3]
    assert len(select_candidates(pool, 0)) == 0
    with pytest.raises(ValueError):
        select_candidates(pool, -1)
    # genuine rows out-rank a faint spurious reading
    kept = select_candidates(readout([1e-6, 1.0, 1.1, 1.2]), 3)
    assert 0 not in kept.bins


def test_token_lookup_roundtrip_and_noise_margin():
    table = RngStream(41, 0).normal((7, 4))
    ids = np.array([2, 0, 5])
    vec = table[ids].reshape(1, -1)
    assert np.array_equal(token_lookup(vec, table, 3), ids[None])
    # stay within half the minimum pairwise row distance: still exact
    diffs = table[:, None, :] - table[None, :, :]
    d = np.sqrt((diffs ** 2).sum(-1))
    d_min = d[d > 0].min()
    noise = RngStream(41, 1).normal((3, 4))
    noise *= 0.45 * d_min / np.linalg.norm(noise, axis=1, keepdims=True)
    assert np.array_equal(token_lookup(vec + noise.reshape(1, -1), table, 3), ids[None])
    with pytest.raises(ValueError, match="length"):
        token_lookup(vec[:, :-1], table, 3)
    with pytest.raises(ValueError, match="length"):
        token_lookup(vec.ravel(), table, 3)  # one vector is a (1, seq_len * d) row
    with pytest.raises(ValueError, match="2-d"):
        token_lookup(vec, table.ravel(), 3)


@st.composite
def _lookup_shapes(draw):
    """(vocab, c, seq_len) with c * seq_len at 0, 1, or just below, at or
    just above one or two product blocks of SCORE_CELLS // vocab rows."""
    vocab = draw(st.integers(1, 64) | st.sampled_from([3000, 4096, 40000]))
    rows = SCORE_CELLS // vocab
    edges = [t for t in (0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1)
             if t <= 400]
    total = draw(st.sampled_from(edges) | st.integers(0, 24))
    seq_len = draw(st.sampled_from([s for s in range(1, 9) if total % s == 0]))
    return vocab, total // seq_len, seq_len


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(shape=_lookup_shapes(), d=st.integers(1, 12),
       noise=st.sampled_from([0.0, 1e-6, 0.1, 1.0]), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_blocked_token_lookup_is_row_by_row(shape, d, noise, seed, dtype):
    vocab, c, seq_len = shape
    table = RngStream(seed, 0).normal((vocab, d), dtype=dtype)
    ids = RngStream(seed, 1).integers((c, seq_len), low=0, high=vocab)
    vecs = table[ids].reshape(c, seq_len * d) + RngStream(seed, 2).normal((c, seq_len * d),
                                                                           sd=noise)
    got = token_lookup(vecs, table, seq_len)
    assert got.dtype == np.int64 and got.shape == (c, seq_len)
    assert np.array_equal(got, loop_token_lookup(vecs, table, seq_len))
    rows = [token_lookup(vecs[i:i + 1], table, seq_len)[0] for i in range(c)]
    assert np.array_equal(got, np.array(rows, dtype=np.int64).reshape(c, seq_len))
    # a float32 table decodes as its float64 cast
    assert np.array_equal(token_lookup(vecs, table.astype(np.float64), seq_len), got)
    if noise == 0.0 and len(np.unique(table, axis=0)) == vocab:
        assert np.array_equal(got, ids)


def test_token_lookup_scores_one_bounded_block_at_a_time(monkeypatch):
    vocab, d, seq_len = 4096, 4, 16
    rows = SCORE_CELLS // vocab
    table = RngStream(44, 0).normal((vocab, d))
    argmins = []
    real_argmin = np.argmin

    def argmin(scores, **kwargs):  # one argmin per product
        argmins.append(len(scores))
        return real_argmin(scores, **kwargs)

    monkeypatch.setattr(np, "argmin", argmin)
    for c in (0, 1, 3, 4, 5, 40):
        ids = RngStream(44, c + 1).integers((c, seq_len), low=0, high=vocab)
        vecs = table[ids].reshape(c, seq_len * d)
        argmins.clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = token_lookup(vecs, table, seq_len)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert got.dtype == np.int64 and np.array_equal(got, ids)
        assert len(argmins) == -(-c * seq_len // rows)  # ceil, not one per vector
        assert max(argmins, default=0) <= rows
        # one block's scores and its scaled operand, the row norms, the ids,
        # the broadcast add's ufunc buffer, and interpreter objects
        cells = SCORE_CELLS + rows * d + vocab + c * seq_len + np.getbufsize()
        assert peak <= 8 * cells + 64 * 1024


def test_decoding_verified_separates_mashups():
    table = RngStream(42, 0).normal((9, 5))
    ids = np.array([1, 7])
    vec = table[ids].ravel()
    verified = decoding_verified(vec, token_lookup(vec[None], table, 2)[0], table)
    assert verified is True  # a Python bool, which the benchmark's tracer counts
    # a two-example average decodes to tokens but fails the round trip
    mash = 0.5 * (table[np.array([1, 7])] + table[np.array([4, 2])]).ravel()
    mash_ids = token_lookup(mash[None], table, 2)[0]
    assert decoding_verified(mash, mash_ids, table) is False
    # zero vector: nothing to verify against unless the rebuild is zero too
    assert not decoding_verified(np.zeros(10), mash_ids, table)
