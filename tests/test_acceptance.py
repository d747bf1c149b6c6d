"""Acceptance gate: twelve end-to-end criteria, one visible verdict line each.

Each test prints its [PASS]/[FAIL] line straight to the real stdout so the
verdicts survive pytest's capture, then asserts.
"""

import math
import os
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from imprintlab.dataio import canonical_json
from imprintlab.defense import dp_recovery_analysis
from imprintlab.distributions import Normal
from imprintlab.federation import fed_sgd
from imprintlab.imprint import build_hard_threshold, build_relu, make_layout
from imprintlab.measurement import build_measurement
from imprintlab.metrics import match, psnr
from imprintlab.model import make_imprint_model, make_logistic_model
from imprintlab.numerics import RngStream, assignment
from imprintlab.recovery import recover_bins, recover_unique_labels
from imprintlab.scenarios import bundled_config, run_scenario, sweep_scenario
from imprintlab.theory import one_shot_success, prop1_closed_form, prop1_exact
from oracles import brute_assignment, composition_oracle, fd_gradcheck


def _verdict(num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label}{tail}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num:02d}: {label}{tail}"


def test_criterion_01_closed_form_vs_enumeration():
    t0 = time.perf_counter()
    bad = []
    for n in range(4, 10):
        for k in range(n + 1, 11):
            if prop1_exact(n, k) + Fraction(n, k) != composition_oracle(n, k):
                bad.append((n, k))
    took = time.perf_counter() - t0
    _verdict(1, "closed form + n/k == enumeration for all 3 < n < k <= 10",
             not bad and took < 10.0, f"{21} pairs, {took:.2f}s")


def test_criterion_02_batch64_bin156_anchor():
    t0 = time.perf_counter()
    v128 = prop1_closed_form(64, 128)
    v156 = prop1_closed_form(64, 156)
    v256 = prop1_closed_form(64, 256)
    took = time.perf_counter() - t0
    ok = v156 >= 32.0 and v128 < v156 < v256 and took < 1.0
    _verdict(2, "expected recovery at (64, 156) covers half the batch",
             ok, f"value={v156:.4f}, ordering {v128:.2f} < {v156:.2f} < {v256:.2f}, "
             f"{took:.3f}s")


def test_criterion_03_exact_set_equals_singletons():
    t0 = time.perf_counter()
    worst_psnr = None
    all_match = True
    for seed in range(10):
        rep = run_scenario(bundled_config("fullbatch64"), seed=seed).report
        rec = rep["recovery"]
        all_match &= rec["singleton_match"]
        p = rec["mean_psnr_exact"]
        worst_psnr = p if worst_psnr is None else min(worst_psnr, p)
    took = time.perf_counter() - t0
    ok = all_match and worst_psnr >= 60.0 and took < 30.0
    _verdict(3, "exact-set == singleton-bin set on 10 seeds, PSNR >= 60 dB",
             ok, f"min mean PSNR {worst_psnr:.1f} dB, {took:.1f}s")


def _two_per_bin_case(variant, seed):
    bounds = make_layout(Normal(), 16)
    h = build_measurement("mean", 32, c0="auto")
    build = build_relu if variant == "relu" else build_hard_threshold
    imp = build(bounds, h, dtype=np.float64)
    # the softmax head weights colliding examples unevenly, so the averaging
    # claim is non-trivial here
    model = make_imprint_model(imp, label_classes=4, head="random",
                               head_stream=RngStream(212, seed), dtype=np.float64)
    w = h.row()
    stream = RngStream(210, seed)
    xs = []
    for j, b in enumerate([1, 4, 7, 10, 13]):
        width = (bounds[b + 1] if b + 1 < 16 else bounds[-1] + (bounds[-1] - bounds[-2])) - bounds[b]
        for frac in (0.3, 0.7):
            target = bounds[b] + frac * width
            x = stream.derive(2 * j + (frac > 0.5)).normal((32,))
            xs.append(x + (target - float(x @ w)) * w / float(w @ w))
    x = np.stack(xs)
    labels = RngStream(211, seed).integers(10, low=0, high=4)
    return imp, model, x, labels


def test_criterion_04_collisions_are_weighted_averages():
    worst = 0.0
    weights_spread = 0.0
    for variant in ("relu", "hard_threshold"):
        imp, model, x, labels = _two_per_bin_case(variant, 0)
        payload = fed_sgd(model, x, labels)[1]
        readout = recover_bins(payload, imp)
        cands = dict(zip(readout.bins.tolist(), readout.vectors))
        singles = [recover_bins(fed_sgd(model, x[i:i + 1], labels[i:i + 1])[1], imp)
                   for i in range(10)]
        for j, b in enumerate([1, 4, 7, 10, 13]):
            pair = singles[2 * j:2 * j + 2]
            assert all(p.bins.tolist() == [b] for p in pair)
            dens = np.array([p.denominators[0] for p in pair])
            weights_spread = max(weights_spread,
                                 float(abs(dens[0] - dens[1]) / np.abs(dens).max()))
            oracle = (dens[:, None] * x[2 * j:2 * j + 2]).sum(axis=0) / dens.sum()
            rel = float(np.abs(cands[b] - oracle).max() / np.abs(oracle).max())
            worst = max(worst, rel)
    ok = worst <= 1e-5 and weights_spread > 1e-6
    _verdict(4, "two-per-bin candidates equal the per-example weighted average",
             ok, f"worst rel err {worst:.2e}, weight spread {weights_spread:.1e}")


def test_criterion_05_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        pick = RngStream(220, trial).generator()
        m = int(pick.integers(2, 17))
        n = int(pick.integers(1, 5))
        k = int(pick.integers(2, 7))
        classes = int(pick.integers(2, 6))
        variant = ("relu", "hard_threshold")[int(pick.integers(0, 2))]
        bridge = ("sum", "identical_row_linear")[int(pick.integers(0, 2))]
        head = ("pinned", "random")[int(pick.integers(0, 2))]
        lay = make_layout(Normal(), k)
        h = build_measurement("mean", m, c0="auto")
        build = build_relu if variant == "relu" else build_hard_threshold
        imp = build(lay, h, dtype=np.float64)
        kw = {"bridge_dim": int(pick.integers(1, 3))} if bridge == "identical_row_linear" else {}
        model = make_imprint_model(imp, label_classes=classes, bridge=bridge,
                                   head=head, gain=4.0,
                                   head_stream=RngStream(221, trial),
                                   dtype=np.float64, **kw)
        W, bias = model.params["imprint.weight"], model.params["imprint.bias"]
        x = None
        for attempt in range(200):  # resample until clear of activation kinks
            cand = RngStream(222, trial * 1000 + attempt).normal((n, m))
            pre = cand @ W.T + bias
            margin = np.abs(pre) if variant == "relu" else np.minimum(np.abs(pre),
                                                                      np.abs(pre - 1.0))
            if margin.min() > 0.02:
                x = cand
                break
        assert x is not None, f"no kink-free batch found for trial {trial}"
        labels = RngStream(223, trial).integers(n, low=0, high=classes)
        worst = max(worst, fd_gradcheck(model, x, labels))
    took = time.perf_counter() - t0
    _verdict(5, "hand gradients match finite differences on 20 random instances",
             worst < 1e-4 and took < 10.0, f"worst rel err {worst:.2e}, {took:.1f}s")


def test_criterion_06_one_shot_success_statistics():
    t0 = time.perf_counter()
    rep = run_scenario(bundled_config("oneshot")).report
    tr = rep["trials"]
    expected = one_shot_success(4096, 1.0 / 4096)
    gap = abs(tr["success_rate"] - expected)
    err_ok = tr["max_success_rel_err"] is None or tr["max_success_rel_err"] <= 1e-4
    took = time.perf_counter() - t0
    ok = gap <= 0.07 and err_ok and tr["n_trials"] == 200 and took < 120.0
    err_txt = ("none" if tr["max_success_rel_err"] is None
               else f"{tr['max_success_rel_err']:.1e}")
    _verdict(6, "one-shot success rate matches n*p*(1-p)^(n-1), successes exact",
             ok, f"rate {tr['success_rate']:.4f} vs {expected:.4f}, "
                 f"max rel err {err_txt}, {took:.1f}s")


@pytest.mark.skipif(not os.environ.get("IMPRINTLAB_SLOW"),
                    reason="slow variant; set IMPRINTLAB_SLOW=1 to run")
def test_one_shot_large_batch_slow_variant():
    cfg = bundled_config("oneshot")
    cfg["data"]["n"] = 16384
    rep = run_scenario(cfg).report
    tr = rep["trials"]
    assert abs(tr["success_rate"] - tr["expected_success"]) <= 0.07
    assert tr["max_success_rel_err"] is None or tr["max_success_rel_err"] <= 1e-4


def test_criterion_07_fed_avg_drift_and_zero_drift_twin():
    worst_iip = None
    twin_equal = True
    for seed in range(10):
        rep = run_scenario(bundled_config("fedavg8x8"), seed=seed).report
        iip = rep["recovery"]["iip"]
        worst_iip = iip if worst_iip is None else min(worst_iip, iip)
        tiny = bundled_config("fedavg8x8")
        tiny["federation"]["lr"] = 1e-8
        twin = bundled_config("fedavg8x8")
        twin["federation"] = {"protocol": "fed_sgd", "users": 1}
        a = run_scenario(tiny, seed=seed).report["recovery"]["exact_bins"]
        b = run_scenario(twin, seed=seed).report["recovery"]["exact_bins"]
        twin_equal &= (a == b)
    ok = worst_iip >= 0.60 and twin_equal
    _verdict(7, "multi-step deltas keep IIP >= 0.60; tiny-rate run equals "
                "single-gradient recovery", ok,
             f"min IIP {worst_iip:.3f}, twin sets equal on 10 seeds: {twin_equal}")


def test_criterion_08_unique_label_readout():
    model = make_logistic_model(24, 16, head="pinned", dtype=np.float64)
    x = RngStream(230, 0).uniform((16, 24))
    labels = RngStream(230, 1).permutation(16)
    grads = model.loss_and_grads(x, labels)[1]
    # the reader built the head, so it reads the 16 class rows and skips the
    # pinned row (whose gradient is the whole-batch mean by construction)
    readout = recover_unique_labels(grads["head.weight"][:-1], grads["head.bias"][:-1])
    cands = dict(zip(readout.bins.tolist(), readout.vectors))
    worst = max(float(np.linalg.norm(cands[int(l)] - x[e])
                      / np.linalg.norm(x[e])) for e, l in enumerate(labels))
    distinct_psnr = float(np.mean([psnr(cands[int(l)], x[e])
                                   for e, l in enumerate(labels)]))

    same = RngStream(231, 0).uniform((16, 24))
    g2 = model.loss_and_grads(same, np.full(16, 3))[1]
    blended = recover_unique_labels(g2["head.weight"][:-1], g2["head.bias"][:-1])
    one_cand = len(blended) == 1
    # pinned head weights every same-label example equally
    avg_ok = bool(np.allclose(blended.vectors[0], same.mean(axis=0),
                              rtol=1e-10, atol=1e-13))
    pair = match(blended.vectors[:1], same)
    same_psnr = psnr(blended.vectors[0], same[pair[0][1]])
    ok = worst <= 1e-4 and one_cand and avg_ok \
        and distinct_psnr - same_psnr > 20.0
    _verdict(8, "16 distinct labels recover each example; same-label batch "
                "blends to the weighted average", ok,
             f"worst rel err {worst:.1e}, PSNR gap "
             f"{distinct_psnr - same_psnr:.1f} dB")


def test_criterion_09_noise_defense_degrades_gracefully():
    sigmas = [0.0, 1e-4, 1e-3, 1e-2, 1e-1]
    strict_seeds = 0
    iip_mid = []
    for seed in range(10):
        ladder = []
        for sg in sigmas:
            cfg = bundled_config("fullbatch64")
            cfg["defense"] = {"noise": "laplace", "sigma": sg}
            rec = run_scenario(cfg, seed=seed).report["recovery"]
            ladder.append(rec["mean_psnr"])
            if sg == 1e-2:
                iip_mid.append(rec["iip"])
        strict_seeds += all(b < a for a, b in zip(ladder, ladder[1:]))
    dp_ok = True
    details = []
    for k_tilde in (16, 32):
        res = dp_recovery_analysis(k_tilde, 256, 1e-3,
                                   stream=RngStream(0, 6 + k_tilde), trials=100)
        gap = abs(res["measured_error"] - res["predicted_error"]) / res["predicted_error"]
        details.append(f"k~={k_tilde}: {gap * 100:.2f}%")
        dp_ok &= gap <= 0.20
    ok = strict_seeds >= 9 and min(iip_mid) > 0.3 and dp_ok
    _verdict(9, "noise ladder strictly degrades PSNR; rescale analysis matches "
                "sqrt(m k~) sigma", ok,
             f"strict on {strict_seeds}/10 seeds, min IIP@1e-2 "
             f"{min(iip_mid):.3f}, dp gaps {', '.join(details)}")


def test_criterion_10_matching_and_psnr_spot_values():
    all_opt = True
    for trial in range(100):
        cost = RngStream(240, trial).uniform((6, 6))
        cols = assignment(cost)
        total = float(cost[np.arange(6), cols].sum())
        _, best = brute_assignment(cost)
        all_opt &= sorted(cols.tolist()) == list(range(6))
        all_opt &= total <= best + 1e-12
    a = np.zeros(50)
    spot = abs(psnr(a, a + 0.1) - 20.0) < 1e-9
    _verdict(10, "assignment equals brute-force optimum on 100 random 6x6 "
                 "costs; PSNR spot value exact", all_opt and spot)


def test_criterion_11_token_accuracy_tracks_singletons():
    rep = run_scenario(bundled_config("text128")).report
    acc = rep["tokens"]["token_accuracy"]
    frac = rep["occupancy"]["singletons"] / rep["n"]
    gap_pp = abs(acc - frac) * 100.0
    _verdict(11, "token accuracy equals singleton fraction within 1 point",
             gap_pp <= 1.0, f"accuracy {acc * 100:.2f}% vs {frac * 100:.2f}%")


def test_criterion_12_reports_are_deterministic():
    names = ("fullbatch64", "oneshot", "fedavg8x8", "text128")
    all_same = True
    for name in names:
        cfg = {**bundled_config(name), "dtype": "float64"}
        a = run_scenario(cfg).report
        b = run_scenario(cfg).report
        a.pop("timing"), b.pop("timing")
        all_same &= canonical_json(a) == canonical_json(b)
    cfg = {**bundled_config("fullbatch64"), "dtype": "float64"}
    _, rows1, _ = sweep_scenario(cfg, "bins", [64, 128], jobs=1)
    _, rows2, _ = sweep_scenario(cfg, "bins", [64, 128], jobs=2)
    ok = all_same and rows1 == rows2
    _verdict(12, "byte-identical reports across reruns and sweep thread counts",
             ok, f"{len(names)} scenarios x2 runs, sweep jobs 1 vs 2")
