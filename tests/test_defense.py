import math

import numpy as np
import pytest

from imprintlab.defense import DefenseConfig, apply_defense, dp_recovery_analysis
from imprintlab.federation import UpdatePayload
from imprintlab.numerics import RngStream, l2_norm


def _payload(stream, shapes=((3, 4), (5,))):
    tensors = {f"t{i}": stream.derive(i).normal(s) for i, s in enumerate(shapes)}
    return UpdatePayload(kind="gradient", tensors=tensors, batch_size=4)


def test_no_defense_is_the_identity():
    p = _payload(RngStream(80, 0))
    out = apply_defense(p, DefenseConfig())
    for key in p.tensors:
        assert np.array_equal(out.tensors[key], p.tensors[key])
        assert out.tensors[key] is not p.tensors[key]  # still a private copy
    assert (out.kind, out.batch_size) == (p.kind, p.batch_size)


def test_clip_hits_the_bound_and_under_norm_passes():
    p = _payload(RngStream(80, 1))
    norm = l2_norm(p.tensors.values())
    assert norm > 1.0
    out = apply_defense(p, DefenseConfig(clip=1.0))
    assert abs(l2_norm(out.tensors.values()) - 1.0) < 1e-12
    # direction preserved: out = p / norm
    for key in p.tensors:
        assert np.allclose(out.tensors[key], p.tensors[key] / norm,
                           rtol=1e-12, atol=1e-15)
    # a generous bound leaves the payload untouched
    loose = apply_defense(p, DefenseConfig(clip=norm * 10))
    for key in p.tensors:
        assert np.array_equal(loose.tensors[key], p.tensors[key])


def test_clipping_is_idempotent():
    p = _payload(RngStream(80, 2))
    once = apply_defense(p, DefenseConfig(clip=0.5))
    twice = apply_defense(once, DefenseConfig(clip=0.5))
    for key in p.tensors:
        assert np.allclose(twice.tensors[key], once.tensors[key],
                           rtol=1e-12, atol=1e-15)


def test_noise_is_unbiased_and_stream_keyed():
    p = _payload(RngStream(81, 0), shapes=((40,),))
    cfg = DefenseConfig(noise="gaussian", sigma=0.3)
    draws = np.stack([apply_defense(p, cfg, stream=RngStream(82, r)).tensors["t0"]
                      for r in range(1000)])
    resid = draws - p.tensors["t0"]
    stderr = 0.3 / math.sqrt(1000)
    assert np.abs(resid.mean(axis=0)).max() < 4 * stderr
    assert abs(resid.std() - 0.3) < 0.02
    # same stream, same noise; different stream, different noise
    a = apply_defense(p, cfg, stream=RngStream(83, 0)).tensors["t0"]
    b = apply_defense(p, cfg, stream=RngStream(83, 0)).tensors["t0"]
    c = apply_defense(p, cfg, stream=RngStream(83, 1)).tensors["t0"]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_laplace_noise_scale():
    p = _payload(RngStream(81, 1), shapes=((2000,),))
    cfg = DefenseConfig(noise="laplace", sigma=0.5)
    out = apply_defense(p, cfg, stream=RngStream(84, 0))
    resid = out.tensors["t0"] - p.tensors["t0"]
    # laplace(scale b): sd = sqrt(2) b; mean |.| = b
    assert abs(np.abs(resid).mean() - 0.5) < 0.05
    assert abs(resid.std() - 0.5 * math.sqrt(2)) < 0.07


def test_noise_independent_of_dict_order():
    stream = RngStream(85, 0)
    tensors = {"b": stream.derive(0).normal((3,)), "a": stream.derive(1).normal((3,))}
    fwd = UpdatePayload(kind="gradient", tensors=dict(sorted(tensors.items())),
                        batch_size=1)
    rev = UpdatePayload(kind="gradient",
                        tensors=dict(sorted(tensors.items(), reverse=True)),
                        batch_size=1)
    cfg = DefenseConfig(noise="gaussian", sigma=0.1)
    out_f = apply_defense(fwd, cfg, stream=RngStream(85, 1))
    out_r = apply_defense(rev, cfg, stream=RngStream(85, 1))
    for key in ("a", "b"):
        assert np.array_equal(out_f.tensors[key], out_r.tensors[key])


@pytest.mark.parametrize("noise", ["gaussian", "laplace"])
@pytest.mark.parametrize("clip", [None, 0.5])
def test_noise_leaves_the_input_payload_untouched(noise, clip):
    for dtype in (np.float32, np.float64):
        stream = RngStream(87, 0)
        p = UpdatePayload(kind="gradient", batch_size=4, tensors={
            "w": stream.derive(0).normal((3, 4), dtype=dtype),
            "b": stream.derive(1).normal((5,), dtype=dtype)})
        before = {k: v.copy() for k, v in p.tensors.items()}
        if clip is not None:
            assert l2_norm(p.tensors.values()) > clip  # the clip is active
        out = apply_defense(p, DefenseConfig(clip=clip, noise=noise, sigma=0.1),
                            stream=RngStream(87, 1))
        for key, v in p.tensors.items():
            assert np.array_equal(v, before[key])
            assert out.tensors[key] is not v
            assert out.tensors[key].dtype == dtype
            assert not np.array_equal(out.tensors[key], v)


def test_stronger_noise_degrades_the_payload_monotonically():
    p = _payload(RngStream(86, 0), shapes=((64,),))
    ref = p.tensors["t0"]
    last = -1.0
    for sigma in (1e-3, 1e-2, 1e-1):
        out = apply_defense(p, DefenseConfig(noise="gaussian", sigma=sigma),
                            stream=RngStream(86, 1))
        err = float(np.linalg.norm(out.tensors["t0"] - ref))
        assert err > last
        last = err


def test_dp_analysis_zero_sigma_is_bit_exact():
    res = dp_recovery_analysis(8, 32, 0.0, stream=RngStream(87, 0), trials=20)
    assert res["predicted_error"] == 0.0
    assert res["measured_error"] == 0.0
    assert res["trial_errors"] == [0.0] * 20


def test_dp_analysis_matches_prediction():
    for k_tilde, m in [(16, 256), (32, 256)]:
        res = dp_recovery_analysis(k_tilde, m, 1e-3, stream=RngStream(87, 1), trials=60)
        pred = math.sqrt(m * k_tilde) * 1e-3
        assert res["predicted_error"] == pred
        assert abs(res["measured_error"] - pred) / pred < 0.2
        assert len(res["trial_errors"]) == 60


def test_dp_analysis_error_scales_like_sqrt_block_size():
    a = dp_recovery_analysis(16, 256, 1e-3, stream=RngStream(87, 2), trials=60)
    b = dp_recovery_analysis(32, 256, 1e-3, stream=RngStream(87, 3), trials=60)
    ratio = b["measured_error"] / a["measured_error"]
    assert abs(ratio - math.sqrt(2)) < 0.15 * math.sqrt(2)


def test_defense_validation():
    with pytest.raises(ValueError, match="clip"):
        DefenseConfig(clip=0.0)
    with pytest.raises(ValueError, match="noise"):
        DefenseConfig(noise="uniform")
    with pytest.raises(ValueError, match="sigma"):
        DefenseConfig(noise="gaussian", sigma=-1.0)
    with pytest.raises(ValueError, match="without a noise kind"):
        DefenseConfig(sigma=0.5)
    p = _payload(RngStream(88, 0))
    with pytest.raises(ValueError, match="no stream"):
        apply_defense(p, DefenseConfig(noise="gaussian", sigma=0.1))
    with pytest.raises(ValueError):
        dp_recovery_analysis(0, 4, 0.1, stream=RngStream(88, 1))
    with pytest.raises(ValueError):
        dp_recovery_analysis(4, 4, -0.1, stream=RngStream(88, 1))
    with pytest.raises(ValueError, match="trials"):
        dp_recovery_analysis(4, 4, 0.1, stream=RngStream(88, 1), trials=0)
