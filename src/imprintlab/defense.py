"""Server-visible defenses (clip + noise) and what they cost the attack.

apply_defense treats the whole payload as one vector for clipping (standard
DP-style global norm clip) and then adds iid noise per entry. The analysis
helper quantifies the textbook failure mode of naive rescaling after
clip-to-unit-norm: recovering a k~ x m block costs sqrt(m k~) * sigma error
per entry, because the rescale blows the added noise back up by the norm it
took away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .federation import UpdatePayload
from .numerics import RngStream, l2_norm, row_blocks

# the largest noise draw in scales: numpy's Laplace is at most 52 ln 2 (its
# uniforms are multiples of 2**-53), its normal less
MAX_NOISE_SCALES = 52 * math.log(2)


@dataclass(frozen=True)
class DefenseConfig:
    clip: float | None = None          # global l2 bound; None = no clipping
    noise: str | None = None           # "gaussian" | "laplace" | None
    sigma: float = 0.0                 # noise scale per entry

    def __post_init__(self) -> None:
        if self.clip is not None and not (self.clip > 0):
            raise ValueError(f"clip must be positive, got {self.clip}")
        if self.noise not in (None, "gaussian", "laplace"):
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.noise is None and self.sigma:
            raise ValueError("sigma given without a noise kind")


def apply_defense(payload: UpdatePayload, config: DefenseConfig,
                  stream: RngStream | None = None) -> UpdatePayload:
    """Private copies of the payload's tensors: its global l2 norm clipped,
    then iid noise added to every entry.

    Scaling uses min(1, clip/norm), so under-norm payloads pass through
    untouched. Noise draws come from one child stream per tensor (sorted key
    order), so the result is independent of dict ordering. Each tensor's
    noise is drawn from its child's one generator a `row_blocks` block of
    rows at a time and added into the copy, so no full-size noise array is
    made; the values are those of one whole draw.
    """
    tensors = payload.tensors
    scale = 1.0
    if config.clip is not None:
        norm = l2_norm(tensors.values())
        if norm > config.clip:
            scale = config.clip / norm
    out = {}
    keys = sorted(tensors)
    for idx, key in enumerate(keys):
        t = tensors[key]
        v = t * t.dtype.type(scale)  # a fresh array; scale 1.0 is exact
        if config.noise is not None and config.sigma > 0:
            if stream is None:
                raise ValueError("noise requested but no stream given")
            child = stream.derive(idx)
            gen = child.generator()
            if config.noise == "gaussian":
                draw = partial(child.normal, sd=config.sigma, gen=gen)
            else:
                draw = partial(child.laplace, scale=config.sigma, gen=gen)
            for blk in row_blocks(len(v), math.prod(v.shape[1:])):
                block = v[blk]  # a view: v is our own copy
                block += draw(block.shape).astype(t.dtype, copy=False)
        out[key] = v
    return replace(payload, tensors=out)


def dp_recovery_analysis(k_tilde: int, m: int, sigma: float, *, stream: RngStream,
                         trials: int = 100) -> dict:
    """Measure the per-entry error of recovery after clip-to-unit-norm + noise.

    A payload block of k~ unit-variance rows of width m has norm ~ sqrt(m k~).
    Clipping to norm 1 scales it down by that; undoing the clip (the recovery
    step) scales the added noise back up by the same factor, so the per-entry
    recovery error is predicted at sqrt(m k~) * sigma -- independent of how
    the information is spread over rows. sigma=0 recovers exactly.
    """
    if m < 1 or k_tilde < 1:
        raise ValueError("m and k_tilde must be positive")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    errors = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        child = stream.derive(t)
        block = child.derive(0).normal((k_tilde, m))
        norm = float(np.linalg.norm(block))
        # recovery = norm * (block/norm + noise); the clip-undo cancels exactly,
        # so form it as block + norm*noise to keep sigma=0 bit-exact.
        if sigma == 0:
            recovered = block
        else:
            recovered = block + norm * child.derive(1).normal((k_tilde, m), sd=sigma)
        errors[t] = float(np.sqrt(np.mean((recovered - block) ** 2)))
    return {
        "predicted_error": math.sqrt(m * k_tilde) * sigma,
        "measured_error": float(errors.mean()),
        "trial_errors": [float(e) for e in errors],
    }
