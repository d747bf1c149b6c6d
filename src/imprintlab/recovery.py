"""Server-side recovery: turning gradient payloads back into inputs.

All routines work on an effective mean-gradient payload (parameter deltas are
converted first) plus the imprint metadata the server kept. The core identity:
for a genuine imprint row, the weight gradient is (sum over contributing
examples of weight * example) and the bias gradient is (sum of weights), so
their ratio is a weighted average of the examples the row saw. Differencing
adjacent ReLU rows narrows "saw" down to one bin. `recover_bins` is the one
read-out for binned imprints (ReLU and hard-threshold); it and
`recover_unique_labels` divide rows through the same `_read_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .federation import UpdatePayload, to_gradient_form
from .imprint import ImprintModule

DEFAULT_TAU0 = 1e-9  # relative floor under which a denominator counts as inactive


class NoActiveRow(RuntimeError):
    """No row of the payload carries a usable signal."""


@dataclass(eq=False)
class Candidate:
    """One recovered input candidate."""

    vector: np.ndarray
    bin_index: int
    denominator: float   # the bias-gradient mass behind the read-out
    confidence: float    # mean |weight-gradient| of the differenced row


def _read_rows(num: np.ndarray, den: np.ndarray, floor: float) -> list[Candidate]:
    """Row i reads num[i] / den[i]; rows whose |den| is at or below floor are
    suppressed as numerically dead."""
    out = []
    for i in range(den.shape[0]):
        if abs(den[i]) <= floor:
            continue
        out.append(Candidate(vector=num[i] / den[i], bin_index=i,
                             denominator=float(den[i]),
                             confidence=float(np.abs(num[i]).mean())))
    return out


def recover_bins(payload: UpdatePayload, imprint: ImprintModule, *,
                 tau0: float = DEFAULT_TAU0) -> list[Candidate]:
    """One candidate per bin that captured mass, in bin order (ascending
    measurement value).

    A hard-threshold row already isolates its own bin. A ReLU row sees every
    example above its boundary, so bin i reads row i minus row i+1 and
    the top bin reads the last row alone. Denominators at or below
    tau0 * max|bias grad| are suppressed. The payload is left untouched.
    """
    g = to_gradient_form(payload.mean_payload()).tensors
    try:
        gw, gb = g["imprint.weight"], g["imprint.bias"]
    except KeyError as exc:
        raise ValueError("payload has no imprint gradients") from exc
    order = imprint.row_of_bin
    # the fancy index copies, so the differences below never reach the payload
    gw = gw[order].astype(np.float64, copy=False)
    gb = gb[order].astype(np.float64, copy=False)
    floor = tau0 * float(np.abs(gb).max(initial=0.0))
    if imprint.variant == "relu":
        gw[:-1] -= gw[1:]
        gb[:-1] -= gb[1:]
    return _read_rows(gw, gb, floor)


def select_candidates(candidates: list[Candidate], n: int) -> list[Candidate]:
    """Top n candidates by confidence; ties broken toward lower bin index."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    ranked = sorted(candidates, key=lambda c: (-c.confidence, c.bin_index))
    return ranked[:n]


def recover_single_linear(grad_w: np.ndarray, grad_b: np.ndarray, *,
                          tau0: float = DEFAULT_TAU0) -> Candidate:
    """Recover one input from a plain linear layer's gradients: divide the
    row with the largest |bias gradient|. Exact for a batch of one."""
    gw = np.asarray(grad_w, dtype=np.float64)
    gb = np.asarray(grad_b, dtype=np.float64)
    if gw.ndim != 2 or gb.shape != (gw.shape[0],):
        raise ValueError(f"gradient shapes disagree: {gw.shape} vs {gb.shape}")
    scale = float(np.abs(gb).max(initial=0.0))
    if scale <= 0.0:
        raise NoActiveRow("all bias gradients are zero")
    i = int(np.abs(gb).argmax())
    if abs(gb[i]) <= tau0 * scale:
        raise NoActiveRow("dominant bias gradient is below the suppression floor")
    return Candidate(vector=gw[i] / gb[i], bin_index=i, denominator=float(gb[i]),
                     confidence=float(np.abs(gw[i]).mean()))


def recover_unique_labels(grad_w: np.ndarray, grad_b: np.ndarray, *,
                          tau0: float = DEFAULT_TAU0) -> list[Candidate]:
    """Per-class read-out of a linear layer: exact when each label appears once.

    With repeated labels a class row returns the gradient-weighted average of
    that class's examples.
    """
    gb = np.asarray(grad_b, dtype=np.float64)
    floor = tau0 * float(np.abs(gb).max(initial=0.0))
    out = _read_rows(np.asarray(grad_w, dtype=np.float64), gb, floor)
    if not out:
        raise NoActiveRow("no class row carries signal")
    return out


def _lookup_one(vec: np.ndarray, table: np.ndarray, seq_len: int) -> np.ndarray:
    d = table.shape[1]
    if vec.size != seq_len * d:
        raise ValueError(f"vector length {vec.size} != seq_len {seq_len} * width {d}")
    blocks = vec.reshape(seq_len, d)
    # ||b - t||^2 = ||b||^2 - 2 b.t + ||t||^2; first term constant per row
    scores = -2.0 * blocks @ table.T + np.sum(table * table, axis=1)
    return np.argmin(scores, axis=1).astype(np.int64)


def token_lookup(cands, table: np.ndarray, seq_len: int) -> np.ndarray:
    """Map recovered embedding concatenations back to token ids.

    Splits each vector into seq_len blocks of the embedding width and takes
    the nearest table row (Euclidean) per block. Accepts one vector, a list
    of vectors, or a list of Candidates.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"embedding table must be 2-d, got {table.shape}")
    if isinstance(cands, (list, tuple)):
        vecs = [np.asarray(c.vector if isinstance(c, Candidate) else c,
                           dtype=np.float64).ravel() for c in cands]
        return np.stack([_lookup_one(v, table, seq_len) for v in vecs]) if vecs \
            else np.zeros((0, seq_len), dtype=np.int64)
    vec = np.asarray(cands.vector if isinstance(cands, Candidate) else cands,
                     dtype=np.float64).ravel()
    return _lookup_one(vec, table, seq_len)


def decoding_verified(vector: np.ndarray, ids: np.ndarray, table: np.ndarray, *,
                      rel_tol: float = 1e-2) -> bool:
    """Whether re-embedding the decoded ids reproduces the recovered vector.

    Collision mashups decode to *some* tokens but fail this round trip, so it
    separates trustworthy decodings from bin-collision artifacts.
    """
    table = np.asarray(table, dtype=np.float64)
    vec = np.asarray(vector, dtype=np.float64).ravel()
    rebuilt = table[np.asarray(ids, dtype=np.int64)].ravel()
    norm = float(np.linalg.norm(vec))
    err = float(np.linalg.norm(rebuilt - vec))
    return err <= rel_tol * norm if norm > 0 else err == 0.0
