"""Server-side recovery: turning gradient payloads back into inputs.

All routines work on the server's one read of an update, the per-user mean
gradient from `federation.to_gradient_form`, plus the imprint metadata the
server kept. The core identity: for a genuine imprint row, the weight gradient
is (sum over contributing examples of weight * example) and the bias gradient
is (sum of weights), so their ratio is a weighted average of the examples the
row saw. Differencing adjacent ReLU rows narrows "saw" down to one bin.
`recover_bins` is the one read-out for binned imprints (ReLU and
hard-threshold); it and `recover_unique_labels` divide rows through the same
`_read_rows` and return one `Readout`: parallel arrays of bins, vectors,
denominators and confidences, which `select_candidates` ranks and scoring
takes as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .federation import UpdatePayload, to_gradient_form
from .imprint import ImprintModule
from .numerics import BLOCK_ROWS, SCORE_CELLS

TAU0 = 1e-9  # relative floor under which a denominator counts as inactive


class NoActiveRow(RuntimeError):
    """No row of the payload carries a usable signal."""


@dataclass(eq=False)
class Readout:
    """Recovered candidates as parallel arrays, one entry per live row."""

    bins: np.ndarray          # (c,) int64 bin (or class row) of each candidate
    vectors: np.ndarray       # (c, m) float64 recovered inputs
    denominators: np.ndarray  # (c,) the bias-gradient mass behind each read-out
    confidences: np.ndarray   # (c,) mean |weight-gradient| of the differenced row

    def __len__(self) -> int:
        return len(self.bins)


def _read_rows(num_rows, den: np.ndarray, floor: float, width: int) -> Readout:
    """Row i reads num[i] / den[i], num_rows(lo, hi) giving num's float64 rows
    lo to hi a block at a time; only rows with |den| above floor are kept. A
    non-finite gradient in any row is an error: it would otherwise reach
    scoring as garbage (or, as NaN, slip the floor)."""
    live = np.flatnonzero(np.abs(den) > floor)
    vectors, confidences = np.empty((len(live), width)), np.empty(len(live))
    for lo in range(0, len(den), BLOCK_ROWS):
        block = num_rows(lo, lo + BLOCK_ROWS)
        if not (np.isfinite(block).all() and np.isfinite(den[lo:lo + BLOCK_ROWS]).all()):
            raise ValueError("non-finite gradient in the payload; no row can be read out")
        i, j = np.searchsorted(live, (lo, lo + BLOCK_ROWS))
        vectors[i:j] = block[live[i:j] - lo]
        del block  # freed before the next block is built
        confidences[i:j] = np.abs(vectors[i:j]).mean(axis=1)
        vectors[i:j] /= den[live[i:j], None]
    return Readout(bins=live, vectors=vectors, denominators=den[live], confidences=confidences)


def _by_bin(rows: np.ndarray, imprint: ImprintModule, dtype, lo=0, hi=None):
    """Rows regrouped per bin as `dtype`, bins lo to hi (default all): a
    hard-threshold row is its own bin; a ReLU row sees all above its
    boundary, so bin i is row i minus row i+1, the top bin its row alone."""
    hi = imprint.k if hi is None else hi
    relu = imprint.variant == "relu"
    picked = rows[imprint.row_of_bin[lo:hi + relu]]
    out = picked[:hi - lo].astype(dtype)
    if relu:
        out[:len(picked) - 1] -= picked[1:]
    return out


def recover_bins(payload: UpdatePayload, imprint: ImprintModule) -> Readout:
    """One candidate per bin that captured mass, in bin order (ascending
    measurement value): the bin's weight over its bias gradient, by
    `_by_bin`, read BLOCK_ROWS bins at a time. Denominators at or below
    TAU0 * max|bias grad| are suppressed. The payload is left untouched.
    """
    g = to_gradient_form(payload).tensors
    try:
        gw, gb = g["imprint.weight"], g["imprint.bias"]
    except KeyError as exc:
        raise ValueError("payload has no imprint gradients") from exc
    floor = TAU0 * float(np.abs(gb[imprint.row_of_bin]).max(initial=0.0))
    return _read_rows(lambda lo, hi: _by_bin(gw, imprint, np.float64, lo=lo, hi=hi),
                      _by_bin(gb, imprint, np.float64), floor, gw.shape[1])


def bin_members(active: np.ndarray, imprint: ImprintModule) -> tuple[np.ndarray, np.ndarray]:
    """(examples, bins): in example order, each (example, bin) pair of an example
    in the average the bin reads out, by `_by_bin` on the (n, rows) active
    mask of the pass behind the payload; an example in no bin is in no pair."""
    return np.nonzero(_by_bin(active.T, imprint, np.int8).T)


def select_candidates(readout: Readout, n: int) -> Readout:
    """Top n candidates by confidence; ties broken toward lower bin index."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    top = np.lexsort((readout.bins, -readout.confidences))[:n]
    return Readout(bins=readout.bins[top], vectors=readout.vectors[top],
                   denominators=readout.denominators[top],
                   confidences=readout.confidences[top])


def recover_unique_labels(grad_w: np.ndarray, grad_b: np.ndarray) -> Readout:
    """Per-class read-out of a linear layer: exact when each label appears once.

    With repeated labels a class row returns the gradient-weighted average of
    that class's examples.
    """
    gb = np.asarray(grad_b, dtype=np.float64)
    floor = TAU0 * float(np.abs(gb).max(initial=0.0))
    gw = np.asarray(grad_w)
    out = _read_rows(lambda lo, hi: gw[lo:hi].astype(np.float64), gb, floor, gw.shape[1])
    if not out:
        raise NoActiveRow("no class row carries signal")
    return out


def token_lookup(vectors: np.ndarray, table: np.ndarray, seq_len: int) -> np.ndarray:
    """Map recovered embedding concatenations, (c, seq_len * d), back to their
    (c, seq_len) int64 token ids.

    Each vector splits into seq_len blocks of the embedding width d, and each
    block takes the nearest table row (Euclidean). The c * seq_len blocks are
    scored in products of at most SCORE_CELLS float64 cells, each written
    into one reused buffer, so the scores held stay bounded whatever c is.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"embedding table must be 2-d, got {table.shape}")
    vocab, d = table.shape
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[1] != seq_len * d:
        raise ValueError(f"vectors {vecs.shape}: each row's length must be "
                         f"seq_len {seq_len} * width {d}")
    n = len(vecs) * seq_len
    blocks = vecs.reshape(n, d)
    table_sq = (table * table).sum(axis=1)
    step = max(1, min(n, SCORE_CELLS // vocab))
    scores = np.empty((step, vocab))  # the one buffer every product writes into
    ids = np.empty(n, dtype=np.int64)
    for lo in range(0, n, step):
        # ||b - t||^2 = ||b||^2 - 2 b.t + ||t||^2; first term constant per row
        out = np.matmul(-2.0 * blocks[lo:lo + step], table.T, out=scores[:min(step, n - lo)])
        out += table_sq
        ids[lo:lo + step] = np.argmin(out, axis=1)
    return ids.reshape(len(vecs), seq_len)


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
