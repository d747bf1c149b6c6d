"""Server-side recovery: turning gradient payloads back into inputs.

All routines work on an effective mean-gradient payload (parameter deltas are
converted first) plus the imprint metadata the server kept. The core identity:
for a genuine imprint row, the weight gradient is (sum over contributing
examples of weight * example) and the bias gradient is (sum of weights), so
their ratio is a weighted average of the examples the row saw. Differencing
adjacent ReLU rows narrows "saw" down to one bin. `recover_bins` is the one
read-out for binned imprints (ReLU and hard-threshold); it and
`recover_unique_labels` divide rows through the same `_read_rows` and return
one `Readout`: parallel arrays of bins, vectors, denominators and confidences,
which `select_candidates` ranks and scoring takes as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .federation import UpdatePayload, to_gradient_form
from .imprint import ImprintModule

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


def _read_rows(num: np.ndarray, den: np.ndarray, floor: float) -> Readout:
    """Row i reads num[i] / den[i]; rows whose |den| is at or below floor are
    suppressed as numerically dead. A non-finite gradient is an error: it
    would otherwise reach scoring as garbage (or, as NaN, slip the floor)."""
    if not (np.isfinite(den).all() and np.isfinite(num).all()):
        raise ValueError("non-finite gradient in the payload; no row can be read out")
    live = np.flatnonzero(np.abs(den) > floor)
    vectors = num[live]
    confidences = np.abs(vectors).mean(axis=1)
    vectors /= den[live, None]
    return Readout(bins=live, vectors=vectors, denominators=den[live],
                   confidences=confidences)


def _by_bin(rows: np.ndarray, imprint: ImprintModule, dtype, axis: int = 0) -> np.ndarray:
    """Per-row arrays regrouped per bin along `axis`, as `dtype`: a hard-threshold
    row is its own bin; a ReLU row sees all above its boundary, so bin i is row
    i minus row i+1 and the top bin its row alone. `rows` is never written."""
    out = np.take(rows, imprint.row_of_bin, axis=axis).astype(dtype, copy=False)
    if imprint.variant == "relu":
        bins = np.moveaxis(out, axis, 0)  # a view: the differences land in `out`
        bins[:-1] -= bins[1:]
    return out


def recover_bins(payload: UpdatePayload, imprint: ImprintModule) -> Readout:
    """One candidate per bin that captured mass, in bin order (ascending
    measurement value): the bin's weight over its bias gradient, by
    `_by_bin`. Denominators at or below TAU0 * max|bias grad| are
    suppressed. The payload is left untouched.
    """
    g = to_gradient_form(payload.mean_payload()).tensors
    try:
        gw, gb = g["imprint.weight"], g["imprint.bias"]
    except KeyError as exc:
        raise ValueError("payload has no imprint gradients") from exc
    floor = TAU0 * float(np.abs(gb[imprint.row_of_bin]).max(initial=0.0))
    return _read_rows(_by_bin(gw, imprint, np.float64), _by_bin(gb, imprint, np.float64),
                      floor)


def bin_members(active: np.ndarray, imprint: ImprintModule) -> tuple[np.ndarray, np.ndarray]:
    """(examples, bins): in example order, each (example, bin) pair of an example
    in the average the bin reads out, by `_by_bin` on the (n, rows) active
    mask of the pass behind the payload; an example in no bin is in no pair."""
    members = _by_bin(active, imprint, np.int8, axis=1) != 0
    return np.divmod(np.flatnonzero(members), imprint.k)


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
    out = _read_rows(np.asarray(grad_w, dtype=np.float64), gb, floor)
    if not out:
        raise NoActiveRow("no class row carries signal")
    return out


def token_lookup(vector: np.ndarray, table: np.ndarray, seq_len: int, *,
                 table_sq: np.ndarray | None = None) -> np.ndarray:
    """Map one recovered embedding concatenation back to its seq_len token ids.

    Splits the vector into seq_len blocks of the embedding width and takes
    the nearest table row (Euclidean) per block. `table_sq` is the table's
    per-row squared norm; a caller decoding many vectors against one table
    passes it (with a float64 table) so it is computed once, not per call.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"embedding table must be 2-d, got {table.shape}")
    if table_sq is None:
        table_sq = (table * table).sum(axis=1)
    elif np.shape(table_sq) != (table.shape[0],):
        raise ValueError(f"table_sq shape {np.shape(table_sq)} != ({table.shape[0]},)")
    vec = np.asarray(vector, dtype=np.float64).ravel()
    d = table.shape[1]
    if vec.size != seq_len * d:
        raise ValueError(f"vector length {vec.size} != seq_len {seq_len} * width {d}")
    blocks = vec.reshape(seq_len, d)
    # ||b - t||^2 = ||b||^2 - 2 b.t + ||t||^2; first term constant per row
    scores = -2.0 * blocks @ table.T + table_sq
    return np.argmin(scores, axis=1).astype(np.int64)


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
