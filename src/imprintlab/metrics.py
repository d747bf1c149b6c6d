"""Scoring recovered candidates against ground truth.

A candidate is paired with its nearest own member (the server knows which
examples its bin averages), so no assignment is solved; a candidate with no
member is spurious, paired with its nearest truth row for PSNR, and never
exact or an identification hit. PSNR uses a fixed sentinel (300 dB) for
exact-zero error. `score` computes the candidate-truth distances once and
reads the pairing, exactness, PSNR and identification off them as arrays.
It runs in this order: truth's float64 cast and the candidate-truth
distances; their reduction to the pairing, each candidate's first nearest
truth row and its paired distance; freeing the cast and the distances; then
the pool (drawn only now when it comes as a function) and its distances. So
one distance matrix and one full-size float64 operand are live at a time;
everything else runs in row blocks, with every value bit-identical to whole
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import BLOCK_ROWS, SCORE_CELLS, assignment

PSNR_EXACT_SENTINEL = 300.0
EXACT_REL_TOL = 1e-4


def _rows(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=np.float64))


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the float64 rows of a and of b, as
    max(aa + bb - 2 ab, 0) in that order. The product is one call, since a row
    block of it can differ in the last bit; the rest runs in row blocks of at
    most SCORE_CELLS cells."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    step = max(1, SCORE_CELLS // max(1, b.shape[1]))
    bb = np.empty(len(b))
    for lo in range(0, len(b), step):
        bb[lo:lo + step] = np.sum(b[lo:lo + step] ** 2, axis=1)
    out = a @ b.T
    out *= 2.0
    step = max(1, SCORE_CELLS // max(1, a.shape[1], len(b)))  # a's squared rows, then aa + bb
    for lo in range(0, len(a), step):
        rows = out[lo:lo + step]
        aa = np.sum(a[lo:lo + step] ** 2, axis=1)[:, None]
        np.subtract(aa + bb, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return out


def _iip(hits, paired, candidates, pool) -> float:
    """Fraction of candidates whose nearest row among truth plus pool is their
    paired truth row: `hits` marks those whose first nearest truth row it is
    (spurious ones never), `paired` holds their distances to it. Truth wins a
    tie with the pool, as the first minimum over [truth; pool] would."""
    if pool is not None and len(pool):
        hits &= paired <= _pairwise_sq(candidates, _rows(pool)).min(axis=1)
    return int(hits.sum()) / max(1, len(hits))


def match(candidates: np.ndarray, truth: np.ndarray) -> list[tuple[int, int]]:
    """Pair each candidate with a distinct truth row, minimizing total squared
    distance. Needs len(candidates) <= len(truth)."""
    cols = assignment(_pairwise_sq(_rows(candidates), _rows(truth)))
    return list(enumerate(cols.tolist()))


def _psnr_of_diff(diff: np.ndarray) -> np.ndarray:
    """PSNR along the last axis from row differences, squared in place."""
    diff **= 2
    mse = np.atleast_1d(np.mean(diff, axis=-1))
    out = np.full(mse.shape, PSNR_EXACT_SENTINEL)
    nonzero = mse != 0.0
    out[nonzero] = 10.0 * np.log10(1.0 / mse[nonzero])
    return out


def psnr(a: np.ndarray, b: np.ndarray):
    """Peak signal-to-noise ratio in dB for peak 1 along the last axis (a
    float for vectors, an array for stacks of rows); exact match maps to the
    sentinel."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = _psnr_of_diff(a - b)
    return float(out[0]) if a.ndim == 1 else out


def _errors(candidates, truth, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate row's relative l2 error to the truth row in its position
    (against a zero row: 0 for an exact zero, else inf), and whether the error
    is within rel_tol: not rel_err <= rel_tol, which rounds differently."""
    c = np.asarray(candidates, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    denom = np.sqrt(np.sum(t * t, axis=-1))
    diff = c - t
    err = np.sqrt(np.sum(np.multiply(diff, diff, out=diff), axis=-1))
    # an infinite tolerance accepts every finite error, and an error over a zero row is inf
    with np.errstate(divide="ignore", over="ignore"):
        return (np.divide(err, denom, out=np.zeros_like(err), where=err > 0),
                np.where(denom > 0, err <= rel_tol * denom, err == 0.0))


@dataclass
class ScoreReport:
    """Per-candidate scores, indexed like the candidates that were scored."""

    truth_row: np.ndarray  # paired truth row
    rel_err: np.ndarray    # relative l2 error to the paired truth row
    exact: np.ndarray      # reproduces its truth row to rel_tol
    psnr: np.ndarray       # dB, in the psnr_transform space
    iip: float
    spurious: np.ndarray   # has no member

    @property
    def n_candidates(self) -> int:
        return len(self.truth_row)

    @property
    def exact_count(self) -> int:
        return int(self.exact.sum())

    @property
    def mean_psnr(self) -> float:
        return float(np.mean(self.psnr)) if len(self.psnr) else float("nan")


def score(candidates, truth, members, *, pool=None, rel_tol: float = EXACT_REL_TOL,
          psnr_transform=None) -> ScoreReport:
    """Pairing, relative error, exactness, PSNR over paired rows, and image
    identification precision (IIP) against truth plus `pool`. `members` is a
    pair of index arrays (candidate, truth row), one per member of each
    candidate's bin. psnr_transform optionally maps vectors into the space PSNR
    is quoted in (e.g. [0,1] scaling); the rest uses the raw vectors. Truth
    and pool may come in any float dtype, and `pool` as rows, None, or a
    zero-argument function returning either. Truth is cast to float64
    (exactly, from float32) as the argument of its distance product, and again
    one paired row block at a time. The candidate-truth distances are reduced,
    and freed along with that cast, before a pool function is called or the
    pool is cast for its own product.
    """
    candidates = _rows(candidates)
    truth = np.atleast_2d(truth)
    dists = _pairwise_sq(candidates, _rows(truth))  # float64 truth lives for the product only
    cand, row = (np.asarray(a, dtype=np.int64) for a in members)
    d = dists[cand, row]
    nearest = np.full(len(candidates), np.inf)
    np.minimum.at(nearest, cand, d)
    spurious = np.bincount(cand, minlength=len(candidates)) == 0
    first = np.argmin(dists, axis=1)
    # a spurious candidate keeps its nearest truth row, the rest the lowest nearest member
    cols = np.where(spurious, first, np.iinfo(np.int64).max)
    tie = d == nearest[cand]
    np.minimum.at(cols, cand[tie], row[tie])
    paired = dists[np.arange(len(cols)), cols]
    del dists  # what the rest of scoring reads of it is in first, cols and paired
    iip = _iip((first == cols) & ~spurious, paired, candidates,
               pool() if callable(pool) else pool)
    tf = psnr_transform or (lambda v: v)
    n = len(cols)
    rel_err, exact, psnrs = np.empty(n), np.empty(n, dtype=bool), np.empty(n)
    for blk in (slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)):
        c, t = candidates[blk], _rows(truth[cols[blk]])  # t is a fresh float64 copy, c a view
        rel_err[blk], exact[blk] = _errors(c, t, rel_tol)
        t = tf(t)  # rebinding drops the raw copy before c's transform exists
        psnrs[blk] = _psnr_of_diff(np.subtract(tf(c), t, out=t))
    return ScoreReport(truth_row=cols, rel_err=rel_err, exact=exact & ~spurious, psnr=psnrs,
                       iip=iip, spurious=spurious)
