"""Scoring recovered candidates against ground truth.

Matching is an optimal assignment under squared Euclidean distance, so scores
never depend on the order candidates came out in. PSNR uses a fixed sentinel
(300 dB) for exact-zero error; identification accuracy asks whether each
candidate's nearest neighbor in truth-plus-distractors is its matched row.
`score` computes the candidate-truth distances once and reads the matching,
exactness, PSNR and identification off them as per-candidate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import assignment

PSNR_EXACT_SENTINEL = 300.0
EXACT_REL_TOL = 1e-4


def _rows(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=np.float64))


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the float64 rows of a and of b."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def _iip(dists, cols, candidates, pool) -> float:
    """Fraction of candidates whose nearest row among truth plus pool is their
    matched truth row cols[i]. Truth wins a tie with the pool,
    as the first minimum over [truth; pool] would."""
    hits = np.argmin(dists, axis=1) == cols
    if pool is not None and len(pool):
        nearest_pool = _pairwise_sq(candidates, _rows(pool)).min(axis=1)
        hits &= dists[np.arange(len(cols)), cols] <= nearest_pool
    return int(hits.sum()) / max(1, len(cols))


def match(candidates: np.ndarray, truth: np.ndarray) -> list[tuple[int, int]]:
    """Pair each candidate with a distinct truth row, minimizing total squared
    distance. Needs len(candidates) <= len(truth)."""
    cols = assignment(_pairwise_sq(_rows(candidates), _rows(truth)))
    return list(enumerate(cols.tolist()))


def psnr(a: np.ndarray, b: np.ndarray):
    """Peak signal-to-noise ratio in dB for peak 1 along the last axis (a
    float for vectors, an array for stacks of rows); exact match maps to the
    sentinel."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    diff **= 2
    mse = np.atleast_1d(np.mean(diff, axis=-1))
    out = np.full(mse.shape, PSNR_EXACT_SENTINEL)
    nonzero = mse != 0.0
    out[nonzero] = 10.0 * np.log10(1.0 / mse[nonzero])
    return float(out[0]) if a.ndim == 1 else out


def exact_flags(candidates, truth, *, rel_tol: float = EXACT_REL_TOL) -> np.ndarray:
    """Whether each candidate row reproduces the truth row in the same
    position to rel_tol (relative l2); a zero truth row needs an exact zero."""
    c = np.asarray(candidates, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    denom = np.linalg.norm(t, axis=-1)
    err = np.linalg.norm(c - t, axis=-1)
    return np.where(denom > 0, err <= rel_tol * denom, err == 0.0)


@dataclass
class ScoreReport:
    """Per-candidate scores, indexed like the candidates that were scored."""

    truth_row: np.ndarray  # matched truth row
    exact: np.ndarray      # reproduces its truth row to rel_tol
    psnr: np.ndarray       # dB, in the psnr_transform space
    iip: float

    @property
    def n_candidates(self) -> int:
        return len(self.truth_row)

    @property
    def exact_count(self) -> int:
        return int(self.exact.sum())

    @property
    def mean_psnr(self) -> float:
        return float(np.mean(self.psnr)) if len(self.psnr) else float("nan")


def score(candidates, truth, *, pool=None, rel_tol: float = EXACT_REL_TOL,
          psnr_transform=None) -> ScoreReport:
    """One-stop scoring: match, exactness, PSNR over matched pairs,
    and image identification precision (IIP) against truth plus `pool`.

    psnr_transform optionally maps vectors into the space PSNR is quoted in
    (e.g. [0,1] scaling); matching, exactness, and IIP always use the raw
    vectors.
    """
    candidates = _rows(candidates)
    truth = _rows(truth)
    dists = _pairwise_sq(candidates, truth)
    cols = assignment(dists)  # matched truth row of each candidate
    iip = _iip(dists, cols, candidates, pool)
    matched = truth[cols]
    exact = exact_flags(candidates, matched, rel_tol=rel_tol)
    if psnr_transform is not None:
        # rebinding drops each raw copy as soon as its transform exists
        candidates = psnr_transform(candidates)
        matched = psnr_transform(matched)
    return ScoreReport(truth_row=cols, exact=exact,
                       psnr=psnr(candidates, matched), iip=iip)
