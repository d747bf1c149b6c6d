"""Shared numeric kernels: seeded RNG streams, matrix products, DCT rows, assignment.

Everything downstream funnels its linear algebra and randomness through this
module so that dtype policy and reproducibility live in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DTYPE = np.float32
BLOCK_ROWS = 256  # rows per block where the read-out and scoring stream row blocks
SCORE_CELLS = 1 << 18  # float64 cells (2 MiB) per block where blocks are sized by row width

# Children are packed into disjoint bit ranges of the 64-bit stream id, so a
# (master_seed, stream_id) pair never collides across the derivation tree as
# long as indices stay below _DERIVE_SPAN and nesting stays shallow (<= 3).
_DERIVE_SPAN = 1 << 20


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream, fully determined by (master_seed, stream_id).

    Streams are independent for distinct ids under the same master seed; the
    order in which streams are consumed does not affect their contents.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 1 << 64):
            raise ValueError(f"master_seed out of range: {self.master_seed}")
        if not (0 <= self.stream_id < 1 << 63):
            raise ValueError(f"stream_id out of range: {self.stream_id}")

    def generator(self) -> np.random.Generator:
        # Philox is keyed, not seeded: same key -> same sequence, regardless
        # of how many other streams were drawn from first. A uint64 key array,
        # since numpy reads a tuple holding a seed >= 2**63 through float64.
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, index: int) -> "RngStream":
        """Child stream `index` of this stream (disjoint from all siblings)."""
        if not (0 <= index < _DERIVE_SPAN - 1):
            raise ValueError(f"derive index out of range: {index}")
        return RngStream(self.master_seed, self.stream_id * _DERIVE_SPAN + index + 1)

    # -- draws ---------------------------------------------------------------
    # All draws sample in float64 and cast, so a float32 run sees the rounded
    # version of exactly the float64 run's values.

    # `gen`, when given, must be a generator from this stream's `generator()`:
    # the draw continues it. Draws take their values one at a time, so blocks
    # drawn in turn from one generator are one whole draw's values.
    def normal(self, shape, *, sd: float = 1.0, dtype=np.float64, gen=None) -> np.ndarray:
        out = (gen if gen is not None else self.generator()).standard_normal(shape)
        out *= sd  # in place: the same multiply as `* sd`, without a second array
        return np.asarray(out, dtype=dtype)

    def uniform(self, shape, *, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self.generator().uniform(low, high, shape)

    def laplace(self, shape, *, scale: float, gen=None) -> np.ndarray:
        return (gen if gen is not None else self.generator()).laplace(0.0, scale, shape)

    def integers(self, shape, *, low: int, high: int, gen=None) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return (gen if gen is not None else self.generator()).integers(
            low, high, size=shape, dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator().permutation(n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape/dtype checks; output dtype follows the inputs."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    if not (np.issubdtype(a.dtype, np.floating) and np.issubdtype(b.dtype, np.floating)):
        raise ValueError("matmul operands must be floating point")
    return a @ b


def dct_row(m: int, freq: int) -> np.ndarray:
    """Row `freq` of the type-II DCT analysis map on m points, scaled by 4/m,
    in float64."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not (0 <= freq < m):
        raise ValueError(f"freq must be in [0, {m}), got {freq}")
    j = np.arange(m, dtype=np.float64)
    return (4.0 / m) * np.cos(math.pi * freq * (2.0 * j + 1.0) / (2.0 * m))


def assignment(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost row->column assignment on an r x c cost matrix, r <= c.

    Returns an int array `cols` of length r: row i is paired with cols[i],
    all distinct, minimizing the summed cost.
    """
    from scipy.optimize import linear_sum_assignment  # here: no run solves an assignment
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-d, got shape {cost.shape}")
    r, c = cost.shape
    if r > c:
        raise ValueError(f"assignment needs rows <= cols, got {r} x {c}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    out = np.empty(r, dtype=np.int64)
    out[rows] = cols
    return out


def l2_norm(arrays) -> float:
    """Global l2 norm over a sequence of arrays, accumulated in float64."""
    total = 0.0
    for arr in arrays:
        a = np.asarray(arr, dtype=np.float64)
        total += float(np.dot(a.ravel(), a.ravel()))
    return math.sqrt(total)
