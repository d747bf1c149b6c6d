"""Data loading, normalization, and canonical report output.

Reports and sweep tables are written with sorted keys and repr-float
formatting so identical runs produce byte-identical files; wall-clock facts
are quarantined under a single "timing" key that comparisons can drop.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream

NORMALIZATIONS = ("none", "standardize", "unit_interval")


@dataclass(eq=False)
class Batch:
    x: np.ndarray                    # (n, m)
    labels: np.ndarray | None        # (n,) int64
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


def normalize(x: np.ndarray, kind: str) -> np.ndarray:
    """Per-feature normalization in the dtype of x; a constant column keeps
    scale 1. An offset or scale past the dtype's range raises ValueError, as
    does, on a column that is not constant, a `unit_interval` scale of 0 or a
    `standardize` scale below sqrt(tiny), whose squared deviations are
    subnormal and leave it inexact."""
    if kind == "none":
        return x
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "standardize":
            offset = x.mean(axis=0)
            scale = x.std(axis=0)
        elif kind == "unit_interval":
            offset = x.min(axis=0)
            scale = x.max(axis=0) - offset
        else:
            raise ValueError(f"unknown normalization {kind!r}; expected one of {NORMALIZATIONS}")
    if not (np.isfinite(offset).all() and np.isfinite(scale).all()):
        raise ValueError(f"{kind} overflows {x.dtype}: a column's offset or scale is not finite")
    floor = math.sqrt(np.finfo(x.dtype).tiny) if kind == "standardize" else 0.0
    lost = (scale < floor if floor else scale == 0) & (x.max(axis=0) > x.min(axis=0))
    if lost.any():
        below = f", below {floor:.3g}, where its squared deviations are subnormal" if floor else ""
        raise ValueError(f"{kind} underflows {x.dtype}: a varying column's scale is "
                         f"{scale[lost][0]:g}{below}")
    offset = offset.astype(np.float64)
    scale = np.where(scale == 0, 1.0, scale).astype(np.float64)
    return ((x - offset) / scale).astype(x.dtype)


def load_synthetic_gaussian(n: int, m: int, *, label_classes: int, stream: RngStream,
                            dtype=np.float32) -> Batch:
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n} m={m}")
    x = stream.derive(0).normal((n, m), dtype=dtype)
    labels = stream.derive(1).integers(n, low=0, high=label_classes)
    return Batch(x=x, labels=labels)


def _bad_cell(path: str, lineno: int, header: list, label_idx, row: list,
              dtype: np.dtype) -> ValueError:
    """The error for the leftmost bad cell of a row that failed to convert to dtype."""
    for col, cell in enumerate(row):
        where = f"{path}:{lineno}: column {header[col]!r}: "
        try:
            value = int(cell) if col == label_idx else float(cell)
        except ValueError:
            value = None
        if col == label_idx:
            if value is None or value < 0:
                return ValueError(where + f"bad label {cell!r} (expected an integer >= 0)")
        elif value is None:
            return ValueError(where + f"bad float {cell!r}")
        elif not math.isfinite(value):
            return ValueError(where + f"non-finite value {cell!r}")
        elif not np.isfinite(dtype.type(value)):
            return ValueError(where + f"value {cell!r} overflows {dtype}")


def load_csv(path: str, *, dtype=np.float32, normalization: str = "none") -> Batch:
    """CSV with a header row: float feature columns and an optional "label"
    column of integers >= 0, in UTF-8 with or without a byte-order mark. Rows
    convert whole to dtype; a failed row is searched cell by cell."""
    dtype = np.dtype(dtype)
    with open(path, newline="", encoding="utf-8-sig") as fh, np.errstate(over="ignore"):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        label_idx = header.index("label") if "label" in header else None
        if len(header) - (label_idx is not None) < 1:
            raise ValueError(f"{path}:1: no feature columns")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            feats = row if label_idx is None else row[:label_idx] + row[label_idx + 1:]
            try:
                label = 0 if label_idx is None else int(row[label_idx])
                values = np.fromiter(map(float, feats), dtype)
            except ValueError:
                label = -1
            if label < 0 or not np.isfinite(values).all():
                raise _bad_cell(path, lineno, header, label_idx, row, dtype)
            rows.append(values)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = normalize(np.array(rows, dtype=dtype), normalization)
    lab = np.asarray(labels, dtype=np.int64) if label_idx is not None else None
    return Batch(x=x, labels=lab)


def load_token_sequences(n_seq: int, seq_len: int, *, vocab: int, embed_dim: int,
                         label_classes: int, stream: RngStream, dtype=np.float32) -> Batch:
    """Random token ids embedded through a random normal table; the model
    input is the per-sequence concatenation of embeddings."""
    if min(n_seq, seq_len, vocab, embed_dim) < 1:
        raise ValueError("n_seq, seq_len, vocab, embed_dim must all be >= 1")
    table = stream.derive(0).normal((vocab, embed_dim), dtype=dtype)
    ids = stream.derive(1).integers((n_seq, seq_len), low=0, high=vocab)
    x = table[ids].reshape(n_seq, seq_len * embed_dim)
    labels = stream.derive(2).integers(n_seq, low=0, high=label_classes)
    return Batch(x=np.ascontiguousarray(x), labels=labels,
                 meta={"ids": ids, "table": table, "seq_len": seq_len, "embed_dim": embed_dim})


# -- canonical serialization ---------------------------------------------------

def canonical_json(obj) -> str:
    """obj as strict JSON with sorted keys, all strings (int keys would sort
    numerically); numpy values via .tolist(). A NaN or infinity raises
    ValueError; a run's report holds none, since its federated pass traps
    overflow as a config error."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=lambda v: v.tolist()) + "\n"


def write_report(report: dict, path: str) -> None:
    text = canonical_json(report)  # before the file is opened: a refused report leaves none
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(fh, header: list, rows: list) -> None:
    """CSV to an open text file, with repr-formatted floats (deterministic,
    round-trippable) and None as an empty cell; open it with newline=""."""
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
