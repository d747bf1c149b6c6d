"""Model graph with a hand-derived backward pass.

Architecture: front stages (parameter-free) -> optional imprint layer ->
bridge -> linear head -> softmax cross-entropy, mean over the batch. The
backward pass is written out explicitly so gradients depend on nothing but
this file (checked against finite differences and a per-example oracle in
the tests). One float (n, rows) buffer holds the imprint pre-activation, its
activation, then its gradient.

Heads come in two flavors. A "random" head is an ordinary small-init
classifier. A "pinned" head appends one extra class whose logit is
gain * bridge_output + offset with a large offset: softmax then sits at that
class for every example, which makes the loss affine in the bridge output
with slope `gain`. A malicious server picks this head so every example
contributes the same, known weight to the imprint gradients -- no example is
lost to softmax saturation, and `gain` sets the payload's scale against
clipping or noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .imprint import ImprintModule
from .numerics import DEFAULT_DTYPE, RngStream, matmul

PIN_OFFSET = 40.0  # e^-40 ~ 4e-18: pinned softmax is 1 to beyond float32 resolution


@dataclass(frozen=True)
class FrontStage:
    """Parameter-free preprocessing stage ahead of the imprint layer."""

    kind: str  # "identity" | "avg_pool"
    factor: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "avg_pool"):
            raise ValueError(f"unknown front stage {self.kind!r}")
        if self.kind == "avg_pool" and self.factor < 1:
            raise ValueError(f"avg_pool factor must be >= 1, got {self.factor}")

    def out_dim(self, in_dim: int) -> int:
        if self.kind == "identity":
            return in_dim
        if in_dim % self.factor != 0:
            raise ValueError(f"avg_pool factor {self.factor} does not divide "
                             f"the feature width {in_dim}")
        return in_dim // self.factor

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return x
        n, w = x.shape
        return x.reshape(n, w // self.factor, self.factor).mean(axis=2)


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Stable softmax cross-entropy, mean over the batch. Returns (loss, dlogits)
    with the 1/n already folded into dlogits. Consumes `logits`: the one
    (n, classes) buffer becomes exp(logits - max), then dlogits, with every
    value as the out-of-place expressions give it."""
    n, rows = logits.shape[0], np.arange(logits.shape[0])
    mx = logits.max(axis=1, keepdims=True)
    picked = logits[rows, labels]  # the labels' logits, read before the overwrite
    np.exp(np.subtract(logits, mx, out=logits), out=logits)
    z = logits.sum(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(z[:, 0])
    loss = float(np.mean(lse - picked))
    logits /= z
    logits[rows, labels] -= logits.dtype.type(1.0)
    logits /= logits.dtype.type(n)
    return loss, logits


@dataclass(kw_only=True, eq=False)
class ModelGraph:
    """Front stages + optional imprint + bridge + linear softmax head.

    Parameters live in `params` (a flat dict of arrays); the imprint module
    object only records how the layer was constructed.
    """

    n_classes: int
    params: dict
    stages: tuple = ()
    imprint: ImprintModule | None = None
    bridge: str | None = None
    dtype: np.dtype = DEFAULT_DTYPE

    def __post_init__(self) -> None:
        if self.imprint is not None and self.bridge not in ("sum", "identical_row_linear"):
            raise ValueError(f"unknown bridge {self.bridge!r} for an imprint model")
        if self.imprint is None and self.bridge is not None:
            raise ValueError("bridge without an imprint layer")
        self.dtype = np.dtype(self.dtype)

    def copy(self) -> "ModelGraph":
        return replace(self, params={k: v.copy() for k, v in self.params.items()})

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Output of the front stages: what the imprint layer sees, and what
        recovery reconstructs."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2:
            raise ValueError(f"expected a batch (n, features), got shape {x.shape}")
        for st in self.stages:
            x = st.apply(x)
        return x

    def imprint_pre(self, feats: np.ndarray):
        """The imprint rows' (n, rows) pre-activation on `feats` and its active
        mask: a ReLU row is active above its kink, a hard-threshold row in (0, 1)."""
        pre = matmul(feats, self.params["imprint.weight"].T)
        pre += self.params["imprint.bias"]
        active = pre > 0
        if self.imprint.variant != "relu":
            active &= pre < 1
        return pre, active

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy, gradients for every parameter and the imprint
        rows' active mask from `imprint_pre` (None without an imprint layer)."""
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != np.asarray(x).shape[0]:
            raise ValueError("labels must be 1-d and match the batch size")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError(f"labels must lie in [0, {self.n_classes}), got "
                             f"[{labels.min()}, {labels.max()}]")
        feats = z = self.forward_features(x)
        if self.imprint is not None:
            act, active = self.imprint_pre(feats)  # the pre-activation, for now
            if self.imprint.variant == "relu":
                np.copyto(act, 0, where=~active)  # +0.0, as np.where(active, pre, 0) gives
            else:
                np.clip(act, 0.0, 1.0, out=act)
            if self.bridge == "sum":
                z = act.sum(axis=1, keepdims=True)
            else:
                z = matmul(act, self.params["bridge.weight"].T)
        logits = matmul(z, self.params["head.weight"].T)
        logits += self.params["head.bias"]
        loss, dlogits = _softmax_ce(logits, labels)

        grads = {
            "head.weight": matmul(dlogits.T, z),
            "head.bias": dlogits.sum(axis=0),
        }
        if self.imprint is None:
            return loss, grads, None

        dz = matmul(dlogits, self.params["head.weight"])
        if self.bridge == "sum":
            da = np.broadcast_to(dz, act.shape)
        else:
            grads["bridge.weight"] = matmul(dz.T, act)
            da = matmul(dz, self.params["bridge.weight"])
        dpre = act  # the activation was read for the last time above
        np.copyto(dpre, da)
        np.copyto(dpre, 0, where=~active)
        grads["imprint.weight"] = matmul(dpre.T, feats)
        grads["imprint.bias"] = dpre.sum(axis=0)
        return loss, grads, active

    def sgd_step(self, x: np.ndarray, labels: np.ndarray, lr: float):
        """One SGD step on this graph's own arrays, params -= lr * grads from
        `loss_and_grads`; returns its loss and active mask and frees the
        gradients. When at most a quarter of the imprint rows are active for
        some example (a hard-threshold example lights one row, a ReLU example
        every row below its value), the imprint weight moves only at those
        rows: elsewhere its gradient is +0.0 (`dpre` is), and
        p - (+0.0 * lr) is p, -0.0 included. Past a quarter, gathering and
        scattering the rows costs more than the dense in-place update. The
        product stays dense either way: one over the touched rows alone can
        round differently."""
        loss, grads, active = self.loss_and_grads(x, labels)
        for key, g in grads.items():
            rows = slice(None)
            if key == "imprint.weight":
                touched = np.flatnonzero(active.any(axis=0))
                if 4 * len(touched) <= len(g):
                    rows = touched
            g = g[rows]  # the touched rows' copy, or a view of a fresh array
            g *= g.dtype.type(lr)
            self.params[key][rows] -= g
        return loss, active


def _head(kind: str, label_classes: int, width: int, *, gain: float,
          head_stream: RngStream | None, head_scale: float, dtype):
    """Head weight, bias and class count over `width` inputs.

    A pinned head adds one class with weight `gain` and bias PIN_OFFSET; a
    random head draws small normal weights from head_stream.
    """
    if kind == "pinned":
        n_classes = label_classes + 1
        u = np.zeros((n_classes, width), dtype=dtype)
        u[-1, :] = gain
        v = np.zeros(n_classes, dtype=dtype)
        v[-1] = PIN_OFFSET
        return u, v, n_classes
    if kind == "random":
        if head_stream is None:
            raise ValueError("random head requires head_stream")
        u = head_stream.derive(0).normal((label_classes, width), sd=head_scale, dtype=dtype)
        v = head_stream.derive(1).normal(label_classes, sd=head_scale, dtype=dtype)
        return u, v, label_classes
    raise ValueError(f"unknown head {kind!r}")


def make_imprint_model(imprint: ImprintModule, *, label_classes: int,
                       bridge: str = "sum", bridge_dim: int = 1, head: str = "pinned",
                       gain: float = 1.0, head_stream: RngStream | None = None,
                       head_scale: float = 1e-2, stages=(),
                       dtype=DEFAULT_DTYPE) -> ModelGraph:
    """Assemble a full model around a constructed imprint layer."""
    if label_classes < 1:
        raise ValueError(f"label_classes must be >= 1, got {label_classes}")
    dtype = np.dtype(dtype)
    # shared with the imprint module when the dtypes agree; only sgd_step
    # writes into model.params in place, and fed-AVG runs it on a copy()
    params = {
        "imprint.weight": np.asarray(imprint.weight, dtype=dtype),
        "imprint.bias": np.asarray(imprint.bias, dtype=dtype),
    }
    p = 1
    if bridge == "identical_row_linear":
        p = bridge_dim
        # every row constant: the bridge passes the activation sum through
        params["bridge.weight"] = np.full((p, imprint.n_rows), 1.0 / imprint.n_rows, dtype=dtype)
    params["head.weight"], params["head.bias"], n_classes = _head(
        head, label_classes, p, gain=gain, head_stream=head_stream,
        head_scale=head_scale, dtype=dtype)
    return ModelGraph(stages=stages, imprint=imprint, bridge=bridge, n_classes=n_classes,
                      params=params, dtype=dtype)


def make_logistic_model(m: int, label_classes: int, *, head: str = "random",
                        head_stream: RngStream | None = None, head_scale: float = 1e-2,
                        dtype=DEFAULT_DTYPE) -> ModelGraph:
    """Single linear layer + softmax CE straight on the features (a pinned head
    here has gain 0: its extra class ignores the input)."""
    if label_classes < 2:
        raise ValueError(f"label_classes must be >= 2, got {label_classes}")
    dtype = np.dtype(dtype)
    u, v, n_classes = _head(head, label_classes, m, gain=0.0, head_stream=head_stream,
                            head_scale=head_scale, dtype=dtype)
    return ModelGraph(stages=(), imprint=None, bridge=None, n_classes=n_classes,
                      params={"head.weight": u, "head.bias": v}, dtype=dtype)
