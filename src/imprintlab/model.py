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

from dataclasses import dataclass

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
    with the 1/n already folded into dlogits."""
    n = logits.shape[0]
    mx = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - mx)
    z = ex.sum(axis=1, keepdims=True)
    sm = ex / z
    lse = mx[:, 0] + np.log(z[:, 0])
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    dlogits = sm
    dlogits[np.arange(n), labels] -= logits.dtype.type(1.0)
    dlogits /= logits.dtype.type(n)
    return loss, dlogits


class ModelGraph:
    """Front stages + optional imprint + bridge + linear softmax head.

    Parameters live in `params` (a flat dict of arrays); the imprint module
    object only records how the layer was constructed.
    """

    def __init__(self, *, stages=(), imprint: ImprintModule | None = None,
                 bridge: str | None = None, n_classes: int, params: dict,
                 dtype=DEFAULT_DTYPE):
        if imprint is not None and bridge not in ("sum", "identical_row_linear"):
            raise ValueError(f"imprint models need a bridge, got {bridge!r}")
        if imprint is None and bridge is not None:
            raise ValueError("bridge without an imprint layer")
        self.stages = tuple(stages)
        self.imprint = imprint
        self.bridge = bridge
        self.n_classes = n_classes
        self.dtype = np.dtype(dtype)
        self.params = params

    # -- construction helpers -------------------------------------------------

    def copy(self) -> "ModelGraph":
        clone = ModelGraph.__new__(ModelGraph)
        clone.__dict__.update(self.__dict__)
        clone.params = {k: v.copy() for k, v in self.params.items()}
        return clone

    def param_count(self) -> int:
        return sum(int(v.size) for v in self.params.values())

    # -- forward / backward ----------------------------------------------------

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

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray, *, stats: dict | None = None):
        """Mean cross-entropy and gradients for every parameter. A dict passed
        as `stats` receives the imprint rows' active mask from `imprint_pre`."""
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
        logits = matmul(z, self.params["head.weight"].T) + self.params["head.bias"]
        loss, dlogits = _softmax_ce(logits, labels)

        grads = {
            "head.weight": matmul(dlogits.T, z),
            "head.bias": dlogits.sum(axis=0),
        }
        if self.imprint is None:
            return loss, grads

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
        if stats is not None:
            stats["active"] = active
        return loss, grads


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
    # shared with the imprint module when the dtypes agree; nothing writes
    # into model.params in place (fed-AVG trains a ModelGraph.copy())
    params = {
        "imprint.weight": np.asarray(imprint.weight, dtype=dtype),
        "imprint.bias": np.asarray(imprint.bias, dtype=dtype),
    }
    if bridge == "sum":
        p = 1
    elif bridge == "identical_row_linear":
        p = bridge_dim
        # every row constant: the bridge passes the activation sum through
        params["bridge.weight"] = np.full((p, imprint.n_rows), 1.0 / imprint.n_rows, dtype=dtype)
    else:
        raise ValueError(f"unknown bridge {bridge!r}")
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
