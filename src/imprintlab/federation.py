"""Federated update simulation: single-step gradients, multi-step local
training (parameter deltas), and unweighted secure aggregation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ModelGraph


@dataclass(eq=False)
class UpdatePayload:
    """What one user ships to the server, or the secure sum of `users` such
    updates (tensors summed).

    kind "gradient": tensors are mean gradients over the local batch.
    kind "param_delta": tensors are final minus initial parameters after
    `steps` local SGD steps at rate `lr`.
    """

    kind: str
    tensors: dict
    steps: int = 1
    lr: float | None = None
    users: int = 1

    def scaled(self, factor: float) -> "UpdatePayload":
        return replace(self, tensors={k: v * v.dtype.type(factor)
                                      for k, v in self.tensors.items()})

    def mean_payload(self) -> "UpdatePayload":
        """Per-user average of a summed payload; a single user's is itself."""
        if self.users == 1:
            return self
        return replace(self.scaled(1.0 / self.users), users=1)


def fed_sgd(model: ModelGraph, x: np.ndarray, labels: np.ndarray, *,
            stats: dict | None = None) -> tuple[float, UpdatePayload]:
    """One full-batch gradient; the payload is exactly the mean gradient."""
    loss, grads = model.loss_and_grads(x, labels, stats=stats)
    payload = UpdatePayload(kind="gradient", tensors=grads)
    return loss, payload


def fed_avg(model: ModelGraph, x: np.ndarray, labels: np.ndarray, *, steps: int,
            lr: float) -> tuple[UpdatePayload, list]:
    """Sequential local SGD of an imprint model over an equal split of the
    batch; returns the parameter delta and a per-step log: the loss and the
    step pass's active mask. The caller's model is untouched.
    """
    n = len(labels)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if n % steps != 0:
        raise ValueError(f"steps {steps} must divide the batch size {n}")
    if not (lr > 0):
        raise ValueError(f"lr must be positive, got {lr}")
    local = model.copy()
    chunk = n // steps
    log = []
    for s in range(steps):
        sl = slice(s * chunk, (s + 1) * chunk)
        stats = {}
        loss, grads = local.loss_and_grads(x[sl], labels[sl], stats=stats)
        for key, g in grads.items():
            g *= g.dtype.type(lr)  # each step's gradients are fresh arrays
            local.params[key] -= g
        log.append({"step": s, "loss": loss, "active": stats["active"]})
    # model.copy() copied the params, so the caller's are still the start point
    delta = {k: local.params[k] - model.params[k] for k in local.params}
    payload = UpdatePayload(kind="param_delta", tensors=delta, steps=steps, lr=lr)
    return payload, log


def to_gradient_form(payload: UpdatePayload) -> UpdatePayload:
    """Express a payload as an effective mean gradient.

    A parameter delta after `steps` SGD steps equals -lr * (sum of step
    gradients), so delta / (-lr * steps) is the average step gradient -- the
    proxy recovery works from.
    """
    if payload.kind == "gradient":
        return payload
    if payload.lr is None:
        raise ValueError("param_delta payload without lr cannot be converted")
    return replace(payload.scaled(-1.0 / (payload.lr * payload.steps)), kind="gradient")


def secure_aggregate(payloads) -> UpdatePayload:
    """Unweighted sum across users, plus the count metadata the server keeps."""
    payloads = list(payloads)
    if not payloads:
        raise ValueError("nothing to aggregate")
    first = payloads[0]
    keys = set(first.tensors)
    for p in payloads[1:]:
        if p.kind != first.kind:
            raise ValueError(f"mixed payload kinds: {first.kind!r} vs {p.kind!r}")
        if set(p.tensors) != keys:
            raise ValueError("payloads carry different parameter sets")
        if (p.steps, p.lr) != (first.steps, first.lr):
            raise ValueError("payloads disagree on steps/lr")
        for k in keys:
            if p.tensors[k].shape != first.tensors[k].shape:
                raise ValueError(f"shape mismatch on {k!r}")
    # a running sum in user order; stacking first would hold every payload twice
    summed = {k: sum(p.tensors[k] for p in payloads) for k in keys}
    return UpdatePayload(kind=first.kind, tensors=summed, steps=first.steps, lr=first.lr,
                         users=sum(p.users for p in payloads))
