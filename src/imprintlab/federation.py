"""Federated updates: one-step gradients, local training (parameter deltas),
unweighted secure aggregation, and the server's one read, `to_gradient_form`."""

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


def fed_sgd(model: ModelGraph, x: np.ndarray, labels: np.ndarray):
    """One full-batch gradient: the loss, the payload (exactly the mean
    gradient) and the pass's active mask, as `loss_and_grads` returns it."""
    loss, grads, active = model.loss_and_grads(x, labels)
    return loss, UpdatePayload(kind="gradient", tensors=grads), active


def fed_avg(model: ModelGraph, x: np.ndarray, labels: np.ndarray, *, steps: int,
            lr: float) -> tuple[UpdatePayload, list, np.ndarray]:
    """Sequential local SGD of an imprint model over an equal split of the
    batch; returns the parameter delta, each step's loss and the (n, rows)
    active mask, each example's row mask at its own step. The caller's model
    is untouched. Each step is `ModelGraph.sgd_step` on one local copy, which
    frees the step's gradients before the next pass and, in a chunk that
    activates few rows, moves the imprint weight only at those rows. A call
    holds the copy and one step's gradients, or at the end the copy and the
    delta; a sparse step adds its touched rows' gathers, at most half the
    imprint weight."""
    n = len(labels)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if n % steps != 0:
        raise ValueError(f"steps {steps} must divide the batch size {n}")
    if not (lr > 0):
        raise ValueError(f"lr must be positive, got {lr}")
    local = model.copy()
    chunk = n // steps
    losses, actives = [], []
    for s in range(steps):
        sl = slice(s * chunk, (s + 1) * chunk)
        loss, active = local.sgd_step(x[sl], labels[sl], lr)
        losses.append(loss)
        actives.append(active)
    # model.copy() copied the params, so the caller's are still the start point
    delta = {k: local.params[k] - model.params[k] for k in local.params}
    payload = UpdatePayload(kind="param_delta", tensors=delta, steps=steps, lr=lr)
    return payload, losses, np.concatenate(actives)


def to_gradient_form(payload: UpdatePayload) -> UpdatePayload:
    """The server's read of an update, the per-user mean gradient: a secure sum
    times 1/users, then a delta after `steps` SGD steps (-lr times the sum of
    step gradients) times -1/(lr * steps), each factor rounded to the dtype.
    A factor of 1 is skipped, so one user's gradient comes back as itself."""
    factors = [1.0 / payload.users] * (payload.users != 1)
    if payload.kind != "gradient":
        if payload.lr is None:
            raise ValueError("param_delta payload without lr cannot be converted")
        factors.append(-1.0 / (payload.lr * payload.steps))
    tensors = payload.tensors
    for f in factors:
        tensors = {k: t * t.dtype.type(f) for k, t in tensors.items()}
    return replace(payload, kind="gradient", tensors=tensors, users=1) if factors else payload


def secure_aggregate(payloads) -> UpdatePayload:
    """Unweighted sum across users, plus the count metadata the server keeps.
    Consumes any iterable lazily, in user order: each payload is added in place
    (the adds `sum()` makes, from `0 + t`) and dropped before the next is
    pulled, so a generator of users' passes holds one user's update at a time."""
    payloads = iter(payloads)
    first = next(payloads, None)
    if first is None:
        raise ValueError("nothing to aggregate")
    kind, steps, lr, users = first.kind, first.steps, first.lr, first.users
    layout = {k: (t.shape, t.dtype) for k, t in first.tensors.items()}
    summed = {k: 0 + t for k, t in first.tensors.items()}
    del first
    for p in payloads:
        if p.kind != kind:
            raise ValueError(f"mixed payload kinds: {kind!r} vs {p.kind!r}")
        if p.tensors.keys() != layout.keys():
            raise ValueError("payloads carry different parameter sets")
        if (p.steps, p.lr) != (steps, lr):
            raise ValueError("payloads disagree on steps/lr")
        for k, want in layout.items():
            if (p.tensors[k].shape, p.tensors[k].dtype) != want:
                raise ValueError(f"shape or dtype mismatch on {k!r}")  # += would cast
            summed[k] += p.tensors[k]
        users += p.users
        del p  # before the next user's pass runs
    return UpdatePayload(kind=kind, tensors=summed, steps=steps, lr=lr, users=users)
