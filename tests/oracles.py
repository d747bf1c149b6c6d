"""Independent reference implementations the tests check against.

Everything here is deliberately naive: triple loops, exhaustive search,
bisection, quadrature. Slow but obviously correct.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from imprintlab.distributions import Empirical, Laplace, Normal


def naive_matmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def brute_assignment(cost):
    """Minimal-cost column choice by exhaustive search; handles n <= p."""
    cost = np.asarray(cost, dtype=np.float64)
    n, p = cost.shape
    best, best_cols = math.inf, None
    for cols in itertools.permutations(range(p), n):
        total = sum(cost[i, c] for i, c in enumerate(cols))
        if total < best:
            best, best_cols = total, cols
    return best_cols, best


def bisect_quantile(cdf, p, lo=-60.0, hi=60.0, tol=1e-13):
    """Invert a scalar CDF by bisection. The bracket must straddle p."""
    assert cdf(lo) < p < cdf(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def fd_gradcheck(model, x, labels, eps=1e-3):
    """Max per-tensor relative error of analytic gradients against central
    finite differences. Mutates model.params in place but restores them."""
    grads = model.loss_and_grads(x, labels)[1]
    worst = 0.0
    for name, g in grads.items():
        p = model.params[name]
        fd = np.zeros_like(g, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = model.loss_and_grads(x, labels)[0]
            p[idx] = orig - eps
            dn = model.loss_and_grads(x, labels)[0]
            p[idx] = orig
            fd[idx] = (up - dn) / (2.0 * eps)
        scale = max(float(np.max(np.abs(g))), 1e-12)
        worst = max(worst, float(np.max(np.abs(fd - g))) / scale)
    return worst


def cdf(dist, x):
    """The CDF of a Normal, Laplace or Empirical at x, in float64: a float for
    a scalar x, else an array. Empirical interpolates between its sorted
    samples at plotting positions (i - 1)/(n - 1), and is 0 below and 1 above."""
    x64 = np.asarray(x, dtype=np.float64)
    if isinstance(dist, Normal):
        out = ndtr((x64 - dist.mean) / dist.sd)
    elif isinstance(dist, Laplace):
        z = (x64 - dist.mean) / dist.scale
        out = np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))
    else:
        assert isinstance(dist, Empirical)
        probs = np.linspace(0.0, 1.0, dist.values.size)
        out = np.interp(x64, dist.values, probs, left=0.0, right=1.0)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def normal_cdf_quadrature(x, mean=0.0, sd=1.0):
    """CDF by adaptive quadrature of the density, anchored at the median
    (integrating across the whole flat tail would inflate quad's error bound)."""
    def pdf(t):
        z = (t - mean) / sd
        return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    val, err = quad(pdf, mean, x, limit=200)
    assert err < 1e-10
    return 0.5 + val


def prop1_double_sum(n, k):
    """Prop. 1 as the original double sum over how many bins hold one element:
    i singletons in C(k, i) ways, the other n - i elements in j bins of size
    >= 2. Exact Fraction, minus the n/k bottom-bin correction; k > n > 2."""
    total = math.comb(k + n - 1, k - 1)
    acc = n * math.comb(k, n)  # all n in distinct bins
    for i in range(1, n - 1):
        inner = 0
        for j in range(1, (n - i) // 2 + 1):
            inner += math.comb(k - i, j) * math.comb(n - i - j - 1, j - 1)
        acc += i * math.comb(k, i) * inner
    return Fraction(acc, total) - Fraction(n, k)


def composition_oracle(n: int, k: int, *, limit: int = 10_000_000) -> Fraction:
    """Mean singleton count over ALL weak compositions of n into k bins,
    by direct enumeration (no tail correction)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n} k={k}")
    total = math.comb(k + n - 1, k - 1)
    if total > limit:
        raise ValueError(f"{total} compositions exceeds enumeration limit {limit}")
    slots = n + k - 1
    singletons = 0
    for bars in itertools.combinations(range(slots), k - 1):
        prev = -1
        count = 0
        for b in bars:
            if b - prev - 1 == 1:
                count += 1
            prev = b
        if slots - prev - 1 == 1:
            count += 1
        singletons += count
    return Fraction(singletons, total)


def iid_monte_carlo(n: int, k: int, *, reps: int, stream,
                    probs=None) -> tuple[float, float]:
    """Monte Carlo singleton count for iid bin occupancy.

    probs optionally gives non-uniform bin masses (length k, summing to ~1).
    Returns (mean, standard error).
    """
    if reps < 2:
        raise ValueError(f"need reps >= 2, got {reps}")
    counts = np.empty(reps, dtype=np.float64)
    for r in range(reps):
        # per-replicate stream: result independent of evaluation order
        gen = stream.derive(r).generator()
        if probs is None:
            bins = gen.integers(0, k, size=n)
        else:
            bins = gen.choice(k, size=n, p=probs)
        occupancy = np.bincount(bins, minlength=k)
        counts[r] = float((occupancy == 1).sum())
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(reps))
    return mean, stderr


def two_step_read(payload):
    """The server's read of an update as two separate passes: every tensor
    times dtype(1/users), then, for a parameter delta, times
    dtype(-1/(lr*steps)). Returns the tensors."""
    out = {k: t * t.dtype.type(1.0 / payload.users) for k, t in payload.tensors.items()}
    if payload.kind == "param_delta":
        out = {k: t * t.dtype.type(-1.0 / (payload.lr * payload.steps)) for k, t in out.items()}
    return out


def loop_readout(payload, imprint, tau0=1e-9):
    """The bin read-out one row at a time: gather the rows in bin order, cast
    to float64, floor at tau0 * max|bias grad|, difference adjacent ReLU rows,
    then divide each live row. Returns (bin, vector, denominator, confidence)
    tuples in bin order."""
    g = two_step_read(payload)
    gw = g["imprint.weight"][imprint.row_of_bin].astype(np.float64)
    gb = g["imprint.bias"][imprint.row_of_bin].astype(np.float64)
    floor = tau0 * float(np.abs(gb).max(initial=0.0))
    if imprint.variant == "relu":
        gw[:-1] -= gw[1:]
        gb[:-1] -= gb[1:]
    rows = []
    for i in range(len(gb)):
        if abs(gb[i]) <= floor:
            continue
        rows.append((i, gw[i] / gb[i], float(gb[i]), float(np.abs(gw[i]).mean())))
    return rows


def loop_select(rows, n):
    """Top n read-out rows by confidence, ties toward the lower bin."""
    return sorted(rows, key=lambda r: (-r[3], r[0]))[:n]


def loop_token_lookup(vectors, table, seq_len):
    """Token ids one vector at a time, one product per vector, each block
    scored `-2.0 * blocks @ table.T + table_sq` against a float64 table."""
    table = np.asarray(table, dtype=np.float64)
    table_sq = (table * table).sum(axis=1)
    out = np.empty((len(vectors), seq_len), dtype=np.int64)
    for i, vec in enumerate(vectors):
        blocks = np.asarray(vec, dtype=np.float64).reshape(seq_len, table.shape[1])
        out[i] = np.argmin(-2.0 * blocks @ table.T + table_sq, axis=1)
    return out


def loop_fed_avg(model, x, labels, *, steps, lr):
    """Textbook local SGD: copy the params, step with params -= lr * g, and
    take the delta against the start copy. Returns (delta, each step's loss,
    each step pass's active mask)."""
    local = model.copy()
    start = {k: v.copy() for k, v in local.params.items()}
    chunk = len(labels) // steps
    losses, actives = [], []
    for s in range(steps):
        sl = slice(s * chunk, (s + 1) * chunk)
        loss, grads, active = local.loss_and_grads(x[sl], labels[sl])
        for key, g in grads.items():
            local.params[key] = local.params[key] - lr * g
        losses.append(loss)
        actives.append(active)
    return {k: local.params[k] - start[k] for k in start}, losses, actives


def loop_drifted(model, x, labels, *, steps, lr):
    """How many of one user's examples x have other bins at their own local
    step (loop_fed_avg's masks) than under the initial weights (the mask of
    unblocked_imprint_pass over all of x), one example and one bin at a
    time. An example is in a hard-threshold bin when the bin's row is active,
    and in a ReLU bin when exactly one of the bin's row and the next bin's row
    is: the read-out differences the two (the top bin reads its row alone)."""
    imp, chunk = model.imprint, len(labels) // steps
    actives = loop_fed_avg(model, x, labels, steps=steps, lr=lr)[2]
    start = unblocked_imprint_pass(model, x, labels)[2]

    def bins(active):
        seen = [bool(active[r]) for r in imp.row_of_bin]
        if imp.variant == "relu":
            seen = [a != b for a, b in zip(seen, seen[1:] + [False])]
        return [i for i, s in enumerate(seen) if s]

    return sum(bins(actives[i // chunk][i % chunk]) != bins(start[i])
               for i in range(len(labels)))


def unblocked_pairwise_sq(a, b):
    """Squared distances between the rows of a and of b as one whole-array
    expression: every row norm and the full product at once."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def nearest_member(candidates, truth, members):
    """Each candidate's paired truth row by exhaustive search: among the truth
    rows its member pairs name, the lowest row at the least squared distance
    (`unblocked_pairwise_sq`); with no member, its first nearest truth row."""
    dists = unblocked_pairwise_sq(candidates, truth)
    cand, row = members
    paired = []
    for i, d in enumerate(dists):
        own = [int(r) for c, r in zip(cand, row) if c == i]
        if not own:
            paired.append(int(np.argmin(d)))
            continue
        best = min(d[r] for r in own)
        paired.append(min(r for r in own if d[r] == best))
    return paired


def unblocked_exact_psnr(candidates, truth, cols, *, rel_tol, psnr_transform=None):
    """Exactness (relative l2 through np.linalg.norm) and PSNR of every
    candidate against truth[cols], each over the whole candidate array."""
    matched = truth[cols]
    denom = np.linalg.norm(matched, axis=-1)
    err = np.linalg.norm(candidates - matched, axis=-1)
    exact = np.where(denom > 0, err <= rel_tol * denom, err == 0.0)
    if psnr_transform is not None:
        candidates, matched = psnr_transform(candidates), psnr_transform(matched)
    mse = np.mean((candidates - matched) ** 2, axis=-1)
    with np.errstate(divide="ignore"):
        return exact, np.where(mse != 0.0, 10.0 * np.log10(1.0 / mse), 300.0)


def unblocked_softmax_ce(logits, labels):
    """Mean softmax cross-entropy and its logit gradient (1/n folded in), with
    a fresh array for every step; `logits` is left as it was."""
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


def unblocked_imprint_pass(model, x, labels):
    """Loss, gradients, active mask and activation gradient of an imprint
    model, with a fresh array for the pre-activation, the activation, the
    logits, each softmax step and the pre-activation gradient, and np.where
    for every mask."""
    p, zero = model.params, model.dtype.type(0)
    feats = model.forward_features(x)
    pre = feats @ p["imprint.weight"].T + p["imprint.bias"]
    active = pre > 0
    if model.imprint.variant == "relu":
        act = np.where(active, pre, zero)
    else:
        active &= pre < 1
        act = np.clip(pre, 0.0, 1.0)
    z = act.sum(axis=1, keepdims=True) if model.bridge == "sum" else act @ p["bridge.weight"].T
    loss, dlogits = unblocked_softmax_ce(z @ p["head.weight"].T + p["head.bias"], labels)
    grads = {"head.weight": dlogits.T @ z, "head.bias": dlogits.sum(axis=0)}
    dz = dlogits @ p["head.weight"]
    if model.bridge == "sum":
        da = np.broadcast_to(dz, act.shape)
    else:
        grads["bridge.weight"] = dz.T @ act
        da = dz @ p["bridge.weight"]
    dpre = np.where(active, da, zero)
    grads["imprint.weight"] = dpre.T @ feats
    grads["imprint.bias"] = dpre.sum(axis=0)
    return loss, grads, active, da


def loop_load_csv(path, *, dtype=np.float32):
    """A CSV read one cell at a time: float() per feature cell, int() per
    label cell, each checked as it is read. Returns (x, labels or None)."""
    import csv
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        label_idx = header.index("label") if "label" in header else None
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            feats = []
            for col, cell in enumerate(row):
                where = f"{path}:{lineno}: column {header[col]!r}: "
                if col == label_idx:
                    try:
                        label = int(cell)
                    except ValueError:
                        label = -1
                    if label < 0:
                        raise ValueError(where + f"bad label {cell!r} (expected an integer >= 0)")
                    labels.append(label)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(where + f"bad float {cell!r}") from None
                if not math.isfinite(value):
                    raise ValueError(where + f"non-finite value {cell!r}")
                feats.append(value)
            rows.append(feats)
    x = np.asarray(rows, dtype=dtype)
    return x, (np.asarray(labels, dtype=np.int64) if label_idx is not None else None)


def whole_draw_noise(payload, config, stream):
    """apply_defense's tensors without clipping, each tensor's noise drawn in
    one piece: the whole float64 draw of its child stream (sorted key order)
    cast to the tensor's dtype and added."""
    out = {}
    for idx, key in enumerate(sorted(payload.tensors)):
        t = payload.tensors[key]
        gen = stream.derive(idx).generator()
        if config.noise == "gaussian":
            noise = gen.standard_normal(t.shape) * config.sigma
        else:
            noise = gen.laplace(0.0, config.sigma, t.shape)
        out[key] = t + noise.astype(t.dtype)
    return out
