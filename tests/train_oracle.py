"""Per-example training with dense embedding gradients: the oracle for the
chunked loop in `emocaps.training`, which trains only the training set's
embedding rows.

Every example runs alone, as training first did: a forward pass over its
one sequence, then a backward pass through each GRU direction on its own
(`gru_backward`), and the batch sum adds one example's gradients at a time.
Every update also pays for the whole embedding table: the per-example
embedding gradient is a dense (vocab, dim) array, the batch sum adds every
row, the padding row is zeroed, clipping sums squares over every row and
Adam keeps vocabulary-sized moments. The shuffles, per-example random
streams and early stopping are those of `train`; the dev pass runs one
tweet at a time (`eval_oracle`), not in packed chunks.

The regularizers are here as two steps, spatial dropout and then Gaussian
noise (`regularize`), one sequence at a time: the oracle for
`training._regularize`, which states both in one loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import eval_oracle
from emocaps.capsule import capsule_layer_backward
from emocaps.embeddings import EmbeddingTable
from emocaps.evaluation import confusion, metrics
from emocaps.nn import BigruCache, DenseParams, GruParams
from emocaps.training import PAD_ID, ModelParams, cross_entropy_loss, forward_full

EMBEDDING = "embedding/W_e"


@dataclass
class GruCache:
    """One direction's forward stacks of one sequence; row t is step t in
    processing order."""

    X: np.ndarray  # (T, d) inputs
    H: np.ndarray  # (T, h) states h_t
    rz: np.ndarray  # (T, 2h) reset and update gates
    n: np.ndarray  # (T, h) candidates
    rhh: np.ndarray  # (T, h) r * (h W_hn + b_hn), the gated recurrent candidate term


def direction_caches(cache: BigruCache) -> tuple[GruCache, GruCache]:
    """The forward and backward direction's stacks of a one-sequence chunk,
    whose packed rows are its steps."""
    if len(cache.counts) != cache.X.shape[0]:
        raise ValueError("a per-sequence backward needs a one-sequence chunk")
    return tuple(
        GruCache(
            X=cache.X[cache.index[:, k]], H=cache.H[:, k], rz=np.concatenate(cache.rz[:, :, k], axis=1),
            n=cache.n[:, k], rhh=cache.rhh[:, k],
        )
        for k in range(2)
    )


def gru_backward(grad_H: np.ndarray, c: GruCache, p: GruParams, k: int):
    """Backprop through time for direction k of one sequence; returns
    (grad_X, (gW_i, gW_h, gb)), grad_X in processing order."""
    W_i, W_h = p.W_i[k], p.W_h[k]
    T, d_h = grad_H.shape[0], W_h.shape[0]
    r, z = c.rz[:, :d_h], c.rz[:, d_h:]
    H_prev = np.zeros_like(c.H)
    H_prev[1:] = c.H[:-1]
    dtanh = (1.0 - z) * (1.0 - c.n * c.n)
    K = np.stack([dtanh * c.rhh * (1.0 - r), (H_prev - c.n) * z * (1.0 - z), dtanh * r], axis=1)
    dG = np.empty((T, 3, d_h))
    dH = np.empty((T, d_h))
    W_hT = W_h.T
    carry = np.zeros(d_h)
    for t in range(T - 1, -1, -1):
        dh = dH[t] = grad_H[t] + carry
        dg = dG[t] = dh * K[t]
        carry = dh * z[t] + dg.reshape(-1) @ W_hT
    dG = dG.reshape(T, 3 * d_h)
    dA = dG.copy()
    dA[:, 2 * d_h :] = dH * dtanh
    return dA @ W_i.T, (c.X.T @ dA, H_prev.T @ dG, np.stack([dA.sum(axis=0), dG.sum(axis=0)]))


def bigru_backward(grad_H: np.ndarray, cache: BigruCache, p: GruParams):
    """Both directions of a one-sequence chunk, one after the other;
    returns (grad_X, grads), the direction gradients stacked."""
    d_h = p.W_h.shape[1]
    c_fwd, c_bwd = direction_caches(cache)
    gX_fwd, g_fwd = gru_backward(grad_H[:, :d_h], c_fwd, p, 0)
    gX_bwd, g_bwd = gru_backward(grad_H[::-1, d_h:], c_bwd, p, 1)
    return gX_fwd + gX_bwd[::-1], GruParams(*(np.stack(pair) for pair in zip(g_fwd, g_bwd)))


def gaussian_noise(x: np.ndarray, std: float, rng) -> np.ndarray:
    """Additive zero-mean noise drawn from rng; identity at std 0."""
    if std == 0.0:
        return x
    return x + rng.normal(0.0, std, size=x.shape)


def spatial_dropout(X: np.ndarray, rate: float, rng):
    """Channel dropout with inverted scaling: one keep/drop draw per column,
    applied across every row; returns (output, (1, columns) mask). At rate
    0 the output is X itself and the mask all ones, and nothing is drawn."""
    if rate == 0.0:
        return X, np.ones((1, X.shape[1]))
    keep = rng.random((1, X.shape[1])) >= rate
    mask = keep / (1.0 - rate)
    return X * mask, mask


def regularize(rows: np.ndarray, lengths, rngs, rate: float, std: float):
    """Each sequence's rows through `spatial_dropout` and then
    `gaussian_noise`, drawn from its own stream; returns (output, the
    (B, columns) masks)."""
    parts, masks = [], []
    start = 0
    for n, rng in zip(lengths, rngs):
        part, mask = spatial_dropout(rows[start : start + n], rate, rng)
        parts.append(gaussian_noise(part, std, rng))
        masks.append(mask)
        start += n
    return np.concatenate(parts), np.concatenate(masks)


def example_loss_and_grads(ids, gold, params, cfg, rng):
    """Loss and dense gradients of one example, backpropagated on its own."""
    probs, cache = forward_full([ids], params, cfg, rngs=[rng])
    (loss,), grad_logits = cross_entropy_loss(probs, [gold])
    grad_c = grad_logits[0] @ params.dense.W.T
    grad_c = grad_c * cache.drop_mask[0]
    grad_H, gW_caps = capsule_layer_backward(grad_c[None], cache.capsule, params.capsule)
    grad_X, g_gru = bigru_backward(grad_H, cache.bigru, params.gru)
    grad_X = grad_X * cache.spatial_mask
    gW_e = np.zeros_like(params.embedding.weights)
    np.add.at(gW_e, cache.ids, grad_X)
    grads = ModelParams(
        embedding=EmbeddingTable(weights=gW_e),
        gru=g_gru,
        capsule=gW_caps,
        dense=DenseParams(W=np.outer(cache.c[0], grad_logits[0]), b=grad_logits[0].copy()),
    ).tensors()
    return float(loss), grads


def dense_clip(grads: dict, clip_norm: float) -> float:
    """Global-norm clipping in place; returns the norm before clipping."""
    total = 0.0
    for t in grads.values():
        total += float(np.sum(t * t))
    norm = np.sqrt(total)
    if norm > clip_norm:
        scale = clip_norm / norm
        for t in grads.values():
            t *= scale
    return float(norm)


def dense_adam(tensors: dict, grads: dict, m: dict, v: dict, t: int, cfg) -> None:
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8  # Kingma & Ba's, not imported from src: an independent oracle
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    for name, theta in tensors.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        m_hat = m[name] / correct1
        v_hat = v[name] / correct2
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)


def dense_train(train_set, dev_set, params, cfg):
    """`train` with dense embedding gradients; returns (params, history,
    norms), norms being every update's gradient norm before clipping."""
    tensors = params.tensors()
    m = {k: np.zeros_like(t) for k, t in tensors.items()}
    v = {k: np.zeros_like(t) for k, t in tensors.items()}
    step = 0
    history, norms = [], []
    best_f1, best_tensors, since_best = -1.0, None, 0
    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(len(train_set))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            sums = {k: np.zeros_like(t) for k, t in tensors.items()}
            for offset, index in enumerate(batch):
                rng = np.random.default_rng([cfg.seed, 2, epoch, start + offset])
                ids, gold = train_set[index]
                loss, grads = example_loss_and_grads(ids, gold, params, cfg, rng)
                for k in sums:
                    sums[k] += grads[k]
                losses.append(loss)
            inv = 1.0 / len(batch)
            for k in sums:
                sums[k] *= inv
            sums[EMBEDDING][PAD_ID, :] = 0.0
            norms.append(dense_clip(sums, cfg.clip_norm))
            step += 1
            dense_adam(tensors, sums, m, v, step, cfg)
        preds = eval_oracle.predict_labels([ids for ids, _ in dev_set], params, cfg)
        dev_f1 = metrics(confusion([gold for _, gold in dev_set], preds))["macro"]["f1"]
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)), "dev_macro_f1": dev_f1, "seconds": 0.0})
        if dev_f1 > best_f1:
            best_f1, since_best = dev_f1, 0
            best_tensors = {k: t.copy() for k, t in tensors.items()}
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    if best_tensors is not None:
        for name, t in tensors.items():
            t[...] = best_tensors[name]
    return params, history, norms
