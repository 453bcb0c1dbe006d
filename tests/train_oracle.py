"""The dense training loop: the oracle for the row-sparse one in
`emocaps.training`.

Every update here pays for the whole embedding table, as training first
did: the per-example embedding gradient is a dense (vocab, dim) array, the
batch sum adds every row, the padding row is zeroed, clipping sums squares
over every row and Adam keeps vocabulary-sized moments. The shuffles,
per-example random streams and early stopping are those of `train`; the
dev pass runs one tweet at a time (`eval_oracle`), not in packed chunks.
"""

from __future__ import annotations

import numpy as np

import eval_oracle
from emocaps.evaluation import confusion, metrics
from emocaps.training import PAD_ID, example_loss_and_grads
from gradcheck import dense

EMBEDDING = "embedding/W_e"


def dense_example_grads(ids, gold, params, cfg, rng):
    loss, grads = example_loss_and_grads(ids, gold, params, cfg, rng=rng)
    grads[EMBEDDING] = dense(grads[EMBEDDING], len(params.embedding.weights))
    return loss, grads


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
    correct1 = 1.0 - cfg.beta1**t
    correct2 = 1.0 - cfg.beta2**t
    for name, theta in tensors.items():
        g = grads[name]
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * g
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * (g * g)
        m_hat = m[name] / correct1
        v_hat = v[name] / correct2
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


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
                loss, grads = dense_example_grads(ids, gold, params, cfg, rng)
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
        dev_f1 = metrics(confusion([gold for _, gold in dev_set], preds)).macro.f1
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
