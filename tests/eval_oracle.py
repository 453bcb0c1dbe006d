"""The per-example eval forward, and the per-item scoring after it: the
oracles for the packed, chunked forward in `emocaps` and for its array
scoring.

One tweet at a time, as prediction first ran: each GRU direction steps
through its own sequence with a (h,) @ (h, 3h) mat-vec on its slice of the
stacked weights, and routing contracts one sequence's (n, J, d_out)
predictions with `np.einsum`. The packed path reorders some sums (stacked
and batched matmuls), so float64 results agree to a tolerance, not
bitwise.

`label`, `confusion` and `metrics` are the loops `emocaps` ran before its
labels, counts and ratios became array operations: one row, one pair and
one class at a time. Those do the same float operations in the same order,
so they must agree bitwise, errors included.
"""

from __future__ import annotations

import numpy as np

from emocaps.capsule import squash
from emocaps.embeddings import embed
from emocaps.errors import LabelOutOfRange, LengthMismatch
from emocaps.evaluation import LABELS
from emocaps.nn import GruParams, dense_forward, softmax
from gru_oracle import sigmoid


def gru_forward(X: np.ndarray, p: GruParams, k: int) -> np.ndarray:
    """Direction k of p over the rows of X from zero state; returns H (T, h)."""
    W_i, W_h, b = p.W_i[k], p.W_h[k], p.b[k]
    T, d_h = X.shape[0], W_h.shape[0]
    A = X @ W_i + b[0]
    H = np.empty((T, d_h))
    h = np.zeros(d_h)
    for t in range(T):
        g = h @ W_h + b[1]
        rz = sigmoid(A[t, : 2 * d_h] + g[: 2 * d_h])
        n = np.tanh(A[t, 2 * d_h :] + rz[:d_h] * g[2 * d_h :])
        z = rz[d_h:]
        h = H[t] = (1.0 - z) * n + z * h
    return H


def bigru_forward(X: np.ndarray, p: GruParams) -> np.ndarray:
    """H[t] = (fwd_t, bwd_t) of one sequence."""
    return np.concatenate([gru_forward(X, p, 0), gru_forward(X[::-1], p, 1)[::-1]], axis=1)


def dynamic_routing(U: np.ndarray, iterations: int) -> list:
    """Routing over one sequence's (n, J, d_out) predictions; returns the
    (couplings (n, J), sums (J, d_out), outputs (J, d_out)) of every
    iteration."""
    B = np.zeros(U.shape[:2])
    states = []
    for k in range(iterations):
        C = softmax(B)
        S = np.einsum("nj,njo->jo", C, U)
        V = squash(S)
        states.append((C, S, V))
        if k < iterations - 1:
            B = B + np.einsum("njo,jo->nj", U, V)
    return states


def forward_probs(ids, params, cfg) -> np.ndarray:
    """Eval-mode class probabilities (N_CLASSES,) of one id sequence."""
    H = bigru_forward(embed(ids, params.embedding), params.gru)
    U = np.einsum("nd,jdo->njo", H, params.capsule)
    _, _, V = dynamic_routing(U, cfg.routing_iters)[-1]
    return softmax(dense_forward(V.reshape(-1), params.dense))


def label(row: np.ndarray) -> int:
    """Index of the largest probability; exact ties go to the lowest index."""
    return int(np.argmax(row))


def predict_labels(sequences, params, cfg) -> list[int]:
    return [label(forward_probs(ids, params, cfg)) for ids in sequences]


def confusion(golds, preds) -> np.ndarray:
    """Count matrix with rows = gold class, columns = predicted class."""
    golds = list(golds)
    preds = list(preds)
    if len(golds) != len(preds):
        raise LengthMismatch(f"{len(golds)} gold labels vs {len(preds)} predictions")
    cm = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(golds, preds):
        if not 0 <= g < len(LABELS):
            raise LabelOutOfRange(f"gold label {g} outside 0..{len(LABELS) - 1}")
        if not 0 <= p < len(LABELS):
            raise LabelOutOfRange(f"predicted label {p} outside 0..{len(LABELS) - 1}")
        cm[g, p] += 1
    return cm


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f1(p: float, r: float) -> float:
    return _safe_div(2.0 * p * r, p + r)


def metrics(cm: np.ndarray) -> dict:
    total = int(cm.sum())
    per_class: dict[str, dict] = {}
    for c, name in enumerate(LABELS):
        tp = float(cm[c, c])
        p = _safe_div(tp, float(cm[:, c].sum()))
        r = _safe_div(tp, float(cm[c, :].sum()))
        per_class[name] = {"p": p, "r": r, "f1": _f1(p, r), "support": int(cm[c, :].sum())}

    # pooled counts: every error is one false positive and one false negative
    micro_ratio = _safe_div(float(np.trace(cm)), float(total))
    micro = {"p": micro_ratio, "r": micro_ratio, "f1": _f1(micro_ratio, micro_ratio), "support": total}

    values = list(per_class.values())
    macro = {key: float(np.mean([m[key] for m in values])) for key in ("p", "r", "f1")}
    macro["support"] = total
    return {"per_class": per_class, "micro": micro, "macro": macro}
