"""The per-example eval forward: the oracle for the packed, chunked one in
`emocaps`.

One tweet at a time, as prediction first ran: each GRU direction steps
through its own sequence with a (h,) @ (h, 3h) mat-vec on its slice of the
stacked weights, and routing contracts one sequence's (n, J, d_out)
predictions with `np.einsum`. The packed path reorders some sums (stacked
and batched matmuls), so float64 results agree to a tolerance, not
bitwise.
"""

from __future__ import annotations

import numpy as np

from emocaps.capsule import squash
from emocaps.embeddings import embed
from emocaps.nn import GruParams, dense_forward, predict_class, softmax
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


def predict_labels(sequences, params, cfg) -> list[int]:
    return [predict_class(forward_probs(ids, params, cfg)) for ids in sequences]
