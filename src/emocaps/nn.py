"""Numeric core: activations, parameter initialization, the bidirectional GRU
encoder, the dense head, and the finite-difference gradient checker.

All backward passes are written by hand against the forward definitions; the
gradient checker is the oracle that keeps them honest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .embeddings import RowGrad
from .errors import NumericError, ShapeMismatch

N_CLASSES = 6


def sigmoid(x):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp(-|x|) never
    # overflows, and no boolean indexing is needed
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(y: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis, one distribution per row."""
    shifted = y - np.max(y, axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def softmax_backward(grad_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient through softmax: dL/dlogits from dL/dprobs."""
    inner = (grad_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def check_finite(array: np.ndarray, context: str = "tensor") -> None:
    if not np.all(np.isfinite(array)):
        raise NumericError(f"non-finite values in {context}")


def glorot_uniform(shape, rng) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class GruParams:
    """Weights for one direction, gate blocks in r, z, n order along the last
    axis (reset, update, candidate): inputs hit W_i (d, 3h), the recurrent
    state hits W_h (h, 3h); b[0] is the input bias, b[1] the recurrent one."""

    W_i: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.W_i.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def init_gru(input_dim: int, hidden_dim: int, rng) -> GruParams:
    """Glorot-uniform gate blocks, each drawn with its own (rows, h) limit in
    the order W_ir, W_iz, W_in, W_hr, W_hz, W_hn, then packed; zero biases."""

    def w(rows):
        W = np.empty((rows, 3 * hidden_dim))
        for k in range(3):
            W[:, k * hidden_dim : (k + 1) * hidden_dim] = glorot_uniform((rows, hidden_dim), rng)
        return W

    return GruParams(W_i=w(input_dim), W_h=w(hidden_dim), b=np.zeros((2, 3 * hidden_dim)))


@dataclass
class GruCache:
    """One direction's forward stacks; row t is step t in processing order."""

    X: np.ndarray  # (T, d) inputs
    H: np.ndarray  # (T, h) states h_t
    rz: np.ndarray  # (T, 2h) reset and update gates
    n: np.ndarray  # (T, h) candidates
    hh: np.ndarray  # (T, h) the biased recurrent candidate term, gated by r


def gru_forward(X: np.ndarray, p: GruParams):
    """Run one direction over the rows of X from zero state.

    r = sig(x W_ir + b_ir + h W_hr + b_hr)
    z = sig(x W_iz + b_iz + h W_hz + b_hz)
    n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
    h = (1 - z) * n + z * h_prev

    The reset gate multiplies the already-biased recurrent term. The input
    projections of every step are one matmul before the loop.
    """
    T, d_h = X.shape[0], p.hidden_dim
    A = X @ p.W_i + p.b[0]
    H = np.empty((T, d_h), dtype=X.dtype)
    RZ = np.empty((T, 2 * d_h), dtype=X.dtype)
    N = np.empty((T, d_h), dtype=X.dtype)
    HH = np.empty((T, d_h), dtype=X.dtype)
    h = np.zeros(d_h, dtype=X.dtype)
    for t in range(T):
        g = h @ p.W_h + p.b[1]
        rz = RZ[t] = sigmoid(A[t, : 2 * d_h] + g[: 2 * d_h])
        hh = HH[t] = g[2 * d_h :]
        n = N[t] = np.tanh(A[t, 2 * d_h :] + rz[:d_h] * hh)
        z = rz[d_h:]
        h = H[t] = (1.0 - z) * n + z * h
    return H, GruCache(X=X, H=H, rz=RZ, n=N, hh=HH)


def gru_backward(grad_H: np.ndarray, c: GruCache, p: GruParams):
    """Backprop through time for one direction; returns (grad_X, grads).

    Only the recurrent carry stays in the loop. It fills the pre-activation
    gradients of the input side (dA) and of the recurrent side (dG), which
    differ only in the candidate block; every weight gradient and grad_X is
    then one matmul.
    """
    T, d_h = grad_H.shape[0], p.hidden_dim
    r, z = c.rz[:, :d_h], c.rz[:, d_h:]
    H_prev = np.zeros_like(c.H)
    H_prev[1:] = c.H[:-1]
    dtanh = (1.0 - z) * (1.0 - c.n * c.n)  # dh -> candidate pre-activation
    # dG[t] = dh_t * K[t], blockwise: reset, update, recurrent candidate term
    K = np.stack([dtanh * c.hh * r * (1.0 - r), (H_prev - c.n) * z * (1.0 - z), dtanh * r], axis=1)
    dG = np.empty((T, 3, d_h), dtype=grad_H.dtype)
    dH = np.empty((T, d_h), dtype=grad_H.dtype)
    W_hT = p.W_h.T
    carry = np.zeros(d_h, dtype=grad_H.dtype)
    for t in range(T - 1, -1, -1):
        dh = dH[t] = grad_H[t] + carry
        dg = dG[t] = dh * K[t]
        carry = dh * z[t] + dg.reshape(-1) @ W_hT
    dG = dG.reshape(T, 3 * d_h)
    dA = dG.copy()
    dA[:, 2 * d_h :] = dH * dtanh
    grads = GruParams(
        W_i=c.X.T @ dA,
        W_h=H_prev.T @ dG,
        b=np.stack([dA.sum(axis=0), dG.sum(axis=0)]),
    )
    return dA @ p.W_i.T, grads


@dataclass
class BigruCache:
    fwd: GruCache
    bwd: GruCache  # rows in processing order, i.e. original positions n-1 .. 0


def bigru_forward(X: np.ndarray, p_fwd: GruParams, p_bwd: GruParams):
    """Run both directions and concatenate per position: H[t] = (fwd_t, bwd_t).

    Both directions start from zero state; the backward direction reads the
    sequence last to first.
    """
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeMismatch(f"bigru needs at least one position, got input {X.shape}")
    for p in (p_fwd, p_bwd):
        if X.shape[1] != p.input_dim:
            raise ShapeMismatch(f"input width {X.shape[1]} vs GRU input {p.input_dim}")
    H_fwd, c_fwd = gru_forward(X, p_fwd)
    H_bwd, c_bwd = gru_forward(X[::-1], p_bwd)
    return np.concatenate([H_fwd, H_bwd[::-1]], axis=1), BigruCache(fwd=c_fwd, bwd=c_bwd)


def bigru_backward(grad_H: np.ndarray, cache: BigruCache, p_fwd, p_bwd):
    """Backprop through time for both directions; returns (grad_X, g_fwd, g_bwd)."""
    d_h = p_fwd.hidden_dim
    if grad_H.shape != (cache.fwd.H.shape[0], 2 * d_h):
        raise ShapeMismatch(f"grad_H {grad_H.shape} vs bigru output ({cache.fwd.H.shape[0]}, {2 * d_h})")
    gX_fwd, g_fwd = gru_backward(grad_H[:, :d_h], cache.fwd, p_fwd)
    gX_bwd, g_bwd = gru_backward(grad_H[::-1, d_h:], cache.bwd, p_bwd)
    return gX_fwd + gX_bwd[::-1], g_fwd, g_bwd


@dataclass
class DenseParams:
    W: np.ndarray  # (input_dim, N_CLASSES)
    b: np.ndarray  # (N_CLASSES,)

    @property
    def input_dim(self) -> int:
        return self.W.shape[0]


def init_dense(input_dim: int, rng) -> DenseParams:
    return DenseParams(W=glorot_uniform((input_dim, N_CLASSES), rng), b=np.zeros(N_CLASSES))


def dense_forward(c: np.ndarray, p: DenseParams) -> np.ndarray:
    """Affine map to the class logits, c @ W + b; softmax is a separate step."""
    if c.shape != (p.input_dim,):
        raise ShapeMismatch(f"input {c.shape} vs dense ({p.input_dim}, {N_CLASSES})")
    return c @ p.W + p.b


def dense_backward(grad_logits: np.ndarray, c: np.ndarray, p: DenseParams):
    """Gradient of the affine layer given dL/dlogits; returns (grad_c, gW, gb)."""
    if grad_logits.shape != (N_CLASSES,):
        raise ShapeMismatch(f"grad_logits {grad_logits.shape} vs ({N_CLASSES},)")
    gW = np.outer(c, grad_logits)
    gb = grad_logits.copy()
    grad_c = grad_logits @ p.W.T
    return grad_c, gW, gb


def predict_class(f: np.ndarray) -> int:
    """Index of the largest probability; exact ties go to the lowest index."""
    return int(np.argmax(f))


def finite_diff_check(loss_and_grad, params: dict, eps: float = 1e-5, sample=None, rng=None) -> float:
    """Compare analytic gradients against central differences.

    `loss_and_grad()` evaluates the (deterministic) loss at the current
    parameter values and returns (loss, grads) with grads keyed like
    `params`; a RowGrad is compared as its dense gradient. Entries are
    perturbed in place one at a time. Returns the
    worst relative error, |analytic - numeric| / max(1, |analytic|, |numeric|)
    (relative for large gradients, absolute near zero).

    `sample` caps the number of entries checked per tensor; entries are then
    chosen by `rng`.
    """
    _, grads = loss_and_grad()
    worst = 0.0
    for name, theta in params.items():
        flat = theta.reshape(-1)
        grad = grads[name]
        if isinstance(grad, RowGrad):
            grad = grad.dense(theta.shape[0])
        grad_flat = grad.reshape(-1)
        indices = range(flat.size)
        if sample is not None and flat.size > sample:
            indices = rng.choice(flat.size, size=sample, replace=False)
        for i in indices:
            saved = flat[i]
            flat[i] = saved + eps
            loss_plus, _ = loss_and_grad()
            flat[i] = saved - eps
            loss_minus, _ = loss_and_grad()
            flat[i] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            analytic = grad_flat[i]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst
