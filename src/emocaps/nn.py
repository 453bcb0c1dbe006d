"""Numeric core: activations, parameter initialization, the bidirectional GRU
encoder and the dense head.

All backward passes are written by hand against the forward definitions; a
finite-difference gradient checker in the tests keeps them honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

N_CLASSES = 6


def sigmoid(x, out=None):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp(-|x|) never
    # overflows, and as e <= 1 the maximum picks the numerator 1 or e
    # without boolean indexing (and faster than np.where)
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def softmax(y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stabilized softmax, one distribution along `axis` (the last by default)."""
    shifted = y - np.max(y, axis=axis, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=axis, keepdims=True)


def softmax_backward(grad_probs: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax along `axis`: dL/dlogits from dL/dprobs."""
    inner = (grad_probs * probs).sum(axis=axis, keepdims=True)
    return probs * (grad_probs - inner)


def glorot_uniform(shape, rng) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class GruParams:
    """Weights of both directions, forward at [0] and backward at [1], gate
    blocks in r, z, n order along the last axis (reset, update, candidate):
    inputs hit W_i (2, d, 3h), the recurrent state hits W_h (2, h, 3h);
    b[k, 0] is direction k's input bias, b[k, 1] its recurrent one."""

    W_i: np.ndarray
    W_h: np.ndarray
    b: np.ndarray


def init_gru(input_dim: int, hidden_dim: int, rng) -> GruParams:
    """Glorot-uniform gate blocks, each drawn with its own (rows, h) limit in
    the order W_ir, W_iz, W_in, W_hr, W_hz, W_hn of the forward direction,
    then of the backward one, and packed; zero biases."""
    h = hidden_dim
    W_i, W_h = np.empty((2, input_dim, 3 * h)), np.empty((2, h, 3 * h))
    for block in [W[k, :, g * h : (g + 1) * h] for k in range(2) for W in (W_i, W_h) for g in range(3)]:
        block[...] = glorot_uniform(block.shape, rng)
    return GruParams(W_i=W_i, W_h=W_h, b=np.zeros((2, 2, 3 * h)))


# (2, 1) direction index; with a (2, N) array of row indices it picks row
# index[k, r] of direction k's half of a (N, 2, h) array
_DIRECTION = np.arange(2)[:, None]


def _packed_steps(lengths: np.ndarray):
    """Step sizes and gather indices of the packed step order.

    Sequences are ordered longest first (stable), so the ones still running
    at step t are a prefix of size counts[t]. Row r of the packed order is
    step t of one of them; index[0, r] is the input row it reads going
    forward (its position t) and index[1, r] the one it reads going
    backward (its position length - 1 - t).
    """
    order = np.argsort(-lengths, kind="stable")
    running = lengths[order] > np.arange(lengths.max())[:, None]  # (steps, sequences)
    step, rank = np.nonzero(running)
    seq = order[rank]
    start = (np.cumsum(lengths) - lengths)[seq]
    return np.count_nonzero(running, axis=1), np.stack([start + step, start + lengths[seq] - 1 - step])


@dataclass
class BigruCache:
    """The packed step stacks of a training chunk, for `bigru_backward`.

    Every (2, N, ·) stack holds the forward direction at [0] and the
    backward one at [1]; row r is packed row r of `_packed_steps`, which
    read input row index[k, r]. `bigru_backward` consumes the cache: it
    takes H, rz, n and rhh out and leaves None in their place."""

    X: np.ndarray  # (N, d) inputs, in input order
    counts: np.ndarray  # (steps,) sequences still running at each step
    index: np.ndarray  # (2, N) input row of each packed row, per direction
    H: np.ndarray  # (2, N, h) states h_t
    rz: np.ndarray  # (2, N, 2h) reset and update gates
    n: np.ndarray  # (2, N, h) candidates
    rhh: np.ndarray  # (2, N, h) r * (h W_hn + b_hn), the gated recurrent candidate term


def bigru_forward(X: np.ndarray, lengths, p: GruParams, *, keep_cache: bool = False):
    """Both GRU directions over a chunk of sequences; returns (H, cache).

    X (N, d) holds the sequences' rows back to back, `lengths` their
    lengths in the same order. H (N, 2h) is, row for row, (fwd_t, bwd_t):
    each sequence starts both directions from zero state, and the backward
    direction reads it last to first. Per step t and direction:

    r = sig(x W_ir + b_ir + h W_hr + b_hr)
    z = sig(x W_iz + b_iz + h W_hz + b_hz)
    n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
    h = (1 - z) * n + z * h_prev

    The reset gate multiplies the already-biased recurrent term. The input
    projections of every step are one (2, N, d) @ (2, d, 3h) matmul before
    the loop. Each step is one (2, n_t, h) @ (2, h, 3h) matmul over the n_t
    sequences still running (`_packed_steps`), so no padded position is
    computed, and both directions share every elementwise operation.

    The cache, for `bigru_backward`, is None unless `keep_cache` is set.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if X.ndim != 2 or lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
        raise ShapeMismatch(f"bigru needs sequences of at least one position, got input {X.shape}")
    if lengths.sum() != X.shape[0]:
        raise ShapeMismatch(f"lengths sum to {lengths.sum()}, input has {X.shape[0]} rows")
    if X.shape[1] != p.W_i.shape[1]:
        raise ShapeMismatch(f"input width {X.shape[1]} vs GRU input {p.W_i.shape[1]}")
    counts, index = _packed_steps(lengths)
    n_rows, d_h = X.shape[0], p.W_h.shape[1]
    A = np.matmul(X[index], p.W_i)
    A += p.b[:, :1]
    # Only a training chunk keeps every step's gates (RZ, N) and gated
    # recurrent candidate terms (RHH). An eval chunk's steps reuse the first
    # rows instead, which keeps its memory to a few MB. The recurrent terms
    # h W_h + b_h (G) are per-step scratch in both.
    depth = n_rows if keep_cache else counts[0]
    RZ = np.empty((2, depth, 2 * d_h), dtype=X.dtype)
    N = np.empty((2, depth, d_h), dtype=X.dtype)
    RHH = np.empty((2, depth, d_h), dtype=X.dtype)
    G = np.empty((2, counts[0], 3 * d_h), dtype=X.dtype)
    H = np.empty((2, n_rows, d_h), dtype=X.dtype)
    h_prev = np.zeros((2, counts[0], d_h), dtype=X.dtype)
    end = 0
    for n_t in counts.tolist():
        rows, end = slice(end, end + n_t), end + n_t
        kept = rows if keep_cache else slice(n_t)
        h_prev = h_prev[:, :n_t]
        g = np.matmul(h_prev, p.W_h, out=G[:, :n_t])
        g += p.b[:, 1:]
        rz = sigmoid(A[:, rows, : 2 * d_h] + g[..., : 2 * d_h], out=RZ[:, kept])
        rhh = np.multiply(rz[..., :d_h], g[..., 2 * d_h :], out=RHH[:, kept])
        n = np.tanh(np.add(A[:, rows, 2 * d_h :], rhh), out=N[:, kept])
        z = rz[..., d_h:]
        h_prev = np.add((1.0 - z) * n, z * h_prev, out=H[:, rows])
    out = np.empty((n_rows, 2, d_h), dtype=X.dtype)
    out[index, _DIRECTION] = H
    out = out.reshape(n_rows, 2 * d_h)
    if not keep_cache:
        return out, None
    return out, BigruCache(X=X, counts=counts, index=index, H=H, rz=RZ, n=N, rhh=RHH)


def bigru_backward(grad_H: np.ndarray, cache: BigruCache, p: GruParams):
    """Backprop through time for both directions of a training chunk;
    returns (grad_X, grads), the GruParams gradients summed over the chunk.

    The packed steps run in reverse. Only the recurrent carry stays in the
    loop: a (2, n_0, h) array, zero at first, whose prefix of the n_t
    sequences running at step t each step reads and rewrites, with one
    batched matmul. It fills the pre-activation gradients of the recurrent
    side (dG); those of the input side (dA) differ only in the candidate
    block, so dA is dG scattered into input order with that block
    overwritten. Every weight gradient is then one matmul over all the
    chunk's rows, and grad_X one per direction.

    Each step stack, and grad_H, is freed once its last use is past, so
    the call holds about 8.5 KB a token beyond its inputs at paper dims
    when the caller keeps no other reference to grad_H. The cache is
    consumed: a second call on it raises ValueError.
    """
    n_rows, d_h = cache.X.shape[0], p.W_h.shape[1]
    if grad_H.shape != (n_rows, 2 * d_h):
        raise ShapeMismatch(f"grad_H {grad_H.shape} vs bigru output ({n_rows}, {2 * d_h})")
    if cache.H is None:
        raise ValueError("this Bi-GRU cache has already been backpropagated")
    counts = cache.counts
    H, rz, n, rhh = cache.H, cache.rz, cache.n, cache.rhh
    cache.H = cache.rz = cache.n = cache.rhh = None
    r, z = rz[..., :d_h], rz[..., d_h:]
    # the state each packed row started from: the same sequence's row one
    # step earlier, counts[t - 1] rows back, and zero at step 0
    H_prev = np.zeros_like(H)
    H_prev[:, counts[0] :] = H[:, np.arange(counts[0], n_rows) - np.repeat(counts[:-1], counts[1:])]
    del H
    dtanh = (1.0 - z) * (1.0 - n * n)  # dh -> candidate pre-activation
    # dG[t] = dh_t * K[t], blockwise: reset, update, recurrent candidate
    # term; each step overwrites its rows of K with them, so K becomes dG
    K = np.empty((2, n_rows, 3, d_h), dtype=grad_H.dtype)
    np.multiply(dtanh, rhh, out=K[:, :, 0])
    del rhh
    K[:, :, 0] *= 1.0 - r
    np.subtract(H_prev, n, out=K[:, :, 1])
    del n
    K[:, :, 1] *= z
    K[:, :, 1] *= 1.0 - z
    np.multiply(dtanh, r, out=K[:, :, 2])
    del r
    dH = grad_H.reshape(n_rows, 2, d_h)[cache.index, _DIRECTION]
    del grad_H
    W_hT = p.W_h.transpose(0, 2, 1)
    carry = np.zeros((2, counts[0], d_h), dtype=dH.dtype)
    end = n_rows
    for n_t in counts[::-1].tolist():
        rows, end = slice(end - n_t, end), end - n_t
        c = carry[:, :n_t]
        dh = np.add(dH[:, rows], c, out=dH[:, rows])
        dg = np.multiply(dh[:, :, None, :], K[:, rows], out=K[:, rows])
        np.multiply(dh, z[:, rows], out=c)
        c += np.matmul(dg.reshape(2, n_t, 3 * d_h), W_hT)
    dG = K.reshape(2, n_rows, 3 * d_h)
    del K, carry, c, dh, dg, rz, z  # with the loop's views of them
    dtanh *= dH  # the candidate block of dA
    del dH
    b = np.repeat(dG.sum(axis=1)[:, None], 2, axis=1)
    b[:, 0, 2 * d_h :] = dtanh.sum(axis=1)
    grad_W_h = np.matmul(H_prev.transpose(0, 2, 1), dG)
    del H_prev
    # back to input order, where X and grad_X live
    dA = np.empty_like(dG)
    dA[_DIRECTION, cache.index] = dG
    del dG
    dA[:, :, 2 * d_h :][_DIRECTION, cache.index] = dtanh
    del dtanh
    grad_X = np.matmul(dA[0], p.W_i[0].T)
    grad_X += np.matmul(dA[1], p.W_i[1].T)
    return grad_X, GruParams(W_i=np.matmul(cache.X.T, dA), W_h=grad_W_h, b=b)


@dataclass
class DenseParams:
    W: np.ndarray  # (input_dim, N_CLASSES)
    b: np.ndarray  # (N_CLASSES,)


def init_dense(input_dim: int, rng) -> DenseParams:
    return DenseParams(W=glorot_uniform((input_dim, N_CLASSES), rng), b=np.zeros(N_CLASSES))


def dense_forward(c: np.ndarray, p: DenseParams) -> np.ndarray:
    """Affine map to the class logits, c @ W + b, for one input row or a
    (B, input_dim) batch; softmax is a separate step."""
    if c.ndim not in (1, 2) or c.shape[-1] != p.W.shape[0]:
        raise ShapeMismatch(f"input {c.shape} vs dense {p.W.shape}")
    return c @ p.W + p.b


def dense_backward(grad_logits: np.ndarray, c: np.ndarray, p: DenseParams):
    """Gradient of the affine layer given dL/dlogits of a (B, input_dim)
    batch; returns (grad_c, gW, gb), the weight gradients summed over the
    batch."""
    if grad_logits.shape != (len(c), N_CLASSES):
        raise ShapeMismatch(f"grad_logits {grad_logits.shape} vs ({len(c)}, {N_CLASSES})")
    return grad_logits @ p.W.T, c.T @ grad_logits, grad_logits.sum(axis=0)


def predict_class(f: np.ndarray) -> int:
    """Index of the largest probability; exact ties go to the lowest index."""
    return int(np.argmax(f))

