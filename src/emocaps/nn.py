"""Numeric core: softmax, parameter initialization and the bidirectional GRU
encoder.

All backward passes are written by hand against the forward definitions; a
finite-difference gradient checker in the tests keeps them honest. Arguments
are trusted: `training.train` and `training.predict_dataset` check input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import LABELS

N_CLASSES = len(LABELS)


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
    """Glorot & Bengio's (2010) uniform draw, fans from the last two axes:
    a stack of (fan_in, fan_out) matrices shares one limit."""
    fan_in, fan_out = shape[-2], shape[-1]
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


# with an (N, 2) array of row indices, picks row index[r, k] of direction
# k's half of an (·, 2, h) array
_DIRECTION = np.arange(2)


def _packed_steps(lengths: np.ndarray):
    """Step sizes and gather indices of the packed step order.

    Sequences are ordered longest first (stable), so the ones still running
    at step t are a prefix of size counts[t]. Row r of the packed order is
    step t of one of them; index[r, 0] is the input row it reads going
    forward (its position t) and index[r, 1] the one it reads going
    backward (its position length - 1 - t).
    """
    if lengths.size == 1:  # one step per position, rows in input order
        steps = np.arange(lengths[0])
        return np.ones_like(steps), np.stack([steps, steps[::-1]], axis=1)
    order = np.argsort(-lengths, kind="stable")
    running = lengths[order] > np.arange(lengths.max())[:, None]  # (steps, sequences)
    step, rank = np.nonzero(running)
    seq = order[rank]
    start = (np.cumsum(lengths) - lengths)[seq]
    return np.count_nonzero(running, axis=1), np.stack([start + step, start + lengths[seq] - 1 - step], axis=1)


@dataclass
class BigruCache:
    """The packed step stacks of a training chunk, for `bigru_backward`.

    Every stack is row-major: row r is packed row r of `_packed_steps`,
    which read input row index[r, k] in direction k, with the forward
    direction at [r, 0] and the backward one at [r, 1], so the rows of one
    step are one contiguous block. rz and rhh are views of the forward's
    gate-major (3, N, 2, h) stack. `bigru_backward` consumes the cache: it
    takes H, rz, n and rhh out and leaves None in their place."""

    X: np.ndarray  # (N, d) inputs, in input order
    counts: np.ndarray  # (steps,) sequences still running at each step
    index: np.ndarray  # (N, 2) input row of each packed row, per direction
    H: np.ndarray  # (N, 2, h) states h_t
    rz: np.ndarray  # (2, N, 2, h) reset and update gates
    n: np.ndarray  # (N, 2, h) candidates
    rhh: np.ndarray  # (N, 2, h) r * (h W_hn + b_hn), the gated recurrent candidate term


def bigru_forward(X: np.ndarray, lengths, p: GruParams, *, keep_cache: bool = False):
    """Both GRU directions over a chunk of sequences; returns (H, cache).

    X (N, d) holds the sequences' rows back to back, `lengths` their
    lengths in the same order. H (N, 2h) is, row for row, (fwd_t, bwd_t):
    each sequence starts both directions from zero state, and the backward
    direction reads it last to first. Per step t and direction:

    r = sig(x W_ir + b_ir + h W_hr + b_hr)
    z = sig(x W_iz + b_iz + h W_hz + b_hz)
    n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
    h = n + z * (h_prev - n)

    The reset gate multiplies the already-biased recurrent term, so only
    b_hn stays in the loop: the input projections of every step, with the
    recurrent r and z biases added, are one (2, N, d) @ (2, d, 3h) matmul
    before it. Each step runs the n_t sequences still running
    (`_packed_steps`), so no padded position is computed, and both
    directions share every operation. One (2, n_t, h) @ (3, 2, h, h)
    matmul over gate-major views of W_h writes the step's r, z and
    recurrent candidate terms as a (3, n_t, 2, h) block, and twelve
    elementwise calls that allocate nothing finish the step, the sigmoid
    as 0.5 tanh(0.5 x) + 0.5. Every stack is row-major, (rows, direction,
    h), so a step's states, candidates and each gate are one contiguous
    block. An eval chunk reuses one block of gates and candidates for
    every step, wholly contiguous while all its sequences run.

    The cache, for `bigru_backward`, is None unless `keep_cache` is set.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    counts, index = _packed_steps(lengths)
    n_rows, d_h = X.shape[0], p.W_h.shape[1]
    # Only a training chunk keeps every step's gates and gated recurrent
    # candidate terms (S) and candidates (N); an eval chunk's steps reuse
    # the first rows. Kept stacks come before the projection's blocks: the
    # other order ran 16x12 training chunks about 10% slower (page faults).
    depth = n_rows if keep_cache else counts[0]
    S = np.empty((3, depth, 2, d_h), dtype=X.dtype)
    N = np.empty((depth, 2, d_h), dtype=X.dtype)
    H = np.empty((n_rows, 2, d_h), dtype=X.dtype)
    A = np.empty((n_rows, 2, 3 * d_h), dtype=X.dtype)
    np.matmul(X[index].transpose(1, 0, 2), p.W_i, out=A.transpose(1, 0, 2))
    b = p.b[:, 0].copy()
    b[:, : 2 * d_h] += p.b[:, 1, : 2 * d_h]
    A += b
    A = A.reshape(n_rows, 2, 3, d_h).transpose(2, 0, 1, 3)  # gate-major view (3, N, 2, h)
    W_h = p.W_h.reshape(2, d_h, 3, d_h).transpose(2, 0, 1, 3)  # (3, 2, h, h)
    b_hn = np.ascontiguousarray(p.b[None, :, 1, 2 * d_h :])
    h_prev = np.zeros((counts[0], 2, d_h), dtype=X.dtype)
    end = 0
    for n_t in counts.tolist():
        rows, end = slice(end, end + n_t), end + n_t
        kept = rows if keep_cache else slice(n_t)
        h_prev = h_prev[:n_t]
        g = S[:, kept]
        np.matmul(h_prev.transpose(1, 0, 2), W_h, out=g.transpose(0, 2, 1, 3))
        rz = g[:2]
        rz += A[:2, rows]
        rz *= 0.5
        np.tanh(rz, out=rz)
        rz *= 0.5
        rz += 0.5
        rhh = g[2]
        rhh += b_hn
        rhh *= g[0]
        n = np.add(A[2, rows], rhh, out=N[kept])
        np.tanh(n, out=n)
        h_prev = np.subtract(h_prev, n, out=H[rows])
        h_prev *= g[1]
        h_prev += n
    out = np.empty((n_rows, 2, d_h), dtype=X.dtype)
    out[index, _DIRECTION] = H
    out = out.reshape(n_rows, 2 * d_h)
    if not keep_cache:
        return out, None
    return out, BigruCache(X=X, counts=counts, index=index, H=H, rz=S[:2], n=N, rhh=S[2])


def bigru_backward(grad_H: np.ndarray, cache: BigruCache, p: GruParams):
    """Backprop through time for both directions of a training chunk;
    returns (grad_X, grads), the GruParams gradients summed over the chunk.

    The packed steps run in reverse. Only the recurrent carry stays in the
    loop: an (n_0, 2, h) array, zero at first, whose prefix of the n_t
    sequences running at step t each step reads and rewrites, with one
    batched matmul. It fills the pre-activation gradients of the recurrent
    side (dG); those of the input side (dA) differ only in the candidate
    block, so dA is dG scattered into input order with that block
    overwritten. Every weight gradient is then one matmul over all the
    chunk's rows, and grad_X one per direction.

    Each step stack, and grad_H, is freed once its last use is past (rhh,
    then holding 1 - r, with the gates, whose block it shares), so
    the call holds about 8.5 KB a token beyond its inputs at paper dims
    when the caller keeps no other reference to grad_H. The cache is
    consumed: it backpropagates once.
    """
    n_rows, d_h = cache.X.shape[0], p.W_h.shape[1]
    counts = cache.counts
    H, rz, n, rhh = cache.H, cache.rz, cache.n, cache.rhh
    cache.H = cache.rz = cache.n = cache.rhh = None
    r, z = rz
    # the state each packed row started from: the same sequence's row one
    # step earlier, counts[t - 1] rows back, and zero at step 0
    H_prev = np.zeros_like(H)
    H_prev[counts[0] :] = H[np.arange(counts[0], n_rows) - np.repeat(counts[:-1], counts[1:])]
    del H
    # dG[t] = dh_t * K[t], blockwise: reset, update, recurrent candidate
    # term; each step overwrites its rows of K with them, so K becomes dG.
    # n and rhh, once read, hold 1 - z and 1 - r.
    dtanh = np.subtract(1.0, n * n)  # dh -> candidate pre-activation
    K = np.empty((n_rows, 2, 3, d_h), dtype=grad_H.dtype)
    np.subtract(H_prev, n, out=K[:, :, 1])
    dtanh *= np.subtract(1.0, z, out=n)
    K[:, :, 1] *= z
    K[:, :, 1] *= n
    del n
    np.multiply(dtanh, rhh, out=K[:, :, 0])
    K[:, :, 0] *= np.subtract(1.0, r, out=rhh)
    np.multiply(dtanh, r, out=K[:, :, 2])
    del rhh, r
    dH = grad_H.reshape(n_rows, 2, d_h)[cache.index, _DIRECTION]
    del grad_H
    W_hT = p.W_h.transpose(0, 2, 1)
    carry = np.zeros((counts[0], 2, d_h), dtype=dH.dtype)
    end = n_rows
    for n_t in counts[::-1].tolist():
        rows, end = slice(end - n_t, end), end - n_t
        c = carry[:n_t]
        dh = np.add(dH[rows], c, out=dH[rows])
        dg = np.multiply(dh[:, :, None, :], K[rows], out=K[rows])
        np.multiply(dh, z[rows], out=c)
        c += np.matmul(dg.reshape(n_t, 2, 3 * d_h).transpose(1, 0, 2), W_hT).transpose(1, 0, 2)
    dG = K.reshape(n_rows, 2, 3 * d_h)
    del K, carry, c, dh, dg, rz, z  # with the loop's views of them
    dtanh *= dH  # the candidate block of dA
    del dH
    b = np.repeat(dG.sum(axis=0)[:, None], 2, axis=1)
    b[:, 0, 2 * d_h :] = dtanh.sum(axis=0)
    grad_W_h = np.matmul(H_prev.transpose(1, 2, 0), dG.transpose(1, 0, 2))
    del H_prev
    # back to input order, where X and grad_X live
    dA = np.empty_like(dG)
    dA[cache.index, _DIRECTION] = dG
    del dG
    dA[:, :, 2 * d_h :][cache.index, _DIRECTION] = dtanh
    del dtanh
    grad_X = np.matmul(dA[:, 0], p.W_i[0].T)
    grad_X += np.matmul(dA[:, 1], p.W_i[1].T)
    return grad_X, GruParams(W_i=np.matmul(cache.X.T, dA.transpose(1, 0, 2)), W_h=grad_W_h, b=b)


# a function of its own so that perfbench/test_smoke.py can replace it and see the predict check fail
def predict_class(f: np.ndarray) -> np.ndarray:
    """Index of the largest probability in each row of `f`, or in `f` if 1-D; exact ties go to the lowest index."""
    return np.argmax(f, axis=-1)

