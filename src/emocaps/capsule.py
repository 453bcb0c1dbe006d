"""Capsule layer: per-position prediction vectors, iterative dynamic routing
with squash, and a backward pass differentiated through the unrolled routing
loop (coupling coefficients are not treated as constants).

One transform matrix per output capsule, shared across input positions, so
the layer binds to sequences of any length. A chunk of sequences is routed
at once, each in its own zero-padded block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .nn import softmax, softmax_backward


def init_capsule(num_capsules, input_dim, capsule_dim, rng) -> np.ndarray:
    """Glorot-uniform W (num_capsules, input_dim, capsule_dim), one transform per output capsule."""
    limit = np.sqrt(6.0 / (input_dim + capsule_dim))
    return rng.uniform(-limit, limit, size=(num_capsules, input_dim, capsule_dim))


def squash(s: np.ndarray) -> np.ndarray:
    """Scale vectors (last axis) so the norm maps into [0, 1), direction kept.

    v = (|s|^2 / (1 + |s|^2)) * s / |s|, with squash(0) = 0.
    """
    sq = np.sum(s * s, axis=-1, keepdims=True)
    return s * (np.sqrt(sq) / (1.0 + sq))


def squash_backward(grad_v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of squash; the gradient at s = 0 is 0."""
    sq = np.sum(s * s, axis=-1, keepdims=True)
    norm = np.sqrt(sq)
    one_plus = 1.0 + sq
    with np.errstate(divide="ignore", invalid="ignore"):
        # d scale / d rho divided by rho, for the radial term
        radial = np.where(
            norm > 0.0, (1.0 - sq) / (one_plus * one_plus * norm), 0.0
        )
    inner = np.sum(grad_v * s, axis=-1, keepdims=True)
    return grad_v * (norm / one_plus) + s * (radial * inner)


def dynamic_routing(U: np.ndarray, iterations: int):
    """Route prediction vectors to output capsules by iterated agreement.

    U (B, J, T, d_out) holds one block per sequence: U[b, j, t] is the
    prediction of position t for capsule j, zero past the sequence's end.
    Logits start at zero; every iteration recomputes couplings as a softmax
    over output capsules, forms the coupled sums, squashes them, and (except
    after the last iteration) raises the logits by the dot-product agreement
    between predictions and outputs. A zero prediction adds nothing to a sum
    and gains no agreement, so padding leaves every sequence's routing exact.
    Returns V (B, J, d_out) and, per iteration, the couplings C (B, J, T; at
    every position they sum to 1 over J), the pre-squash sums S and the
    outputs V (each (B, J, d_out)) as a (C, S, V) triple.
    """
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    logits = np.zeros(U.shape[:3], dtype=U.dtype)
    state = []
    for k in range(iterations):
        C = softmax(logits, axis=1)
        S = (C[:, :, None, :] @ U)[:, :, 0]
        V = squash(S)
        state.append((C, S, V))
        if k < iterations - 1:
            logits = logits + (U @ V[..., None])[..., 0]
    return V, state


def routing_backward(grad_V: np.ndarray, U: np.ndarray, state: list) -> np.ndarray:
    """Backprop through the unrolled routing loop; returns grad_U.

    Walks the iterations in reverse, carrying the gradient dB of the running
    logits. grad_U is a sum of outer products: (C_k, dS_k) through every
    coupled sum, and (dB_k, V_{k-1}) through every agreement update, which
    also passes dB_k @ U back into the previous iteration's output. The
    first iteration's logits are constant, so its couplings get no gradient.
    """
    left, right = [], []
    dV, dB = grad_V, 0.0
    for k in range(len(state) - 1, -1, -1):
        C, S, _ = state[k]
        dS = squash_backward(dV, S)
        left.append(C)
        right.append(dS)
        if k:
            dB = softmax_backward((U @ dS[..., None])[..., 0], C, axis=1) + dB
            dV = (dB[:, :, None, :] @ U)[:, :, 0]
            left.append(dB)
            right.append(state[k - 1][2])
    # every outer product at once: (B, J, T, 2K-1) @ (B, J, 2K-1, d_out)
    return np.stack(left, axis=-1) @ np.stack(right, axis=-2)


@dataclass
class CapsuleCache:
    """Consumed by `capsule_layer_backward`, which leaves None in U and state."""

    H: np.ndarray  # (N, d) the input rows, packed
    U: np.ndarray | None  # (B, J, T, d_out) zero-padded prediction blocks
    state: list | None  # per routing iteration, the (C, S, V) of dynamic_routing
    lengths: np.ndarray  # (B,) sequence lengths, in input order


def capsule_layer(H: np.ndarray, lengths, W: np.ndarray, iterations: int):
    """Prediction vectors U[b, j, t] = h_t W_j in zero-padded blocks ->
    dynamic_routing -> row-major flatten. H (N, d) holds the sequences' rows
    back to back, `lengths` their lengths in the same order; returns
    (B, J * d_out) and the cache."""
    if H.ndim != 2 or H.shape[1] != W.shape[1]:
        raise ShapeMismatch(f"H {H.shape} vs capsule input dim {W.shape[1]}")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != len(H):
        raise ShapeMismatch(f"lengths {lengths.tolist()} do not cover the {len(H)} input rows")
    blocks = np.zeros((len(lengths), W.shape[0], lengths.max(), W.shape[2]), dtype=H.dtype)
    start = 0
    for b, n in enumerate(lengths.tolist()):
        # one (n, d) @ (d, d_out) product per capsule, straight into the block:
        # W has no 2-D (d, J * d_out) view, and copying it into one, or going
        # through a (J, N, d_out) intermediate, costs more than it saves
        np.matmul(H[start : start + n], W, out=blocks[b, :, :n])
        start += n
    V, state = dynamic_routing(blocks, iterations)
    return V.reshape(len(lengths), -1), CapsuleCache(H=H, U=blocks, state=state, lengths=lengths)


def capsule_layer_backward(grad_flat: np.ndarray, cache: CapsuleCache, W: np.ndarray):
    """Backprop through routing and the prediction transforms; returns
    (grad_H, grad_W) for the gradient of the flattened (B, J * d_out) output.

    The routing blocks `U` and `state` are freed once `routing_backward`
    has read them, so they are not held while grad_H is summed; `H` and
    `lengths` stay. The cache is consumed: a second call on it raises
    ValueError."""
    V_shape = (len(cache.lengths), W.shape[0], W.shape[2])
    if grad_flat.shape != (V_shape[0], V_shape[1] * V_shape[2]):
        raise ShapeMismatch(f"grad {grad_flat.shape} vs flattened capsule output {V_shape}")
    if cache.U is None:
        raise ValueError("this capsule cache has already been backpropagated")
    grad_U = routing_backward(grad_flat.reshape(V_shape), cache.U, cache.state)
    cache.U = cache.state = None
    # (J, N, d_out): the real rows of every block, padding dropped
    per_capsule = np.concatenate([grad_U[b, :, :n] for b, n in enumerate(cache.lengths.tolist())], axis=1)
    del grad_U
    grad_W = cache.H.T @ per_capsule
    # summed one capsule at a time: a (J, N, d) product would hold J times grad_H
    grad_H = per_capsule[0] @ W[0].T
    for j in range(1, len(W)):
        grad_H += per_capsule[j] @ W[j].T
    return grad_H, grad_W
