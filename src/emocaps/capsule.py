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


@dataclass
class RoutingState:
    """Per-iteration forward intermediates, kept for the backward pass."""

    couplings: list  # each (B, J, T); at every position they sum to 1 over J
    sums: list  # each (B, J, d_out), pre-squash
    outputs: list  # each (B, J, d_out), post-squash


def predict_vectors(H: np.ndarray, W: np.ndarray, out=None) -> np.ndarray:
    """U[j, i] = h_i W_j for every output capsule j and input row i: (J, N,
    d_out), written into `out` when given."""
    if H.ndim != 2 or H.shape[1] != W.shape[1]:
        raise ShapeMismatch(f"H {H.shape} vs capsule input dim {W.shape[1]}")
    # one (N, d) @ (d, d_out) product per capsule, as a batched matmul; W has
    # no 2-D (d, J * d_out) view, and copying it into one costs more than a
    # single tweet saves
    return np.matmul(H, W, out=out)


def squash(s: np.ndarray) -> np.ndarray:
    """Scale vectors (last axis) so the norm maps into [0, 1), direction kept.

    v = (|s|^2 / (1 + |s|^2)) * s / |s|, with squash(0) = 0.
    """
    sq = np.sum(s * s, axis=-1, keepdims=True)
    norm = np.sqrt(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norm > 0.0, norm / (1.0 + sq), 0.0)
    return s * scale


def squash_backward(grad_v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of squash; the gradient at s = 0 is 0."""
    sq = np.sum(s * s, axis=-1, keepdims=True)
    norm = np.sqrt(sq)
    one_plus = 1.0 + sq
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norm > 0.0, norm / one_plus, 0.0)
        # d scale / d rho divided by rho, for the radial term
        radial = np.where(
            norm > 0.0, (1.0 - sq) / (one_plus * one_plus * norm), 0.0
        )
    inner = np.sum(grad_v * s, axis=-1, keepdims=True)
    return grad_v * scale + s * (radial * inner)


def dynamic_routing(U: np.ndarray, iterations: int):
    """Route prediction vectors to output capsules by iterated agreement.

    U (B, J, T, d_out) holds one block per sequence: U[b, j, t] is the
    prediction of position t for capsule j, zero past the sequence's end.
    Logits start at zero; every iteration recomputes couplings as a softmax
    over output capsules, forms the coupled sums, squashes them, and (except
    after the last iteration) raises the logits by the dot-product agreement
    between predictions and outputs. A zero prediction adds nothing to a sum
    and gains no agreement, so padding leaves every sequence's routing exact.
    Returns V (B, J, d_out) and the state.
    """
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    logits = np.zeros(U.shape[:3], dtype=U.dtype)
    couplings, sums, outputs = [], [], []
    V = None
    for k in range(iterations):
        C = softmax(logits, axis=1)
        S = (C[:, :, None, :] @ U)[:, :, 0]
        V = squash(S)
        couplings.append(C)
        sums.append(S)
        outputs.append(V)
        if k < iterations - 1:
            logits = logits + (U @ V[..., None])[..., 0]
    return V, RoutingState(couplings=couplings, sums=sums, outputs=outputs)


def routing_backward(grad_V: np.ndarray, U: np.ndarray, state: RoutingState) -> np.ndarray:
    """Backprop through the unrolled routing loop; returns grad_U.

    Walks the iterations in reverse, carrying the gradient of the running
    logits; the agreement update feeds gradient into both the predictions
    and the previous iteration's output.
    """
    iterations = len(state.couplings)
    grad_U = np.zeros_like(U)
    dB_carry = np.zeros_like(state.couplings[0])
    for k in range(iterations - 1, -1, -1):
        C, S, V = state.couplings[k], state.sums[k], state.outputs[k]
        dV = (dB_carry[:, :, None, :] @ U)[:, :, 0]
        if k == iterations - 1:
            dV = dV + grad_V
        grad_U += dB_carry[..., None] * V[:, :, None, :]
        dS = squash_backward(dV, S)
        grad_U += C[..., None] * dS[:, :, None, :]
        dC = (U @ dS[..., None])[..., 0]
        dB_carry = softmax_backward(dC, C, axis=1) + dB_carry
    return grad_U


@dataclass
class CapsuleCache:
    H: np.ndarray  # (N, d) the input rows, packed
    U: np.ndarray  # (B, J, T, d_out) zero-padded prediction blocks
    state: RoutingState
    lengths: np.ndarray  # (B,) sequence lengths, in input order


def capsule_layer(H: np.ndarray, lengths, W: np.ndarray, iterations: int):
    """predict_vectors -> zero-padded blocks -> dynamic_routing -> row-major
    flatten. H (N, d) holds the sequences' rows back to back, `lengths` their
    lengths in the same order; returns (B, J * d_out) and the cache."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != len(H):
        raise ShapeMismatch(f"lengths {lengths.tolist()} do not cover the {len(H)} input rows")
    blocks = np.zeros((len(lengths), W.shape[0], lengths.max(), W.shape[2]), dtype=H.dtype)
    start = 0
    for b, n in enumerate(lengths.tolist()):  # per sequence: no (J, N, d_out) copy, and as fast
        predict_vectors(H[start : start + n], W, out=blocks[b, :, :n])
        start += n
    V, state = dynamic_routing(blocks, iterations)
    return V.reshape(len(lengths), -1), CapsuleCache(H=H, U=blocks, state=state, lengths=lengths)


def capsule_layer_backward(grad_flat: np.ndarray, cache: CapsuleCache, W: np.ndarray):
    """Backprop through routing and the prediction transforms; returns
    (grad_H, grad_W) for the gradient of the flattened (B, J * d_out) output."""
    V_shape = cache.state.outputs[-1].shape
    if V_shape[1:] != (W.shape[0], W.shape[2]) or grad_flat.shape != (V_shape[0], V_shape[1] * V_shape[2]):
        raise ShapeMismatch(f"grad {grad_flat.shape} vs flattened capsule output {V_shape}")
    grad_U = routing_backward(grad_flat.reshape(V_shape), cache.U, cache.state)
    # (J, N, d_out): the real rows of every block, padding dropped
    per_capsule = np.concatenate([grad_U[b, :, :n] for b, n in enumerate(cache.lengths.tolist())], axis=1)
    grad_W = cache.H.T @ per_capsule
    grad_H = (per_capsule @ W.transpose(0, 2, 1)).sum(axis=0)
    return grad_H, grad_W
