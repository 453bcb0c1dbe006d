"""Capsule layer: per-position prediction vectors, iterative dynamic routing
with squash, and a backward pass differentiated through the unrolled routing
loop (coupling coefficients are not treated as constants).

One transform matrix per output capsule, shared across input positions, so
the layer binds to sequences of any length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .nn import softmax, softmax_backward


@dataclass
class CapsuleParams:
    W: np.ndarray  # (num_capsules, input_dim, capsule_dim)

    @property
    def num_capsules(self) -> int:
        return self.W.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    @property
    def capsule_dim(self) -> int:
        return self.W.shape[2]


def init_capsule(num_capsules, input_dim, capsule_dim, rng) -> CapsuleParams:
    limit = np.sqrt(6.0 / (input_dim + capsule_dim))
    return CapsuleParams(W=rng.uniform(-limit, limit, size=(num_capsules, input_dim, capsule_dim)))


@dataclass
class RoutingState:
    """Per-iteration forward intermediates, kept for the backward pass."""

    couplings: list  # each (n, J), rows sum to 1
    sums: list  # each (J, d_out), pre-squash
    outputs: list  # each (J, d_out), post-squash


def predict_vectors(H: np.ndarray, p: CapsuleParams) -> np.ndarray:
    """U[i, j] = W_j . h_i for every position i and output capsule j."""
    if H.ndim != 2 or H.shape[1] != p.input_dim:
        raise ShapeMismatch(f"H {H.shape} vs capsule input dim {p.input_dim}")
    # one (n, d) @ (d, d_out) product per capsule, as a batched matmul
    return np.ascontiguousarray((H @ p.W).transpose(1, 0, 2))


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

    Logits start at zero; every iteration recomputes couplings as a softmax
    over output capsules, forms the coupled sums, squashes them, and (except
    after the last iteration) raises the logits by the dot-product agreement
    between predictions and outputs.
    """
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    n, J, _ = U.shape
    B = np.zeros((n, J), dtype=U.dtype)
    couplings, sums, outputs = [], [], []
    V = None
    for k in range(iterations):
        C = softmax(B)
        S = np.einsum("nj,njo->jo", C, U)
        V = squash(S)
        couplings.append(C)
        sums.append(S)
        outputs.append(V)
        if k < iterations - 1:
            B = B + np.einsum("njo,jo->nj", U, V)
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
        dV = np.einsum("nj,njo->jo", dB_carry, U)
        if k == iterations - 1:
            dV = dV + grad_V
        grad_U += np.einsum("nj,jo->njo", dB_carry, V)
        dS = squash_backward(dV, S)
        grad_U += np.einsum("nj,jo->njo", C, dS)
        dC = np.einsum("njo,jo->nj", U, dS)
        dB_carry = softmax_backward(dC, C) + dB_carry
    return grad_U


@dataclass
class CapsuleCache:
    H: np.ndarray
    U: np.ndarray
    state: RoutingState


def capsule_layer(H: np.ndarray, p: CapsuleParams, iterations: int):
    """predict_vectors -> dynamic_routing -> row-major flatten."""
    U = predict_vectors(H, p)
    V, state = dynamic_routing(U, iterations)
    return V.reshape(-1), CapsuleCache(H=H, U=U, state=state)


def capsule_layer_backward(grad_flat: np.ndarray, cache: CapsuleCache, p: CapsuleParams):
    """Backprop through routing and the prediction transforms; returns
    (grad_H, grad_W) for the flattened capsule output gradient."""
    V_shape = cache.state.outputs[-1].shape
    if V_shape != (p.num_capsules, p.capsule_dim) or grad_flat.shape != (V_shape[0] * V_shape[1],):
        raise ShapeMismatch(f"grad {grad_flat.shape} vs flattened capsule output {V_shape}")
    grad_V = grad_flat.reshape(V_shape)
    grad_U = routing_backward(grad_V, cache.U, cache.state)
    per_capsule = grad_U.transpose(1, 0, 2)  # (J, n, d_out) view
    grad_W = cache.H.T @ per_capsule
    grad_H = (per_capsule @ p.W.transpose(0, 2, 1)).sum(axis=0)
    return grad_H, grad_W
