"""Step-by-step GRU with one tensor per gate: the oracle for the fused
`emocaps.nn` Bi-GRU.

Every step does its own mat-vecs and accumulates every weight gradient with
`np.outer`, exactly as the equations read, with `sigmoid` in its textbook
form (the fused loop computes it as 0.5 tanh(0.5 x) + 0.5). `pack` /
`unpack` convert between these twelve per-gate tensors per direction and
the three fused ones of `GruParams`, which stack both directions (gate
blocks in r, z, n order).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from emocaps.errors import ShapeMismatch
from emocaps.nn import GruParams

GATES = ("r", "z", "n")
WEIGHT_NAMES = ("W_ir", "W_iz", "W_in", "W_hr", "W_hz", "W_hn")


def sigmoid(x):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp(-|x|) never
    # overflows, and as e <= 1 the maximum picks the numerator 1 or e
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


@dataclass
class CellParams:
    """Gate weights for one direction; inputs hit W_i*, the recurrent state
    hits W_h*, suffixes r/z/n are the reset, update and candidate gates."""

    W_ir: np.ndarray
    W_iz: np.ndarray
    W_in: np.ndarray
    W_hr: np.ndarray
    W_hz: np.ndarray
    W_hn: np.ndarray
    b_ir: np.ndarray
    b_iz: np.ndarray
    b_in: np.ndarray
    b_hr: np.ndarray
    b_hz: np.ndarray
    b_hn: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.W_ir.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.W_ir.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def zeros_like_cell(p: CellParams) -> CellParams:
    return CellParams(**{k: np.zeros_like(v) for k, v in p.tensors().items()})


def random_cell(d_in, d_h, seed, scale=0.5) -> CellParams:
    rng = np.random.default_rng(seed)
    weights = {
        name: rng.normal(scale=scale, size=(d_in if name[2] == "i" else d_h, d_h))
        for name in WEIGHT_NAMES
    }
    biases = {f"b_{name[2:]}": rng.normal(scale=scale, size=d_h) for name in WEIGHT_NAMES}
    return CellParams(**weights, **biases)


def pack(p_fwd: CellParams, p_bwd: CellParams) -> GruParams:
    """Per-gate tensors of the two directions -> stacked, fused (W_i, W_h,
    b), copies."""

    def fused(p: CellParams):
        return (
            np.concatenate([getattr(p, f"W_i{g}") for g in GATES], axis=1),
            np.concatenate([getattr(p, f"W_h{g}") for g in GATES], axis=1),
            np.stack([np.concatenate([getattr(p, f"b_{side}{g}") for g in GATES]) for side in "ih"]),
        )

    return GruParams(*(np.stack(pair) for pair in zip(fused(p_fwd), fused(p_bwd))))


def unpack(p: GruParams, k: int) -> CellParams:
    """Direction k of the stacked, fused (W_i, W_h, b) -> per-gate tensors,
    copies."""
    h = p.W_h.shape[1]
    out = {}
    for i, g in enumerate(GATES):
        block = slice(i * h, (i + 1) * h)
        out[f"W_i{g}"] = p.W_i[k, :, block].copy()
        out[f"W_h{g}"] = p.W_h[k, :, block].copy()
        out[f"b_i{g}"] = p.b[k, 0, block].copy()
        out[f"b_h{g}"] = p.b[k, 1, block].copy()
    return CellParams(**out)


@dataclass
class StepCache:
    x: np.ndarray
    h_prev: np.ndarray
    r: np.ndarray
    z: np.ndarray
    n: np.ndarray
    hh: np.ndarray  # the biased recurrent candidate term, gated by r


def cell_forward(x_t, h_prev, p: CellParams):
    """One GRU step.

    r = sig(x W_ir + b_ir + h W_hr + b_hr)
    z = sig(x W_iz + b_iz + h W_hz + b_hz)
    n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
    h = (1 - z) * n + z * h_prev
    """
    if x_t.shape != (p.input_dim,) or h_prev.shape != (p.hidden_dim,):
        raise ShapeMismatch(
            f"x {x_t.shape} / h {h_prev.shape} vs params ({p.input_dim}, {p.hidden_dim})"
        )
    r = sigmoid(x_t @ p.W_ir + p.b_ir + h_prev @ p.W_hr + p.b_hr)
    z = sigmoid(x_t @ p.W_iz + p.b_iz + h_prev @ p.W_hz + p.b_hz)
    hh = h_prev @ p.W_hn + p.b_hn
    n = np.tanh(x_t @ p.W_in + p.b_in + r * hh)
    h_t = (1.0 - z) * n + z * h_prev
    return h_t, StepCache(x=x_t, h_prev=h_prev, r=r, z=z, n=n, hh=hh)


def cell_backward(grad_h, cache: StepCache, p: CellParams, grads: CellParams):
    """Backward through one step; accumulates into `grads` and returns
    (grad_x, grad_h_prev)."""
    x, h_prev, r, z, n, hh = cache.x, cache.h_prev, cache.r, cache.z, cache.n, cache.hh
    dn = grad_h * (1.0 - z)
    dz = grad_h * (h_prev - n)
    dh_prev = grad_h * z

    da = dn * (1.0 - n * n)  # pre-tanh
    dr = da * hh
    dhh = da * r
    dr_pre = dr * r * (1.0 - r)
    dz_pre = dz * z * (1.0 - z)

    grads.W_in += np.outer(x, da)
    grads.b_in += da
    grads.W_hn += np.outer(h_prev, dhh)
    grads.b_hn += dhh
    grads.W_ir += np.outer(x, dr_pre)
    grads.b_ir += dr_pre
    grads.W_hr += np.outer(h_prev, dr_pre)
    grads.b_hr += dr_pre
    grads.W_iz += np.outer(x, dz_pre)
    grads.b_iz += dz_pre
    grads.W_hz += np.outer(h_prev, dz_pre)
    grads.b_hz += dz_pre

    grad_x = da @ p.W_in.T + dr_pre @ p.W_ir.T + dz_pre @ p.W_iz.T
    dh_prev = dh_prev + dhh @ p.W_hn.T + dr_pre @ p.W_hr.T + dz_pre @ p.W_hz.T
    return grad_x, dh_prev


def bigru_forward(X, p_fwd: CellParams, p_bwd: CellParams):
    """H[t] = (fwd_t, bwd_t), one cell step at a time; returns (H, steps)."""
    n, d_h = X.shape[0], p_fwd.hidden_dim
    H = np.zeros((n, 2 * d_h))
    fwd_steps, bwd_steps = [None] * n, [None] * n
    h = np.zeros(d_h)
    for t in range(n):
        h, fwd_steps[t] = cell_forward(X[t], h, p_fwd)
        H[t, :d_h] = h
    h = np.zeros(d_h)
    for t in range(n - 1, -1, -1):
        h, bwd_steps[t] = cell_forward(X[t], h, p_bwd)
        H[t, d_h:] = h
    return H, (fwd_steps, bwd_steps)


def bigru_backward(grad_H, steps, p_fwd: CellParams, p_bwd: CellParams):
    """Backprop through time, one cell step at a time; returns
    (grad_X, g_fwd, g_bwd) with per-gate gradients."""
    fwd_steps, bwd_steps = steps
    n, d_h = grad_H.shape[0], p_fwd.hidden_dim
    grad_X = np.zeros((n, p_fwd.input_dim))
    g_fwd, g_bwd = zeros_like_cell(p_fwd), zeros_like_cell(p_bwd)
    carry = np.zeros(d_h)
    for t in range(n - 1, -1, -1):
        dx, carry = cell_backward(grad_H[t, :d_h] + carry, fwd_steps[t], p_fwd, g_fwd)
        grad_X[t] += dx
    carry = np.zeros(d_h)
    for t in range(n):
        dx, carry = cell_backward(grad_H[t, d_h:] + carry, bwd_steps[t], p_bwd, g_bwd)
        grad_X[t] += dx
    return grad_X, g_fwd, g_bwd
