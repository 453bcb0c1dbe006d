"""The finite-difference gradient checker: the oracle that keeps every
hand-written backward pass honest."""

from __future__ import annotations

import numpy as np

from emocaps.training import backward_full, cross_entropy_loss, forward_full


def finite_diff_check(loss_and_grad, params: dict, eps: float = 1e-5, sample=None, rng=None) -> float:
    """Compare analytic gradients against central differences.

    `loss_and_grad()` evaluates the (deterministic) loss at the current
    parameter values and returns (loss, grads) with grads keyed like
    `params`. Entries are perturbed in place one at a time. Returns the
    worst relative error, |analytic - numeric| / max(1, |analytic|, |numeric|)
    (relative for large gradients, absolute near zero).

    `sample` caps the number of entries checked per tensor; entries are then
    chosen by `rng`.
    """
    _, grads = loss_and_grad()
    worst = 0.0
    for name, theta in params.items():
        flat = theta.reshape(-1)
        grad_flat = grads[name].reshape(-1)
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


def chunk_loss_and_grads(sequences, golds, params, cfg, seed: int = 0):
    """The summed loss of a training pass over one chunk of sequences and
    its gradients (`backward_full`), one array per tensor of `params`.
    Every call draws from fresh streams, so the dropout masks and noise are
    the same at each call and the loss is a deterministic function of the
    parameters."""
    rngs = [np.random.default_rng([seed, b]) for b in range(len(sequences))]
    probs, cache = forward_full(sequences, params, cfg, rngs=rngs)
    losses, grad_logits = cross_entropy_loss(probs, golds)
    grads = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    backward_full(grad_logits, cache, params, grads)
    return float(losses.sum()), grads
