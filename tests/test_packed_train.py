"""Chunked training against the per-example oracle (`train_oracle`), the
chunk backward against finite differences and, at paper dims, against the
per-sequence and einsum oracles, and the training memory per token."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import emocaps.training as training
import eval_oracle
import gru_oracle
import train_oracle
from emocaps.capsule import capsule_layer, capsule_layer_backward, init_capsule
from emocaps.embeddings import EmbeddingTable
from emocaps.nn import N_CLASSES, bigru_backward, bigru_forward, init_gru
from emocaps.training import TRAIN_CHUNK_TOKENS, TrainConfig, init_model, train
from gradcheck import chunk_loss_and_grads, finite_diff_check
from test_capsule import einsum_grad_H, einsum_grad_W, einsum_predict_vectors, einsum_routing_backward

# A chunk sums its examples' gradients in other orders (matmuls over all
# its rows) than the per-example backward; in float64 they must agree to
# this absolute tolerance.
ORACLE_ATOL = 1e-10

# Lengths 1 to past the chunk cap: in a batch of 7 or 16, the short tweets
# share chunks and the 260-token one runs alone.
LENGTHS = [1, 3, 12, 2, 260, 9, 5, 1, 20, 33, 4, 12, 7, 1, 15, 6, 64, 2, 11, 8, 3, 27, 10, 5]


def tiny_config(**overrides):
    base = dict(
        embed_dim=8, hidden_dim=4, num_capsules=3, capsule_dim=2, routing_iters=3,
        spatial_dropout=0.2, capsule_dropout=0.2, noise_std=0.05,
        clip_norm=0.5, learning_rate=0.01, max_epochs=3, seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


def examples(lengths, vocab: int, seed):
    rng = np.random.default_rng(seed)
    return [(rng.integers(1, vocab, size=n).tolist(), int(rng.integers(N_CLASSES))) for n in lengths]


def start_table(cfg, vocab: int, seed):
    table = np.random.default_rng(seed).uniform(-0.3, 0.3, size=(vocab, cfg.embed_dim))
    table[0] = 0.0
    return table


def record_training_chunks(monkeypatch) -> list:
    """Patches `forward_full` to record the lengths of every training
    chunk it runs; returns the list it appends to."""
    chunks = []
    forward = training.forward_full

    def recording_forward(sequences, *args, **kwargs):
        if kwargs.get("rngs") is not None:
            chunks.append([len(ids) for ids in sequences])
        return forward(sequences, *args, **kwargs)

    monkeypatch.setattr(training, "forward_full", recording_forward)
    return chunks


@pytest.mark.parametrize("batch_size", [1, 7, 16])
def test_train_matches_per_example_oracle(batch_size, monkeypatch):
    vocab = 40
    cfg = tiny_config(batch_size=batch_size)
    train_set = examples(LENGTHS, vocab, seed=[batch_size, 1])
    dev_set = examples([4, 1, 9, 66, 3, 12], vocab, seed=[batch_size, 2])
    table = start_table(cfg, vocab, seed=[batch_size, 3])
    chunks = record_training_chunks(monkeypatch)
    chunked, history = train(train_set, dev_set, init_model(cfg, EmbeddingTable(table.copy())), cfg)
    monkeypatch.undo()
    oracle, oracle_history, _ = train_oracle.dense_train(
        train_set, dev_set, init_model(cfg, EmbeddingTable(table.copy())), cfg
    )

    assert len(history) == len(oracle_history) == cfg.max_epochs
    for row, expected in zip(history, oracle_history):
        assert row["dev_macro_f1"] == expected["dev_macro_f1"]
        assert abs(row["train_loss"] - expected["train_loss"]) <= ORACLE_ATOL
    for name, t in chunked.tensors().items():
        np.testing.assert_allclose(t, oracle.tensors()[name], rtol=0, atol=ORACLE_ATOL, err_msg=name)
    assert sum(len(c) for c in chunks) == cfg.max_epochs * len(train_set)
    for chunk in chunks:
        assert chunk == sorted(chunk)
        assert len(chunk) == 1 or sum(chunk) <= TRAIN_CHUNK_TOKENS
    assert [260] in chunks
    if batch_size > 1:
        assert max(len(c) for c in chunks) > 2  # the check is not vacuous


def test_chunk_backward_finite_difference():
    """Every tensor's gradient of the summed loss of a 3-sequence chunk, with
    every regularizer drawing (fixed) masks and noise."""
    vocab = 12
    cfg = tiny_config()
    params = init_model(cfg, EmbeddingTable(start_table(cfg, vocab, seed=7)))
    rng = np.random.default_rng(8)
    params.gru.b[:] = rng.normal(scale=0.3, size=params.gru.b.shape)
    sequences = [ids for ids, _ in examples([4, 1, 7], vocab, seed=9)]

    def loss_and_grad():
        return chunk_loss_and_grads(sequences, [2, 0, 5], params, cfg)

    _, grads = loss_and_grad()
    assert np.any(grads["embedding/W_e"] != 0.0)
    assert finite_diff_check(loss_and_grad, params.tensors()) < 1e-6


def test_backward_full_consumes_its_cache():
    """One mask row per sequence in the cache; `backward_full` drops the
    capsule cache, and a second call on the same cache raises."""
    vocab = 12
    cfg = tiny_config()
    params = init_model(cfg, EmbeddingTable(start_table(cfg, vocab, seed=7)))
    sequences = [ids for ids, _ in examples([4, 1, 7], vocab, seed=9)]
    rngs = [np.random.default_rng([0, b]) for b in range(len(sequences))]
    probs, cache = training.forward_full(sequences, params, cfg, rngs=rngs)
    assert cache.spatial_mask.shape == (3, cfg.embed_dim)
    _, grad_logits = training.cross_entropy_loss(probs, [2, 0, 5])
    grads = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    training.backward_full(grad_logits, cache, params, grads)
    assert cache.capsule is None
    with pytest.raises(ValueError, match="already been backpropagated"):
        training.backward_full(grad_logits, cache, params, grads)


def test_chunk_bigru_backward_matches_each_sequence_alone():
    """The packed backward over a chunk equals the per-sequence fused
    backward (`train_oracle`) and the per-gate one (`gru_oracle`), row by
    row for grad_X and summed for the weights."""
    lengths = [4, 1, 7, 7, 2]
    rng = np.random.default_rng(10)
    c_fwd, c_bwd = gru_oracle.random_cell(6, 5, seed=11), gru_oracle.random_cell(6, 5, seed=12)
    p = gru_oracle.pack(c_fwd, c_bwd)
    X = rng.normal(size=(sum(lengths), 6))
    R = rng.normal(size=(sum(lengths), 10))
    _, cache = bigru_forward(X, lengths, p, keep_cache=True)
    gX, grads = bigru_backward(R, cache, p)

    names = [f.name for f in dataclasses.fields(grads)]
    sums = {name: np.zeros_like(getattr(p, name)) for name in names}
    start = 0
    for n in lengths:
        rows = slice(start, start + n)
        _, one = bigru_forward(X[rows], [n], p, keep_cache=True)
        gX_one, g_one = train_oracle.bigru_backward(R[rows], one, p)
        np.testing.assert_allclose(gX[rows], gX_one, rtol=0, atol=ORACLE_ATOL)
        _, steps = gru_oracle.bigru_forward(X[rows], c_fwd, c_bwd)
        gX_gate, *_ = gru_oracle.bigru_backward(R[rows], steps, c_fwd, c_bwd)
        np.testing.assert_allclose(gX[rows], gX_gate, rtol=0, atol=ORACLE_ATOL)
        for name in names:
            sums[name] += getattr(g_one, name)
        start += n
    for name in names:
        np.testing.assert_allclose(getattr(grads, name), sums[name], rtol=0, atol=ORACLE_ATOL, err_msg=name)


@pytest.mark.parametrize("lengths", [[50] * 5, [12] * 16], ids=["5x50", "16x12"])
def test_paper_dims_chunk_backwards_match_oracles(lengths):
    """At paper dims (d 300, h 128, 16 capsules of 32, 5 routing
    iterations), the Bi-GRU backward of a full training chunk equals the
    per-sequence one (`train_oracle`), and the capsule backward the einsum
    contractions it replaced (`test_capsule`), per sequence for the input
    gradients and summed for the weights."""
    cfg = TrainConfig()
    rng = np.random.default_rng(len(lengths))
    gru = init_gru(cfg.embed_dim, cfg.hidden_dim, rng)
    gru.b[:] = rng.normal(scale=0.3, size=gru.b.shape)
    W = init_capsule(cfg.num_capsules, 2 * cfg.hidden_dim, cfg.capsule_dim, rng)
    X = rng.uniform(-0.3, 0.3, size=(sum(lengths), cfg.embed_dim))
    grad_flat = rng.normal(size=(len(lengths), cfg.num_capsules * cfg.capsule_dim))

    H, gru_cache = bigru_forward(X, lengths, gru, keep_cache=True)
    flat, caps_cache = capsule_layer(H, lengths, W, cfg.routing_iters)
    grad_H, grad_W = capsule_layer_backward(grad_flat, caps_cache, W)
    grad_X, grads = bigru_backward(grad_H, gru_cache, gru)

    names = [f.name for f in dataclasses.fields(grads)]
    gru_sums = {name: np.zeros_like(getattr(gru, name)) for name in names}
    expected_W = np.zeros_like(W)
    start = 0
    for b, n in enumerate(lengths):
        rows = slice(start, start + n)
        U = einsum_predict_vectors(H[rows], W)
        states = eval_oracle.dynamic_routing(U, cfg.routing_iters)
        np.testing.assert_allclose(flat[b], states[-1][2].reshape(-1), rtol=0, atol=ORACLE_ATOL)
        grad_U = einsum_routing_backward(grad_flat[b].reshape(W.shape[0], -1), U, states)
        np.testing.assert_allclose(grad_H[rows], einsum_grad_H(grad_U, W), rtol=0, atol=ORACLE_ATOL)
        expected_W += einsum_grad_W(H[rows], grad_U)
        _, one = bigru_forward(X[rows], [n], gru, keep_cache=True)
        gX_one, g_one = train_oracle.bigru_backward(grad_H[rows], one, gru)
        np.testing.assert_allclose(grad_X[rows], gX_one, rtol=0, atol=ORACLE_ATOL)
        for name in names:
            gru_sums[name] += getattr(g_one, name)
        start += n
    np.testing.assert_allclose(grad_W, expected_W, rtol=0, atol=ORACLE_ATOL)
    for name in names:
        np.testing.assert_allclose(getattr(grads, name), gru_sums[name], rtol=0, atol=ORACLE_ATOL, err_msg=name)


def test_long_sequence_runs_alone():
    lengths = [12, TRAIN_CHUNK_TOKENS + 1, 12, 30, TRAIN_CHUNK_TOKENS, 1]
    chunks = training._chunks(lengths, TRAIN_CHUNK_TOKENS)
    assert [[lengths[i] for i in chunk] for chunk in chunks] == [
        [1, 12, 12, 30], [TRAIN_CHUNK_TOKENS], [TRAIN_CHUNK_TOKENS + 1]
    ]


def _peak_training_bytes(lengths, monkeypatch) -> tuple[int, list]:
    """Peak traced allocation of one epoch of one batch at paper dims, and
    the chunks it ran. Every run uses the same 48 ids and dev tweet, so the
    Adam moments and the dev pass are the same size in each."""
    cfg = TrainConfig(batch_size=16, max_epochs=1, seed=1)
    ids = np.arange(sum(lengths)) % 48 + 2
    bounds = np.cumsum([0] + lengths)
    train_set = [(ids[a:b].tolist(), 1) for a, b in zip(bounds[:-1], bounds[1:])]
    table = np.random.default_rng(2).uniform(-0.05, 0.05, size=(50, cfg.embed_dim))
    params = init_model(cfg, EmbeddingTable(table))
    with monkeypatch.context() as patch:
        chunks = record_training_chunks(patch)
        tracemalloc.start()
        try:
            train(train_set, [(list(range(2, 8)), 0)], params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak, chunks


def test_training_memory_per_token(monkeypatch):
    """A training chunk's traced memory grows by under 45 KB a token at
    paper dims: the peak of a batch of one 256-token tweet (a full
    TRAIN_CHUNK_TOKENS chunk) less that of one 50-token tweet, over the 206
    tokens between them. The backward caches, the Bi-GRU and capsule
    backward's transients and the forward's inputs all grow with the
    tokens; everything else (weights, gradient sums, Adam) is the same in
    both runs."""
    _peak_training_bytes([3], monkeypatch)  # one-time allocations out of the way
    long_peak, long_chunks = _peak_training_bytes([256], monkeypatch)
    short_peak, short_chunks = _peak_training_bytes([50], monkeypatch)
    assert long_chunks == [[256]] and short_chunks == [[50]]
    per_token_kb = (long_peak - short_peak) / 206 / 1024
    assert per_token_kb < 45, per_token_kb


def test_bigru_backward_frees_each_stack_after_its_last_use():
    """Handed grad_H with no other reference to it, `bigru_backward` frees it
    and each step stack of the cache it consumes once its last use is past.
    Over a 5x50 chunk at paper dims it then holds under 12 KB a token
    beyond its inputs: 8.5 KB, where keeping every stack to the end took
    18.7. A second call on the spent cache raises."""
    rng = np.random.default_rng(3)
    p = init_gru(300, 128, rng)
    tracemalloc.start()
    try:
        _, cache = bigru_forward(rng.normal(size=(250, 300)), [50] * 5, p, keep_cache=True)
        held = [rng.normal(size=(250, 256))]
        given = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bigru_backward(held.pop(), cache, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(stack is None for stack in (cache.H, cache.rz, cache.n, cache.rhh))
    per_token_kb = (peak - given) / 250 / 1024
    assert per_token_kb < 12, per_token_kb
    with pytest.raises(ValueError, match="already been backpropagated"):
        bigru_backward(np.zeros((250, 256)), cache, p)


def test_capsule_backward_frees_its_routing_blocks():
    """`capsule_layer_backward` consumes its cache: once `routing_backward`
    has read the padded prediction blocks `U` and the routing `state`, it
    drops them and keeps only `H` and `lengths`. Over a 5x50 chunk at
    paper dims it then holds under 10 KB a token beyond its inputs: 7.3,
    where keeping both to the end took 12.1. A second call on the spent
    cache raises."""
    rng = np.random.default_rng(3)
    W = init_capsule(16, 256, 32, rng)
    tracemalloc.start()
    try:
        _, cache = capsule_layer(rng.uniform(-1.0, 1.0, size=(250, 256)), [50] * 5, W, iterations=3)
        grad_flat = rng.normal(size=(5, 512))
        given = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        capsule_layer_backward(grad_flat, cache, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.U is None and cache.state is None
    assert cache.H.shape == (250, 256) and cache.lengths.tolist() == [50] * 5
    per_token_kb = (peak - given) / 250 / 1024
    assert per_token_kb < 10, per_token_kb
    with pytest.raises(ValueError, match="already been backpropagated"):
        capsule_layer_backward(np.zeros((5, 512)), cache, W)
