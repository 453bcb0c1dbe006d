"""The packed, length-sorted eval path against the per-example oracle
(`eval_oracle`, `gru_oracle`), the benchmark tracer's hooks on it and on
the training and text paths, and the functions the benchmark's smoke test
replaces."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import emocaps.textprep as textprep
import emocaps.training as training
import eval_oracle
import gru_oracle
from emocaps.embeddings import EmbeddingTable
from emocaps.nn import _packed_steps, bigru_forward
from emocaps.training import EVAL_CHUNK_TOKENS, TrainConfig, forward_full, init_model, predict_dataset

# The packed path reorders sums (stacked and batched matmuls) against the
# per-example one; in float64 they must agree to this absolute tolerance.
ORACLE_ATOL = 1e-10

LENGTH_MIXES = {
    "with-length-1": [3, 1, 7, 1, 4],
    "all-equal": [5, 5, 5, 5],
    "single": [6],
    "descending": [9, 4, 2],
    # the predict benchmark's shapes: its longest single tweet and a bulk
    # chunk of 16 tweets of 5-40 tokens
    "single-40": [40],
    "bulk-16": [5, 40, 12, 33, 7, 21, 18, 40, 9, 27, 14, 5, 36, 11, 24, 30],
}

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def paper_model(seed: int, vocab: int = 60):
    cfg = TrainConfig(seed=seed, routing_iters=3)
    table = np.random.default_rng([seed, 1]).uniform(-0.5, 0.5, size=(vocab, cfg.embed_dim))
    params = init_model(cfg, EmbeddingTable(weights=table))
    rng = np.random.default_rng([seed, 2])
    params.gru.b[:] = rng.normal(scale=0.1, size=params.gru.b.shape)
    params.dense.b[:] = rng.normal(scale=0.1, size=params.dense.b.shape)
    return cfg, params


def random_sequences(lengths, vocab: int, seed: int):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, vocab, size=n).tolist() for n in lengths]


@pytest.mark.parametrize("lengths", list(LENGTH_MIXES.values()), ids=list(LENGTH_MIXES))
def test_packed_bigru_matches_per_gate_oracle(lengths):
    rng = np.random.default_rng(len(lengths))
    c_fwd, c_bwd = gru_oracle.random_cell(7, 5, seed=1), gru_oracle.random_cell(7, 5, seed=2)
    X = rng.normal(size=(sum(lengths), 7))
    H, cache = bigru_forward(X, lengths, gru_oracle.pack(c_fwd, c_bwd))
    assert H.shape == (sum(lengths), 10) and cache is None  # an eval forward keeps no step stacks
    start = 0
    for n in lengths:
        expected, _ = gru_oracle.bigru_forward(X[start : start + n], c_fwd, c_bwd)
        np.testing.assert_allclose(H[start : start + n], expected, rtol=0, atol=ORACLE_ATOL)
        start += n


@pytest.mark.parametrize("lengths", list(LENGTH_MIXES.values()), ids=list(LENGTH_MIXES))
def test_eval_and_training_forward_agree_bitwise(lengths):
    """One step loop serves both: a training forward, which keeps every
    step's stacks, computes exactly the states an eval forward does."""
    p = gru_oracle.pack(gru_oracle.random_cell(7, 5, seed=3), gru_oracle.random_cell(7, 5, seed=4))
    X = np.random.default_rng(len(lengths)).normal(size=(sum(lengths), 7))
    H_eval, _ = bigru_forward(X, lengths, p)
    H_train, cache = bigru_forward(X, lengths, p, keep_cache=True)
    assert cache is not None
    np.testing.assert_array_equal(H_train, H_eval)


def packed_order_oracle(lengths):
    """The packed step order of `_packed_steps`, one step at a time: the
    sequences still running at step t, longest first (ties in input
    order), each reading its position t forward and length - 1 - t
    backward."""
    starts = np.cumsum([0] + lengths[:-1])
    order = sorted(range(len(lengths)), key=lambda s: -lengths[s])
    counts, index = [], []
    for t in range(max(lengths)):
        running = [s for s in order if lengths[s] > t]
        counts.append(len(running))
        index += [(starts[s] + t, starts[s] + lengths[s] - 1 - t) for s in running]
    return counts, index


def test_packed_steps_match_loop_oracle():
    """Every mix, and a lone sequence of each length 1 to 64 (which skips
    the sort), gives the oracle's step sizes and gather indices."""
    for lengths in list(LENGTH_MIXES.values()) + [[n] for n in range(1, 65)]:
        counts, index = _packed_steps(np.asarray(lengths, dtype=np.intp))
        expected_counts, expected_index = packed_order_oracle(lengths)
        assert counts.tolist() == expected_counts
        assert index.shape == (sum(lengths), 2) and index.tolist() == [list(row) for row in expected_index]


@pytest.mark.parametrize("lengths", list(LENGTH_MIXES.values()), ids=list(LENGTH_MIXES))
def test_forward_probabilities_match_per_example_oracle(lengths):
    cfg, params = paper_model(seed=3)
    sequences = random_sequences(lengths, 60, seed=4)
    probs, cache = forward_full(sequences, params, cfg)
    assert probs.shape == (len(lengths), 6) and cache is None
    for row, ids in zip(probs, sequences):
        np.testing.assert_allclose(row, eval_oracle.forward_probs(ids, params, cfg), rtol=0, atol=ORACLE_ATOL)


def test_chunks_respect_both_bounds():
    lengths = [30, 1, 40, 17, 300, 5] * 4 + [1] * 200 + [EVAL_CHUNK_TOKENS + 10]
    chunks = training._chunks(lengths, EVAL_CHUNK_TOKENS)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(len(lengths)))
    for chunk in chunks:
        sizes = [lengths[i] for i in chunk]
        assert sizes == sorted(sizes)
        if len(chunk) > 1:
            assert sum(sizes) <= EVAL_CHUNK_TOKENS
            assert len(sizes) * max(sizes) <= 2 * EVAL_CHUNK_TOKENS
    assert [EVAL_CHUNK_TOKENS + 10] in [[lengths[i] for i in chunk] for chunk in chunks]
    assert training._chunks([256, 256], EVAL_CHUNK_TOKENS) == [[0, 1]]  # exactly at the cap
    assert training._chunks([256, 1, 256], EVAL_CHUNK_TOKENS) == [[1, 0], [2]]
    assert training._chunks([12, 30, 40, 12, 65], 64) == [[0, 3, 1], [2], [4]]


def test_predict_dataset_matches_per_example_labels_in_input_order(monkeypatch):
    cfg, params = paper_model(seed=5, vocab=200)
    lengths = np.random.default_rng(6).integers(1, 45, size=40).tolist()
    assert sum(lengths) > EVAL_CHUNK_TOKENS  # at least one chunk boundary
    sequences = random_sequences(lengths, 200, seed=7)
    chunk_sizes = []
    forward = training.forward_full

    def counting_forward(chunk, *args, **kwargs):
        chunk_sizes.append(len(chunk))
        return forward(chunk, *args, **kwargs)

    monkeypatch.setattr(training, "forward_full", counting_forward)

    labels = predict_dataset(sequences, params, cfg)

    assert labels == eval_oracle.predict_labels(sequences, params, cfg)
    assert len(chunk_sizes) > 1 and sum(chunk_sizes) == len(sequences)
    assert len(set(labels)) > 1  # the check is not vacuous


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_hooks_fit_the_eval_path():
    """perfbench/spans.py wraps functions by name and counts tokens from
    their arguments; a refactor that breaks either shows up here."""
    spans = _load_spans()
    cfg, params = paper_model(seed=8)
    sequences = random_sequences([2, 5, 7], 60, seed=9)
    with spans.Tracer() as tracer:
        assert tracer.missing == []
        training.predict_dataset(sequences, params, cfg)
    stats = tracer.summary()
    assert tracer.hook_errors == 0
    assert stats["nn.bigru_forward"]["tokens"] == 14
    assert stats["capsule.capsule_layer"]["tokens"] == 14
    assert stats["training.predict_dataset"]["calls"] == 1
    assert training.bigru_forward is bigru_forward  # removed again


def test_benchmark_tracer_hooks_fit_the_training_path():
    """The same tracer over a toy `train` run with mixed lengths: the
    backward hooks count each chunk's packed rows, so every epoch counts
    every training token once."""
    spans = _load_spans()
    cfg = TrainConfig(embed_dim=12, hidden_dim=6, num_capsules=3, capsule_dim=4, routing_iters=2,
                      batch_size=8, max_epochs=2, patience=2, seed=10)
    table = np.random.default_rng(11).uniform(-0.5, 0.5, size=(40, cfg.embed_dim))
    params = init_model(cfg, EmbeddingTable(weights=table))
    lengths = [1, 12, 3, 70, 9, 5, 30, 2, 14, 7]
    labels = np.random.default_rng(12).integers(0, 6, size=len(lengths)).tolist()
    train_set = list(zip(random_sequences(lengths, 40, seed=13), labels))
    with spans.Tracer() as tracer:
        assert tracer.missing == []
        training.train(train_set, train_set[:4], params, cfg)
    stats = tracer.summary()
    assert tracer.hook_errors == 0
    tokens = cfg.max_epochs * sum(lengths)
    assert stats["nn.bigru_backward"]["tokens"] == tokens
    assert stats["capsule.capsule_layer_backward"]["tokens"] == tokens
    assert stats["training.backward_full"]["calls"] < cfg.max_epochs * len(lengths)  # chunks, not examples
    assert stats["training.adam_step"]["calls"] == cfg.max_epochs * 2


def test_benchmark_tracer_hooks_fit_the_text_path():
    """The same tracer over `preprocess` on a tweet with a hashtag and a
    misspelled word: every text-path span is still wrapped and called, so
    the per-layer times of preprocess-oov cannot silently read zero."""
    spans = _load_spans()
    lex = textprep.Lexicon.from_pairs([("happy", 5), ("today", 3), ("make", 4), ("it", 9), ("rain", 2)])
    with spans.Tracer() as tracer:
        assert tracer.missing == []
        tokens = textprep.preprocess("So haappy #MakeItRain today", lex)
    stats = tracer.summary()
    assert tracer.hook_errors == 0
    assert tokens == ["so", "happy", "make", "it", "rain", "today"]
    for name in ("tokenize", "normalize", "segment_hashtag", "spell_correct", "preprocess"):
        assert stats[f"textprep.{name}"]["calls"] >= 1, name
    assert stats["textprep.spell_correct"]["changed"] == 1


def _predicted_labels():
    cfg, params = paper_model(seed=8)
    return training.predict_dataset(random_sequences([2, 5, 7], 60, seed=9), params, cfg)


def _trained_bias():
    cfg = TrainConfig(embed_dim=12, hidden_dim=6, num_capsules=3, capsule_dim=4, routing_iters=2,
                      batch_size=8, max_epochs=1, clip_norm=1e-3, seed=10)
    table = np.random.default_rng(11).uniform(-0.5, 0.5, size=(40, cfg.embed_dim))
    train_set = list(zip(random_sequences([3, 5, 4, 6], 40, seed=13), [0, 1, 2, 3]))
    params, _ = training.train(train_set, train_set, init_model(cfg, EmbeddingTable(weights=table)), cfg)
    return params.dense.b.tolist()


def _preprocessed():
    return textprep.preprocess("so haappy today", textprep.Lexicon.from_pairs([("happy", 5), ("today", 3)]))


@pytest.mark.parametrize("module, name, broken, outputs", [
    (training, "predict_class", lambda probs: -1, _predicted_labels),
    (training, "clip_gradients", lambda grads, *a, **k: grads, _trained_bias),
    (textprep, "spell_correct", lambda word, lex: word, _preprocessed),
], ids=["predict_class", "clip_gradients", "spell_correct"])
def test_benchmark_breakages_reach_the_output(monkeypatch, module, name, broken, outputs):
    """perfbench/test_smoke.py proves that the benchmark's output checks
    catch wrong answers by replacing these module attributes; each
    replacement must change what predict_dataset, train or preprocess
    return, so none of them may be inlined or called by another name."""
    expected = outputs()
    monkeypatch.setattr(module, name, broken)
    assert outputs() != expected
