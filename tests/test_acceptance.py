"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion,
or execute this file directly for a plain-text summary.
"""

import json
import struct
import sys
import time

import numpy as np
import pytest

from conftest import make_toy_examples, write_labeled
from gradcheck import chunk_loss_and_grads, finite_diff_check
from test_capsule import oracle_routing, route
from test_nn import copy_through_gru, forward_direction, gru_loss_and_grad, gru_params, random_gru, zero_gru

from emocaps.capsule import squash
from emocaps.checkpoint import load_checkpoint
from emocaps.cli import main as cli_main
from emocaps.embeddings import Vocabulary, build_embedding, load_word2vec
from emocaps.errors import EmocapsError
from emocaps.evaluation import confusion, metrics
from emocaps.textprep import Lexicon, TokenKind, normalize, preprocess, tokenize
from emocaps.training import (
    ModelParams,
    TrainConfig,
    init_model,
    predict_dataset,
    train,
)


def report(name):
    print(f"acceptance criterion [{name}]: PASS", flush=True)


def small_training_setup():
    cfg = TrainConfig(
        embed_dim=8,
        hidden_dim=4,
        num_capsules=3,
        capsule_dim=2,
        routing_iters=2,
        spatial_dropout=0.0,
        capsule_dropout=0.0,
        noise_std=0.0,
        seed=0,
    )
    vocab = Vocabulary.build([["alpha", "beta", "gamma", "delta"]])
    table = build_embedding(vocab, {}, cfg.embed_dim, cfg.seed)
    return cfg, vocab, init_model(cfg, table)


def test_gradient_integrity():
    """Full-model analytic gradients vs central differences, < 1e-4, < 60 s."""
    start = time.perf_counter()
    cfg, vocab, params = small_training_setup()
    ids = vocab.encode(["alpha", "beta", "gamma"])

    def loss_and_grad():
        return chunk_loss_and_grads([ids], [2], params, cfg)

    err = finite_diff_check(loss_and_grad, params.tensors())
    elapsed = time.perf_counter() - start
    assert err < 1e-4, f"max relative error {err:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report("gradient integrity")


def test_squash_suite():
    rng = np.random.default_rng(0)
    S = rng.normal(scale=3.0, size=(1000, 8))
    V = squash(S)
    norms = np.linalg.norm(V, axis=-1)
    assert np.all(norms >= 0.0) and np.all(norms < 1.0)
    cosines = np.sum(S * V, axis=-1) / (np.linalg.norm(S, axis=-1) * norms)
    assert np.max(np.abs(cosines - 1.0)) < 1e-12
    np.testing.assert_array_equal(squash(np.zeros(8)), np.zeros(8))
    unit = np.zeros(8)
    unit[3] = 1.0
    assert np.max(np.abs(squash(unit) - unit / 2)) < 1e-15
    report("squash suite")


def test_routing_suite():
    rng = np.random.default_rng(1)
    # couplings lie on the simplex at every iteration
    U = rng.normal(size=(4, 3, 2))
    _, couplings = route(U, 3)
    for C in couplings:
        np.testing.assert_allclose(C.sum(axis=1), 1.0, atol=1e-12)

    # J=1: iteration count cannot matter
    U1 = rng.normal(size=(5, 1, 3))
    outs = [route(U1, r)[0] for r in (1, 2, 3)]
    for V in outs[1:]:
        np.testing.assert_allclose(V, outs[0], atol=1e-12)

    # permutation over input positions leaves the output unchanged
    perm = rng.permutation(U.shape[0])
    V_base, _ = route(U, 3)
    V_perm, _ = route(U[perm], 3)
    np.testing.assert_allclose(V_perm, V_base, atol=1e-12)

    # straight-line oracle across the full small grid
    for n in (1, 2, 4):
        for J in (1, 2, 3):
            for r in (1, 2, 3):
                U = rng.normal(size=(n, J, 2))
                V, _ = route(U, r)
                np.testing.assert_allclose(V, oracle_routing(U, r), atol=1e-12)
    report("routing suite")


def test_gru_suite():
    rng = np.random.default_rng(2)
    d_in, d_h = 5, 4
    p = random_gru(d_in, d_h, seed=20)
    X = rng.normal(size=(3, d_in))
    weights = np.random.default_rng(3).normal(size=(3, d_h))
    assert finite_diff_check(gru_loss_and_grad(X, weights, p), gru_params(X, p)) < 1e-5

    # zero parameters: r=z=1/2, n=0, so the state stays at the origin
    H, _ = forward_direction(X, zero_gru(d_in, d_h))
    np.testing.assert_array_equal(H, np.zeros((3, d_h)))

    # z -> 1 copies the previous state through
    X[:, 0] = [-1.0, 1.0, 1.0]
    H, _ = forward_direction(X, copy_through_gru(d_in, d_h, seed=21))
    assert np.min(np.abs(H[0])) > 1e-3
    assert np.max(np.abs(H[1:] - H[0])) < 1e-8
    report("GRU suite")


def test_metric_oracle():
    rng = np.random.default_rng(4)
    # the macro average is the unweighted mean of per-class F1 ...
    for _ in range(5):
        golds = rng.integers(0, 6, size=50).tolist()
        preds = rng.integers(0, 6, size=50).tolist()
        rep = metrics(confusion(golds, preds))
        mean_f1 = sum(c["f1"] for c in rep["per_class"].values()) / 6
        assert abs(rep["macro"]["f1"] - mean_f1) < 1e-15
        # ... and micro-F1 equals accuracy
        accuracy = sum(g == p for g, p in zip(golds, preds)) / len(golds)
        assert abs(rep["micro"]["f1"] - accuracy) < 1e-12
    # the averaging rule applied to the reference per-class scores must
    # reproduce the reference macro score
    reference = (0.622, 0.688, 0.730, 0.788, 0.668, 0.656)
    assert abs(sum(reference) / 6 - 0.692) < 0.0005
    report("metric oracle")


def test_overfit_capacity(tmp_path):
    """60-example toy set to 100% training accuracy, desk dimensions."""
    start = time.perf_counter()
    examples = make_toy_examples()
    cfg = TrainConfig(
        embed_dim=50,
        hidden_dim=32,
        num_capsules=8,
        capsule_dim=8,
        batch_size=32,
        max_epochs=200,
        patience=25,
        seed=0,
    )
    vocab = Vocabulary.build([text.split() for _, text in examples])
    table = build_embedding(vocab, {}, cfg.embed_dim, cfg.seed)
    params = init_model(cfg, table)
    data = [(vocab.encode(text.split()), c) for c, text in examples]
    params, history = train(data, data, params, cfg)
    preds = predict_dataset([ids for ids, _ in data], params, cfg)
    accuracy = sum(p == c for p, (_, c) in zip(preds, data)) / len(data)
    elapsed = time.perf_counter() - start
    assert len(history) <= 200
    assert accuracy == 1.0, f"training accuracy {accuracy:.3f} after {len(history)} epochs"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report("overfit capacity")


def test_preprocessing_fixtures():
    assert [t.surface for t in normalize(tokenize("@user1"))] == ["<user>"]
    lex = Lexicon({"make": 10, "it": 10, "rain": 10, "main": 1})
    assert preprocess("#makeitrain", lex) == ["make", "it", "rain"]
    assert [t.surface for t in tokenize("s**t")] == ["s**t"]
    emphasis = tokenize("*very*")
    assert len(emphasis) == 1 and emphasis[0].kind is TokenKind.EMPHASIS
    report("preprocessing fixtures")


def train_via_cli(root, clean, name):
    out = root / name
    code = cli_main([
        "train", "--train-file", str(clean),
        "--embeddings-payload", str(root / "emb"), "--checkpoint-dir", str(out),
        "--hidden-dim", "5", "--num-capsules", "2",
        "--capsule-dim", "2", "--routing-iters", "2", "--batch-size", "16",
        "--max-epochs", "3", "--seed", "7",
    ])
    assert code == 0
    return out


def test_determinism(tmp_path):
    """Same config and seed: byte-identical history and checkpoints."""
    raw = tmp_path / "raw.tsv"
    write_labeled(raw, make_toy_examples())
    clean = tmp_path / "clean.tsv"
    assert cli_main(["preprocess", "--input", str(raw), "--output", str(clean)]) == 0
    assert cli_main([
        "build-vocab", "--inputs", str(clean),
        "--embedding-out", str(tmp_path / "emb"), "--embed-dim", "10", "--seed", "7",
    ]) == 0
    a = train_via_cli(tmp_path, clean, "run_a")
    b = train_via_cli(tmp_path, clean, "run_b")
    for name in ("history.jsonl", "model.json", "model.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
    report("determinism")


def test_round_trip(tmp_path):
    """Saved checkpoint reproduces in-memory predictions bit for bit."""
    examples = make_toy_examples()
    cfg = TrainConfig(
        embed_dim=10, hidden_dim=5, num_capsules=2, capsule_dim=2,
        routing_iters=2, batch_size=16, max_epochs=3, seed=7,
    )
    vocab = Vocabulary.build([text.split() for _, text in examples])
    table = build_embedding(vocab, {}, cfg.embed_dim, cfg.seed)
    params = init_model(cfg, table)
    data = [(vocab.encode(text.split()), c) for c, text in examples]
    params, _ = train(data, data, params, cfg)

    from emocaps.checkpoint import save_checkpoint

    save_checkpoint(tmp_path / "model", params.tensors(), cfg.__dict__.copy(), cfg.seed)
    tensors, _ = load_checkpoint(tmp_path / "model")
    reloaded = ModelParams.from_tensors(tensors)

    ids_list = [ids for ids, _ in data]
    before = predict_dataset(ids_list, params, cfg)
    after = predict_dataset(ids_list, reloaded, cfg)
    assert before == after
    report("round trip")


def test_word2vec_reader(tmp_path):
    entries = [
        ("alpha", [0.125, -0.5, 0.75]),
        ("beta", [1.0, 2.0, -3.0]),
        ("gamma", [0.001, -0.002, 0.003]),
    ]
    binary = tmp_path / "vecs.bin"
    with open(binary, "wb") as fh:
        fh.write(b"3 3\n")
        for word, vec in entries:
            fh.write(word.encode("utf-8") + b" ")
            fh.write(struct.pack("<3f", *vec))
    text = tmp_path / "vecs.txt"
    with open(text, "w", encoding="utf-8") as fh:
        fh.write("3 3\n")
        for word, vec in entries:
            fh.write(word + " " + " ".join(repr(v) for v in vec) + "\n")

    words = {w for w, _ in entries}
    from_binary = load_word2vec(binary, "binary", words, 3)
    from_text = load_word2vec(text, "text", words, 3)
    assert set(from_binary) == set(from_text) == words
    for word in from_binary:
        assert np.max(np.abs(from_binary[word] - from_text[word])) < 1e-6

    with open(binary, "rb") as fh:
        payload = fh.read()
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(payload[:-5])
    with pytest.raises(EmocapsError, match="vector truncated after 2 of 3 entries"):
        load_word2vec(truncated, "binary", words, 3)
    report("word2vec reader")


CRITERIA = [
    test_gradient_integrity,
    test_squash_suite,
    test_routing_suite,
    test_gru_suite,
    test_metric_oracle,
    test_overfit_capacity,
    test_preprocessing_fixtures,
    test_determinism,
    test_round_trip,
    test_word2vec_reader,
]


def _run_standalone():
    import tempfile
    from pathlib import Path

    failed = 0
    for fn in CRITERIA:
        needs_dir = "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]
        try:
            if needs_dir:
                with tempfile.TemporaryDirectory() as tmp:
                    fn(Path(tmp))
            else:
                fn()
        except Exception as exc:
            name = fn.__name__.removeprefix("test_").replace("_", " ")
            print(f"acceptance criterion [{name}]: FAIL ({exc})", flush=True)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_standalone())
