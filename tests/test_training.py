import copy
import dataclasses
import math
import re
import sys

import numpy as np
import pytest

import emocaps.training as training
from emocaps.embeddings import EmbeddingTable, Vocabulary, build_embedding
from emocaps.errors import EmocapsError, NumericError
from emocaps.nn import N_CLASSES, softmax
from emocaps.training import (
    PAD_ID,
    AdamState,
    ModelParams,
    TrainConfig,
    TrainState,
    _regularize,
    adam_step,
    backward_full,
    clip_gradients,
    cross_entropy_loss,
    dataset_macro_f1,
    finish_training,
    forward_full,
    init_model,
    run_epoch,
    start_training,
    train,
)
from gradcheck import chunk_loss_and_grads, finite_diff_check
import train_oracle
from train_oracle import dense_adam, dense_clip, dense_train


def tiny_config(**overrides):
    base = dict(
        embed_dim=8,
        hidden_dim=4,
        num_capsules=3,
        capsule_dim=2,
        routing_iters=2,
        spatial_dropout=0.0,
        capsule_dropout=0.0,
        noise_std=0.0,
        batch_size=16,
        max_epochs=3,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_model(cfg, words=("alpha", "beta", "gamma")):
    vocab = Vocabulary.build([list(words)])
    table = build_embedding(vocab, {}, cfg.embed_dim, cfg.seed)
    return vocab, init_model(cfg, table)


def encode_examples(examples, vocab):
    return [(vocab.encode(text.split()), c) for c, text in examples]


class TestCrossEntropy:
    def test_certain_prediction_zero_loss(self):
        f = np.zeros((1, N_CLASSES))
        f[0, 2] = 1.0
        (loss,), _ = cross_entropy_loss(f, [2])
        assert loss == 0.0

    def test_uniform_gives_log_six(self):
        losses, _ = cross_entropy_loss(np.full((2, N_CLASSES), 1 / 6), [3, 0])
        assert np.all(np.abs(losses - math.log(6)) < 1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        y = rng.normal(scale=2, size=(3, N_CLASSES))
        golds = [4, 0, 4]

        def loss_and_grad():
            losses, grad_logits = cross_entropy_loss(softmax(y), golds)
            return float(losses.sum()), {"y": grad_logits}

        assert finite_diff_check(loss_and_grad, {"y": y}) < 1e-6

    def test_clamps_vanishing_probability(self):
        f = np.zeros((1, N_CLASSES))
        f[0, 0] = 1.0
        (loss,), _ = cross_entropy_loss(f, [5])  # f_gold is exactly 0
        assert loss == pytest.approx(-math.log(1e-12))


class TestClipGradients:
    def test_small_norm_unchanged(self):
        grads = {"a": np.asarray([0.3, 0.4])}  # norm 0.5
        before = grads["a"].copy()
        clip_gradients(grads, 1.0)
        np.testing.assert_array_equal(grads["a"], before)

    def test_norm_two_halves_everything(self):
        grads = {"a": np.asarray([2.0, 0.0]), "b": np.zeros(2)}
        clip_gradients(grads, 1.0)
        np.testing.assert_allclose(grads["a"], [1.0, 0.0], rtol=1e-15)

    def test_zero_gradients_stay_zero(self):
        grads = {"a": np.zeros(3)}
        clip_gradients(grads, 1.0)
        np.testing.assert_array_equal(grads["a"], np.zeros(3))

    def test_global_norm_bounded_after_clip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            grads = {k: rng.normal(scale=3, size=rng.integers(1, 6)) for k in "abc"}
            clip_gradients(grads, 1.0)
            total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            assert total <= 1.0 + 1e-9

    @pytest.mark.parametrize("clip_norm", [1.0, 100.0])
    def test_row_grad_matches_dense_clip(self, clip_norm):
        # the compact gradient of rows 1, 4 and 9 adds the squares of those
        # rows only; integer entries make every summation order exact, so
        # the result is bitwise that of clipping the whole 12-row gradient
        rng = np.random.default_rng(2)
        rows = np.asarray([1, 4, 9])
        grads = {"e": rng.integers(-9, 10, size=(3, 5)) * 1.0, "w": rng.integers(-9, 10, size=(4, 2)) * 1.0}
        dense = {"e": np.zeros((12, 5)), "w": grads["w"].copy()}
        dense["e"][rows] = grads["e"]
        norm = dense_clip(dense, clip_norm)
        assert clip_gradients(grads, clip_norm) == norm  # the pre-clip norm, bitwise
        assert (norm > clip_norm) == (clip_norm == 1.0)
        np.testing.assert_array_equal(grads["e"], dense["e"][rows])
        np.testing.assert_array_equal(grads["w"], dense["w"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_norm_raises_before_scaling(self, bad):
        grads = {"a": np.asarray([3.0, 4.0]), "b": np.asarray([[1.0, bad]])}
        with pytest.raises(NumericError, match="not finite in b$"):
            clip_gradients(grads, 1.0)
        np.testing.assert_array_equal(grads["a"], [3.0, 4.0])


def scalar_adam_transcription(theta, lr, steps):
    """Plain-float Adam on f(t) = t^2, written independently."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    trace = []
    for t in range(1, steps + 1):
        g = 2.0 * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(theta)
    return trace


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        before = {k: t.copy() for k, t in params.tensors().items()}
        state = AdamState(m={k: np.zeros_like(t) for k, t in params.tensors().items()},
                          v={k: np.zeros_like(t) for k, t in params.tensors().items()})
        grads = {k: np.zeros_like(m) for k, m in state.m.items()}
        adam_step(params.tensors(), grads, state, cfg)
        for k, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[k])
            assert np.all(state.m[k] == 0.0) and np.all(state.v[k] == 0.0)

    def test_first_step_size_approximates_learning_rate(self):
        cfg = TrainConfig(learning_rate=1e-3)
        theta = {"t": np.asarray([5.0, -5.0])}
        state = AdamState(m={"t": np.zeros(2)}, v={"t": np.zeros(2)})
        grad = np.asarray([10.0, -10.0])
        adam_step(theta, {"t": grad}, state, cfg)
        np.testing.assert_allclose(theta["t"], [5.0 - 1e-3, -5.0 + 1e-3], atol=1e-6)
        assert not np.any(grad == [10.0, -10.0])  # the gradient is Adam's scratch space, overwritten

    def test_five_steps_match_scalar_transcription(self):
        cfg = TrainConfig(learning_rate=0.1)
        theta = {"t": np.asarray([1.0])}
        state = AdamState(m={"t": np.zeros(1)}, v={"t": np.zeros(1)})
        expected = scalar_adam_transcription(1.0, lr=0.1, steps=5)
        for step in range(5):
            adam_step(theta, {"t": 2.0 * theta["t"]}, state, cfg)
            assert abs(theta["t"][0] - expected[step]) < 1e-12


def _streams(seed, count):
    return [np.random.default_rng([seed, b]) for b in range(count)]


class TestRegularizers:
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("std", [0.0, 0.1])
    @pytest.mark.parametrize("lengths", [[1], [3, 1, 4, 1], [1, 1, 1], [6, 2]])
    def test_matches_two_step_oracle(self, rate, std, lengths):
        """Bitwise the oracle's spatial dropout then Gaussian noise, one
        sequence at a time: outputs, masks and every stream's state after."""
        rows = np.random.default_rng(1).normal(size=(sum(lengths), 5))
        got_rngs, want_rngs = _streams(8, len(lengths)), _streams(8, len(lengths))
        got, got_masks = _regularize(rows, lengths, got_rngs, rate, std)
        want, want_masks = train_oracle.regularize(rows, lengths, want_rngs, rate, std)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_masks, want_masks)
        assert got_masks.shape == (len(lengths), 5)
        assert [r.bit_generator.state for r in got_rngs] == [r.bit_generator.state for r in want_rngs]

    def test_noise_eval_and_zero_std_are_identity(self):
        x = np.ones((5, 3))
        out, masks = _regularize(x, [2, 3], None, 0.3, 0.1)
        assert out is x and masks is None
        rngs = _streams(0, 2)
        states = [r.bit_generator.state for r in rngs]
        out, masks = _regularize(x, [2, 3], rngs, 0.0, 0.0)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(masks, np.ones((2, 3)))
        assert [r.bit_generator.state for r in rngs] == states

    def test_noise_sample_statistics(self):
        rng = np.random.default_rng(2)
        out, _ = _regularize(np.zeros((1000, 1000)), [1000], [rng], 0.0, 0.1)
        assert abs(out.std() - 0.1) < 0.002
        assert abs(out.mean()) < 0.001

    def test_dropout_identity_cases(self):
        # rate 0 draws no mask: the stream moves only by the noise, or not at all
        for lengths, std in (([1], 0.0), ([2, 1], 0.0), ([1, 2], 0.1)):
            x = np.ones((sum(lengths), 3))
            rngs = _streams(0, len(lengths))
            alone = _streams(0, len(lengths))
            out, mask = _regularize(x, lengths, rngs, 0.0, std)
            np.testing.assert_array_equal(mask, np.ones((len(lengths), 3)))
            if std == 0.0:
                np.testing.assert_array_equal(out, x)
            for n, rng, other in zip(lengths, rngs, alone):
                if std != 0.0:
                    other.normal(0.0, std, size=(n, 3))
                assert rng.bit_generator.state == other.bit_generator.state
        # std 0 draws no noise: the stream moves only by the mask
        rngs, alone = _streams(1, 2), _streams(1, 2)
        x = np.random.default_rng(3).normal(size=(4, 3))
        out, masks = _regularize(x, [3, 1], rngs, 0.3, 0.0)
        np.testing.assert_array_equal(out, x * np.repeat(masks, [3, 1], axis=0))
        for rng, other in zip(rngs, alone):
            other.random(3)
            assert rng.bit_generator.state == other.bit_generator.state

    def test_rate_zero_training_pass_draws_only_noise(self):
        cfg = tiny_config(noise_std=0.1)
        vocab, params = tiny_model(cfg)
        sequences = [vocab.encode(["alpha", "beta", "gamma"]), vocab.encode(["beta"])]
        rngs = [np.random.default_rng([7, b]) for b in range(len(sequences))]
        _, cache = forward_full(sequences, params, cfg, rngs=rngs)
        assert np.all(cache.spatial_mask == 1.0) and np.all(cache.drop_mask == 1.0)
        for b, (ids, rng) in enumerate(zip(sequences, rngs)):
            alone = np.random.default_rng([7, b])
            alone.normal(0.0, cfg.noise_std, size=(len(ids), cfg.embed_dim))
            alone.normal(0.0, cfg.noise_std, size=(1, cfg.num_capsules * cfg.capsule_dim))
            assert rng.bit_generator.state == alone.bit_generator.state

    def test_dropout_mask_values(self):
        # on one row, as capsule dropout runs it: a draw per unit
        rng = np.random.default_rng(3)
        out, mask = _regularize(np.ones((1, 1000)), [1], [rng], 0.25, 0.0)
        scale = 1.0 / 0.75
        assert mask.shape == (1, 1000)
        assert set(np.round(np.unique(mask), 12)) == {0.0, round(scale, 12)}
        np.testing.assert_array_equal(out, mask)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(4)
        out, _ = _regularize(np.ones((1, 100_000)), [1], [rng], 0.25, 0.0)
        assert abs(out.mean() - 1.0) < 0.01

    def test_spatial_dropout_kills_whole_channels(self):
        # one mask per sequence, across all of its rows
        out, masks = _regularize(np.ones((10, 40)), [7, 3], _streams(5, 2), 0.3, 0.0)
        assert masks.shape == (2, 40)
        assert not np.array_equal(masks[0], masks[1])
        for rows, mask in zip((out[:7], out[7:]), masks):
            dropped = np.flatnonzero(mask == 0.0)
            assert dropped.size > 0
            assert np.all(rows[:, dropped] == 0.0)
            kept = np.flatnonzero(mask != 0.0)
            np.testing.assert_allclose(rows[:, kept], 1.0 / 0.7, rtol=1e-12)

    def test_spatial_dropout_preserves_expectation(self):
        rng = np.random.default_rng(6)
        out, _ = _regularize(np.ones((10, 10_000)), [10], [rng], 0.3, 0.0)
        assert abs(out.mean() - 1.0) < 0.01


class TestForwardFull:
    def test_full_scale_configuration_shape_walk(self):
        cfg = TrainConfig(
            embed_dim=300, hidden_dim=128, num_capsules=16, capsule_dim=32, routing_iters=2
        )
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha", "beta"])
        probs, cache = forward_full([ids], params, cfg, rngs=[np.random.default_rng(0)])
        assert cache.bigru.X.shape == (2, 300)
        assert cache.bigru.rz.shape == (2, 2, 2, 128)  # (gate, packed row, direction, h)
        assert cache.capsule.H.shape == (2, 256)
        assert cache.c.shape == (1, 512)
        assert probs.shape == (1, 6)

    def test_single_token_probabilities(self):
        cfg = tiny_config()
        vocab, params = tiny_model(cfg)
        probs, _ = forward_full([vocab.encode(["alpha"])], params, cfg)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_eval_mode_is_bitwise_repeatable(self):
        cfg = tiny_config(spatial_dropout=0.3, capsule_dropout=0.25, noise_std=0.1)
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha", "beta", "gamma"])
        a, _ = forward_full([ids], params, cfg)
        b, _ = forward_full([ids], params, cfg)
        np.testing.assert_array_equal(a, b)

    def test_train_mode_reproducible_given_stream(self):
        cfg = tiny_config(spatial_dropout=0.3, capsule_dropout=0.25, noise_std=0.1)
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha", "beta"])
        a, _ = forward_full([ids], params, cfg, rngs=[np.random.default_rng(9)])
        b, _ = forward_full([ids], params, cfg, rngs=[np.random.default_rng(9)])
        c, _ = forward_full([ids], params, cfg, rngs=[np.random.default_rng(10)])
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_eval_pass_keeps_no_caches(self):
        cfg = tiny_config()
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha", "beta"])
        assert forward_full([ids], params, cfg)[1] is None
        assert forward_full([ids, ids], params, cfg)[1] is None

    def test_predict_dataset_names_empty_sequence_before_any_pass(self, monkeypatch):
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        calls = []
        monkeypatch.setattr(training, "forward_full", lambda *a, **k: calls.append(a))
        with pytest.raises(EmocapsError, match=r"^sequence 2 is empty"):
            training.predict_dataset([[1, 2], [3], [], [1]], params, cfg)
        assert calls == []

    @pytest.mark.parametrize("bad", [-1, None], ids=["negative", "past-end"])
    def test_predict_dataset_names_an_id_outside_the_table_before_any_pass(self, monkeypatch, bad):
        """`embed` gathers rows unchecked, where id -1 would read the last row."""
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        size = len(params.embedding.weights)
        bad = size if bad is None else bad
        monkeypatch.setattr(training, "forward_full", lambda *a, **k: pytest.fail("forward_full ran"))
        with pytest.raises(EmocapsError, match=rf"^sequence 1 holds ids outside \[0, {size}\): \[{bad}\]$"):
            training.predict_dataset([[1, 2], [3, bad, 3, bad], [-5]], params, cfg)

    @pytest.mark.parametrize("ids", [[2.7, 3.2], [1, True], [1, None], [np.float64(2.0)], [[1, 2]], "ab"])
    def test_predict_dataset_refuses_an_id_that_is_not_an_integer(self, monkeypatch, ids):
        """A float id was truncated to an int, a bool taken as 0 or 1 and None
        failed in numpy; each is refused now, naming the sequence."""
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        monkeypatch.setattr(training, "forward_full", lambda *a, **k: pytest.fail("forward_full ran"))
        bad = next(i for i in ids if type(i) is not int)
        with pytest.raises(EmocapsError, match=rf"^sequence 1 holds {re.escape(repr(bad))}, not an integer id$"):
            training.predict_dataset([[1], ids], params, cfg)

    def test_predict_dataset_takes_numpy_integer_ids(self):
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        plain = [[1, 2, 3], [4]]
        numpy_ids = [np.array([1, 2, 3], dtype=np.int32), [np.uint8(4)]]
        assert training.predict_dataset(numpy_ids, params, cfg) == training.predict_dataset(plain, params, cfg)

    def test_predict_dataset_names_a_sequence_of_non_finite_probabilities(self):
        """A NaN in one word's row spoils only the sequences that hold the
        word; the lowest of them is named, and numpy warns of nothing (the
        suite turns warnings into errors)."""
        cfg = tiny_config()
        vocab, params = tiny_model(cfg)
        alpha, beta, gamma = (vocab.encode([word]) for word in ("alpha", "beta", "gamma"))
        params.embedding.weights[gamma[0], 0] = np.nan
        assert len(training.predict_dataset([alpha, beta + alpha], params, cfg)) == 2  # no gamma, no failure
        with pytest.raises(NumericError, match=r"^sequence 2: class probabilities are not finite$"):
            training.predict_dataset([alpha, beta + alpha, gamma + beta, beta, gamma], params, cfg)

    def test_mode_string_is_rejected(self):
        """rng is keyword-only, so a "train"/"eval" string left over from the
        retired mode argument fails instead of being taken for a generator."""
        cfg = tiny_config()
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha"])
        with pytest.raises(TypeError):
            forward_full([ids], params, cfg, "eval")
        with pytest.raises(TypeError):
            forward_full([ids], params, cfg, [np.random.default_rng(0)])

    def test_second_noise_lands_on_capsule_output(self):
        cfg = tiny_config(noise_std=0.5)
        vocab, params = tiny_model(cfg)
        probs, cache = forward_full([vocab.encode(["alpha"])], params, cfg, rngs=[np.random.default_rng(11)])
        flat = cache.capsule.state[-1][2].reshape(1, -1)
        assert not np.array_equal(cache.c, flat)
        np.testing.assert_array_equal(probs, softmax(cache.c @ params.dense_W + params.dense_b))

    def test_gradients_with_regularizers_active(self):
        # masks cached during forward must reach the backward pass
        cfg = tiny_config(spatial_dropout=0.4, capsule_dropout=0.4, noise_std=0.05)
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha", "beta"])
        rngs = [np.random.default_rng(12), np.random.default_rng(13)]
        probs, cache = forward_full([ids, ids[:1]], params, cfg, rngs=rngs)
        _, grad_logits = cross_entropy_loss(probs, [1, 4])
        grads = {k: np.zeros_like(t) for k, t in params.tensors().items()}
        assert backward_full(grad_logits, cache, params, grads) is None
        for g in grads.values():
            assert np.all(np.isfinite(g))
        assert all(np.any(g != 0.0) for g in grads.values())


RANGE_CASES = [  # every range rule TrainConfig checks when built, as (field, value, message)
    ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
    ("clip_norm", -1.0, "clip_norm must be positive, got -1.0"),
    ("spatial_dropout", 1.0, "spatial_dropout must be in [0, 1), got 1.0"),
    ("capsule_dropout", -0.25, "capsule_dropout must be in [0, 1), got -0.25"),
    ("noise_std", -0.1, "noise_std must be non-negative, got -0.1"),
    ("patience", -1, "patience must be non-negative, got -1"),
    ("seed", -1, "seed must be non-negative, got -1"),
    ("batch_size", 0, "batch_size must be at least 1, got 0"),
    ("routing_iters", 0, "routing_iters must be at least 1, got 0"),
    ("max_epochs", 0, "max_epochs must be at least 1, got 0"),
    ("embed_dim", 0, "embed_dim must be at least 1, got 0"),
    ("hidden_dim", 0, "hidden_dim must be at least 1, got 0"),
    ("num_capsules", 0, "num_capsules must be at least 1, got 0"),
    ("capsule_dim", 0, "capsule_dim must be at least 1, got 0"),
]

TYPE_CASES = [  # the type rule of TrainConfig, checked before any range, as (field, value, message)
    ("batch_size", 2.5, "batch_size must be int, got 2.5"),
    ("seed", 1.5, "seed must be int, got 1.5"),
    ("hidden_dim", True, "hidden_dim must be int, got True"),
    ("learning_rate", True, "learning_rate must be float, got True"),
    ("learning_rate", "0.1", "learning_rate must be float, got '0.1'"),
    ("noise_std", None, "noise_std must be float, got None"),
    ("patience", -0.5, "patience must be int, got -0.5"),
]


class TestModelParams:
    def test_tensor_round_trip(self):
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        rebuilt = ModelParams.from_tensors(params.tensors())
        for (ka, a), (kb, b) in zip(params.tensors().items(), rebuilt.tensors().items()):
            assert ka == kb
            np.testing.assert_array_equal(a, b)

    def test_tensor_names_follow_fused_gru_layout(self):
        """Every trained tensor is a whole model array, each GRU one holding
        both directions, and a model built from tensors holds them themselves."""
        _, params = tiny_model(tiny_config())
        arrays = [params.embedding.weights, params.gru.W_i, params.gru.W_h, params.gru.b,
                  params.capsule, params.dense_W, params.dense_b]
        tensors = params.tensors()
        assert list(tensors) == ["embedding/W_e", "gru/W_i", "gru/W_h", "gru/b", "capsule/W", "dense/W", "dense/b"]
        assert all(t is array for t, array in zip(tensors.values(), arrays, strict=True))
        rebuilt = ModelParams.from_tensors(tensors).tensors()
        assert all(rebuilt[name] is t for name, t in tensors.items())

    @pytest.mark.parametrize("cut", [lambda t: t[0], lambda t: t[0, 0], lambda t: t[..., None]],
                             ids=["one-direction", "1-d", "4-d"])
    def test_hidden_size_source_of_the_wrong_rank_fails_its_own_check(self, cut):
        """h is read from gru/W_h, so a W_h of the wrong rank is named, not
        gru/W_i, which the wrong h would also fail."""
        _, params = tiny_model(tiny_config())
        tensors = params.tensors()
        tensors["gru/W_h"] = cut(tensors["gru/W_h"])
        with pytest.raises(EmocapsError, match=r"^here: tensor gru/W_h has shape \("):
            ModelParams.from_tensors(tensors, "here")

    @pytest.mark.parametrize("seed", [0, 7])
    def test_init_draws_per_gate_blocks_in_order(self, seed):
        """The packed GRU tensors hold the per-gate Glorot draws W_ir, W_iz,
        W_in, W_hr, W_hz, W_hn, each with its own (rows, h) limit, in that
        order per direction; the capsule and dense draws follow unchanged.
        The benchmark's recorded losses and labels depend on these values."""
        cfg = tiny_config(seed=seed, embed_dim=5, hidden_dim=3)
        _, params = tiny_model(cfg)
        d, h = cfg.embed_dim, cfg.hidden_dim
        rng = np.random.default_rng([seed, 0])

        def glorot(rows, cols, *lead):
            limit = math.sqrt(6.0 / (rows + cols))
            return rng.uniform(-limit, limit, size=(*lead, rows, cols))

        gru = params.gru
        assert (gru.W_i.shape, gru.W_h.shape, gru.b.shape) == ((2, d, 3 * h), (2, h, 3 * h), (2, 2, 3 * h))
        for k in range(2):  # the forward direction's six draws, then the backward one's
            W_ir, W_iz, W_in = glorot(d, h), glorot(d, h), glorot(d, h)
            W_hr, W_hz, W_hn = glorot(h, h), glorot(h, h), glorot(h, h)
            np.testing.assert_array_equal(gru.W_i[k], np.concatenate([W_ir, W_iz, W_in], axis=1))
            np.testing.assert_array_equal(gru.W_h[k], np.concatenate([W_hr, W_hz, W_hn], axis=1))
        np.testing.assert_array_equal(gru.b, np.zeros((2, 2, 3 * h)))
        J, D = cfg.num_capsules, cfg.capsule_dim
        np.testing.assert_array_equal(params.capsule, glorot(2 * h, D, J))
        np.testing.assert_array_equal(params.dense_W, glorot(J * D, N_CLASSES))
        np.testing.assert_array_equal(params.dense_b, np.zeros(N_CLASSES))

    def test_init_model_deterministic(self):
        cfg = tiny_config()
        _, a = tiny_model(cfg)
        _, b = tiny_model(cfg)
        for ta, tb in zip(a.tensors().values(), b.tensors().values()):
            np.testing.assert_array_equal(ta, tb)

    def test_embedding_dimension_checked(self):
        cfg = tiny_config()
        vocab = Vocabulary.build([["alpha"]])
        table = build_embedding(vocab, {}, cfg.embed_dim + 1, cfg.seed)
        with pytest.raises(EmocapsError, match="embedding table is 9-dimensional, config says 8"):
            init_model(cfg, table)

    def test_config_validation(self):
        with pytest.raises(TypeError):  # the clip mode is no longer an option
            TrainConfig(clip_mode="nonsense")
        TrainConfig()
        TrainConfig(spatial_dropout=0.0, capsule_dropout=0.0, noise_std=0.0, patience=0, seed=0, batch_size=1)

    @pytest.mark.parametrize("name, value, message", RANGE_CASES, ids=[name for name, _, _ in RANGE_CASES])
    def test_out_of_range_value_rejected_when_built(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value, message", TYPE_CASES, ids=[f"{n}={v!r}" for n, v, _ in TYPE_CASES])
    def test_wrong_type_rejected_when_built(self, name, value, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("settings, named", [
        ({"hidden_dim": 10**18}, "hidden_dim 1000000000000000000"),
        ({"num_capsules": 10**10, "capsule_dim": 10**10}, "num_capsules 10000000000, hidden_dim 128, capsule_dim 10000000000"),
        ({"hidden_dim": 1, "num_capsules": 2**29, "capsule_dim": 2**29}, "num_capsules 536870912, capsule_dim 536870912"),
        ({"embed_dim": 10**18}, "embed_dim 1000000000000000000, hidden_dim 128"),
    ], ids=["gru/W_h", "capsule/W", "dense/W", "gru/W_i"])
    def test_weights_numpy_cannot_address_rejected_when_built(self, settings, named):
        """Each weight tensor's bytes are checked against sys.maxsize, numpy's
        limit, and the message names the settings that shape the tensor."""
        with pytest.raises(ValueError, match=f"^{re.escape(named)}: a weight tensor of shape .* is larger than numpy can address$"):
            TrainConfig(**settings)

    def test_largest_addressable_hidden_dim_is_accepted(self):
        """gru/W_h, (2, h, 3h) float64, is the largest tensor: 48 h**2 bytes."""
        h = math.isqrt(sys.maxsize // 48)
        assert TrainConfig(hidden_dim=h).hidden_dim == h
        with pytest.raises(ValueError, match=f"^hidden_dim {h + 1}: "):
            TrainConfig(hidden_dim=h + 1)

    def test_int_for_float_field_becomes_float(self):
        cfg = TrainConfig(learning_rate=1)
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        assert cfg == TrainConfig(learning_rate=1.0)

    def test_config_is_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = -1
        assert dataclasses.replace(cfg, seed=3) == TrainConfig(seed=3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["beta1", "beta2", "epsilon"])
    def test_adam_constants_are_not_options(self, name, value):
        with pytest.raises(TypeError):  # fixed at the paper's values, not fields
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["learning_rate", "clip_norm", "noise_std"])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})


class TestStep:
    @pytest.mark.parametrize("pad", [True, False], ids=["pad-slot", "no-pad-slot"])
    @pytest.mark.parametrize("clip_norm", [1e-3, 1e3], ids=["clipped", "unclipped"])
    def test_zeroes_pad_averages_clips_and_returns_the_norm(self, monkeypatch, pad, clip_norm):
        """`step` hands Adam the batch mean of the sums, the <pad> slot's
        row zeroed, scaled to `clip_norm` only when its norm exceeds it, and
        returns that norm before clipping."""
        cfg = tiny_config(clip_norm=clip_norm)
        _, params = tiny_model(cfg, words=("alpha", "beta", "gamma", "delta"))
        slots = np.array([PAD_ID, 2, 4] if pad else [2, 4, 5])
        model = dataclasses.replace(params, embedding=EmbeddingTable(weights=params.embedding.weights[slots]))
        rng = np.random.default_rng(6)
        sums = {k: rng.normal(size=t.shape) for k, t in model.tensors().items()}
        moments = [{k: np.zeros_like(t) for k, t in model.tensors().items()} for _ in range(2)]
        state = TrainState(slots=slots, model=model, adam=AdamState(*moments), examples=[], sums=sums,
                           best={k: t.copy() for k, t in model.tensors().items()})
        mean = {k: t * (1.0 / 5) for k, t in sums.items()}
        if pad:
            mean["embedding/W_e"][0] = 0.0
        seen = []
        real = training.adam_step

        def record(tensors, grads, *rest):  # Adam overwrites the gradients it is given
            seen.append({k: g.copy() for k, g in grads.items()})
            real(tensors, grads, *rest)

        monkeypatch.setattr(training, "adam_step", record)
        before = model.embedding.weights.copy()

        norm = training.step(state, 5, cfg)

        expected = math.sqrt(sum(float(np.sum(t * t)) for t in mean.values()))
        assert norm == pytest.approx(expected, rel=1e-12)
        scale = clip_norm / norm if norm > clip_norm else 1.0
        assert (scale < 1.0) == (clip_norm == 1e-3)
        (grads,) = seen
        for k, t in mean.items():
            np.testing.assert_allclose(grads[k], t * scale, rtol=1e-14, atol=0, err_msg=k)
        assert state.adam.t == 1
        assert (model.embedding.weights[0] == before[0]).all() == pad  # Adam moves the <pad> row by exactly 0.0
        assert not (model.embedding.weights[1:] == before[1:]).any()


def toy_setup(toy_examples, **overrides):
    cfg = tiny_config(
        embed_dim=12, hidden_dim=6, num_capsules=2, capsule_dim=2, **overrides
    )
    vocab = Vocabulary.build([text.split() for _, text in toy_examples])
    table = build_embedding(vocab, {}, cfg.embed_dim, cfg.seed)
    params = init_model(cfg, table)
    return cfg, vocab, params


class TestTrainLoop:
    def test_loss_decreases_and_history_schema(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=8)
        data = encode_examples(toy_examples, vocab)
        params, history = train(data, data, params, cfg)
        assert len(history) <= 8
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        for i, row in enumerate(history):
            assert row["epoch"] == i
            assert row["seconds"] == 0.0
            assert set(row) == {"epoch", "train_loss", "dev_macro_f1", "seconds"}

    def test_fixed_seed_reproduces_trajectory(self, toy_examples):
        runs = []
        for _ in range(2):
            cfg, vocab, params = toy_setup(toy_examples, max_epochs=3)
            data = encode_examples(toy_examples, vocab)
            params, history = train(data, data, params, cfg)
            runs.append((history, {k: t.copy() for k, t in params.tensors().items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])

    def test_patience_zero_stops_at_first_non_improvement(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=40, patience=0)
        data = encode_examples(toy_examples, vocab)
        _, history = train(data, data, params, cfg)
        scores = [row["dev_macro_f1"] for row in history]
        # every epoch but the last must improve the running best
        best = -1.0
        for score in scores[:-1]:
            assert score > best
            best = score
        if len(history) < cfg.max_epochs:
            assert scores[-1] <= best

    def test_best_dev_params_are_restored(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=6, patience=1)
        data = encode_examples(toy_examples, vocab)
        params, history = train(data, data, params, cfg)
        best = max(row["dev_macro_f1"] for row in history)
        assert dataset_macro_f1(data, params, cfg) == pytest.approx(best)

    def test_start_training_builds_the_whole_run(self, toy_examples):
        """Before its first step a run holds zero Adam moments, zero batch
        sums and a zero best snapshot for every trained tensor, in order,
        no two sharing memory with each other or with a trained tensor, and
        the training set re-encoded to trained-table rows."""
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        data[0] = ([PAD_ID] + data[0][0], data[0][1])
        run = start_training(data, data, params)
        tensors = run.model.tensors()
        buffers = (run.adam.m, run.adam.v, run.sums, run.best)
        assert all(list(named) == list(tensors) for named in buffers)
        for name, t in tensors.items():
            for buffer in (named[name] for named in buffers):
                assert buffer.shape == t.shape and buffer.dtype == t.dtype and not buffer.any(), name
        arrays = [*(a for named in buffers for a in named.values()), *tensors.values()]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
        assert run.adam.t == 0 and run.epoch == 0
        for (rows, gold), (ids, expected) in zip(run.examples, data, strict=True):
            np.testing.assert_array_equal(rows, np.searchsorted(run.slots, ids))
            assert gold == expected

    def test_run_buffers_are_rows_of_one_block(self, toy_examples):
        """Adam's `m` and `v`, the batch sums and the best snapshot are the
        four rows of one 2-D float64 block, in that order, and each row
        holds its views back to back in `tensors()` order."""
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        run = start_training(data, data, params)
        tensors = run.model.tensors()
        block = run.sums["embedding/W_e"].base
        n = sum(t.size for t in tensors.values())
        assert block.shape == (4, n) and block.dtype == np.float64 and block.flags.owndata
        address = block.__array_interface__["data"][0]
        for row, named in enumerate((run.adam.m, run.adam.v, run.sums, run.best)):
            offset = row * n
            for name, t in tensors.items():
                view = named[name]
                assert view.base is block and view.flags.c_contiguous, name
                assert view.__array_interface__["data"][0] == address + 8 * offset, name
                offset += t.size

    def test_best_snapshot_is_written_in_place(self, toy_examples):
        """Every epoch, improving or not, leaves `best` the same dict of the
        same arrays."""
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=4)
        data = encode_examples(toy_examples, vocab)
        run = start_training(data, data, params)
        best, arrays = run.best, dict(run.best)
        for _ in range(cfg.max_epochs):
            run_epoch(run, data, params, cfg)
            assert run.best is best and all(best[k] is a for k, a in arrays.items())

    def test_early_stopped_run_restores_its_best_epoch_bitwise(self, toy_examples):
        """A run that stops early, its last epoch not its best, ends with the
        trained tensors as they were after its best epoch, and the model's
        table holds the trained rows of that epoch."""
        cfg, vocab, params = toy_setup(toy_examples, spatial_dropout=0.2, capsule_dropout=0.2, noise_std=0.05,
                                       batch_size=8, max_epochs=6, patience=2)
        data = encode_examples(toy_examples, vocab)
        run = start_training(data, data, params)
        scores = []
        while run.epoch < cfg.max_epochs and run.since_best <= cfg.patience:
            scores.append(run_epoch(run, data, params, cfg)["dev_macro_f1"])
            if run.since_best == 0:
                recorded = {k: t.tobytes() for k, t in run.model.tensors().items()}
        assert len(scores) < cfg.max_epochs and scores[-1] < max(scores)
        finish_training(run, params)
        assert {k: t.tobytes() for k, t in run.model.tensors().items()} == recorded
        assert params.embedding.weights[run.slots].tobytes() == recorded["embedding/W_e"]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_deep_copied_state_resumes_bitwise(self, toy_examples, k):
        """A copy of the run and the model taken after epoch k, continued
        epoch by epoch, ends where one uninterrupted `train` call does. The
        run stops early, its last epoch not its best, so the restore runs."""
        def setup():
            cfg, vocab, params = toy_setup(toy_examples, spatial_dropout=0.2, capsule_dropout=0.2, noise_std=0.05,
                                           batch_size=8, max_epochs=6, patience=2)
            return cfg, encode_examples(toy_examples, vocab), params

        cfg, data, params = setup()
        params, history = train(data, data, params, cfg)
        scores = [row["dev_macro_f1"] for row in history]
        assert len(history) < cfg.max_epochs and scores[-1] < max(scores)

        cfg, data, start = setup()
        run = start_training(data, data, start)
        records = [run_epoch(run, data, start, cfg) for _ in range(k + 1)]
        copied, resumed = copy.deepcopy((run, start))
        assert copied.model.gru is resumed.gru and copied.model.capsule is resumed.capsule
        assert copied.model.dense_W is resumed.dense_W and copied.model.dense_b is resumed.dense_b
        # the copy shares no array with the run it was taken from
        for t in [*start.tensors().values(), *run.model.tensors().values(), *run.adam.m.values(), *run.adam.v.values()]:
            t[...] = np.nan
        while copied.epoch < cfg.max_epochs and copied.since_best <= cfg.patience:
            records.append(run_epoch(copied, data, resumed, cfg))
        finish_training(copied, resumed)

        assert [dict(row, seconds=0.0) for row in records] == history
        for name, t in params.tensors().items():
            assert resumed.tensors()[name].tobytes() == t.tobytes(), name

    def test_pad_row_never_learns(self, toy_examples):
        # every third tweet holds the padding id, so the <pad> slot trains
        # alongside the others; its gradient is zeroed, so its row and its
        # Adam moments stay exactly 0.0
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=3)
        data = encode_examples(toy_examples, vocab)
        data = [([0] + ids if i % 3 == 0 else ids, gold) for i, (ids, gold) in enumerate(data)]
        run = start_training(data, data, params)
        for _ in range(cfg.max_epochs):
            run_epoch(run, data, params, cfg)
        finish_training(run, params)
        zeros = np.zeros(cfg.embed_dim)
        assert params.embedding.weights[0].tobytes() == zeros.tobytes()
        state = run.adam
        assert state.t > 0
        slots = len({i for ids, _ in data for i in ids})
        for moments in (state.m, state.v):
            assert {k: t.shape for k, t in moments.items()} == {
                k: (slots, cfg.embed_dim) if k == "embedding/W_e" else t.shape for k, t in params.tensors().items()
            }
            assert moments["embedding/W_e"][0].tobytes() == zeros.tobytes()
            assert np.all(moments["embedding/W_e"][1:].any(axis=1))  # every other slot moved

    def test_injected_clock_lands_in_history(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=2)
        data = encode_examples(toy_examples, vocab)
        ticks = iter(range(100))
        _, history = train(data, data, params, cfg, clock=lambda: float(next(ticks)))
        assert all(row["seconds"] == 1.0 for row in history)

    def test_non_finite_gradient_stops_before_adam(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        params.capsule[0, 0, 0] = np.nan
        before = {k: t.copy() for k, t in params.tensors().items()}
        run = start_training(data, data, params)
        with pytest.raises(NumericError, match=r"^epoch 0, batch 0: gradient norm is not finite in "):
            run_epoch(run, data, params, cfg)
        for k, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[k])
        state = run.adam
        assert state.t == 0
        # Adam trains the training set's embedding rows as a table of their own
        assert state.m["embedding/W_e"].shape == (len({i for ids, _ in data for i in ids}), cfg.embed_dim)
        for k in state.m:
            assert np.all(state.m[k] == 0.0) and np.all(state.v[k] == 0.0)

    def test_non_finite_gradient_names_its_batch(self, toy_examples):
        # a poisoned embedding row reaches the gradient only in the batch of
        # the one example that holds it; earlier updates ran, that one did not
        cfg, vocab, params = toy_setup(toy_examples, batch_size=8)
        data = encode_examples(toy_examples, vocab)
        poisoned = len(vocab)
        params.embedding.weights = np.vstack([params.embedding.weights, np.full(cfg.embed_dim, np.nan)])
        victim = np.random.default_rng([cfg.seed, 1, 0]).permutation(len(data))[20]  # in batch 2
        ids, gold = data[victim]
        dev = list(data)
        data[victim] = ([poisoned] + ids[1:], gold)
        run = start_training(data, dev, params)
        with pytest.raises(NumericError, match=r"^epoch 0, batch 2: gradient norm is not finite in embedding/W_e"):
            run_epoch(run, dev, params, cfg)
        state = run.adam
        assert state.t == 2
        # the poisoned row is the largest training id, so the trained table's last
        assert len(state.m["embedding/W_e"]) == len({i for ids, _ in data for i in ids})
        # its moments exist from the start, and stayed zero
        assert np.all(state.m["embedding/W_e"][-1] == 0.0) and np.all(state.v["embedding/W_e"][-1] == 0.0)
        assert all(np.all(np.isfinite(m)) for m in state.m.values())

    @pytest.mark.parametrize("bad", [-1, None], ids=["negative", "past-end"])
    def test_out_of_range_id_raises_before_any_step(self, toy_examples, monkeypatch, bad):
        # the bad id sits in the last example of epoch 0's last batch
        cfg, vocab, params = toy_setup(toy_examples, batch_size=8)
        data = encode_examples(toy_examples, vocab)
        size = len(params.embedding.weights)
        bad = size if bad is None else bad
        victim = np.random.default_rng([cfg.seed, 1, 0]).permutation(len(data))[-1]
        ids, gold = data[victim]
        data[victim] = (ids + [bad], gold)
        before = {k: t.copy() for k, t in params.tensors().items()}
        calls = []
        monkeypatch.setattr(training, "forward_full", lambda *a, **k: calls.append(a))
        with pytest.raises(EmocapsError, match=rf"^train dataset holds ids outside \[0, {size}\): \[{bad}\]$"):
            train(data, data, params, cfg)
        assert calls == []
        for k, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[k])

    def test_out_of_range_dev_id_raises_before_any_step(self, toy_examples, monkeypatch):
        cfg, vocab, params = toy_setup(toy_examples, batch_size=8)
        data = encode_examples(toy_examples, vocab)
        size = len(params.embedding.weights)
        dev = list(data)
        ids, gold = dev[3]
        dev[3] = (ids + [size, -2], gold)
        before = {k: t.copy() for k, t in params.tensors().items()}
        calls = []
        step = training.adam_step
        monkeypatch.setattr(training, "adam_step", lambda *a: calls.append(a) or step(*a))
        with pytest.raises(EmocapsError, match=rf"^dev dataset holds ids outside \[0, {size}\): \[-2, {size}\]$"):
            train(data, dev, params, cfg)
        assert calls == []
        for k, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[k])

    @pytest.mark.parametrize("name", ["train", "dev"])
    def test_empty_tweet_raises_before_any_step(self, toy_examples, monkeypatch, name):
        # a training tweet in epoch 0's last batch, so earlier batches would step first
        cfg, vocab, params = toy_setup(toy_examples, batch_size=8)
        data = encode_examples(toy_examples, vocab)
        dev = list(data)
        victim = np.random.default_rng([cfg.seed, 1, 0]).permutation(len(data))[-1] if name == "train" else 3
        target = data if name == "train" else dev
        target[victim] = ([], target[victim][1])
        before = {k: t.copy() for k, t in params.tensors().items()}
        calls = []
        step = training.adam_step
        monkeypatch.setattr(training, "adam_step", lambda *a: calls.append(a) or step(*a))
        with pytest.raises(EmocapsError, match=rf"^{name} dataset example {victim} is empty: "):
            train(data, dev, params, cfg)
        assert calls == []
        for k, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[k])

    def test_empty_dataset_rejected(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        with pytest.raises(EmocapsError, match="train dataset is empty"):
            train([], data, params, cfg)
        with pytest.raises(EmocapsError, match="dev dataset is empty"):
            train(data, [], params, cfg)

    def test_bad_label_rejected(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        with pytest.raises(EmocapsError, match="label 6 outside 0..5 in train dataset"):
            train(data + [([2], 6)], data, params, cfg)

    @pytest.mark.parametrize("label", [2.5, True, None, "joy", np.float64(1.0)])
    @pytest.mark.parametrize("name", ["train", "dev"])
    def test_label_that_is_not_an_integer_raises_before_any_step(self, toy_examples, monkeypatch, name, label):
        """A label 2.5 used to train a whole epoch and then fail in
        `confusion`, True trained as class 1 and None escaped as a bare
        TypeError."""
        cfg, vocab, params = toy_setup(toy_examples, batch_size=8)
        data = encode_examples(toy_examples, vocab)
        dev = list(data)
        target = data if name == "train" else dev
        target[5] = (target[5][0], label)
        monkeypatch.setattr(training, "forward_full", lambda *a, **k: pytest.fail("forward_full ran"))
        with pytest.raises(EmocapsError, match=rf"^label {re.escape(repr(label))} is not an integer in {name} dataset example 5$"):
            train(data, dev, params, cfg)

    @pytest.mark.parametrize("name", ["train", "dev"])
    def test_id_that_is_not_an_integer_raises_before_any_step(self, toy_examples, monkeypatch, name):
        cfg, vocab, params = toy_setup(toy_examples, batch_size=8)
        data = encode_examples(toy_examples, vocab)
        dev = list(data)
        target = data if name == "train" else dev
        target[7] = (target[7][0] + [2.0], target[7][1])
        monkeypatch.setattr(training, "forward_full", lambda *a, **k: pytest.fail("forward_full ran"))
        with pytest.raises(EmocapsError, match=rf"^{name} dataset example 7 holds 2\.0, not an integer id$"):
            train(data, dev, params, cfg)

    def test_numpy_integer_ids_and_labels_train_as_ints(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=1)
        data = encode_examples(toy_examples, vocab)
        numpy_data = [(np.asarray(ids, dtype=np.int32), np.int64(gold)) for ids, gold in data]
        start = copy.deepcopy(params)
        _, history = train(data, data, params, cfg)
        _, numpy_history = train(numpy_data, numpy_data, start, cfg)
        assert numpy_history == history
        for name, t in start.tensors().items():
            np.testing.assert_array_equal(t, params.tensors()[name])

    def test_full_gradient_with_example_helper(self):
        cfg = tiny_config()
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha", "beta", "gamma"])

        def per_direction(tensors):
            """Each GRU tensor as its two direction views, so that each
            direction gets 40 sampled entries of its own."""
            views = {}
            for name, t in tensors.items():
                views.update({f"{name}[{k}]": t[k] for k in range(2)} if name.startswith("gru/") else {name: t})
            return views

        def loss_and_grad():
            loss, grads = chunk_loss_and_grads([ids], [2], params, cfg)
            return loss, per_direction(grads)

        rng = np.random.default_rng(13)
        err = finite_diff_check(loss_and_grad, per_direction(params.tensors()), sample=40, rng=rng)
        assert err < 1e-6


def sparse_vocab_examples(seed, count, vocab_size):
    """Tweets of 4-9 ids from the whole vocabulary; every seventh starts
    with the padding id, whose gradient training drops."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        ids = rng.integers(1, vocab_size, size=rng.integers(4, 10)).tolist()
        if i % 7 == 0:
            ids[0] = 0
        out.append((ids, int(rng.integers(N_CLASSES))))
    return out


class TestRowSparseTraining:
    """Training the training set's embedding rows as a table of their own
    (accumulation, clipping, Adam, write-back and best-epoch restore) gives
    dense training's result. Only the clip norm's summation order differs,
    so every tensor agrees to 1e-10."""

    VOCAB = 3000

    def test_table_covered_in_epoch_zero_matches_dense_oracle(self):
        # 40 tweets over 30 ids give every row but the padding one a
        # gradient in epoch 0
        vocab = 30
        cfg = tiny_config(batch_size=8, clip_norm=0.5, learning_rate=0.01, seed=3, spatial_dropout=0.2, noise_std=0.05)
        start = np.random.default_rng([3, 9]).uniform(-0.05, 0.05, size=(vocab, cfg.embed_dim))
        start[0] = 0.0
        train_set = sparse_vocab_examples([3, 1], 40, vocab)
        dev_set = sparse_vocab_examples([3, 2], 24, vocab)
        assert {i for ids, _ in train_set for i in ids} == set(range(vocab))

        sparse, history = train(train_set, dev_set, init_model(cfg, EmbeddingTable(start.copy())), cfg)
        dense, dense_history, _ = dense_train(train_set, dev_set, init_model(cfg, EmbeddingTable(start.copy())), cfg)

        for row, oracle in zip(history, dense_history, strict=True):
            assert row["dev_macro_f1"] == oracle["dev_macro_f1"]
            assert abs(row["train_loss"] - oracle["train_loss"]) <= 1e-10
        for name, t in sparse.tensors().items():
            np.testing.assert_allclose(t, dense.tensors()[name], rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("seed, restores", [(22, True), (28, False)], ids=["last-epoch-worse", "last-epoch-best"])
    def test_matches_dense_oracle(self, seed, restores):
        cfg = tiny_config(batch_size=8, clip_norm=0.5, learning_rate=0.01, seed=seed,
                          spatial_dropout=0.2, capsule_dropout=0.2, noise_std=0.05)
        start = np.random.default_rng([seed, 9]).uniform(-0.05, 0.05, size=(self.VOCAB, cfg.embed_dim))
        start[0] = 0.0
        train_set = sparse_vocab_examples([seed, 1], 40, self.VOCAB)
        dev_set = sparse_vocab_examples([seed, 2], 24, self.VOCAB)

        sparse, history = train(train_set, dev_set, init_model(cfg, EmbeddingTable(start.copy())), cfg)
        dense, dense_history, norms = dense_train(train_set, dev_set, init_model(cfg, EmbeddingTable(start.copy())), cfg)

        assert len(history) == cfg.max_epochs == 3
        assert 0 < sum(n > cfg.clip_norm for n in norms) < len(norms)  # clipping active, not always
        scores = [row["dev_macro_f1"] for row in history]
        assert (scores[-1] <= max(scores[:-1])) == restores
        for row, oracle in zip(history, dense_history):
            assert row["dev_macro_f1"] == oracle["dev_macro_f1"]
            assert abs(row["train_loss"] - oracle["train_loss"]) <= 1e-10
        for name, t in sparse.tensors().items():
            np.testing.assert_allclose(t, dense.tensors()[name], rtol=0, atol=1e-10, err_msg=name)
        touched = sorted({i for ids, _ in train_set for i in ids} - {0})
        untouched = np.setdiff1d(np.arange(self.VOCAB), touched)
        assert untouched.size > self.VOCAB // 2
        np.testing.assert_array_equal(sparse.embedding.weights[untouched], start[untouched])
        assert not np.array_equal(sparse.embedding.weights[touched], start[touched])

    @pytest.mark.parametrize("seed", [22, 28])
    def test_step_norms_match_dense_oracle(self, monkeypatch, seed):
        """The norm `step` returns, before clipping, is the dense oracle's
        norm of the whole table's gradient at every update."""
        cfg = tiny_config(batch_size=8, clip_norm=0.5, learning_rate=0.01, seed=seed,
                          spatial_dropout=0.2, capsule_dropout=0.2, noise_std=0.05)
        start = np.random.default_rng([seed, 9]).uniform(-0.05, 0.05, size=(self.VOCAB, cfg.embed_dim))
        start[0] = 0.0
        train_set = sparse_vocab_examples([seed, 1], 40, self.VOCAB)
        dev_set = sparse_vocab_examples([seed, 2], 24, self.VOCAB)
        norms = []
        real = training.step
        monkeypatch.setattr(training, "step", lambda *a: norms.append(real(*a)) or norms[-1])

        train(train_set, dev_set, init_model(cfg, EmbeddingTable(start.copy())), cfg)
        _, _, dense_norms = dense_train(train_set, dev_set, init_model(cfg, EmbeddingTable(start.copy())), cfg)

        assert len(norms) == len(dense_norms) == 15
        np.testing.assert_allclose(norms, dense_norms, rtol=1e-10, atol=0)
