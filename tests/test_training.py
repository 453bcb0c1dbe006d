import math

import numpy as np
import pytest

import emocaps.training as training
from emocaps.embeddings import EmbeddingTable, Vocabulary, build_embedding
from emocaps.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptySequence,
    IdOutOfRange,
    LabelOutOfRange,
    NumericError,
    ShapeMismatch,
)
from emocaps.nn import N_CLASSES, dense_forward, softmax
from emocaps.training import (
    AdamState,
    ModelParams,
    TrainConfig,
    adam_step,
    backward_full,
    clip_gradients,
    cross_entropy_loss,
    dataset_macro_f1,
    forward_full,
    gaussian_noise,
    init_adam,
    init_model,
    spatial_dropout,
    train,
)
from gradcheck import chunk_loss_and_grads, finite_diff_check
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

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            cross_entropy_loss(np.full((2, N_CLASSES), 1 / 6), [0, 6])
        with pytest.raises(ShapeMismatch):
            cross_entropy_loss(np.full((2, N_CLASSES), 1 / 6), [0])


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
        clip_gradients(grads, clip_norm)
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
        state = init_adam(params.tensors())
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
        np.testing.assert_array_equal(grad, [10.0, -10.0])  # the caller's gradient is left alone

    def test_five_steps_match_scalar_transcription(self):
        cfg = TrainConfig(learning_rate=0.1)
        theta = {"t": np.asarray([1.0])}
        state = AdamState(m={"t": np.zeros(1)}, v={"t": np.zeros(1)})
        expected = scalar_adam_transcription(1.0, lr=0.1, steps=5)
        for step in range(5):
            adam_step(theta, {"t": 2.0 * theta["t"]}, state, cfg)
            assert abs(theta["t"][0] - expected[step]) < 1e-12

    def test_init_adam_keeps_no_embedding_rows(self):
        """Every tensor's moments are zeros of its shape, a table of no rows
        included."""
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        tensors = dict(params.tensors(), **{"embedding/W_e": np.empty((0, cfg.embed_dim))})
        state = init_adam(tensors)
        assert list(state.m) == list(state.v) == list(tensors) and state.t == 0
        for name, t in tensors.items():
            assert state.m[name].shape == state.v[name].shape == t.shape
            assert np.all(state.m[name] == 0.0) and np.all(state.v[name] == 0.0)

    def test_row_grad_mismatch_rejected(self):
        cfg = TrainConfig()

        def setup():
            theta = {"t": np.zeros((4, 2))}
            return theta, AdamState(m={"t": np.zeros((4, 2))}, v={"t": np.zeros((4, 2))})

        theta, state = setup()
        adam_step(theta, {"t": np.ones((4, 2))}, state, cfg)
        assert np.all(theta["t"] != 0.0)
        for grad in [
            {"t": np.ones((4, 3))},  # wrong width
            {"t": np.ones((2, 2))},  # fewer rows than the tensor
            {"other": np.ones((4, 2))},  # wrong key
        ]:
            theta, state = setup()
            with pytest.raises(ShapeMismatch):
                adam_step(theta, grad, state, cfg)
            assert state.t == 0 and np.all(theta["t"] == 0.0)

    def test_key_mismatch_rejected(self):
        cfg = TrainConfig()
        theta = {"t": np.zeros(2)}
        state = AdamState(m={"t": np.zeros(2)}, v={"t": np.zeros(2)})
        with pytest.raises(ShapeMismatch):
            adam_step(theta, {"other": np.zeros(2)}, state, cfg)
        with pytest.raises(ShapeMismatch):
            adam_step(theta, {"t": np.zeros(3)}, state, cfg)


class TestRegularizers:
    def test_noise_eval_and_zero_std_are_identity(self):
        x = np.ones(5)
        assert gaussian_noise(x, 0.0, np.random.default_rng(0)) is x

    def test_noise_sample_statistics(self):
        rng = np.random.default_rng(2)
        out = gaussian_noise(np.zeros(1_000_000), 0.1, rng)
        assert abs(out.std() - 0.1) < 0.002
        assert abs(out.mean()) < 0.001

    def test_dropout_identity_cases(self):
        # rate 0: the input itself, a ones mask, and nothing drawn
        for x in (np.ones((1, 6)), np.ones((2, 3))):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            out, mask = spatial_dropout(x, 0.0, rng)
            assert out is x
            np.testing.assert_array_equal(mask, np.ones((1, x.shape[1])))
            assert rng.bit_generator.state == state

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
        out, mask = spatial_dropout(np.ones((1, 1000)), 0.25, rng)
        scale = 1.0 / 0.75
        assert mask.shape == (1, 1000)
        assert set(np.round(np.unique(mask), 12)) == {0.0, round(scale, 12)}
        np.testing.assert_array_equal(out, mask)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(4)
        out, _ = spatial_dropout(np.ones((1, 100_000)), 0.25, rng)
        assert abs(out.mean() - 1.0) < 0.01

    def test_spatial_dropout_kills_whole_channels(self):
        rng = np.random.default_rng(5)
        X = np.ones((7, 40))
        out, mask = spatial_dropout(X, 0.3, rng)
        assert mask.shape == (1, 40)
        dropped = np.flatnonzero(mask[0] == 0.0)
        assert dropped.size > 0
        assert np.all(out[:, dropped] == 0.0)
        kept = np.flatnonzero(mask[0] != 0.0)
        np.testing.assert_allclose(out[:, kept], 1.0 / 0.7, rtol=1e-12)

    def test_spatial_dropout_preserves_expectation(self):
        rng = np.random.default_rng(6)
        out, _ = spatial_dropout(np.ones((10, 10_000)), 0.3, rng)
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

    def test_empty_sequence_rejected(self):
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        with pytest.raises(EmptySequence):
            forward_full([], params, cfg)
        with pytest.raises(EmptySequence):
            forward_full([[1], []], params, cfg)

    def test_training_pass_needs_one_stream_per_sequence(self):
        cfg = tiny_config()
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha"])
        with pytest.raises(ValueError, match="one random stream per sequence"):
            forward_full([ids, ids], params, cfg, rngs=[np.random.default_rng(0)])

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
        with pytest.raises(EmptySequence, match=r"^sequence 2 is empty"):
            training.predict_dataset([[1, 2], [3], [], [1]], params, cfg)
        assert calls == []

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
        np.testing.assert_array_equal(probs, softmax(dense_forward(cache.c, params.dense)))

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


class TestModelParams:
    def test_tensor_round_trip(self):
        cfg = tiny_config()
        _, params = tiny_model(cfg)
        rebuilt = ModelParams.from_tensors(params.tensors())
        for (ka, a), (kb, b) in zip(params.tensors().items(), rebuilt.tensors().items()):
            assert ka == kb
            np.testing.assert_array_equal(a, b)

    def test_tensor_names_follow_fused_gru_layout(self):
        _, params = tiny_model(tiny_config())
        assert list(params.tensors()) == [
            "embedding/W_e",
            "gru_fwd/W_i", "gru_fwd/W_h", "gru_fwd/b",
            "gru_bwd/W_i", "gru_bwd/W_h", "gru_bwd/b",
            "capsule/W", "dense/W", "dense/b",
        ]

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
        np.testing.assert_array_equal(params.dense.W, glorot(J * D, N_CLASSES))
        np.testing.assert_array_equal(params.dense.b, np.zeros(N_CLASSES))

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
        with pytest.raises(DimensionMismatch):
            init_model(cfg, table)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(spatial_dropout=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=0.0).validate()
        with pytest.raises(TypeError):  # the clip mode is no longer an option
            TrainConfig(clip_mode="nonsense")
        TrainConfig().validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["learning_rate", "clip_norm", "epsilon", "noise_std"])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value}).validate()


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

    def test_pad_row_never_learns(self, toy_examples, monkeypatch):
        # every third tweet holds the padding id, so the <pad> slot trains
        # alongside the others; its gradient is zeroed, so its row and its
        # Adam moments stay exactly 0.0
        cfg, vocab, params = toy_setup(toy_examples, max_epochs=3)
        data = encode_examples(toy_examples, vocab)
        data = [([0] + ids if i % 3 == 0 else ids, gold) for i, (ids, gold) in enumerate(data)]
        states = []
        monkeypatch.setattr(training, "init_adam", lambda *a: states.append(init_adam(*a)) or states[-1])
        params, _ = train(data, data, params, cfg)
        zeros = np.zeros(cfg.embed_dim)
        assert params.embedding.weights[0].tobytes() == zeros.tobytes()
        (state,) = states
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

    def test_non_finite_gradient_stops_before_adam(self, toy_examples, monkeypatch):
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        params.capsule[0, 0, 0] = np.nan
        before = {k: t.copy() for k, t in params.tensors().items()}
        states = []
        monkeypatch.setattr(training, "init_adam", lambda *a: states.append(init_adam(*a)) or states[-1])
        with pytest.raises(NumericError, match=r"^epoch 0, batch 0: gradient norm is not finite in "):
            train(data, data, params, cfg)
        for k, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[k])
        (state,) = states
        assert state.t == 0
        # Adam trains the training set's embedding rows as a table of their own
        assert state.m["embedding/W_e"].shape == (len({i for ids, _ in data for i in ids}), cfg.embed_dim)
        for k in state.m:
            assert np.all(state.m[k] == 0.0) and np.all(state.v[k] == 0.0)

    def test_non_finite_gradient_names_its_batch(self, toy_examples, monkeypatch):
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
        states = []
        monkeypatch.setattr(training, "init_adam", lambda *a: states.append(init_adam(*a)) or states[-1])
        with pytest.raises(NumericError, match=r"^epoch 0, batch 2: gradient norm is not finite in embedding/W_e"):
            train(data, dev, params, cfg)
        (state,) = states
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
        with pytest.raises(IdOutOfRange, match=rf"^train dataset holds ids outside \[0, {size}\): \[{bad}\]$"):
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
        with pytest.raises(IdOutOfRange, match=rf"^dev dataset holds ids outside \[0, {size}\): \[-2, {size}\]$"):
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
        with pytest.raises(EmptySequence, match=rf"^{name} dataset example {victim} is empty: "):
            train(data, dev, params, cfg)
        assert calls == []
        for k, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[k])

    def test_empty_dataset_rejected(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        with pytest.raises(EmptyDataset):
            train([], data, params, cfg)
        with pytest.raises(EmptyDataset):
            train(data, [], params, cfg)

    def test_bad_label_rejected(self, toy_examples):
        cfg, vocab, params = toy_setup(toy_examples)
        data = encode_examples(toy_examples, vocab)
        with pytest.raises(LabelOutOfRange):
            train(data + [([2], 6)], data, params, cfg)

    def test_full_gradient_with_example_helper(self):
        cfg = tiny_config()
        vocab, params = tiny_model(cfg)
        ids = vocab.encode(["alpha", "beta", "gamma"])

        def loss_and_grad():
            return chunk_loss_and_grads([ids], [2], params, cfg)

        rng = np.random.default_rng(13)
        err = finite_diff_check(loss_and_grad, params.tensors(), sample=40, rng=rng)
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
