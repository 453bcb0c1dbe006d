import math

import mpmath
import numpy as np
import pytest

import gru_oracle as oracle
from gradcheck import finite_diff_check
from emocaps.nn import (
    N_CLASSES,
    GruParams,
    bigru_backward,
    bigru_forward,
    glorot_uniform,
    init_gru,
    predict_class,
    softmax,
    softmax_backward,
)

# Fused and per-gate GRUs sum the same terms in a different order; in float64
# they must agree to this absolute tolerance.
ORACLE_ATOL = 1e-10


def random_gru(d_in, d_h, seed, scale=0.5) -> GruParams:
    """Two random directions, from cells seeded `seed` and `seed + 1000`."""
    return oracle.pack(oracle.random_cell(d_in, d_h, seed, scale), oracle.random_cell(d_in, d_h, seed + 1000, scale))


def zero_gru(d_in, d_h) -> GruParams:
    return GruParams(W_i=np.zeros((2, d_in, 3 * d_h)), W_h=np.zeros((2, d_h, 3 * d_h)), b=np.zeros((2, 2, 3 * d_h)))


def copy_through_gru(d_in, d_h, seed) -> GruParams:
    """Random weights, except that input feature 0 alone drives the update
    gate: x[0] = -1 gives z = sig(-30) ~ 0, x[0] = +1 gives z ~ 1."""
    p = random_gru(d_in, d_h, seed)
    p.W_i[..., d_h : 2 * d_h] = 0.0
    p.W_i[:, 0, d_h : 2 * d_h] = 30.0
    p.W_h[..., d_h : 2 * d_h] = 0.0
    p.b[..., d_h : 2 * d_h] = 0.0
    return p


def forward_direction(X, p):
    """The forward direction of a one-sequence Bi-GRU: (H (T, h), the
    chunk's cache)."""
    H, cache = bigru_forward(X, [len(X)], p, keep_cache=True)
    return H[:, : p.W_h.shape[1]], cache


def gru_tensors(p: GruParams) -> dict:
    """The stacked tensors of both directions by name."""
    return {"W_i": p.W_i, "W_h": p.W_h, "b": p.b}


def gru_loss_and_grad(X, R, p):
    """Loss sum(H * R) of the forward direction and its gradients, keyed
    like `gru_params(X, p)`."""

    def loss_and_grad():
        H, cache = forward_direction(X, p)
        gX, grads = bigru_backward(np.concatenate([R, np.zeros_like(R)], axis=1), cache, p)
        return float(np.sum(H * R)), dict(gru_tensors(grads), X=gX)

    return loss_and_grad


def gru_params(X, p):
    return dict(gru_tensors(p), X=X)


class TestActivations:
    def test_sigmoid_matches_definition(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(oracle.sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)

    def test_sigmoid_extreme_inputs(self):
        out = oracle.sigmoid(np.asarray([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_bigru_gates_saturate_exactly(self):
        """The Bi-GRU step computes its gates as 0.5 tanh(0.5 x) + 0.5 in
        place. With reset and update biases of +-1000 every gate it keeps
        is exactly 0 or 1, and its states are finite and match the
        per-gate oracle's."""
        rng = np.random.default_rng(8)
        cells = [oracle.random_cell(4, 6, seed) for seed in (8, 9)]
        for cell in cells:
            cell.b_ir[:] = rng.choice([-1000.0, 1000.0], size=6)
            cell.b_iz[:] = rng.choice([-1000.0, 1000.0], size=6)
        X = rng.normal(size=(5, 4))
        H, cache = bigru_forward(X, [5], oracle.pack(*cells), keep_cache=True)
        assert set(np.unique(cache.rz).tolist()) == {0.0, 1.0}
        assert np.all(np.isfinite(H))
        np.testing.assert_allclose(H, oracle.bigru_forward(X, *cells)[0], rtol=0, atol=ORACLE_ATOL)

    def test_softmax_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(6)), np.full(6, 1 / 6), rtol=1e-15)

    def test_softmax_saturation(self):
        f = softmax(np.asarray([50.0, 0, 0, 0, 0, 0]))
        # the exact value rounds to 1.0 in float64; check the claim at high
        # precision and the computed value at float resolution
        mpmath.mp.dps = 50
        exact = mpmath.e**50 / (mpmath.e**50 + 5)
        assert exact > 1 - mpmath.mpf("1e-20")
        assert f[0] >= 1.0 - 1e-15

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = softmax(rng.normal(scale=5, size=6))
            assert abs(f.sum() - 1.0) < 1e-12

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.normal(scale=3, size=6)
            np.testing.assert_allclose(softmax(y), softmax(y + 123.456), atol=1e-12)

    def test_softmax_high_precision_oracle(self):
        mpmath.mp.dps = 50
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.uniform(-50, 50, size=6)
            exps = [mpmath.e ** mpmath.mpf(v) for v in y]
            total = sum(exps)
            expected = np.asarray([float(e / total) for e in exps])
            np.testing.assert_allclose(softmax(y), expected, atol=1e-12)

    def test_row_softmax_matches_vector_softmax(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 5))
        out = softmax(logits)
        for i in range(4):
            np.testing.assert_array_equal(out[i], softmax(logits[i]))

    def test_softmax_normalizes_each_row(self):
        logits = np.asarray([[0.0, 0.0], [5.0, -1.0], [-30.0, 2.0]])
        out = softmax(logits)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), rtol=1e-15)
        np.testing.assert_allclose(out[0], [0.5, 0.5], rtol=1e-15)

    def test_row_softmax_backward_finite_difference(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 4))
        R = rng.normal(size=(3, 4))

        def loss(lg):
            return float(np.sum(softmax(lg) * R))

        probs = softmax(logits)
        grad = softmax_backward(R, probs)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                saved = logits[i, j]
                logits[i, j] = saved + eps
                up = loss(logits)
                logits[i, j] = saved - eps
                down = loss(logits)
                logits[i, j] = saved
                assert abs((up - down) / (2 * eps) - grad[i, j]) < 1e-8

    def test_glorot_range_and_determinism(self):
        a = glorot_uniform((20, 30), np.random.default_rng(9))
        b = glorot_uniform((20, 30), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        limit = math.sqrt(6.0 / 50.0)
        assert np.all(np.abs(a) <= limit)

    def test_glorot_fans_from_last_two_axes(self):
        """A (J, d, o) stack, as of the capsule transforms, is one draw with
        the limit of its (d, o) matrices; the model's weights depend on it."""
        J, d, o = 4, 6, 3
        limit = math.sqrt(6.0 / (d + o))
        expected = np.random.default_rng(31).uniform(-limit, limit, (J, d, o))
        np.testing.assert_array_equal(glorot_uniform((J, d, o), np.random.default_rng(31)), expected)


class TestGruCell:
    def test_zero_params_zero_state(self):
        H, _ = forward_direction(np.asarray([[5.0, -1.0, 2.0]]), zero_gru(3, 2))
        np.testing.assert_array_equal(H, np.zeros((1, 2)))

    def test_update_gate_saturation_keeps_state(self):
        p = copy_through_gru(3, 2, seed=1)
        X = np.asarray([[-1.0, 0.5, 2.0], [1.0, -3.0, 1.0]])
        H, _ = forward_direction(X, p)
        assert np.min(np.abs(H[0])) > 1e-3  # z ~ 0: a state worth keeping
        assert np.max(np.abs(H[1] - H[0])) < 1e-8  # z -> 1, so h_t -> h_prev

    def test_scalar_transcription_oracle(self):
        # 1-dim cell, all weights 1, all biases 0, inputs 1 then -0.5
        p = GruParams(W_i=np.ones((2, 1, 3)), W_h=np.ones((2, 1, 3)), b=np.zeros((2, 2, 3)))
        H, _ = forward_direction(np.asarray([[1.0], [-0.5]]), p)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = 0.0
        for x in (1.0, -0.5):
            r = sig(x * 1.0 + h * 1.0)
            z = sig(x * 1.0 + h * 1.0)
            n = math.tanh(x * 1.0 + r * (h * 1.0))
            h = (1.0 - z) * n + z * h
        assert abs(H[1, 0] - h) < 1e-15

    def test_backward_zero_gradient(self):
        p = random_gru(3, 2, seed=5)
        X = np.ones((6, 3))
        _, cache = bigru_forward(X, [3, 1, 2], p, keep_cache=True)
        gX, grads = bigru_backward(np.zeros((6, 4)), cache, p)
        assert np.all(gX == 0.0)
        for t in gru_tensors(grads).values():
            assert np.all(t == 0.0)

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(6)
        for trial in range(3):
            d_in, d_h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            T = int(rng.integers(1, 5))
            p = random_gru(d_in, d_h, seed=100 + trial)
            X = rng.normal(size=(T, d_in))
            R = rng.normal(size=(T, d_h))
            assert finite_diff_check(gru_loss_and_grad(X, R, p), gru_params(X, p)) < 1e-5


class TestOracle:
    """The fused Bi-GRU against the step-by-step per-gate cell in
    tests/gru_oracle.py, at float64 agreement ORACLE_ATOL."""

    @pytest.mark.parametrize("T", [1, 2, 3, 8, 25])
    def test_fused_matches_per_gate_oracle(self, T):
        rng = np.random.default_rng(40 + T)
        d_in, d_h = 7, 5
        c_fwd = oracle.random_cell(d_in, d_h, seed=41)
        c_bwd = oracle.random_cell(d_in, d_h, seed=42)
        X = rng.normal(size=(T, d_in))
        R = rng.normal(size=(T, 2 * d_h))

        H_ref, steps = oracle.bigru_forward(X, c_fwd, c_bwd)
        gX_ref, gf_ref, gb_ref = oracle.bigru_backward(R, steps, c_fwd, c_bwd)
        p = oracle.pack(c_fwd, c_bwd)
        H, cache = bigru_forward(X, [T], p, keep_cache=True)
        gX, grads = bigru_backward(R, cache, p)

        np.testing.assert_allclose(H, H_ref, rtol=0, atol=ORACLE_ATOL)
        np.testing.assert_allclose(gX, gX_ref, rtol=0, atol=ORACLE_ATOL)
        for k, ref in enumerate((gf_ref, gb_ref)):
            got_cells = oracle.unpack(grads, k).tensors()
            for name, expected in ref.tensors().items():
                np.testing.assert_allclose(got_cells[name], expected, rtol=0, atol=ORACLE_ATOL, err_msg=f"{k} {name}")

    def test_fused_matches_oracle_at_paper_dims(self):
        rng = np.random.default_rng(43)
        p = init_gru(300, 128, rng)
        p.b[:] = rng.normal(scale=0.1, size=p.b.shape)
        X = rng.normal(size=(12, 300))
        R = rng.normal(size=(12, 256))
        c_fwd, c_bwd = oracle.unpack(p, 0), oracle.unpack(p, 1)
        H_ref, steps = oracle.bigru_forward(X, c_fwd, c_bwd)
        gX_ref, gf_ref, gb_ref = oracle.bigru_backward(R, steps, c_fwd, c_bwd)
        H, cache = bigru_forward(X, [12], p, keep_cache=True)
        gX, grads = bigru_backward(R, cache, p)
        np.testing.assert_allclose(H, H_ref, rtol=0, atol=ORACLE_ATOL)
        np.testing.assert_allclose(gX, gX_ref, rtol=0, atol=ORACLE_ATOL)
        np.testing.assert_allclose(grads.W_h, oracle.pack(gf_ref, gb_ref).W_h, rtol=0, atol=ORACLE_ATOL)

    def test_pack_unpack_round_trip(self):
        cells = oracle.random_cell(4, 3, seed=44), oracle.random_cell(4, 3, seed=45)
        packed = oracle.pack(*cells)
        assert (packed.W_i.shape, packed.W_h.shape, packed.b.shape) == ((2, 4, 9), (2, 3, 9), (2, 2, 9))
        for k, cell in enumerate(cells):
            again = oracle.unpack(packed, k)
            for name, t in cell.tensors().items():
                np.testing.assert_array_equal(getattr(again, name), t)

    def test_oracle_cell_finite_difference(self):
        rng = np.random.default_rng(45)
        for trial in range(3):
            d_in, d_h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            p = oracle.random_cell(d_in, d_h, seed=200 + trial)
            x = rng.normal(size=d_in)
            h0 = rng.normal(size=d_h)
            R = rng.normal(size=d_h)

            def loss_and_grad():
                h, cache = oracle.cell_forward(x, h0, p)
                grads = oracle.zeros_like_cell(p)
                gx, gh = oracle.cell_backward(R, cache, p, grads)
                out = dict(grads.tensors())
                out["x"] = gx
                out["h0"] = gh
                return float(h @ R), out

            params = dict(p.tensors())
            params["x"] = x
            params["h0"] = h0
            assert finite_diff_check(loss_and_grad, params) < 1e-5


class TestBigru:
    def test_single_position_concatenates_both_directions(self):
        c_fwd = oracle.random_cell(3, 2, seed=7)
        c_bwd = oracle.random_cell(3, 2, seed=8)
        X = np.random.default_rng(0).normal(size=(1, 3))
        H, _ = bigru_forward(X, [1], oracle.pack(c_fwd, c_bwd))
        hf, _ = oracle.cell_forward(X[0], np.zeros(2), c_fwd)
        hb, _ = oracle.cell_forward(X[0], np.zeros(2), c_bwd)
        np.testing.assert_allclose(H[0], np.concatenate([hf, hb]), rtol=1e-15)

    def test_zero_params_zero_output(self):
        H, _ = bigru_forward(np.ones((4, 3)), [4], zero_gru(3, 2))
        np.testing.assert_array_equal(H, np.zeros((4, 4)))

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(9)
        c_fwd = oracle.random_cell(3, 2, seed=10)
        c_bwd = oracle.random_cell(3, 2, seed=11)
        for n in (1, 2, 5):
            X = rng.normal(size=(n, 3))
            H, _ = bigru_forward(X, [n], oracle.pack(c_fwd, c_bwd))
            H_rev, _ = bigru_forward(X[::-1].copy(), [n], oracle.pack(c_bwd, c_fwd))
            swapped = np.concatenate([H[:, 2:], H[:, :2]], axis=1)
            np.testing.assert_allclose(H_rev, swapped[::-1], atol=1e-12)

    def test_backward_finite_difference(self):
        """Every entry of both direction slices of W_i, W_h and b, and of X."""
        rng = np.random.default_rng(12)
        p = oracle.pack(oracle.random_cell(4, 3, seed=13), oracle.random_cell(4, 3, seed=14))
        for T in (1, 5):
            X = rng.normal(size=(T, 4))
            R = rng.normal(size=(T, 6))

            def loss_and_grad():
                H, cache = bigru_forward(X, [T], p, keep_cache=True)
                gX, grads = bigru_backward(R, cache, p)
                return float(np.sum(H * R)), dict(gru_tensors(grads), X=gX)

            _, grads = loss_and_grad()
            nonzero = ("W_i", "b", "W_h") if T > 1 else ("W_i", "b")  # a one-step W_h gradient is 0
            for name in nonzero:
                assert np.any(grads[name][0] != 0.0) and np.any(grads[name][1] != 0.0), name
            assert finite_diff_check(loss_and_grad, gru_params(X, p)) < 1e-5


class TestDenseSoftmax:
    """softmax over the head's logits c @ W + b."""

    def test_uniform_logits_give_uniform_probs(self):
        W, b = np.zeros((4, N_CLASSES)), np.zeros(N_CLASSES)
        logits = np.ones(4) @ W + b
        probs = softmax(logits)
        np.testing.assert_allclose(probs, np.full(N_CLASSES, 1 / 6), rtol=1e-15)
        np.testing.assert_array_equal(logits, np.zeros(N_CLASSES))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        W, b = glorot_uniform((8, N_CLASSES), rng), rng.normal(size=N_CLASSES)
        for _ in range(20):
            probs = softmax(rng.normal(scale=3, size=8) @ W + b)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0) and np.all(probs < 1)


class TestPredictClass:
    def test_highest_probability_wins(self):
        assert predict_class(np.asarray([0.9, 0.02, 0.02, 0.02, 0.02, 0.02])) == 0

    def test_exact_tie_takes_lower_index(self):
        assert predict_class(np.asarray([0.1, 0.4, 0.4, 0.1, 0.0, 0.0])) == 1

    def test_invariant_under_monotone_logit_transforms(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            y = rng.normal(scale=2, size=6)
            base = predict_class(softmax(y))
            assert predict_class(softmax(2.5 * y)) == base
            assert predict_class(softmax(y + 7.0)) == base


class TestFiniteDiffCheck:
    def test_linear_loss_is_exact(self):
        theta = np.random.default_rng(19).normal(size=5)

        def loss_and_grad():
            return float(theta.sum()), {"theta": np.ones_like(theta)}

        assert finite_diff_check(loss_and_grad, {"theta": theta}) < 1e-10

    def test_quadratic_at_one(self):
        theta = np.ones(3)

        def loss_and_grad():
            return float(np.sum(theta**2)), {"theta": 2.0 * theta}

        assert finite_diff_check(loss_and_grad, {"theta": theta}) < 1e-9

    def test_sampling_uses_rng(self):
        theta = np.random.default_rng(20).normal(size=100)

        def loss_and_grad():
            return float(np.sum(theta**2)), {"theta": 2.0 * theta}

        err = finite_diff_check(
            loss_and_grad, {"theta": theta}, sample=10, rng=np.random.default_rng(21)
        )
        assert err < 1e-8


class TestFiniteness:
    def test_forward_ops_stay_finite_on_bounded_inputs(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            x = rng.uniform(-10, 10, size=4)
            assert np.all(np.isfinite(oracle.sigmoid(x)))
            assert np.all(np.isfinite(softmax(rng.uniform(-10, 10, size=6))))
            p = random_gru(4, 3, seed=int(rng.integers(1000)), scale=2.0)
            h, _ = forward_direction(x[None, :], p)
            assert np.all(np.isfinite(h))
            H, _ = bigru_forward(rng.uniform(-10, 10, size=(3, 4)), [3], p)
            assert np.all(np.isfinite(H))
