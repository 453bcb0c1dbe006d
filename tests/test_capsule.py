import math

import numpy as np
import pytest

from emocaps.capsule import (
    capsule_layer,
    capsule_layer_backward,
    dynamic_routing,
    routing_backward,
    squash,
    squash_backward,
)
from emocaps.nn import glorot_uniform, softmax_backward
from gradcheck import finite_diff_check
import eval_oracle


def random_capsule(J, d_in, d_out, seed, scale=0.6):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=(J, d_in, d_out))


def route(U, r):
    """dynamic_routing over one sequence's (n, J, d_out) predictions; returns
    V (J, d_out) and every iteration's couplings as an (n, J) array."""
    V, state = dynamic_routing(U.transpose(1, 0, 2)[None], r)
    return V[0], [C[0].T for C, _, _ in state]


def layer(H, p, iterations):
    """capsule_layer over one sequence: its (J * d_out,) output and the cache."""
    flat, cache = capsule_layer(H, [len(H)], p, iterations)
    return flat[0], cache


# --- straight-line oracle: each routing iteration written out explicitly ---


def _softmax_rows(B):
    out = []
    for row in B:
        mx = max(row)
        exps = [math.exp(v - mx) for v in row]
        total = sum(exps)
        out.append([e / total for e in exps])
    return out


def _squash_list(s):
    sq = sum(v * v for v in s)
    if sq == 0.0:
        return [0.0] * len(s)
    scale = math.sqrt(sq) / (1.0 + sq)
    return [v * scale for v in s]


def _coupled_sums(C, U, n, J, d):
    return [
        [sum(C[i][j] * U[i][j][o] for i in range(n)) for o in range(d)] for j in range(J)
    ]


def _agreement(B, U, V, n, J, d):
    return [
        [B[i][j] + sum(U[i][j][o] * V[j][o] for o in range(d)) for j in range(J)]
        for i in range(n)
    ]


def oracle_routing(U_array, r):
    """Transcription of the routing procedure with the iterations unrolled."""
    assert r in (1, 2, 3)
    n, J, d = U_array.shape
    U = U_array.tolist()
    B = [[0.0] * J for _ in range(n)]

    C = _softmax_rows(B)
    S = _coupled_sums(C, U, n, J, d)
    V = [_squash_list(s) for s in S]
    if r == 1:
        return np.asarray(V)
    B = _agreement(B, U, V, n, J, d)

    C = _softmax_rows(B)
    S = _coupled_sums(C, U, n, J, d)
    V = [_squash_list(s) for s in S]
    if r == 2:
        return np.asarray(V)
    B = _agreement(B, U, V, n, J, d)

    C = _softmax_rows(B)
    S = _coupled_sums(C, U, n, J, d)
    V = [_squash_list(s) for s in S]
    return np.asarray(V)


class TestSquash:
    def test_zero_vector(self):
        np.testing.assert_array_equal(squash(np.zeros(4)), np.zeros(4))

    def test_unit_norm_halves(self):
        s = np.asarray([0.6, 0.8, 0.0])
        np.testing.assert_allclose(squash(s), s / 2, atol=1e-15)

    def test_norm_ten(self):
        s = np.zeros(3)
        s[0] = 10.0
        v = squash(s)
        assert abs(np.linalg.norm(v) - 100.0 / 101.0) < 1e-12

    def test_random_vectors_shrink_and_keep_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = rng.normal(scale=rng.uniform(0.01, 5.0), size=4)
            v = squash(s)
            norm = np.linalg.norm(v)
            assert 0.0 <= norm < 1.0
            cos = float(v @ s) / (norm * np.linalg.norm(s))
            assert abs(cos - 1.0) < 1e-12

    def test_rowwise_application(self):
        rng = np.random.default_rng(1)
        S = rng.normal(size=(5, 3))
        V = squash(S)
        for j in range(5):
            np.testing.assert_allclose(V[j], squash(S[j]), rtol=1e-15)

    def test_backward_zero_at_origin(self):
        g = squash_backward(np.ones((2, 3)), np.zeros((2, 3)))
        np.testing.assert_array_equal(g, np.zeros((2, 3)))

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(3, 4))
        R = rng.normal(size=(3, 4))

        def loss_and_grad():
            return float(np.sum(squash(S) * R)), {"S": squash_backward(R, S)}

        assert finite_diff_check(loss_and_grad, {"S": S}) < 1e-7


class TestPredictVectors:
    """The prediction vectors capsule_layer routes: cache.U[0, j, i] = h_i W_j."""

    def test_identity_transforms(self):
        H = np.random.default_rng(3).normal(size=(4, 3))
        p = np.stack([np.eye(3), np.eye(3)])
        _, cache = layer(H, p, iterations=1)
        for j in range(2):
            np.testing.assert_array_equal(cache.U[0, j], H)

    def test_zero_input(self):
        p = random_capsule(2, 3, 2, seed=4)
        _, cache = layer(np.zeros((5, 3)), p, iterations=1)
        np.testing.assert_array_equal(cache.U, np.zeros((1, 2, 5, 2)))

    def test_matches_per_position_matmul(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(3, 4))
        p = random_capsule(2, 4, 2, seed=6)
        _, cache = layer(H, p, iterations=1)
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(cache.U[0, j, i], H[i] @ p[j], rtol=1e-12)


class TestDynamicRouting:
    def test_single_capsule_ignores_iteration_count(self):
        rng = np.random.default_rng(8)
        U = rng.normal(size=(4, 1, 3))
        expected = squash(U[:, 0, :].sum(axis=0))
        for r in (1, 2, 3, 4):
            V, couplings = route(U, r)
            np.testing.assert_allclose(V[0], expected, atol=1e-12)
            for C in couplings:
                np.testing.assert_array_equal(C, np.ones((4, 1)))

    def test_identical_predictions_keep_uniform_couplings(self):
        rng = np.random.default_rng(9)
        per_position = rng.normal(size=(3, 1, 2))
        U = np.repeat(per_position, 4, axis=1)  # same prediction for every j
        _, couplings = route(U, 3)
        for C in couplings:
            np.testing.assert_allclose(C, np.full((3, 4), 0.25), atol=1e-12)

    def test_couplings_form_distributions_every_iteration(self):
        rng = np.random.default_rng(10)
        U = rng.normal(scale=2.0, size=(5, 3, 4))
        _, couplings = route(U, 4)
        assert len(couplings) == 4
        for C in couplings:
            assert np.all(C >= 0.0)
            np.testing.assert_allclose(C.sum(axis=1), np.ones(5), atol=1e-12)

    def test_matches_straight_line_oracle(self):
        U = np.random.default_rng(12).normal(size=(3, 2, 2))
        V, _ = route(U, 3)
        np.testing.assert_allclose(V, oracle_routing(U, 3), atol=1e-12)

    def test_oracle_sweep(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 4):
            for J in (1, 2, 3):
                for r in (1, 2, 3):
                    U = rng.normal(size=(n, J, 2))
                    V, _ = route(U, r)
                    np.testing.assert_allclose(V, oracle_routing(U, r), atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        U = rng.normal(size=(5, 3, 2))
        V, _ = route(U, 3)
        perm = rng.permutation(5)
        V_perm, _ = route(U[perm], 3)
        np.testing.assert_allclose(V_perm, V, atol=1e-12)

    def test_single_iteration_is_uniform_average(self):
        rng = np.random.default_rng(15)
        U = rng.normal(size=(4, 3, 2))
        V, _ = route(U, 1)
        np.testing.assert_allclose(V, squash(U.sum(axis=0) / 3.0), atol=1e-14)

    def test_zero_padding_leaves_each_sequence_exact(self):
        rng = np.random.default_rng(11)
        long, short = rng.normal(size=(5, 3, 2)), rng.normal(size=(2, 3, 2))
        blocks = np.zeros((2, 3, 5, 2))
        blocks[0] = long.transpose(1, 0, 2)
        blocks[1, :, :2] = short.transpose(1, 0, 2)
        for r in (1, 3):
            V, _ = dynamic_routing(blocks, r)
            np.testing.assert_allclose(V[0], route(long, r)[0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(V[1], route(short, r)[0], rtol=0, atol=1e-15)


class TestRoutingBackward:
    def test_zero_gradient_propagates_zeros(self):
        rng = np.random.default_rng(16)
        U = rng.normal(size=(1, 2, 3, 2))
        _, state = dynamic_routing(U, 3)
        grad_U = routing_backward(np.zeros((1, 2, 2)), U, state)
        np.testing.assert_array_equal(grad_U, np.zeros_like(U))

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_finite_difference(self, r):
        rng = np.random.default_rng(17 + r)
        U = rng.normal(size=(1, 2, 3, 2))
        R = rng.normal(size=(1, 2, 2))

        def loss_and_grad():
            V, state = dynamic_routing(U, r)
            return float(np.sum(V * R)), {"U": routing_backward(R, U, state)}

        assert finite_diff_check(loss_and_grad, {"U": U}) < 1e-6

    def test_capsule_backward_returns_both_gradients(self):
        rng = np.random.default_rng(21)
        H = rng.normal(size=(3, 4))
        p = random_capsule(2, 4, 2, seed=22)
        R = rng.normal(size=(2, 2))

        def loss_and_grad():
            flat, cache = layer(H, p, iterations=2)
            V = flat.reshape(2, 2)
            grad_H, grad_W = capsule_layer_backward(R.reshape(1, -1), cache, p)
            return float(np.sum(V * R)), {"W": grad_W, "H": grad_H}

        assert finite_diff_check(loss_and_grad, {"W": p, "H": H}) < 1e-6


# --- einsum oracle: the contractions as the capsule layer first wrote them ---


def einsum_predict_vectors(H, W):
    return np.einsum("nd,jdo->njo", H, W)


def einsum_grad_W(H, grad_U):
    return np.einsum("nd,njo->jdo", H, grad_U)


def einsum_grad_H(grad_U, W):
    return np.einsum("njo,jdo->nd", grad_U, W)


def einsum_routing_backward(grad_V, U, states):
    """grad_U (n, J, d_out) of one sequence, given `eval_oracle.dynamic_routing` states."""
    grad_U = np.zeros_like(U)
    dB_carry = np.zeros(U.shape[:2])
    for k in range(len(states) - 1, -1, -1):
        C, S, V = states[k]
        dV = np.einsum("nj,njo->jo", dB_carry, U)
        if k == len(states) - 1:
            dV = dV + grad_V
        grad_U += np.einsum("nj,jo->njo", dB_carry, V)
        dS = squash_backward(dV, S)
        grad_U += np.einsum("nj,jo->njo", C, dS)
        dC = np.einsum("njo,jo->nj", U, dS)
        dB_carry = softmax_backward(dC, C) + dB_carry
    return grad_U


# (lengths of one chunk's sequences, routing iterations); the id names the
# lengths, and the iteration count when it is not 3
CHUNKS = [([1], 3)] + [(lengths, r) for lengths in ([12], [50], [5, 9, 13, 20]) for r in (1, 3, 5)]


class TestMatmulContractions:
    """The batched matmuls of the capsule layer reorder the sums of the
    einsum contractions they replaced; float64 results agree to 1e-10."""

    TOL = 1e-10

    @pytest.mark.parametrize(
        "lengths,r", CHUNKS, ids=["-".join(map(str, n)) + ("" if r == 3 else f"-r{r}") for n, r in CHUNKS]
    )
    @pytest.mark.parametrize("J,d_in,d_out", [(16, 256, 32), (3, 5, 2)], ids=["paper", "small"])
    def test_match_einsum_oracle(self, lengths, r, J, d_in, d_out):
        rng = np.random.default_rng([sum(lengths), r])
        p = glorot_uniform((J, d_in, d_out), rng)
        H = rng.uniform(-1.0, 1.0, size=(sum(lengths), d_in))  # Bi-GRU outputs lie in (-1, 1)
        grad_flat = rng.normal(size=(len(lengths), J * d_out))

        flat, cache = capsule_layer(H, lengths, p, iterations=r)
        blocks, state = cache.U, cache.state  # the backward frees both
        assert blocks.flags.c_contiguous
        grad_H, grad_W = capsule_layer_backward(grad_flat, cache, p)
        grad_U = routing_backward(grad_flat.reshape(-1, J, d_out), blocks, state)
        assert grad_W.shape == p.shape and grad_H.shape == H.shape
        expected_W = np.zeros_like(p)
        start = 0
        for b, n in enumerate(lengths):
            H_b = H[start : start + n]
            U = einsum_predict_vectors(H_b, p)
            np.testing.assert_allclose(blocks[b, :, :n], U.transpose(1, 0, 2), rtol=0, atol=self.TOL)
            states = eval_oracle.dynamic_routing(U, r)
            np.testing.assert_allclose(flat[b], states[-1][2].reshape(-1), rtol=0, atol=self.TOL)
            expected_U = einsum_routing_backward(grad_flat[b].reshape(J, d_out), U, states)
            np.testing.assert_allclose(grad_U[b, :, :n].transpose(1, 0, 2), expected_U, rtol=0, atol=self.TOL)
            np.testing.assert_allclose(
                grad_H[start : start + n], einsum_grad_H(expected_U, p), rtol=0, atol=self.TOL
            )
            expected_W += einsum_grad_W(H_b, expected_U)
            start += n
        np.testing.assert_allclose(grad_W, expected_W, rtol=0, atol=self.TOL)


class TestCapsuleLayer:
    def test_full_configuration_shapes(self):
        p = glorot_uniform((16, 256, 32), np.random.default_rng(23))
        H = np.random.default_rng(24).normal(size=(7, 256))
        flat, _ = capsule_layer(H, [7], p, iterations=2)
        assert flat.shape == (1, 512)

    def test_zero_input_zero_output(self):
        p = random_capsule(3, 4, 2, seed=25)
        flat, _ = layer(np.zeros((5, 4)), p, iterations=3)
        np.testing.assert_array_equal(flat, np.zeros(6))

    def test_composition_of_oracles(self):
        rng = np.random.default_rng(26)
        H = rng.normal(size=(3, 4))
        p = random_capsule(2, 4, 2, seed=27)
        flat, _ = layer(H, p, iterations=3)
        U = np.empty((3, 2, 2))
        for i in range(3):
            for j in range(2):
                U[i, j] = H[i] @ p[j]
        np.testing.assert_allclose(flat, oracle_routing(U, 3).reshape(-1), atol=1e-12)

    @pytest.mark.parametrize("n,J,d_out,r", [(1, 1, 1, 1), (2, 3, 2, 2), (4, 3, 3, 3)])
    def test_layer_gradient_check(self, n, J, d_out, r):
        rng = np.random.default_rng(28 + n)
        H = rng.normal(size=(n, 5))
        p = random_capsule(J, 5, d_out, seed=29 + n)
        R = rng.normal(size=J * d_out)

        def loss_and_grad():
            flat, cache = layer(H, p, iterations=r)
            grad_H, grad_W = capsule_layer_backward(R[None], cache, p)
            return float(flat @ R), {"W": grad_W, "H": grad_H}

        assert finite_diff_check(loss_and_grad, {"W": p, "H": H}) < 1e-4

    @pytest.mark.parametrize("lengths", [[3, 1, 5], [4, 4], [1]])
    def test_chunk_matches_each_sequence_alone(self, lengths):
        rng = np.random.default_rng(32)
        p = random_capsule(3, 4, 2, seed=33)
        H = rng.normal(size=(sum(lengths), 4))
        R = rng.normal(size=(len(lengths), 6))
        flat, cache = capsule_layer(H, lengths, p, iterations=3)
        grad_H, grad_W = capsule_layer_backward(R, cache, p)
        assert cache.H is H
        starts = np.cumsum(lengths) - lengths
        alone_W = np.zeros_like(grad_W)
        for b, (start, n) in enumerate(zip(starts, lengths)):
            one, one_cache = layer(H[start : start + n], p, iterations=3)
            np.testing.assert_allclose(flat[b], one, rtol=0, atol=1e-14)
            g_H, g_W = capsule_layer_backward(R[b][None], one_cache, p)
            np.testing.assert_allclose(grad_H[start : start + n], g_H, rtol=0, atol=1e-13)
            alone_W += g_W
        np.testing.assert_allclose(grad_W, alone_W, rtol=0, atol=1e-13)

