import json
import math

import numpy as np
import pytest

from ltlnav.nets import (
    AdamState, MlpSpec, adam_init, adam_step, backward, categorical_logp,
    categorical_logp_grad, forward, forward_tape, gaussian_logp,
    gaussian_logp_grad, head_from_json, head_to_json, init_params,
    mean_action, n_params, sample_categorical, sample_gaussian, softmax,
    unpack,
)


def random_spec(rng, head):
    in_dim = int(rng.integers(2, 6))
    hidden = tuple(int(rng.integers(3, 8))
                   for _ in range(int(rng.integers(1, 3))))
    out = 1 if head in ("scalar", "nonneg") else int(rng.integers(2, 5))
    return MlpSpec(in_dim, hidden, head, out)


def objective(spec, params, x, d_out):
    out = forward(spec, params, x)
    if spec.head == "categorical":
        return float((d_out * out).sum())
    if spec.head == "gaussian":
        mean, log_std = out
        d_mean, d_log_std = d_out
        return float((d_mean * mean).sum() + (d_log_std * log_std).sum())
    return float((d_out * out).sum())


def fd_grad(spec, params, x, d_out, h=1e-5):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (objective(spec, up, x, d_out)
                   - objective(spec, dn, x, d_out)) / (2 * h)
    return grad


class TestSpec:
    def test_param_count(self):
        spec = MlpSpec(5, (8, 7), "categorical", 3)
        assert n_params(spec) == (8 * 5 + 8) + (7 * 8 + 7) + (3 * 7 + 3)
        g = MlpSpec(5, (8,), "gaussian", 2)
        assert n_params(g) == (8 * 5 + 8) + (2 * 8 + 2) + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(4, (8,), "softmax", 2)
        with pytest.raises(ValueError):
            MlpSpec(4, (8,), "scalar", 3)
        with pytest.raises(ValueError):
            MlpSpec(0, (8,), "scalar", 1)


class TestInit:
    def test_shapes_and_values(self):
        spec = MlpSpec(6, (8, 8), "gaussian", 2)
        params = init_params(spec, np.random.default_rng(0))
        assert params.shape == (n_params(spec),)
        # log_std tail initialized to -0.5
        assert np.array_equal(params[-2:], [-0.5, -0.5])

    def test_hidden_weights_orthogonal(self):
        spec = MlpSpec(8, (8,), "scalar", 1)
        params = init_params(spec, np.random.default_rng(1))
        w = params[:64].reshape(8, 8)
        assert np.allclose(w @ w.T, np.eye(8), atol=1e-10)
        # biases zero
        assert np.array_equal(params[64:72], np.zeros(8))

    def test_policy_output_layer_small(self):
        spec = MlpSpec(6, (8,), "categorical", 4)
        params = init_params(spec, np.random.default_rng(2))
        w_out = params[8 * 6 + 8:8 * 6 + 8 + 4 * 8].reshape(4, 8)
        assert np.all(np.abs(w_out) <= 0.011)
        assert np.linalg.norm(w_out) > 0

    def test_deterministic(self):
        spec = MlpSpec(5, (7,), "nonneg", 1)
        a = init_params(spec, np.random.default_rng(3))
        b = init_params(spec, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestForward:
    def test_zero_params_zero_logits(self):
        spec = MlpSpec(4, (5,), "categorical", 3)
        out = forward(spec, np.zeros(n_params(spec)), np.ones((1, 4)))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_softplus_of_zero(self):
        spec = MlpSpec(4, (5,), "nonneg", 1)
        out = forward(spec, np.zeros(n_params(spec)), np.ones((1, 4)))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(math.log(2))

    def test_nonneg_head_nonnegative(self):
        rng = np.random.default_rng(4)
        spec = MlpSpec(6, (8, 8), "nonneg", 1)
        params = rng.standard_normal(n_params(spec)) * 3
        xs = rng.standard_normal((200, 6)) * 5
        assert np.all(forward(spec, params, xs) >= 0)

    def test_matches_independent_recompute(self):
        rng = np.random.default_rng(5)
        spec = MlpSpec(5, (7, 6), "categorical", 3)
        params = rng.standard_normal(n_params(spec))
        x = rng.standard_normal(5)
        # independent unpack: consume the flat vector front to back
        rest = params
        h = x
        for o, i in [(7, 5), (6, 7)]:
            w, rest = rest[:o * i].reshape(o, i), rest[o * i:]
            b, rest = rest[:o], rest[o:]
            h = np.tanh(w @ h + b)
        w, rest = rest[:3 * 6].reshape(3, 6), rest[3 * 6:]
        b = rest[:3]
        assert np.allclose(forward(spec, params, x[None])[0], w @ h + b,
                           atol=1e-12)

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(6)
        spec = MlpSpec(4, (6,), "scalar", 1)
        params = rng.standard_normal(n_params(spec))
        xs = rng.standard_normal((5, 4))
        batch = forward(spec, params, xs)
        singles = [forward(spec, params, x[None])[0] for x in xs]
        assert np.allclose(batch, singles, atol=0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        spec = MlpSpec(6, (8, 8), "gaussian", 2)
        params = rng.standard_normal(n_params(spec))
        x = rng.standard_normal((1, 6))
        m1, s1 = forward(spec, params, x)
        m2, s2 = forward(spec, params, x)
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)

    def test_dimension_mismatch(self):
        spec = MlpSpec(4, (5,), "scalar", 1)
        for x in (np.ones((1, 5)), np.ones(4), np.ones((1, 1, 4))):
            with pytest.raises(ValueError):
                forward(spec, np.zeros(n_params(spec)), x)

    @pytest.mark.parametrize("head", ["categorical", "gaussian", "scalar"])
    def test_unpacked_layers_give_the_same_bits(self, head):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, head)
        params = rng.standard_normal(n_params(spec))
        layers = unpack(spec, params)
        for x in (rng.standard_normal((1, spec.in_dim)),
                  rng.standard_normal((6, spec.in_dim))):
            want, got = forward(spec, params, x), forward(spec, layers, x)
            for a, b in zip(*((want, got) if head == "gaussian"
                              else ((want,), (got,)))):
                assert np.array_equal(a, b)

    def test_stacked_heads_match_each_head(self):
        # one row per head, each through its own output transform, equal
        # bit for bit to running the heads one by one, single or batched
        # (a single row and a batch row may differ: gemv against gemm)
        rng = np.random.default_rng(10)
        specs = tuple(MlpSpec(5, (7, 6), head)
                      for head in ("scalar", "nonneg", "scalar"))
        params = [rng.standard_normal(n_params(s)) for s in specs]
        layers = unpack(specs, params)
        xs = rng.standard_normal((8, 5))
        batch = forward(specs, layers, xs)
        assert batch.shape == (3, 8)
        for k, (s, p) in enumerate(zip(specs, params)):
            assert np.array_equal(batch[k], forward(s, p, xs))
            for x in xs[:, None]:
                single = forward(specs, layers, x)
                assert single.shape == (3, 1)
                assert np.array_equal(single[k], forward(s, p, x))

    def test_only_same_shaped_value_heads_stack(self):
        a = MlpSpec(5, (7,), "scalar")
        for other in (MlpSpec(5, (6,), "scalar"), MlpSpec(4, (7,), "scalar"),
                      MlpSpec(5, (7, 7), "nonneg")):
            with pytest.raises(ValueError, match="differ in shape"):
                unpack((a, other), [np.zeros(n_params(a)),
                                    np.zeros(n_params(other))])
        policy = MlpSpec(5, (7,), "categorical", 1)
        with pytest.raises(ValueError, match="only scalar and nonneg"):
            unpack((a, policy), [np.zeros(n_params(a))] * 2)


class TestBackward:
    def test_gradient_check_100_probes(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for head in ("categorical", "gaussian", "scalar", "nonneg"):
            for _ in range(25):
                spec = random_spec(rng, head)
                params = rng.standard_normal(n_params(spec)) * 0.7
                batch = int(rng.integers(1, 4))
                x = rng.standard_normal((batch, spec.in_dim))
                if head == "gaussian":
                    d_out = (rng.standard_normal((batch, spec.out_dim)),
                             rng.standard_normal(spec.out_dim))
                elif head == "categorical":
                    d_out = rng.standard_normal((batch, spec.out_dim))
                else:
                    d_out = rng.standard_normal(batch)
                _, tape = forward_tape(spec, params, x)
                got = backward(spec, tape, d_out)
                want = fd_grad(spec, params, x, d_out)
                rel = np.abs(got - want) / np.maximum(
                    1e-6, np.maximum(np.abs(got), np.abs(want)))
                worst = max(worst, float(rel.max()))
        assert worst < 1e-4


class TestAdam:
    def test_zero_grad_is_identity(self):
        p = np.array([1.0, -2.0, 0.5])
        st = adam_init(3)
        assert np.array_equal(adam_step(p, np.zeros(3), st), p)

    def test_first_step_hand_computed(self):
        p = np.array([1.0])
        g = np.array([0.5])
        st = adam_init(1)
        new = adam_step(p, g, st, lr=0.1)
        # t=1: m_hat = g, v_hat = g^2 -> step = lr*g/(|g|+eps)
        want = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert new[0] == pytest.approx(want, abs=1e-15)
        assert st.t == 1
        assert st.m[0] == pytest.approx(0.05)
        assert st.v[0] == pytest.approx(0.001 * 0.25)

    def test_two_steps_match_reference_formula(self):
        rng = np.random.default_rng(10)
        p = rng.standard_normal(4)
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        st = adam_init(4)
        p1 = adam_step(p, g1, st, lr=1e-3)
        p2 = adam_step(p1, g2, st, lr=1e-3)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        m_hat = m / (1 - 0.9 ** 2)
        v_hat = v / (1 - 0.999 ** 2)
        want = p1 - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p2, want, atol=1e-15)


class TestDistributions:
    def test_categorical_logp_matches_log_softmax(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal(5) * 3
        ref = np.log(np.exp(logits) / np.exp(logits).sum())
        for a in range(5):
            assert categorical_logp(logits, a) == pytest.approx(ref[a])

    def test_categorical_grad_closed_form(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal(4)
        h = 1e-6
        for a in range(4):
            got = categorical_logp_grad(logits, a)
            for i in range(4):
                up, dn = logits.copy(), logits.copy()
                up[i] += h
                dn[i] -= h
                fd = (categorical_logp(up, a) - categorical_logp(dn, a)) / (2 * h)
                assert got[i] == pytest.approx(fd, abs=1e-7)

    def test_categorical_sampling_frequencies(self):
        rng = np.random.default_rng(13)
        logits = np.log(np.array([0.6, 0.3, 0.1]))
        counts = np.zeros(3)
        for _ in range(20_000):
            a, logp = sample_categorical(logits, rng)
            counts[a] += 1
            assert logp == pytest.approx(float(categorical_logp(logits, a)))
        assert np.allclose(counts / 20_000, [0.6, 0.3, 0.1], atol=0.02)

    def test_gaussian_logp_matches_scipy(self):
        from scipy.stats import norm
        rng = np.random.default_rng(14)
        mean = rng.standard_normal(3)
        log_std = rng.standard_normal(3) * 0.3
        a = rng.standard_normal(3)
        want = norm.logpdf(a, loc=mean, scale=np.exp(log_std)).sum()
        assert gaussian_logp(mean, log_std, a) == pytest.approx(want)

    def test_gaussian_grad_closed_form(self):
        rng = np.random.default_rng(15)
        mean = rng.standard_normal(2)
        log_std = rng.standard_normal(2) * 0.2
        a = rng.standard_normal(2)
        d_mean, d_ls = gaussian_logp_grad(mean, log_std, a)
        h = 1e-6
        for i in range(2):
            up, dn = mean.copy(), mean.copy()
            up[i] += h
            dn[i] -= h
            fd = (gaussian_logp(up, log_std, a)
                  - gaussian_logp(dn, log_std, a)) / (2 * h)
            assert d_mean[i] == pytest.approx(fd, abs=1e-6)
            up, dn = log_std.copy(), log_std.copy()
            up[i] += h
            dn[i] -= h
            fd = (gaussian_logp(mean, up, a)
                  - gaussian_logp(mean, dn, a)) / (2 * h)
            assert d_ls[i] == pytest.approx(fd, abs=1e-6)

    def test_gaussian_sample_logp_consistent(self):
        rng = np.random.default_rng(16)
        mean = np.array([0.5, -1.0])
        log_std = np.array([-0.5, 0.1])
        a, logp = sample_gaussian(mean, log_std, rng)
        assert logp == pytest.approx(float(gaussian_logp(mean, log_std, a)))

    def test_mean_actions(self):
        spec_c = MlpSpec(3, (4,), "categorical", 3)
        logits = np.array([[0.1, 2.0, -1.0], [3.0, 3.0, 0.0]])
        assert mean_action(spec_c, logits) == [1, 0]
        spec_g = MlpSpec(3, (4,), "gaussian", 2)
        out = (np.array([[0.3, -0.2]]), np.array([-0.5, -0.5]))
        assert np.array_equal(mean_action(spec_g, out), [[0.3, -0.2]])

    def test_softmax_normalizes(self):
        rng = np.random.default_rng(17)
        p = softmax(rng.standard_normal((6, 4)) * 10)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)


class TestCheckpoint:
    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(18)
        for head in ("categorical", "gaussian", "scalar", "nonneg"):
            spec = random_spec(rng, head)
            params = init_params(spec, rng)
            blob = json.dumps(head_to_json(spec, params))
            assert list(json.loads(blob)["spec"]) == [
                "in_dim", "hidden", "head", "out_dim"]
            spec2, params2 = head_from_json(json.loads(blob))
            assert spec2 == spec
            assert np.array_equal(params, params2)

    def test_bad_param_count_rejected(self):
        spec = MlpSpec(4, (5,), "scalar", 1)
        blob = head_to_json(spec, np.zeros(n_params(spec)))
        blob["params"] = blob["params"][:-1]
        with pytest.raises(ValueError):
            head_from_json(blob)
