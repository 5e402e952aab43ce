import hashlib
import json
import math

import numpy as np
import pytest

from ltlnav.nets import (
    AdamState, MlpSpec, adam_init, adam_step, backward, categorical_cdf,
    categorical_logp, categorical_logp_grad, forward, forward_tape,
    gaussian_logp, gaussian_logp_grad, head_from_json, head_to_json,
    init_params, mean_action, n_params, sample_categorical, sample_gaussian,
    softmax, unpack,
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

    @pytest.mark.parametrize("dims", [(5, (7, 6)), (25, (64, 64))])
    def test_stacked_heads_match_each_head_on_each_row(self, dims):
        # C rows stacked as (C, 1, in_dim) through K stacked heads: entry
        # (k, c) equals head k run alone on row c as a one-row batch, bit
        # for bit, each through its own output transform (a row of a plain
        # (C, in_dim) batch may differ: gemm against one row's call)
        rng = np.random.default_rng(10)
        specs = tuple(MlpSpec(dims[0], dims[1], head)
                      for head in ("scalar", "scalar", "nonneg"))
        params = [rng.standard_normal(n_params(s)) for s in specs]
        layers = unpack(specs, params)
        for c in range(1, 6):
            for xs in (rng.standard_normal((c, 1, dims[0])),
                       rng.integers(-1, 2, (c, 1, dims[0])).astype(float)):
                stacked = forward(specs, layers, xs)
                assert stacked.shape == (3, c)
                for k, (s, p) in enumerate(zip(specs, params)):
                    assert np.array_equal(
                        stacked[k], [forward(s, p, x)[0] for x in xs])

    def test_stacked_heads_take_rows_as_one_row_batches(self):
        specs = (MlpSpec(5, (7,), "scalar"),) * 2
        layers = unpack(specs, [np.zeros(n_params(specs[0]))] * 2)
        for x in (np.ones((3, 5)), np.ones((3, 2, 5)), np.ones((3, 1, 4)),
                  np.ones(5)):
            with pytest.raises(ValueError, match="rows, 1, in_dim 5"):
                forward(specs, layers, x)

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


# each head kind at the desk's shapes: reduced LetterWorld rows (25 wide)
# through the trainer's default hidden widths, and the overlap-mode ZoneSim
# rows (35 wide) for the gaussian policy
LAYOUT_SPECS = {
    "categorical": MlpSpec(25, (64, 64, 64), "categorical", 4),
    "gaussian": MlpSpec(35, (64, 64, 64), "gaussian", 2),
    "scalar": MlpSpec(25, (64, 64), "scalar"),
    "nonneg": MlpSpec(25, (64, 64), "nonneg"),
}
INIT_DIGESTS = {
    "categorical":
        "0d09fde3775a58d85de49cb782be69af35758cc357d26af0e0e577d4e37584d6",
    "gaussian":
        "15c9f3516d2f02b2fb2137e86959c5ca39a9df08d4737edb7212066bdfe8ac8e",
    "scalar":
        "debeaeb010d9b7ace4fc274efd029a2c200e391ce00c7e59e7da5437df81f460",
    "nonneg":
        "debeaeb010d9b7ace4fc274efd029a2c200e391ce00c7e59e7da5437df81f460",
}
BACKWARD_DIGESTS = {
    ("categorical", "float32"):
        "ee6b1f163f9a5e2ea85e0293d81d8936aab5b20b328f64f006356ba2ca87cf82",
    ("categorical", "float64"):
        "0dadfb7df0a28137fd060caf4471067346a0abb21df92b10ab23d45f8ce856a4",
    ("gaussian", "float32"):
        "b0c082864cd71de438df4ceb6b85597a8435df8a84ec493ec8ce6d0b5a0b2d69",
    ("gaussian", "float64"):
        "9b9dc907a35e45e92128d6c568b61e35d70fc7241637ddc14d03af9939c2474c",
    ("scalar", "float32"):
        "27d462cc1d08d34bf4edfa77560474c6b3af9a397d67c9ee50400a872729b569",
    ("scalar", "float64"):
        "e3d8f8318005f6292762e7c038edeac85ef70160663d46e0aeccca64e37c91a2",
    ("nonneg", "float32"):
        "1339e671cfed5c02f8a7846b6301a52c135afc27d57683791d7339ccab8f853e",
    ("nonneg", "float64"):
        "56ae9cd1542fb9ac64d5b2b12eb51556c3928b9dc72c38ad15f2be4e74d25979",
}


class TestLayoutPins:
    """The bytes of the flat parameter layout, which checkpoints store as
    is: seeded init_params and backward on fixed inputs.  A change to the
    layout, the draw order or a gradient's arithmetic changes a digest."""

    @pytest.mark.parametrize("head", sorted(INIT_DIGESTS))
    def test_init_params_bytes(self, head):
        params = init_params(LAYOUT_SPECS[head], np.random.default_rng(0))
        assert params.dtype == np.float64
        assert hashlib.sha256(params.tobytes()).hexdigest() \
            == INIT_DIGESTS[head]

    @pytest.mark.parametrize("head, dtype", sorted(BACKWARD_DIGESTS))
    def test_backward_bytes(self, head, dtype):
        spec = LAYOUT_SPECS[head]
        rng = np.random.default_rng(19)
        params = rng.standard_normal(n_params(spec)) * 0.3
        x = rng.standard_normal((7, spec.in_dim))
        if head == "gaussian":
            d_out = (rng.standard_normal((7, spec.out_dim)),
                     rng.standard_normal((7, spec.out_dim)))
        elif head == "categorical":
            d_out = rng.standard_normal((7, spec.out_dim))
        else:
            d_out = rng.standard_normal(7)
        _, tape = forward_tape(spec, params.astype(dtype), x)
        grad = backward(spec, tape, d_out)
        assert grad.dtype == dtype and grad.shape == params.shape
        assert hashlib.sha256(grad.tobytes()).hexdigest() \
            == BACKWARD_DIGESTS[head, dtype]


class TestAdam:
    def test_zero_grad_is_identity(self):
        p = np.array([1.0, -2.0, 0.5])
        st = adam_init(3)
        assert np.array_equal(adam_step(p, np.zeros(3), st, lr=3e-4), p)

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
            assert categorical_logp(logits[None], [a])[0] == pytest.approx(
                ref[a])

    def test_categorical_grad_closed_form(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal(4)
        h = 1e-6
        for a in range(4):
            got = categorical_logp_grad(logits[None], [a])[0]
            for i in range(4):
                up, dn = logits.copy(), logits.copy()
                up[i] += h
                dn[i] -= h
                fd = (categorical_logp(up[None], [a])[0]
                      - categorical_logp(dn[None], [a])[0]) / (2 * h)
                assert got[i] == pytest.approx(fd, abs=1e-7)

    def test_categorical_sampling_frequencies(self):
        rng = np.random.default_rng(13)
        logits = np.log(np.array([0.6, 0.3, 0.1]))
        cdf = categorical_cdf(logits).tolist()
        assert cdf[-1] == 1.0
        counts = np.zeros(3)
        for _ in range(20_000):
            counts[sample_categorical(cdf, rng)] += 1
        assert np.allclose(counts / 20_000, [0.6, 0.3, 0.1], atol=0.02)

    def test_batched_cdf_draw_is_per_row_choice(self):
        # the oracle is one rng.choice(n, p=softmax(row)) per row and a
        # per-row categorical_logp: the same actions, the same logp bits and
        # the same generator position
        rng = np.random.default_rng(18)
        for _ in range(2000):
            rows, n = int(rng.integers(1, 17)), int(rng.integers(2, 7))
            scale = float(rng.choice([0.01, 1.0, 5.0, 40.0]))
            logits = rng.standard_normal((rows, n)) * scale
            if rng.random() < 0.1:
                logits[:, 1] = logits[:, 0]    # ties
            seed = int(rng.integers(2 ** 32))
            ref, got_rng = np.random.default_rng(seed), \
                np.random.default_rng(seed)
            want = [int(ref.choice(n, p=softmax(row))) for row in logits]
            want_logp = np.array([categorical_logp(row[None], [a])[0]
                                  for row, a in zip(logits, want)])
            cdfs = categorical_cdf(logits)
            for row, cdf in zip(logits, cdfs):
                want_cdf = softmax(row).cumsum()
                want_cdf /= want_cdf[-1]    # as Generator.choice builds it
                assert cdf.tobytes() == want_cdf.tobytes()
            got = [sample_categorical(cdf, got_rng) for cdf in cdfs.tolist()]
            assert got == want
            assert (categorical_logp(logits, got).tobytes()
                    == want_logp.tobytes())
            assert got_rng.bit_generator.state == ref.bit_generator.state

        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        # a uniform on a CDF boundary goes right, as in Generator.choice
        cdf = [0.25, 0.5, 0.75, 1.0]
        for u in (0.0, 0.25, 0.3, 0.5, 0.75, 0.9999):
            assert sample_categorical(cdf, Fixed(u)) == np.searchsorted(
                cdf, u, side="right")

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
        mean = np.array([0.5, -1.0])
        log_std = np.array([-0.5, 0.1])
        a = sample_gaussian(mean, log_std, np.random.default_rng(16))
        z = np.random.default_rng(16).standard_normal(2)
        assert np.array_equal(a, mean + np.exp(log_std) * z)
        want = -0.5 * z @ z - log_std.sum() - math.log(2 * math.pi)
        assert gaussian_logp(mean, log_std, a) == pytest.approx(want)

    def test_batched_gaussian_logp_is_per_row(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            rows, n = int(rng.integers(1, 17)), int(rng.integers(1, 4))
            mean = rng.standard_normal((rows, n)) * 2
            log_std = rng.standard_normal(n) * 0.5
            actions = np.stack([sample_gaussian(m, log_std, rng)
                                for m in mean])
            want = np.array([gaussian_logp(m, log_std, a)
                             for m, a in zip(mean, actions)])
            got = gaussian_logp(mean, log_std, actions)
            assert got.tobytes() == want.tobytes()

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
