import json
import math
import os
import stat
from dataclasses import fields

import numpy as np
import pytest

from ltlnav.envs import EnvConfig, make_env
from ltlnav.executor import PolicyAgent
from ltlnav.nets import (
    MlpSpec, categorical_logp, forward, head_from_json, init_params, n_params,
)
from ltlnav.subgoals import Subgoal
from ltlnav.trainer import (
    Head, NonFiniteError, Rollout, SubgoalStepStats, Trainer, TrainerConfig,
    atomic_write_text, episode_cost_togo, gae_cost, gae_reward, loss, signals,
    train,
)
from ltlnav.nets import adam_init


def small_env_config(**kw):
    base = dict(env="letterworld", grid_size=5, letters=tuple("abcd"),
                copies_per_letter=2, max_steps=30)
    base.update(kw)
    return EnvConfig(**base)


def small_trainer_config(**kw):
    base = dict(total_interactions=512, n_per_iter=256, minibatch=64,
                epochs=2, workers=4, seed=1, actor_hidden=(16, 16),
                value_hidden=(16,))
    base.update(kw)
    return TrainerConfig(**base)


def zone_checkpoint() -> dict:
    """Checkpoint of a tiny gaussian policy after two ZoneSim iterations."""
    cfg = small_trainer_config(total_interactions=128, n_per_iter=64,
                               minibatch=32, epochs=1, workers=2)
    return train(cfg, EnvConfig(env="zonesim", max_steps=25))["checkpoint"]


# -- signals ------------------------------------------------------------------


class TestSignals:
    def test_worked_examples(self):
        # props: a=bit0, b=bit1
        sub = Subgoal(1, frozenset({2}))
        assert signals(1, sub) == (1, -1)
        assert signals(2, sub) == (0, 1)
        assert signals(0, sub) == (0, -1)

    def test_equality_not_subset(self):
        sub = Subgoal(1, frozenset({2}))
        assert signals(3, sub) == (0, -1)      # {a,b} != {a} and not in avoid

    def test_indicator_property(self):
        rng = np.random.default_rng(0)
        achievable = tuple(range(1, 16))
        for _ in range(100):
            reach = int(rng.choice(achievable))
            pool = [a for a in achievable if a != reach]
            avoid = frozenset(
                int(x) for x in rng.choice(pool, size=int(rng.integers(0, 6)),
                                           replace=False))
            sub = Subgoal(reach, avoid)
            for label in range(16):
                r, h = signals(label, sub)
                assert r == int(label == reach)
                assert h == 2 * int(label in avoid) - 1


# -- advantage estimation -----------------------------------------------------


def brute_lambda1_advantage(rewards, v, v_next, terminal, boundary, gamma, t):
    total, disc, i = 0.0, 1.0, t
    while True:
        total += disc * rewards[i]
        if boundary[i]:
            if not terminal[i]:
                total += disc * gamma * v_next[i]
            break
        if i == len(rewards) - 1:
            total += disc * gamma * v_next[i]
            break
        disc *= gamma
        i += 1
    return total - v[t]


def random_episode_batch(rng, n=40):
    rewards = rng.binomial(1, 0.3, size=n).astype(float)
    boundary = rng.random(n) < 0.15
    terminal = boundary & (rng.random(n) < 0.5)
    # successor values must chain within an episode or the telescoping
    # identity behind the oracle does not apply
    v = rng.standard_normal(n)
    v_next = rng.standard_normal(n)
    for i in range(n - 1):
        if not boundary[i]:
            v_next[i] = v[i + 1]
    return rewards, v, v_next, terminal, boundary


class TestGaeReward:
    def test_matches_discounted_sum_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rewards, v, v_next, terminal, boundary = random_episode_batch(rng)
            gamma = float(rng.uniform(0.8, 0.99))
            adv, ret = gae_reward(rewards, v, v_next, terminal, boundary,
                                  gamma, lam_gae=1.0)
            for t in range(len(rewards)):
                want = brute_lambda1_advantage(rewards, v, v_next, terminal,
                                               boundary, gamma, t)
                assert adv[t] == pytest.approx(want, abs=1e-6)
            assert np.allclose(ret, adv + v)

    def test_zero_rewards_zero_values(self):
        n = 10
        adv, ret = gae_reward(np.zeros(n), np.zeros(n), np.zeros(n),
                              np.zeros(n, bool), np.zeros(n, bool), 0.9, 0.95)
        assert np.array_equal(adv, np.zeros(n))
        assert np.array_equal(ret, np.zeros(n))

    def test_one_step_episode(self):
        adv, _ = gae_reward(np.array([1.0]), np.array([0.0]), np.array([9.0]),
                            np.array([True]), np.array([True]), 0.9, 0.95)
        assert adv[0] == pytest.approx(1.0)

    def test_terminal_zeroes_bootstrap_cutoff_keeps_it(self):
        r = np.array([0.0, 1.0])
        v = np.zeros(2)
        v_next = np.array([5.0, 7.0])
        adv, _ = gae_reward(r, v, v_next, np.array([False, True]),
                            np.array([False, True]), 0.5, 1.0)
        assert np.allclose(adv, [2.5 + 0.5 * 1.0, 1.0])
        adv, _ = gae_reward(r, v, v_next, np.array([False, False]),
                            np.array([False, True]), 0.5, 1.0)
        assert np.allclose(adv, [2.5 + 0.5 * 4.5, 4.5])


class TestCostToGo:
    def test_violation_at_end_marks_whole_episode(self):
        h = np.array([-1.0, -1.0, -1.0, 1.0])
        boundary = np.array([False, False, False, True])
        assert np.array_equal(episode_cost_togo(h, boundary), [1, 1, 1, 1])

    def test_clean_episode_stays_safe(self):
        h = -np.ones(5)
        boundary = np.array([False] * 4 + [True])
        assert np.array_equal(episode_cost_togo(h, boundary), -np.ones(5))

    def test_segments_do_not_leak(self):
        h = np.array([-1.0, 1.0, -1.0, -1.0])
        boundary = np.array([False, True, False, True])
        assert np.array_equal(episode_cost_togo(h, boundary), [1, 1, -1, -1])

    def test_brute_force_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = 30
            h = rng.choice([-1.0, 1.0], size=n, p=[0.8, 0.2])
            boundary = rng.random(n) < 0.2
            got = episode_cost_togo(h, boundary)
            for t in range(n):
                end = t
                while end < n - 1 and not boundary[end]:
                    end += 1
                assert got[t] == h[t:end + 1].max()


class TestGaeCost:
    def test_all_safe_fixed_point(self):
        n = 8
        h = -np.ones(n)
        vh = -np.ones(n)
        vh_next = -np.ones(n)
        boundary = np.zeros(n, bool)
        adv, togo = gae_cost(h, vh, vh_next, np.zeros(n, bool), boundary,
                             0.94, 0.95)
        assert np.allclose(adv, 0.0, atol=1e-12)
        assert np.array_equal(togo, -np.ones(n))

    def test_terminal_uses_h_itself(self):
        h = np.array([1.0])
        vh = np.array([0.2])
        adv, togo = gae_cost(h, vh, np.array([-5.0]), np.array([True]),
                             np.array([True]), 0.9, 1.0)
        # delta = (1-g)h + g*h - vh = h - vh
        assert adv[0] == pytest.approx(1.0 - 0.2)
        assert togo[0] == 1.0

    def test_chain_mdp_tabular_oracle(self):
        # deterministic 5-state chain 0->1->2->3->4; h observed on arrival
        h_arr = {1: -1.0, 2: 1.0, 3: -1.0, 4: -1.0}
        episodes = []
        for start in range(4):
            states = list(range(start, 5))
            h_seq = [h_arr[s] for s in states[1:]]
            episodes.append((states[:-1], h_seq))
        # brute force: max of h over the remaining arrivals
        brute = {}
        for s in range(4):
            brute[s] = max(h_arr[t] for t in range(s + 1, 5))
        targets = {}
        for states, h_seq in episodes:
            h = np.array(h_seq)
            boundary = np.array([False] * (len(h) - 1) + [True])
            togo = episode_cost_togo(h, boundary)
            for s, target in zip(states, togo):
                targets.setdefault(s, []).append(target)
        v_h = {s: float(np.mean(ts)) for s, ts in targets.items()}
        for s in range(4):
            assert v_h[s] == pytest.approx(brute[s], abs=1e-6)


# -- loss ---------------------------------------------------------------------


def make_heads(rng, in_dim=3, lam_bias=None):
    heads = {
        "policy": Head.fresh(MlpSpec(in_dim, (4,), "categorical", 2), rng),
        "v_r": Head.fresh(MlpSpec(in_dim, (4,), "scalar"), rng),
        "v_h": Head.fresh(MlpSpec(in_dim, (4,), "scalar"), rng),
        "lam": Head.fresh(MlpSpec(in_dim, (4,), "nonneg"), rng),
    }
    if lam_bias is not None:
        params = np.zeros(n_params(heads["lam"].spec))
        params[-1] = lam_bias
        heads["lam"].params = params
    return heads


def batch_with_ratio_one(heads, rng, n=1, adv_r=1.0, adv_h=1.0, togo=1.0):
    obs = rng.standard_normal((n, heads["policy"].spec.in_dim))
    logits = forward(heads["policy"].spec, heads["policy"].params, obs)
    actions = np.array([int(np.argmax(row)) for row in logits])
    logp = categorical_logp(logits, actions)
    return {
        "obs": obs, "actions": actions, "logp": logp,
        "adv_r": np.full(n, adv_r), "adv_h": np.full(n, adv_h),
        "cost_togo": np.full(n, togo), "ret": np.zeros(n),
    }


class TestLoss:
    def test_hand_computed_single_transition(self):
        rng = np.random.default_rng(3)
        # lambda = softplus(bias) = 2 exactly when bias = ln(e^2 - 1)
        heads = make_heads(rng, lam_bias=math.log(math.exp(2.0) - 1.0))
        batch = batch_with_ratio_one(heads, rng)
        stats, _ = loss(heads, batch, clip_eps=0.2, gamma=0.9)
        assert stats["policy_objective"] == pytest.approx(-1.2, abs=1e-9)

    def test_ratio_one_clip_inert(self):
        rng = np.random.default_rng(4)
        heads = make_heads(rng)
        batch = batch_with_ratio_one(heads, rng, n=16,
                                     adv_r=0.7, adv_h=0.0, togo=-1.0)
        stats, _ = loss(heads, batch, clip_eps=0.2, gamma=0.9)
        lam = forward(heads["lam"].spec, heads["lam"].params, batch["obs"])
        want = np.mean(0.7 - lam * (0.1 * -1.0))
        assert stats["policy_objective"] == pytest.approx(float(want),
                                                          abs=1e-12)

    def test_multiplier_decays_without_pressure(self):
        rng = np.random.default_rng(5)
        heads = make_heads(rng, lam_bias=0.5)
        batch = batch_with_ratio_one(heads, rng, n=8, adv_h=0.0, togo=-1.0)
        before = float(np.mean(forward(heads["lam"].spec, heads["lam"].params,
                                       batch["obs"])))
        _, grads = loss(heads, batch, clip_eps=0.2, gamma=0.9)
        heads["lam"].params = heads["lam"].params - 0.05 * grads["lam"]
        after = float(np.mean(forward(heads["lam"].spec, heads["lam"].params,
                                      batch["obs"])))
        assert after < before

    def test_multiplier_grows_under_pressure(self):
        rng = np.random.default_rng(6)
        heads = make_heads(rng, lam_bias=0.5)
        batch = batch_with_ratio_one(heads, rng, n=8, adv_h=1.0, togo=1.0)
        before = float(np.mean(forward(heads["lam"].spec, heads["lam"].params,
                                       batch["obs"])))
        _, grads = loss(heads, batch, clip_eps=0.2, gamma=0.9)
        heads["lam"].params = heads["lam"].params - 0.05 * grads["lam"]
        after = float(np.mean(forward(heads["lam"].spec, heads["lam"].params,
                                      batch["obs"])))
        assert after > before

    def test_one_forward_pass_per_head(self, monkeypatch):
        # backward reads the activations of loss's own forward pass, so each
        # head's parameters are unpacked once; its gradient still goes
        # through the module-global backward
        import ltlnav.nets
        import ltlnav.trainer
        calls = {"unpack": 0, "backward": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        rng = np.random.default_rng(8)
        heads = make_heads(rng)
        batch = batch_with_ratio_one(heads, rng, n=5)
        monkeypatch.setattr(ltlnav.nets, "_unpack",
                            counting("unpack", ltlnav.nets._unpack))
        monkeypatch.setattr(ltlnav.trainer, "backward",
                            counting("backward", ltlnav.trainer.backward))
        _, grads = loss(heads, batch, clip_eps=0.2, gamma=0.9)
        assert calls == {"unpack": 4, "backward": 4}
        assert set(grads) == set(heads)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        heads = make_heads(rng)
        n = 6
        obs = rng.standard_normal((n, 3))
        logits = forward(heads["policy"].spec, heads["policy"].params, obs)
        actions = np.array([int(rng.integers(2)) for _ in range(n)])
        # old log-probs from a perturbed policy so ratios are not 1
        old_params = heads["policy"].params + 0.05 * rng.standard_normal(
            heads["policy"].params.shape)
        old_logits = forward(heads["policy"].spec, old_params, obs)
        batch = {
            "obs": obs, "actions": actions,
            "logp": categorical_logp(old_logits, actions),
            "adv_r": rng.standard_normal(n),
            "adv_h": rng.standard_normal(n),
            "cost_togo": rng.choice([-1.0, 1.0], size=n),
            "ret": rng.standard_normal(n),
        }
        _, grads = loss(heads, batch, clip_eps=0.2, gamma=0.9)
        h = 1e-6
        for name, stat_key, sign in (("policy", "policy_objective", -1.0),
                                     ("lam", "multiplier_loss", 1.0),
                                     ("v_r", "vr_loss", 1.0),
                                     ("v_h", "vh_loss", 1.0)):
            params = heads[name].params
            for i in range(0, params.size, 7):
                up = params.copy()
                up[i] += h
                dn = params.copy()
                dn[i] -= h
                heads[name].params = up
                s_up, _ = loss(heads, batch, 0.2, 0.9)
                heads[name].params = dn
                s_dn, _ = loss(heads, batch, 0.2, 0.9)
                heads[name].params = params
                fd = sign * (s_up[stat_key] - s_dn[stat_key]) / (2 * h)
                assert grads[name][i] == pytest.approx(fd, abs=2e-5), \
                    (name, i)


# -- rollout collection and training ------------------------------------------


class TestCollect:
    def test_batch_accounting(self):
        trainer = Trainer(small_trainer_config(), small_env_config())
        for _ in range(2):
            before = len(trainer.stats.values)
            roll = trainer.collect(256)
            assert len(roll.obs) == 256
            assert roll.obs.shape == roll.next_obs.shape
            assert set(np.unique(roll.rewards)) <= {0.0, 1.0}
            assert set(np.unique(roll.costs)) <= {-1.0, 1.0}
            # violations terminate: h=+1 exactly at terminal steps
            assert np.array_equal(roll.terminal, roll.costs > 0)
            assert not (roll.terminal & ~roll.boundary).any()
            # each completed subgoal adds its step count to the window
            assert len(trainer.stats.values) < trainer.stats.window
            assert (len(trainer.stats.values) - before
                    == int(roll.rewards.sum()))

    def test_one_reduce_per_transition(self, monkeypatch):
        # each step's successor is reduced once and reused as the next
        # step's input; only episode resets reduce a fresh observation
        import ltlnav.trainer
        calls = []
        real = ltlnav.trainer.reduce

        def counting(*args):
            calls.append(1)
            return real(*args)

        trainer = Trainer(small_trainer_config(), small_env_config())
        monkeypatch.setattr(ltlnav.trainer, "reduce", counting)
        roll = trainer.collect(256)
        assert roll.boundary.any()
        assert len(calls) == 256 + int(roll.boundary.sum())

    def test_deterministic_given_seed(self):
        rolls = []
        for _ in range(2):
            trainer = Trainer(small_trainer_config(), small_env_config())
            rolls.append(trainer.collect(128))
        assert np.array_equal(rolls[0].obs, rolls[1].obs)
        assert np.array_equal(rolls[0].actions, rolls[1].actions)
        assert np.array_equal(rolls[0].logp, rolls[1].logp)
        assert np.array_equal(rolls[0].costs, rolls[1].costs)

    def test_reward_advantages_normalized_cost_raw(self):
        trainer = Trainer(small_trainer_config(), small_env_config())
        batch = trainer._advantages(trainer.collect(256))
        assert abs(float(batch["adv_r"].mean())) < 1e-9
        assert float(batch["adv_r"].std()) == pytest.approx(1.0, abs=1e-6)
        assert set(np.unique(batch["cost_togo"])) <= {-1.0, 1.0}

    def test_rollout_validation(self):
        with pytest.raises(ValueError):
            Rollout(obs=np.zeros((1, 2)), next_obs=np.zeros((1, 2)),
                    actions=np.zeros(1), logp=np.zeros(1),
                    rewards=np.array([0.5]), costs=np.array([-1.0]),
                    terminal=np.array([False]), boundary=np.array([False]))


class TestTrainer:
    def test_one_iteration_and_checkpoint_round_trip(self, tmp_path):
        cfg = small_trainer_config(total_interactions=256, n_per_iter=256)
        result = train(cfg, small_env_config(),
                       log_path=str(tmp_path / "log.jsonl"),
                       checkpoint_path=str(tmp_path / "ckpt.json"))
        assert result["iterations"] == 1
        rec = result["log"][0]
        assert set(rec) == {"iter", "steps", "mean_reward", "subgoal_success",
                            "violation_rate", "mean_lambda", "mu_subgoal"}
        assert rec["steps"] == 256
        lines = (tmp_path / "log.jsonl").read_text().strip().split("\n")
        assert [json.loads(x) for x in lines] == result["log"]
        ckpt = json.loads((tmp_path / "ckpt.json").read_text())
        assert ckpt == result["checkpoint"]
        for name in ("policy", "v_r", "v_h", "lam"):
            spec, params = head_from_json(ckpt["heads"][name])
            assert params.size == n_params(spec)
            assert np.array_equal(
                params, np.asarray(ckpt["heads"][name]["params"]))

    def test_same_seed_identical_log(self):
        logs = []
        for _ in range(2):
            trainer = Trainer(small_trainer_config(workers=1, n_per_iter=128,
                                                   minibatch=64),
                              small_env_config())
            logs.append([trainer.iteration() for _ in range(2)])
        assert logs[0] == logs[1]

    def test_raw_fusion_smoke(self):
        cfg = small_trainer_config(fusion="raw", n_per_iter=64, minibatch=32,
                                   workers=2, epochs=1)
        trainer = Trainer(cfg, small_env_config())
        rec = trainer.iteration()
        assert rec["iter"] == 1
        # 5x5 grid + 4 props + 16 subgoal bits
        assert trainer.heads["policy"].spec.in_dim == 25 + 4 + 16

    def test_config_validation_and_json(self):
        with pytest.raises(ValueError):
            TrainerConfig(gamma=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(n_per_iter=100, workers=3)
        with pytest.raises(ValueError):
            TrainerConfig(fusion="conv")
        for name in ("n_per_iter", "minibatch", "epochs", "workers"):
            with pytest.raises(ValueError, match=name):
                TrainerConfig(**{name: 0})
        # every field away from its default
        for cfg in (small_trainer_config(),
                    TrainerConfig(gamma=0.9, lam_gae=0.9, clip_eps=0.1,
                                  lr=1e-3, multiplier_lr=1e-2,
                                  total_interactions=1000, n_per_iter=64,
                                  minibatch=32, epochs=3, workers=2, seed=7,
                                  fusion="raw", actor_hidden=(8,),
                                  value_hidden=(8, 8), stats_window=50)):
            blob = cfg.to_json()
            assert list(blob) == [f.name for f in fields(TrainerConfig)]
            assert json.loads(json.dumps(blob)) == blob
            assert TrainerConfig.from_json(blob) == cfg
        with pytest.raises(ValueError):
            TrainerConfig.from_json({"momentum": 0.9})

    def test_gaussian_policy_trains_on_zonesim(self):
        runs = [zone_checkpoint() for _ in range(2)]
        ckpt = runs[0]
        assert ckpt["heads"]["policy"]["spec"]["head"] == "gaussian"
        for name, head in ckpt["heads"].items():
            assert head["params"] == runs[1]["heads"][name]["params"]
            assert np.all(np.isfinite(head["params"]))
        loaded = json.loads(json.dumps(ckpt))
        assert loaded == ckpt
        agent = PolicyAgent.from_checkpoint(loaded)
        env = make_env(agent.env_config)
        action = agent.act(env.reset(np.random.default_rng(0)),
                           Subgoal(1, frozenset({2})))
        assert action.shape == (2,) and np.all(np.isfinite(action))

    def test_crash_keeps_finished_log_records(self, tmp_path, monkeypatch):
        # the log is appended per iteration, so a divergence at iteration 3
        # leaves iterations 1 and 2 on disk
        trainer = Trainer(small_trainer_config(
            total_interactions=5 * 64, n_per_iter=64, minibatch=32, epochs=1),
            small_env_config())
        real = Trainer.iteration

        def iteration(self):
            if self.iter_count == 2:
                self.heads["v_r"].params[:] = np.nan
            return real(self)

        monkeypatch.setattr(Trainer, "iteration", iteration)
        log = tmp_path / "run" / "log.jsonl"
        with pytest.raises(NonFiniteError):
            trainer.run(log_path=str(log))
        records = [json.loads(x) for x in log.read_text().splitlines()]
        assert [r["iter"] for r in records] == [1, 2]
        assert records == trainer.log

    def test_nonfinite_detection(self):
        trainer = Trainer(small_trainer_config(n_per_iter=64, minibatch=32,
                                               epochs=1),
                          small_env_config())
        trainer.heads["v_r"].params[:] = np.nan
        with pytest.raises(NonFiniteError) as err:
            trainer.iteration()
        assert "iter" in err.value.diagnostics


class TestSubgoalStepStats:
    def test_validity_threshold(self):
        stats = SubgoalStepStats(window=500)
        for i in range(99):
            stats.add(10)
        assert not stats.valid and stats.maximum is None
        stats.add(25)
        assert stats.valid and stats.maximum == 25

    def test_trailing_window(self):
        stats = SubgoalStepStats(window=100)
        stats.add(999)
        for _ in range(100):
            stats.add(7)
        assert stats.maximum == 7


def test_atomic_write_text_honours_umask(tmp_path):
    # the file gets the mode open(path, "w") would give, not mkstemp's 0600
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        path = tmp_path / f"out-{umask:03o}.txt"
        old = os.umask(umask)
        try:
            atomic_write_text(str(path), "text\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert path.read_text() == "text\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out-022.txt", "out-077.txt"]
