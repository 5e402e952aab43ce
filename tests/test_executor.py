import collections
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import gen
from ltlnav import executor
from ltlnav.buchi import compile_formula
from ltlnav.envs import (
    EnvConfig, achievable_assignments, alphabet_for, make_env,
)
from ltlnav.executor import (
    OTHER, SATISFIED, SUCCESS, UNDETERMINED, VIOLATED, VIOLATION,
    EvalReport, Outcome, PolicyAgent, accepting_run_count,
    classify_trace_oracle, evaluate, run_episode, select_subgoal,
    timeout_threshold,
)
from ltlnav.ltl import parse
from ltlnav.nets import forward, head_from_json, mean_action
from ltlnav.reduction import reduce
from ltlnav.subgoals import Subgoal, UniverseTooLarge
from ltlnav.trainer import STREAM_EVAL, Trainer, TrainerConfig, stream_rng
from scripted import ScriptedGridAgent, ScriptedZoneAgent
from test_acceptance import NESTED_SPEC, SEQ2_SPECS
from test_reduction import grid_obs, random_subgoal


# the checkpoint perfbench pins for eval-zeroshot; this module only reads it
PINNED_DESK = (Path(__file__).resolve().parent.parent / "perfbench"
               / "desk.ckpt.json")


def grid_config(**kw):
    base = dict(env="letterworld", grid_size=5, letters=tuple("abcd"),
                copies_per_letter=2, max_steps=60)
    base.update(kw)
    return EnvConfig(**base)


def torus_distance(g, a, b):
    def axis(x, y):
        d = (y - x) % g
        return min(d, g - d)
    return axis(a[0], b[0]) + axis(a[1], b[1])


class StandStillAgent:
    # letterworld action 0 moves up; on a torus nothing is ever reached if
    # the column holds no target, so use a back-and-forth pair instead
    def __init__(self):
        self.flip = False

    def act(self, obs, sub):
        self.flip = not self.flip
        return 0 if self.flip else 1

    def score(self, obs, subs):
        return [0.0] * len(subs)


class ForcedTargetAgent:
    def __init__(self, env, reach):
        self.inner = ScriptedGridAgent(env)
        self.sub = Subgoal(reach, frozenset())

    def act(self, obs, sub):
        return self.inner.act(obs, self.sub)

    def score(self, obs, subs):
        return [0.0] * len(subs)


class TableAgent:
    def __init__(self, scores):
        self.scores = scores

    def act(self, obs, sub):
        return 0

    def score(self, obs, subs):
        return [self.scores[sub] for sub in subs]


class RandomAgent:
    def __init__(self, rng, n_actions=4):
        self.rng = rng
        self.n = n_actions

    def act(self, obs, sub):
        return int(self.rng.integers(self.n))

    def score(self, obs, subs):
        return [float(self.rng.random()) for _ in subs]


class TestOutcomeAndTimeout:
    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            Outcome("won", 5)
        assert Outcome(SUCCESS, 5).steps_to_success == 5
        assert Outcome(VIOLATION, 5).steps_to_success is None
        assert Outcome(OTHER, 5).steps_to_success is None

    def test_threshold(self):
        assert timeout_threshold(10, 0.5, 1000) == 15
        assert timeout_threshold(1, 0.0, 1000) == 1
        assert timeout_threshold(None, 0.5, 100) == 25
        assert timeout_threshold(None, 0.5, 2) == 1


class TestSelectSubgoal:
    def test_single_candidate(self):
        sub = Subgoal(1, frozenset())
        agent = TableAgent({sub: 0.0})
        assert select_subgoal([(0, sub)], agent, None) == (0, sub)

    def test_value_tradeoff(self):
        s1, s2 = Subgoal(1, frozenset()), Subgoal(2, frozenset())
        # V_r equal, lambda*V_h = 0.5 vs -0.5
        agent = TableAgent({s1: 0.9 - 0.5, s2: 0.9 + 0.5})
        assert select_subgoal([(0, s1), (0, s2)], agent, None) == (0, s2)

    def test_tie_takes_first(self):
        s1, s2 = Subgoal(1, frozenset()), Subgoal(2, frozenset())
        agent = TableAgent({s1: 1.0, s2: 1.0})
        for _ in range(5):
            assert select_subgoal([(0, s1), (0, s2)], agent, None) == (0, s1)
        s = [Subgoal(1 << i, frozenset()) for i in range(4)]
        cands = [(0, sub) for sub in s]
        for scores, want in (([1.0, 1.0, 1.0, 1.0], 0),
                             ([0.0, 2.0, 2.0, 1.0], 1),
                             ([-1.0, -3.0, -2.0, -1.0], 0),
                             ([0.0, 0.0, 0.0, 5.0], 3)):
            agent = TableAgent(dict(zip(s, scores)))
            assert select_subgoal(cands, agent, None) == cands[want]

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        subs = [Subgoal(1 << i, frozenset()) for i in range(4)]
        raw = {s: float(rng.standard_normal()) for s in subs}
        cands = [(0, s) for s in subs]
        base = select_subgoal(cands, TableAgent(raw), None)
        for c in (0.5, 3.0, 1e6):
            scaled = {k: c * v for k, v in raw.items()}
            assert select_subgoal(cands, TableAgent(scaled), None) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_subgoal([], TableAgent({}), None)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_one_score_call_per_contested_pick(self, n):
        # every candidate of a pick is scored in one call, in candidate
        # order; a lone candidate is not scored at all
        subs = [Subgoal(1 << i, frozenset()) for i in range(n)]
        calls = []

        class Counting(TableAgent):
            def score(self, obs, subs):
                calls.append(list(subs))
                return super().score(obs, subs)

        agent = Counting({s: float(i % 3) for i, s in enumerate(subs)})
        cands = [(i, s) for i, s in enumerate(subs)]
        best = select_subgoal(cands, agent, None)
        assert calls == ([] if n == 1 else [subs])
        assert best == cands[min(n - 1, 2)]

    def test_lone_candidate_is_not_scored(self):
        class Unscorable:
            def score(self, obs, subs):
                raise AssertionError("a lone candidate was scored")

        sub = Subgoal(1, frozenset({2}))
        assert select_subgoal([(3, sub)], Unscorable(), None) == (3, sub)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_the_candidate(self, bad):
        s1, s2 = Subgoal(1, frozenset()), Subgoal(2, frozenset({4}))
        agent = TableAgent({s1: 0.5, s2: bad})
        with pytest.raises(ValueError) as info:
            select_subgoal([(0, s1), (7, s2)], agent, None)
        assert "state 7" in str(info.value)
        assert repr(s2) in str(info.value)
        assert str(float(bad)) in str(info.value)

    def test_all_nan_scores_fail_the_episode_with_value_error(self):
        # every candidate NaN used to leave no pick, and run_episode died
        # unpacking None
        config = grid_config()
        env = make_env(config)
        aut = compile_formula(parse("F a | F b"), alphabet_for(config))
        agent = TableAgent(collections.defaultdict(lambda: np.nan))
        with pytest.raises(ValueError, match="scored nan"):
            run_episode(env, aut, agent, rng=stream_rng(0, 3), timeout=10)


class TestRunEpisode:
    def test_scripted_reach_success(self):
        config = grid_config()
        env = make_env(config)
        aut = compile_formula(parse("F a"), alphabet_for(config))
        agent = ScriptedGridAgent(env)
        outcome, trace = run_episode(
            env, aut, agent, rng=stream_rng(7, 3), timeout=15,
            record_positions=True)
        assert outcome.status == SUCCESS
        start = tuple(trace["positions"][0])
        a_cells = [cell for cell, p in env.state.placement.items() if p == 0]
        want = min(torus_distance(config.grid_size, start, c)
                   for c in a_cells)
        assert outcome.steps_to_success == want
        assert outcome.steps == want

    def test_scripted_violation(self):
        config = grid_config()
        env = make_env(config)
        aut = compile_formula(parse("(!a) U b"), alphabet_for(config))
        agent = ForcedTargetAgent(env, reach=1)
        outcome, trace = run_episode(env, aut, agent,
                                     rng=stream_rng(3, 3), timeout=15)
        assert outcome.status == VIOLATION
        assert trace["labels"][-1] == 1

    def test_avoid_respected_en_route(self):
        config = grid_config()
        env = make_env(config)
        aut = compile_formula(parse("(!a) U b"), alphabet_for(config))
        for seed in range(10):
            agent = ScriptedGridAgent(env)
            outcome, trace = run_episode(env, aut, agent,
                                         rng=stream_rng(seed, 3), timeout=15)
            assert outcome.status == SUCCESS
            assert all(label != 1 for label in trace["labels"][:-1])
            assert trace["labels"][-1] == 2

    def test_timeout_marks_and_terminates(self):
        config = grid_config()
        env = make_env(config)
        aut = compile_formula(parse("F a"), alphabet_for(config))
        outcome, trace = run_episode(env, aut, StandStillAgent(),
                                     rng=stream_rng(1, 3), timeout=8)
        # single candidate (reach a): marking it leaves nothing to pursue
        assert outcome.status == OTHER
        assert outcome.steps == 8
        assert [s["t"] for s in trace["switches"]] == [0]

    def test_timeout_disabled_runs_to_horizon(self):
        config = grid_config()
        env = make_env(config)
        aut = compile_formula(parse("F a"), alphabet_for(config))
        outcome, trace = run_episode(env, aut, StandStillAgent(),
                                     rng=stream_rng(1, 3), timeout=8,
                                     switching=False)
        assert outcome.status == OTHER
        assert outcome.steps == config.max_steps

    def test_accepting_state_resets_timer_without_marking(self):
        config = grid_config()
        env = make_env(config)
        # G !a: the single state is accepting and live; timeouts must not
        # mark anything or end the episode
        aut = compile_formula(parse("G (!a)"), alphabet_for(config))
        outcome, trace = run_episode(env, aut, StandStillAgent(),
                                     rng=stream_rng(1, 3), timeout=5)
        assert outcome.status == OTHER
        assert outcome.steps == config.max_steps
        assert outcome.accepting_visits == config.max_steps

    def test_trivial_formulas(self):
        config = grid_config()
        env = make_env(config)
        alphabet = alphabet_for(config)
        aut_true = compile_formula(parse("true"), alphabet)
        outcome, _ = run_episode(env, aut_true, StandStillAgent(),
                                 rng=stream_rng(1, 3), timeout=5)
        assert outcome.status == SUCCESS and outcome.steps == 0
        aut_false = compile_formula(parse("false"), alphabet)
        outcome, _ = run_episode(env, aut_false, StandStillAgent(),
                                 rng=stream_rng(1, 3), timeout=5)
        assert outcome.status == VIOLATION and outcome.steps == 0

    def test_switch_on_final_step_is_logged(self):
        # reaching a on the horizon step moves the state set, so a new
        # subgoal is picked and logged before the episode ends undecided
        env = gen.ScriptEnv([0, 1], letters=("a", "b"))
        aut = compile_formula(parse("F (a & F b)"), alphabet_for(env.config))
        outcome, trace = run_episode(env, aut, StandStillAgent(),
                                     rng=stream_rng(1, 3), timeout=5)
        assert outcome.status == OTHER and outcome.steps == 2
        assert [s["t"] for s in trace["switches"]] == [0, 2]


class TestZoneSwitching:
    def zone_config(self):
        return EnvConfig(
            env="zonesim", overlap_mode=True, max_steps=400,
            fixed_zones=(("blue", (-0.45, 1.2), 0.4),
                         ("green", (0.45, 1.2), 0.4),
                         ("magenta", (0.0, -2.0), 0.4),
                         ("yellow", (2.0, 0.5), 0.4)),
            agent_start=(0.0, 0.0))

    def test_switching_escapes_unreachable_pair(self):
        config = self.zone_config()
        spec = "(!yellow) U ((blue & green) | magenta)"
        reports = evaluate([spec], env_config=config,
                           agent_factory=ScriptedZoneAgent,
                           n_traj=3, seeds=(0, 1))
        assert reports[0].eta_s == 1.0
        assert reports[0].eta_v == 0.0

    def test_no_switching_gets_stuck(self):
        config = self.zone_config()
        spec = "(!yellow) U ((blue & green) | magenta)"
        reports = evaluate([spec], env_config=config,
                           agent_factory=ScriptedZoneAgent,
                           n_traj=3, seeds=(0, 1), switching=False)
        assert reports[0].eta_s == 0.0

    def test_marked_pairs_were_attempted_full_window(self):
        config = self.zone_config()
        spec = "(!yellow) U ((blue & green) | magenta)"
        env = make_env(config)
        aut = compile_formula(parse(spec), alphabet_for(config))
        agent = ScriptedZoneAgent(env)
        outcome, trace = run_episode(
            env, aut, agent, rng=stream_rng(0, 3), timeout=60)
        assert outcome.status == SUCCESS
        switches = trace["switches"]
        assert len(switches) >= 2
        # every abandoned attempt lasted exactly the timeout window
        for prev, cur in zip(switches, switches[1:]):
            assert cur["t"] - prev["t"] == 60


class TestTraceOracle:
    def test_empty_trace_undetermined(self):
        config = grid_config()
        aut = compile_formula(parse("F a"), alphabet_for(config))
        assert classify_trace_oracle(aut, []) == UNDETERMINED

    def test_reaching_sink_satisfied(self):
        config = grid_config()
        aut = compile_formula(parse("F a"), alphabet_for(config))
        assert classify_trace_oracle(aut, [0, 2, 1]) == SATISFIED
        assert classify_trace_oracle(aut, [0, 2, 4]) == UNDETERMINED

    def test_dead_set_violated(self):
        config = grid_config()
        aut = compile_formula(parse("(!a) U b"), alphabet_for(config))
        assert classify_trace_oracle(aut, [0, 1]) == VIOLATED
        assert classify_trace_oracle(aut, [0, 2, 1]) == SATISFIED

    def test_online_offline_agreement_random_episodes(self):
        config = grid_config(max_steps=20)
        env = make_env(config)
        alphabet = alphabet_for(config)
        rng = np.random.default_rng(11)
        mapping = {SUCCESS: SATISFIED, VIOLATION: VIOLATED,
                   OTHER: UNDETERMINED}
        checked = 0
        while checked < 1000:
            f = gen.random_formula(rng, depth=3, names=tuple("abcd"))
            aut = compile_formula(f, alphabet)
            try:
                for ep in range(8):
                    agent = RandomAgent(np.random.default_rng(1000 + checked))
                    outcome, trace = run_episode(
                        env, aut, agent, rng=stream_rng(checked, 3),
                        timeout=6, record_positions=checked % 2 == 0)
                    labels = trace["labels"]
                    got = classify_trace_oracle(aut, labels)
                    assert got == mapping[outcome.status], (f, outcome, trace)
                    assert outcome.steps == len(labels)
                    times = [s["t"] for s in trace["switches"]]
                    assert times[:1] == [0] or outcome.steps == 0
                    assert all(a < b for a, b in zip(times, times[1:]))
                    assert all(t <= outcome.steps for t in times)
                    if "positions" in trace:
                        assert len(trace["positions"]) == len(labels) + 1
                    checked += 1
            except UniverseTooLarge:
                continue


class TestMetrics:
    def test_report_validation(self):
        with pytest.raises(ValueError):
            EvalReport("F a", 0.5, 0.2, 0.4, None, None, (0,), 10)

    def test_accepting_run_count_plain_passthrough(self):
        config = grid_config()
        alphabet = alphabet_for(config)
        f = parse("G (F a)")
        assert accepting_run_count(f, [1, 0, 1], alphabet, visits=7) == 7

    def test_backward_count_simple(self):
        config = grid_config()
        alphabet = alphabet_for(config)
        f = parse("F (G a)")
        # a, -, a, a: only the final run of a-steps counts
        assert accepting_run_count(f, [1, 0, 1, 1], alphabet, visits=3) == 2
        assert accepting_run_count(f, [0, 0], alphabet, visits=0) == 0
        assert accepting_run_count(f, [1, 1, 1], alphabet, visits=3) == 3

    def test_backward_count_disjunctive_core(self):
        config = grid_config()
        alphabet = alphabet_for(config)
        f = parse("F (G (a | b))")
        assert accepting_run_count(f, [4, 2, 1, 2], alphabet, visits=9) == 3

    def test_evaluate_rates_and_determinism(self):
        config = grid_config()
        runs = []
        for _ in range(2):
            reports = evaluate(["F a", "(!a) U b"], env_config=config,
                               agent_factory=ScriptedGridAgent,
                               n_traj=4, seeds=(0, 1, 2))
            runs.append(reports)
        assert runs[0] == runs[1]
        for rep in runs[0]:
            assert rep.eta_s + rep.eta_v + rep.eta_o == 1.0
            assert rep.eta_s == 1.0
            assert rep.mu is not None and rep.mu > 0
            assert rep.n == 4 and rep.seeds == (0, 1, 2)
            blob = rep.to_json()
            assert list(blob) == ["spec", "eta_s", "eta_v", "eta_o", "mu",
                                  "mu_acc", "seeds", "n"]
            assert blob["seeds"] == [0, 1, 2]
            assert EvalReport.from_json(blob) == rep

    def test_evaluate_mu_null_without_successes(self):
        config = grid_config(max_steps=20)
        reports = evaluate(["F a"], env_config=config,
                           agent_factory=lambda env: StandStillAgent(),
                           n_traj=3, seeds=(0,), switching=False)
        assert reports[0].eta_s == 0.0
        assert reports[0].mu is None

    def test_horizon_multiplier_scales_episodes(self):
        config = grid_config(max_steps=20)
        reports, traces = evaluate(
            ["G (!a)"], env_config=config,
            agent_factory=lambda env: StandStillAgent(),
            n_traj=1, seeds=(0,), horizon_multiplier=3,
            switching=False, record_traces=True)
        outcome, trace = traces[0][0]
        assert len(trace["labels"]) == 60

    @pytest.mark.parametrize("mu,eps_scale", [
        (None, float("inf")), (None, float("-inf")), (None, float("nan")),
        (40, float("inf")), (40, 1e308), (None, -1.0), (40, -1.0),
        (40, -2.0)])
    def test_non_finite_timeout_raises_before_any_episode(
            self, monkeypatch, mu, eps_scale):
        agent = StandStillAgent()
        agent.mu_subgoal = mu

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran with a non-finite timeout")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        with pytest.raises(ValueError, match="eps_scale must"):
            evaluate(["F a"], env_config=grid_config(max_steps=20),
                     agent_factory=lambda env: agent, n_traj=1, seeds=(0,),
                     eps_scale=eps_scale)

    @pytest.mark.parametrize("name,count,match", [
        ("n_traj", True, "n_traj must be an int, got True"),
        ("n_traj", 2.5, "n_traj must be an int, got 2.5"),
        ("n_traj", 1.0, "n_traj must be an int, got 1.0"),
        ("n_traj", 0, "n_traj must be at least 1, got 0"),
        ("horizon_multiplier", True, "horizon_multiplier must be an int, "
                                     "got True"),
        ("horizon_multiplier", 2.5, "horizon_multiplier must be an int, "
                                    "got 2.5"),
        ("horizon_multiplier", 0, "horizon_multiplier must be at least 1"),
    ])
    def test_count_that_is_not_an_int_raises_before_any_episode(
            self, monkeypatch, name, count, match):
        # True used to run one episode and report "n": true, and a
        # horizon_multiplier of 2.5 ran as 2
        def no_episode(*args, **kwargs):
            raise AssertionError(f"an episode ran under {name}={count!r}")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        with pytest.raises(ValueError, match=match):
            evaluate(["F a"], env_config=grid_config(max_steps=20),
                     agent_factory=lambda env: StandStillAgent(), seeds=(0,),
                     **{"n_traj": 1, name: count})

    @pytest.mark.parametrize("seed", [2.7, True, -1, "0"])
    def test_seed_that_is_not_a_non_negative_int_raises_before_any_episode(
            self, monkeypatch, seed):
        def no_episode(*args, **kwargs):
            raise AssertionError(f"an episode ran under seed {seed!r}")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        with pytest.raises(ValueError, match="seeds must be non-negative ints"):
            evaluate(["F a"], env_config=grid_config(max_steps=20),
                     agent_factory=lambda env: StandStillAgent(), n_traj=1,
                     seeds=(0, seed))


class TestPolicyAgent:
    def small_checkpoint(self):
        cfg = TrainerConfig(total_interactions=128, n_per_iter=128,
                            minibatch=64, epochs=1, workers=2, seed=5,
                            actor_hidden=(16,), value_hidden=(16,))
        trainer = Trainer(cfg, grid_config())
        trainer.iteration()
        return trainer.checkpoint()

    @pytest.mark.parametrize("given", [
        ("checkpoint", "env_config"), ("checkpoint", "agent_factory"),
        ("checkpoint", "agent_factory", "env_config"), ("agent_factory",),
        ("env_config",), ()], ids=lambda given: "+".join(given) or "nothing")
    def test_evaluate_takes_one_agent_form(self, monkeypatch, given):
        """evaluate takes a checkpoint alone, or agent_factory together with
        env_config; every other combination raises before any episode."""
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        forms = {"checkpoint": self.small_checkpoint,
                 "env_config": lambda: grid_config(max_steps=20),
                 "agent_factory": lambda: lambda env: StandStillAgent()}
        with pytest.raises(ValueError, match="need a checkpoint alone"):
            evaluate(["F a"], n_traj=1, seeds=(0,),
                     **{name: forms[name]() for name in given})

    def test_round_trip_act_and_score(self):
        ckpt = self.small_checkpoint()
        agent = PolicyAgent.from_checkpoint(ckpt)
        env = make_env(agent.env_config)
        obs = env.reset(stream_rng(0, 3))
        sub = Subgoal(1, frozenset({2}))
        a = agent.act(obs, sub)
        assert a in (0, 1, 2, 3)
        (score,) = agent.score(obs, [sub])
        assert np.isfinite(score)
        assert agent.act(obs, sub) == a

    @pytest.mark.parametrize("fusion", ["reduced", "raw"])
    @pytest.mark.parametrize("world", ["letterworld", "zonesim"])
    def test_act_and_score_equal_per_head_forward(self, world, fusion):
        # the agent runs layers unpacked at load and scores with v_r, v_h
        # and lam stacked in one pass; both must give exactly the bits of
        # running each head's flat params through nets.forward on its own
        rng = np.random.default_rng(17)
        config = (grid_config() if world == "letterworld" else
                  EnvConfig(env="zonesim", overlap_mode=True, max_steps=60))
        trainer = Trainer(TrainerConfig(fusion=fusion, seed=2,
                                        actor_hidden=(16, 8),
                                        value_hidden=(12, 6)), config)
        # random weights and biases, so no head is near zero and v_r, v_h
        # and lam all differ
        for head in trainer.heads.values():
            head.params = 0.5 * rng.standard_normal(head.params.size)
        agent = PolicyAgent.from_checkpoint(trainer.checkpoint())
        heads = {name: (h.spec, h.params) for name, h in trainer.heads.items()}
        env = make_env(agent.env_config)
        for ep in range(8):
            obs = env.reset(stream_rng(ep, 3))
            for _ in range(25):
                for _ in range(3):
                    sub = random_subgoal(rng, agent.alphabet.n)
                    x = reduce(obs, sub, fusion, agent.alphabet)[None]
                    out = {name: forward(spec, params, x)
                           for name, (spec, params) in heads.items()}
                    want = mean_action(heads["policy"][0], out["policy"])[0]
                    got = agent.act(obs, sub)
                    assert type(got) is type(want)
                    assert np.array_equal(got, want)
                    if world == "zonesim":
                        assert got.dtype == want.dtype
                    assert (agent.score(obs, [sub])
                            == [out["v_r"][0] - out["lam"][0] * out["v_h"][0]])
                action = (int(rng.integers(4)) if world == "letterworld"
                          else rng.uniform(-1, 1, size=2))
                obs = env.step(action)[0]

    def test_each_row_is_reduced_once_per_step(self, monkeypatch):
        # one desk episode: reduce runs once per distinct (observation,
        # subgoal) that score or act asks for, so act reuses the row the
        # pick scored
        agent = PolicyAgent.from_checkpoint(
            json.loads(PINNED_DESK.read_text()))
        env = make_env(agent.env_config)
        aut = compile_formula(parse(NESTED_SPEC), agent.alphabet)
        reduced, asked, kept = [], [], []
        real_reduce = executor.reduce

        def counting_reduce(obs, sub, *args):
            reduced.append((id(obs), sub))
            return real_reduce(obs, sub, *args)

        monkeypatch.setattr(executor, "reduce", counting_reduce)
        for name in ("act", "score"):
            def asking(obs, arg, method=getattr(agent, name), name=name):
                kept.append(obs)    # no id is reused within the episode
                subs = arg if name == "score" else [arg]
                asked.extend((name, id(obs), sub) for sub in subs)
                return method(obs, arg)
            monkeypatch.setattr(agent, name, asking)
        timeout = timeout_threshold(agent.mu_subgoal, 0.5,
                                    agent.env_config.max_steps)
        outcome, trace = run_episode(env, aut, agent,
                                     rng=stream_rng(0, STREAM_EVAL, 0),
                                     timeout=timeout)
        rows = {(i, sub) for _, i, sub in asked}
        assert len(reduced) == len(rows)
        assert set(reduced) == rows
        # the episode holds contested picks, so act did reuse scored rows
        assert sum(name == "score" for name, _, _ in asked) >= 2
        assert len(asked) > len(rows)
        assert outcome.steps == len(trace["labels"]) > 1

    @pytest.mark.parametrize("rows", ["grid", "random"])
    def test_stacked_score_equals_single_row_scores(self, monkeypatch, rows):
        # one score call over C candidates gives, bit for bit, the score of
        # each candidate's row run alone through each value head, on the
        # pinned desk checkpoint: rows reduced from random grid views, and
        # random real rows in place of the reduced ones
        ckpt = json.loads(PINNED_DESK.read_text())
        agent = PolicyAgent.from_checkpoint(ckpt)
        heads = {name: head_from_json(d) for name, d in ckpt["heads"].items()
                 if name != "policy"}
        dim = heads["v_r"][0].in_dim
        rng = np.random.default_rng(29 if rows == "grid" else 31)
        if rows == "random":
            table = {}
            monkeypatch.setattr(agent, "_row", lambda obs, sub: table[sub])
        checked = 0
        for c in range(1, 6):
            for _ in range(150):
                obs = grid_obs(rng.integers(-1, 4, size=(5, 5)))
                subs = list({random_subgoal(rng, agent.alphabet.n): None
                             for _ in range(c)})
                if rows == "random":
                    table = {sub: rng.standard_normal((1, dim))
                             for sub in subs}
                want = []
                for sub in subs:
                    x = (table[sub] if rows == "random" else
                         reduce(obs, sub, agent.fusion, agent.alphabet)[None])
                    v_r, v_h, lam = (forward(*heads[name], x)[0]
                                     for name in ("v_r", "v_h", "lam"))
                    want.append(v_r - lam * v_h)
                got = agent.score(obs, subs)
                assert type(got) is list and len(got) == len(subs)
                assert got == want
                checked += len(subs)
        assert checked > 2000

    def test_new_observation_never_gets_a_stale_row(self):
        ckpt = json.loads(PINNED_DESK.read_text())
        agent = PolicyAgent.from_checkpoint(ckpt)
        heads = {name: head_from_json(d) for name, d in ckpt["heads"].items()}
        rng = np.random.default_rng(23)
        sub = Subgoal(1, frozenset({2, 8}))
        rows = set()
        for _ in range(40):
            # a fresh object under the same subgoal each time, often at the
            # address of the one freed just before
            obs = grid_obs(rng.integers(-1, 4, size=(5, 5)))
            x = reduce(obs, sub, agent.fusion, agent.alphabet)[None]
            rows.add(x.tobytes())
            out = {name: forward(spec, params, x)[0]
                   for name, (spec, params) in heads.items()
                   if name != "policy"}
            want = mean_action(heads["policy"][0],
                               forward(*heads["policy"], x))[0]
            assert agent.score(obs, [sub]) == [out["v_r"]
                                               - out["lam"] * out["v_h"]]
            assert agent.act(obs, sub) == want
            del obs
        assert len(rows) > 30

    def test_one_score_call_per_contested_pick_in_a_desk_episode(self):
        agent = PolicyAgent.from_checkpoint(
            json.loads(PINNED_DESK.read_text()))
        env = make_env(agent.env_config)
        asked, picks = [], []
        score = agent.score

        def counting_score(obs, subs):
            asked.append(list(subs))
            return score(obs, subs)

        agent.score = counting_score
        timeout = timeout_threshold(agent.mu_subgoal, 0.5,
                                    agent.env_config.max_steps)
        for spec in SEQ2_SPECS + [NESTED_SPEC]:
            aut = compile_formula(parse(spec), agent.alphabet)
            cache = executor._CandidateCache(
                aut, achievable_assignments(agent.env_config))
            def logged_get(*args, get=cache.get):
                picks.append(get(*args))
                return picks[-1]

            cache.get = logged_get
            for ep in range(10):
                run_episode(env, aut, agent, timeout=timeout, cache=cache,
                            rng=stream_rng(0, STREAM_EVAL, ep))
        contested = [[sub for _, sub in cand] for cand in picks
                     if len(cand) > 1]
        assert asked == contested
        assert len(contested) >= 20
        assert len(picks) > len(contested)

    def test_evaluate_with_checkpoint_runs(self):
        ckpt = self.small_checkpoint()
        reports = evaluate(["F a"], ckpt, n_traj=2, seeds=(0,))
        assert reports[0].eta_s + reports[0].eta_v + reports[0].eta_o == 1.0

    def test_evaluate_needs_agent_or_checkpoint(self):
        with pytest.raises(ValueError):
            evaluate(["F a"], n_traj=1, seeds=(0,))


# sha256 over every Outcome and every trace's labels and switches, for the
# criterion 06/07 specs at seeds 0-1, 100 episodes each
EVAL_DIGEST = (
    "a7abd7e3658cb3368b034c81a88ab392203fa17c7033de1f6010d156e0747cc1")


def eval_digest(traces) -> str:
    h = hashlib.sha256()
    for spec_traces in traces:
        for outcome, trace in spec_traces:
            h.update(json.dumps(
                [outcome.status, outcome.steps, outcome.accepting_visits,
                 [int(x) for x in trace["labels"]], trace["switches"]],
                default=int).encode())
    return h.hexdigest()


def test_pinned_desk_eval_is_byte_identical():
    ckpt = json.loads(PINNED_DESK.read_text())
    _, traces = evaluate(SEQ2_SPECS + [NESTED_SPEC], ckpt, n_traj=100,
                         seeds=(0, 1), record_traces=True)
    assert eval_digest(traces) == EVAL_DIGEST
