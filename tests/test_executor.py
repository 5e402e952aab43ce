import numpy as np
import pytest

import gen
from ltlnav.buchi import compile_formula
from ltlnav.envs import EnvConfig, alphabet_for, make_env
from ltlnav.executor import (
    OTHER, SATISFIED, SUCCESS, UNDETERMINED, VIOLATED, VIOLATION,
    EvalReport, Outcome, PolicyAgent, accepting_run_count,
    classify_trace_oracle, evaluate, run_episode, select_subgoal,
    timeout_threshold,
)
from ltlnav.ltl import parse
from ltlnav.nets import forward, mean_action
from ltlnav.reduction import reduce
from ltlnav.subgoals import Subgoal, UniverseTooLarge
from ltlnav.trainer import Trainer, TrainerConfig, stream_rng
from scripted import ScriptedGridAgent, ScriptedZoneAgent
from test_reduction import random_subgoal


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

    def score(self, obs, sub):
        return 0.0


class ForcedTargetAgent:
    def __init__(self, env, reach):
        self.inner = ScriptedGridAgent(env)
        self.sub = Subgoal(reach, frozenset())

    def act(self, obs, sub):
        return self.inner.act(obs, self.sub)

    def score(self, obs, sub):
        return 0.0


class TableAgent:
    def __init__(self, scores):
        self.scores = scores

    def act(self, obs, sub):
        return 0

    def score(self, obs, sub):
        return self.scores[sub.key()]


class RandomAgent:
    def __init__(self, rng, n_actions=4):
        self.rng = rng
        self.n = n_actions

    def act(self, obs, sub):
        return int(self.rng.integers(self.n))

    def score(self, obs, sub):
        return float(self.rng.random())


class TestOutcomeAndTimeout:
    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            Outcome(SUCCESS, 5)
        with pytest.raises(ValueError):
            Outcome(OTHER, 5, steps_to_success=5)
        with pytest.raises(ValueError):
            Outcome("won", 5)

    def test_threshold(self):
        assert timeout_threshold(10, 0.5, 1000) == 15
        assert timeout_threshold(1, 0.0, 1000) == 1
        assert timeout_threshold(None, 0.5, 100) == 25
        assert timeout_threshold(None, 0.5, 2) == 1


class TestSelectSubgoal:
    def test_single_candidate(self):
        sub = Subgoal(1, frozenset())
        agent = TableAgent({sub.key(): 0.0})
        assert select_subgoal([(0, sub)], agent, None) == (0, sub)

    def test_value_tradeoff(self):
        s1, s2 = Subgoal(1, frozenset()), Subgoal(2, frozenset())
        # V_r equal, lambda*V_h = 0.5 vs -0.5
        agent = TableAgent({s1.key(): 0.9 - 0.5, s2.key(): 0.9 + 0.5})
        assert select_subgoal([(0, s1), (0, s2)], agent, None) == (0, s2)

    def test_tie_takes_first(self):
        s1, s2 = Subgoal(1, frozenset()), Subgoal(2, frozenset())
        agent = TableAgent({s1.key(): 1.0, s2.key(): 1.0})
        for _ in range(5):
            assert select_subgoal([(0, s1), (0, s2)], agent, None) == (0, s1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        subs = [Subgoal(1 << i, frozenset()) for i in range(4)]
        raw = {s.key(): float(rng.standard_normal()) for s in subs}
        cands = [(0, s) for s in subs]
        base = select_subgoal(cands, TableAgent(raw), None)
        for c in (0.5, 3.0, 1e6):
            scaled = {k: c * v for k, v in raw.items()}
            assert select_subgoal(cands, TableAgent(scaled), None) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_subgoal([], TableAgent({}), None)


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


class TestPolicyAgent:
    def small_checkpoint(self):
        cfg = TrainerConfig(total_interactions=128, n_per_iter=128,
                            minibatch=64, epochs=1, workers=2, seed=5,
                            actor_hidden=(16,), value_hidden=(16,))
        trainer = Trainer(cfg, grid_config())
        trainer.iteration()
        return trainer.checkpoint()

    def test_round_trip_act_and_score(self):
        ckpt = self.small_checkpoint()
        agent = PolicyAgent.from_checkpoint(ckpt)
        env = make_env(agent.env_config)
        obs = env.reset(stream_rng(0, 3))
        sub = Subgoal(1, frozenset({2}))
        a = agent.act(obs, sub)
        assert a in (0, 1, 2, 3)
        assert np.isfinite(agent.score(obs, sub))
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
                    assert (agent.score(obs, sub)
                            == out["v_r"][0] - out["lam"][0] * out["v_h"][0])
                action = (int(rng.integers(4)) if world == "letterworld"
                          else rng.uniform(-1, 1, size=2))
                obs = env.step(action)[0]

    def test_evaluate_with_checkpoint_runs(self):
        ckpt = self.small_checkpoint()
        reports = evaluate(["F a"], ckpt, n_traj=2, seeds=(0,))
        assert reports[0].eta_s + reports[0].eta_v + reports[0].eta_o == 1.0

    def test_evaluate_needs_agent_or_checkpoint(self):
        with pytest.raises(ValueError):
            evaluate(["F a"], n_traj=1, seeds=(0,))
