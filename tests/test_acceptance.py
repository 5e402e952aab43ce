"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS/FAIL line (shown with -s, or in captured
output otherwise). The desk-scale policy used by criteria 6 and 7 trains
once and is cached under .artifacts/ keyed by a config hash, so the first
run takes several minutes and later runs are fast.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import gen
from scripted import ScriptedGridAgent, ScriptedZoneAgent
from test_nets import fd_grad, random_spec
from test_reduction import (
    grid_obs, lidar_obs, permute_grid_obs, permute_lidar_obs,
    permute_subgoal, random_subgoal,
)
from test_subgoals import (
    brute_lassos, brute_successors, compile_str, random_automaton,
)
from test_trainer import brute_lambda1_advantage, random_episode_batch

from ltlnav import envs, nets, reduction, subgoals, trainer
from ltlnav.buchi import compile_formula
from ltlnav.envs import EnvConfig, make_env
from ltlnav.executor import (
    OTHER, SATISFIED, SUCCESS, UNDETERMINED, VIOLATED, VIOLATION,
    accepting_run_count, classify_trace_oracle, evaluate, run_episode,
)
from ltlnav.ltl import Alphabet, eval_lasso, parse
from ltlnav.nets import backward, forward_tape, n_params
from ltlnav.reduction import reduce, reduced_dim
from ltlnav.subgoals import Subgoal, UniverseTooLarge, extract_subgoals
from ltlnav.trainer import (
    TrainerConfig, episode_cost_togo, gae_reward, stream_rng, train,
)

ARTIFACTS = Path(__file__).resolve().parent.parent / ".artifacts"

DESK_ENV = EnvConfig(env="letterworld", grid_size=5, letters=tuple("abcd"),
                     copies_per_letter=2, max_steps=75)
DESK_TRAINER = TrainerConfig(gamma=0.94, total_interactions=2_000_000,
                             n_per_iter=4096, minibatch=256, epochs=10,
                             workers=16, seed=0)

SEQ2_SPECS = [
    "(!b) U (a & ((!c) U d))",
    "(!a) U (c & ((!d) U b))",
    "(!d) U (b & ((!a) U c))",
]
NESTED_SPEC = "(!a) U (b & ((!c) U (d & ((!b) U c))))"

ZONE_CONFIG = EnvConfig(
    env="zonesim", overlap_mode=True, max_steps=400,
    fixed_zones=(("blue", (-0.45, 1.2), 0.4),
                 ("green", (0.45, 1.2), 0.4),
                 ("magenta", (0.0, -2.0), 0.4),
                 ("yellow", (2.0, 0.5), 0.4)),
    agent_start=(0.0, 0.0))
ZONE_SPEC = "(!yellow) U ((blue & green) | magenta)"


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    assert ok, line


def _desk_key() -> str:
    # the sources of the training path are part of the key, so a change to
    # training code retrains the policy instead of reusing an old one
    sources = hashlib.sha256()
    for module in (envs, reduction, subgoals, nets, trainer):
        sources.update(Path(module.__file__).read_bytes())
    blob = json.dumps({"env": DESK_ENV.to_json(),
                       "trainer": DESK_TRAINER.to_json(),
                       "sources": sources.hexdigest()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def ensure_desk_checkpoint() -> dict:
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / f"desk-{_desk_key()}.ckpt.json"
    if not path.exists():
        print("\ntraining desk-scale checkpoint (one-time, cached under "
              f"{ARTIFACTS})...")
        train(DESK_TRAINER, DESK_ENV,
              log_path=str(ARTIFACTS / f"desk-{_desk_key()}.log.jsonl"),
              checkpoint_path=str(path))
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def desk_checkpoint():
    return ensure_desk_checkpoint()


def test_criterion_01_automaton_language_agreement():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(500):
        n_props = int(rng.integers(1, 5))
        names = tuple("abcd"[:n_props])
        ab = Alphabet(names)
        f = gen.random_formula(rng, depth=4, names=names)
        aut = compile_formula(f, ab)
        for _ in range(200):
            w = gen.random_lasso(rng, n_props)
            if aut.accepts_lasso(w) != eval_lasso(f, w, ab):
                mismatches += 1
    elapsed = time.monotonic() - t0
    _report(1, mismatches == 0 and elapsed < 120,
            f"500 formulas x 200 lasso words, {mismatches} mismatches, "
            f"{elapsed:.1f}s")


def test_criterion_02_subgoal_extraction_fidelity():
    # worked example: reach (a and b) or c while avoiding d and e
    ab = gen.small_alphabet(5)
    aut = compile_str("!(d | e) U ((a & b) | c)", ab)
    achievable = (ab.mask("a", "b"), ab.mask("c"), ab.mask("d"), ab.mask("e"))
    got = extract_subgoals(aut, frozenset({0}), frozenset(), achievable)
    avoid = frozenset({ab.mask("d"), ab.mask("e")})
    example_ok = got == [(0, Subgoal(ab.mask("a", "b"), avoid)),
                         (0, Subgoal(ab.mask("c"), avoid))]

    rng = np.random.default_rng(102)
    sound = 0
    for _ in range(200):
        aut = random_automaton(rng, n_states=int(rng.integers(2, 6)))
        n_letters = 1 << aut.alphabet.n
        k = int(rng.integers(1, n_letters))
        achievable = tuple(
            int(x) + 1 for x in sorted(rng.choice(n_letters - 1, size=k,
                                                  replace=False)))
        live = {s for s in range(aut.n_states) if brute_lassos(aut, s)}
        states = frozenset(
            int(x) for x in rng.choice(
                aut.n_states, size=int(rng.integers(1, aut.n_states + 1)),
                replace=False))
        got = extract_subgoals(aut, states, frozenset(), achievable)
        by_state = {}
        for q, sub in got:
            by_state.setdefault(q, []).append(sub)
        for q in states:
            expected_avoid = frozenset(
                a for a in achievable
                if not (brute_successors(aut, q, a) & live))
            seconds = set()
            for path, j in brute_lassos(aut, q):
                seconds.add(path[1] if len(path) > 1 else path[j])
            expected_reach = {
                a for a in achievable
                if a not in expected_avoid
                and brute_successors(aut, q, a) & seconds}
            subs = by_state.get(q, [])
            assert {s.reach for s in subs} == expected_reach
            for s in subs:
                assert s.avoid == expected_avoid
                assert s.reach not in s.avoid
                assert brute_successors(aut, q, s.reach) & live
        sound += 1
    _report(2, example_ok and sound == 200,
            f"worked example {'exact' if example_ok else 'WRONG'}, "
            f"soundness held on {sound}/200 random automata")


def test_criterion_03_reachability_value_oracle():
    # deterministic 5-state chain 0 -> 1 -> 2 -> 3 -> 4 with the constraint
    # signal observed on arrival
    h_arr = {1: -1.0, 2: 1.0, 3: -1.0, 4: -1.0}
    brute = {s: max(h_arr[t] for t in range(s + 1, 5)) for s in range(4)}
    targets = {}
    for start in range(4):
        states = list(range(start, 4))
        h = np.array([h_arr[s + 1] for s in states])
        boundary = np.array([False] * (len(h) - 1) + [True])
        togo = episode_cost_togo(h, boundary)
        for s, target in zip(states, togo):
            targets.setdefault(s, []).append(float(target))
    v_h = {s: float(np.mean(ts)) for s, ts in targets.items()}
    # a second regression pass sees the same episodes, so the table is a
    # fixed point
    v_h2 = {s: float(np.mean(ts)) for s, ts in targets.items()}
    max_err = max(abs(v_h[s] - brute[s]) for s in range(4))
    converged = v_h == v_h2
    _report(3, max_err <= 1e-6 and converged,
            f"tabular value vs brute-force max-over-time: max error "
            f"{max_err:.2e}, fixed point {converged}")


def test_criterion_04_gae_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        rewards, v, v_next, terminal, boundary = random_episode_batch(rng)
        gamma = float(rng.uniform(0.8, 0.99))
        adv, _ = gae_reward(rewards, v, v_next, terminal, boundary,
                            gamma, lam_gae=1.0)
        for t in range(len(rewards)):
            want = brute_lambda1_advantage(rewards, v, v_next, terminal,
                                           boundary, gamma, t)
            worst = max(worst, abs(float(adv[t]) - want))
    _report(4, worst <= 1e-6,
            f"lambda=1 advantages vs discounted returns on 100 rollouts, "
            f"max abs error {worst:.2e}")


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(105)
    worst = 0.0
    probes = 0
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
            probes += 1
    _report(5, probes == 100 and worst < 1e-4,
            f"analytic vs central differences, {probes} probes across four "
            f"heads, max relative error {worst:.2e}")


def test_criterion_06_desk_scale_sequence_tasks(desk_checkpoint):
    reports = evaluate(SEQ2_SPECS, desk_checkpoint, n_traj=100,
                       seeds=(0, 1, 2, 3, 4))
    eta_s = float(np.mean([r.eta_s for r in reports]))
    eta_v = float(np.mean([r.eta_v for r in reports]))
    per_spec = ", ".join(f"{r.eta_s:.2f}" for r in reports)
    _report(6, eta_s >= 0.85 and eta_v <= 0.05,
            f"sequence-2 reach-avoid over 5 seeds x 100 episodes: "
            f"eta_s {eta_s:.3f} (per spec {per_spec}), eta_v {eta_v:.3f}")


def test_criterion_07_zero_shot_nesting(desk_checkpoint):
    reports = evaluate([NESTED_SPEC], desk_checkpoint, n_traj=100,
                       seeds=(0, 1, 2, 3, 4))
    rep = reports[0]
    _report(7, rep.eta_s >= 0.7,
            f"held-out nested spec: eta_s {rep.eta_s:.3f}, "
            f"eta_v {rep.eta_v:.3f}")


def test_criterion_08_unsatisfiable_subgoal_switching():
    on = evaluate([ZONE_SPEC], env_config=ZONE_CONFIG,
                  agent_factory=ScriptedZoneAgent, n_traj=20,
                  seeds=(0, 1, 2, 3, 4))[0]
    off = evaluate([ZONE_SPEC], env_config=ZONE_CONFIG,
                   agent_factory=ScriptedZoneAgent, n_traj=20,
                   seeds=(0, 1, 2, 3, 4), switching=False)[0]
    _report(8, on.eta_s >= 0.8 and off.eta_s <= 0.1,
            f"switching on eta_s {on.eta_s:.2f}, switching off "
            f"eta_s {off.eta_s:.2f}")


def test_criterion_09_observation_reduction_equivariance():
    rng = np.random.default_rng(109)
    cases = 0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        obs = grid_obs(rng.integers(-1, n, size=(5, 5)))
        sub = random_subgoal(rng, n)
        perm = rng.permutation(n)
        assert np.array_equal(
            reduce(permute_grid_obs(obs, perm), permute_subgoal(sub, perm)),
            reduce(obs, sub))
        cases += 1
    for _ in range(500):
        n = int(rng.integers(2, 6))
        obs = lidar_obs(rng, n, k=8)
        sub = random_subgoal(rng, n)
        perm = rng.permutation(n)
        assert np.array_equal(
            reduce(permute_lidar_obs(obs, perm), permute_subgoal(sub, perm)),
            reduce(obs, sub))
        cases += 1
    dims = {reduced_dim(EnvConfig(
                env="zonesim",
                letters=tuple(chr(ord("a") + i) for i in range(n))))
            for n in (4, 10)}
    constant = len(dims) == 1
    _report(9, cases == 1000 and constant,
            f"{cases} permutation cases exact; reduced dim over 4 -> 10 "
            f"props: {sorted(dims)}")


class _InertAgent:
    def act(self, obs, sub):
        return 0

    def score(self, obs, sub):
        return 0.0


def test_criterion_10_metric_identities_and_agreement():
    # identity over evaluated reports
    reports = evaluate(["F a", "G (F a)"], env_config=DESK_ENV,
                       agent_factory=ScriptedGridAgent, n_traj=4,
                       seeds=(0, 1))
    identity_ok = all(
        abs(r.eta_s + r.eta_v + r.eta_o - 1.0) <= 1e-12 for r in reports)

    # online/offline agreement on 1000 random episodes
    config = EnvConfig(env="letterworld", grid_size=5, letters=tuple("abcd"),
                       copies_per_letter=2, max_steps=20)
    env = make_env(config)
    ab = Alphabet(tuple("abcd"))
    rng = np.random.default_rng(110)
    mapping = {SUCCESS: SATISFIED, VIOLATION: VIOLATED, OTHER: UNDETERMINED}
    checked = 0
    while checked < 1000:
        f = gen.random_formula(rng, depth=3, names=tuple("abcd"))
        aut = compile_formula(f, ab)
        try:
            for _ in range(8):
                agent = _RandomWalker(np.random.default_rng(500 + checked))
                outcome, trace = run_episode(
                    env, aut, agent, rng=stream_rng(checked, 3), timeout=6)
                assert (classify_trace_oracle(aut, trace["labels"])
                        == mapping[outcome.status])
                checked += 1
        except UniverseTooLarge:
            continue

    # three scripted visit counts, hand-computed
    counts_ok = True
    # stabilization: only the final run of a-steps counts, backward
    counts_ok &= accepting_run_count(parse("F (G a)"), [1, 0, 1, 1],
                                     ab, visits=3) == 2
    counts_ok &= accepting_run_count(parse("F (G (a | b))"), [4, 2, 1, 2],
                                     ab, visits=9) == 3
    # recurrence G (F a) on labels a,-,a,a,-: the state set touches the
    # accepting state after each a, so three online visits
    aut = compile_formula(parse("G (F a)"), Alphabet(("a",)))
    script = gen.ScriptEnv([1, 0, 1, 1, 0])
    outcome, trace = run_episode(script, aut, _InertAgent(),
                                 rng=stream_rng(0, 3), timeout=100)
    online = accepting_run_count(parse("G (F a)"), trace["labels"],
                                 Alphabet(("a",)), outcome.accepting_visits)
    counts_ok &= online == 3

    _report(10, identity_ok and checked == 1000 and counts_ok,
            f"rate identities exact, agreement on {checked} episodes, "
            f"scripted visit counts matched")


class _RandomWalker:
    def __init__(self, rng):
        self.rng = rng

    def act(self, obs, sub):
        return int(self.rng.integers(4))

    def score(self, obs, sub):
        return float(self.rng.random())
