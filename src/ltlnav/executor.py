"""Zero-shot execution of LTL tasks with a subgoal-conditioned policy.

Tracks the set of automaton states consistent with the labels seen so far,
picks the candidate subgoal with the best value trade-off, and switches
subgoals on a timeout, marking the abandoned (state, reach) pair as
unsatisfiable so it is not offered again within the episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .buchi import BuchiAutomaton, compile_formula
from .envs import EnvConfig, achievable_assignments, alphabet_for, make_env
from .ltl import Always, Eventually, Formula, eval_bool, is_boolean, parse
from .nets import (
    JsonFields, forward, head_from_json, json_field, json_object, mean_action,
    unpack,
)
from .reduction import FUSIONS, reduce, reduced_dim
from .subgoals import Subgoal, extract_subgoals
from .trainer import STREAM_EVAL, stream_rng

__all__ = [
    "SUCCESS", "VIOLATION", "OTHER",
    "SATISFIED", "VIOLATED", "UNDETERMINED",
    "Outcome", "EvalReport", "timeout_threshold",
    "PolicyAgent", "select_subgoal", "run_episode", "classify_trace_oracle",
    "accepting_run_count", "evaluate",
]

SUCCESS = "success"
VIOLATION = "violation"
OTHER = "other"

SATISFIED = "satisfied"
VIOLATED = "violated"
UNDETERMINED = "undetermined"


@dataclass
class Outcome:
    status: str
    steps: int
    accepting_visits: int = 0

    def __post_init__(self):
        if self.status not in (SUCCESS, VIOLATION, OTHER):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def steps_to_success(self) -> int | None:
        return self.steps if self.status == SUCCESS else None


def timeout_threshold(mu_subgoal: int | None, eps_scale: float,
                      max_steps: int) -> int:
    # with no training statistic, fall back to a quarter of the horizon
    if mu_subgoal is None:
        return max(1, max_steps // 4)
    return max(1, math.ceil((1.0 + eps_scale) * mu_subgoal))


@dataclass
class EvalReport(JsonFields):
    spec: str
    eta_s: float
    eta_v: float
    eta_o: float
    mu: float | None
    mu_acc: float | None
    seeds: tuple[int, ...]
    n: int

    def __post_init__(self):
        if abs(self.eta_s + self.eta_v + self.eta_o - 1.0) > 1e-12:
            raise ValueError("rates must sum to 1")
        self.seeds = tuple(int(s) for s in self.seeds)


# -- agents --------------------------------------------------------------------


class PolicyAgent:
    """Deterministic wrapper around a trained checkpoint.

    Actions come from the mean of the policy head; candidate scores are
    V_r(s) - lambda(s) * V_h(s) on the subgoal-reduced observation.  The
    heads are unpacked once, with v_r, v_h and lam stacked so one forward
    pass over the candidates' rows, stacked as (C, 1, D), scores every
    candidate of a pick, bit for bit as one pass per candidate would.

    Each (observation, subgoal) row is reduced once per step: the agent
    keeps the rows of the observation it last saw, holding that object by
    reference, so `act` reuses the row `score` built for the picked
    subgoal, and any other observation object starts afresh.  Observations
    must not be mutated once passed in.
    """

    VALUE_HEADS = ("v_r", "v_h", "lam")

    def __init__(self, heads: dict, env_config: EnvConfig, fusion: str,
                 mu_subgoal: int | None = None):
        if fusion not in FUSIONS:
            raise ValueError(f"unknown fusion {fusion!r}")
        if set(heads) != {"policy", *self.VALUE_HEADS}:
            raise ValueError(f"checkpoint heads {sorted(heads)}, expected "
                             f"policy, v_r, v_h and lam")
        self.env_config = env_config
        self.fusion = fusion
        self.alphabet = alphabet_for(env_config)
        self.mu_subgoal = mu_subgoal
        spec, params = heads["policy"]
        self._policy = spec, unpack(spec, params)
        specs, params = zip(*(heads[name] for name in self.VALUE_HEADS))
        self._values = specs, unpack(specs, params)
        self._obs = None
        self._rows: dict[Subgoal, np.ndarray] = {}

    @classmethod
    def from_checkpoint(cls, ckpt: dict) -> "PolicyAgent":
        if json_object(ckpt, "checkpoint").get("version") != 1:
            raise ValueError(f"unsupported checkpoint version "
                             f"{ckpt.get('version')!r}, expected 1")
        heads = json_object(json_field(ckpt, "heads", "checkpoint heads"),
                            "checkpoint heads")
        mu = ckpt.get("mu_subgoal")
        if mu is not None and not (type(mu) is int and mu >= 1):
            raise ValueError(f"checkpoint mu_subgoal must be null or an "
                             f"int >= 1, got {mu!r}")
        heads = {name: head_from_json(d, f"checkpoint heads.{name}")
                 for name, d in heads.items()}
        env_config = EnvConfig.from_json(
            json_field(ckpt, "env", "checkpoint env"), "checkpoint env")
        fusion = json_field(ckpt, "fusion", "checkpoint fusion")
        agent = cls(heads, env_config, fusion, mu)
        dim = reduced_dim(agent.env_config, agent.fusion)
        for name, (spec, _) in heads.items():
            if spec.in_dim != dim:
                raise ValueError(
                    f"checkpoint head {name!r} takes {spec.in_dim} inputs, "
                    f"but its env config and {fusion!r} fusion give {dim}")
        return agent

    def _row(self, obs, sub: Subgoal) -> np.ndarray:
        """The reduced observation as a one-row batch, (1, D), reduced on
        the first call for this observation and subgoal."""
        if obs is not self._obs:
            self._obs, self._rows = obs, {}
        row = self._rows.get(sub)
        if row is None:
            row = self._rows[sub] = reduce(obs, sub, self.fusion,
                                           self.alphabet)[None]
        return row

    def act(self, obs, sub: Subgoal):
        spec, layers = self._policy
        return mean_action(spec, forward(spec, layers, self._row(obs, sub)))[0]

    def score(self, obs, subs: list[Subgoal]) -> list[float]:
        """V_r - lambda * V_h of each subgoal in subs, in order."""
        specs, layers = self._values
        rows = np.concatenate([self._row(obs, sub) for sub in subs])
        out = forward(specs, layers, rows.reshape(len(subs), 1, -1))
        return [v_r - lam * v_h for v_r, v_h, lam in zip(*out.tolist())]


# -- subgoal selection and the episode loop ------------------------------------


def select_subgoal(candidates: list[tuple[int, Subgoal]], agent, obs):
    """Best-scoring candidate; the first maximum wins, so ties fall back to
    the deterministic candidate ordering.  The agent scores every candidate
    of a pick in one call, agent.score(obs, subgoals), which returns one
    score per subgoal in order.  A lone candidate is taken unscored, since
    no score could change the pick.  A score that is not finite raises
    ValueError."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if len(candidates) == 1:
        return candidates[0]
    scores = agent.score(obs, [sub for _, sub in candidates])
    best = None
    best_score = -math.inf
    for (q, sub), s in zip(candidates, scores, strict=True):
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"candidate (state {q}, {sub}) scored {s}")
        if s > best_score:
            best, best_score = (q, sub), s
    return best


def _agent_position(env):
    st = env.state
    if hasattr(st, "position"):
        return [float(st.position[0]), float(st.position[1])]
    return [int(st.agent[0]), int(st.agent[1])]


class _CandidateCache:
    def __init__(self, aut: BuchiAutomaton, achievable: tuple[int, ...]):
        self.aut = aut
        self.achievable = tuple(achievable)
        self._memo: dict = {}

    def get(self, states: frozenset[int],
            unsat: frozenset[tuple[int, int]]) -> list[tuple[int, Subgoal]]:
        key = (states, unsat)
        if key not in self._memo:
            self._memo[key] = extract_subgoals(self.aut, states, unsat,
                                               self.achievable)
        return self._memo[key]


def run_episode(env, aut: BuchiAutomaton, agent, *, rng, timeout: int,
                switching: bool = True, cache: _CandidateCache | None = None,
                record_positions: bool = False):
    """One rollout under automaton guidance; returns (Outcome, trace).

    The trace holds the per-step label sequence plus the subgoal switch log
    (and agent positions when requested), enough for offline re-checking.
    """
    if cache is None:
        cache = _CandidateCache(aut, achievable_assignments(env.config))
    cls = aut.classify()
    accepting = frozenset(aut.accepting)

    obs = env.reset(rng)
    states = frozenset({aut.initial})
    unsat: frozenset[tuple[int, int]] = frozenset()
    trace = {"labels": [], "switches": []}
    if record_positions:
        trace["positions"] = [_agent_position(env)]
    t = steps_on = visits = 0
    pick, done = True, False

    # the pick comes before the done check, so a switch caused by the
    # final step is still logged
    while True:
        if states & cls.accepting_sink:
            return Outcome(SUCCESS, t, accepting_visits=visits), trace
        if not (states & cls.live):
            return Outcome(VIOLATION, t, accepting_visits=visits), trace
        if pick:
            cand = cache.get(states, unsat)
            if not cand:
                return Outcome(OTHER, t, accepting_visits=visits), trace
            cur_q, cur_sub = select_subgoal(cand, agent, obs)
            trace["switches"].append(
                {"t": t, "state": cur_q, "reach": cur_sub.reach,
                 "avoid": sorted(cur_sub.avoid)})
            steps_on = 0
        if done:
            return Outcome(OTHER, t, accepting_visits=visits), trace

        obs, label, done = env.step(agent.act(obs, cur_sub))
        t += 1
        trace["labels"].append(label)
        if record_positions:
            trace["positions"].append(_agent_position(env))
        nxt = aut.step(states, label)
        if nxt & accepting:
            visits += 1
        steps_on += 1

        pick = nxt != states
        if not pick and steps_on >= timeout:
            steps_on = 0
            # accepting state in the set: the run is already making progress
            # in the Buchi sense, so only the timer restarts
            if switching and not (states & accepting):
                pick = True
                unsat = unsat | {(q, cur_sub.reach)
                                 for q in states if q not in accepting}
        states = nxt


def classify_trace_oracle(aut: BuchiAutomaton, labels) -> str:
    """Offline re-check of a finite label sequence against the automaton.

    Satisfied: some run reaches an accepting sink. Violated: every run dies
    (the tracked set empties or keeps no live state). Otherwise the prefix
    decides nothing.
    """
    cls = aut.classify()
    states = frozenset({aut.initial})
    if states & cls.accepting_sink:
        return SATISFIED
    if not (states & cls.live):
        return VIOLATED
    for label in labels:
        states = aut.step(states, int(label))
        if states & cls.accepting_sink:
            return SATISFIED
        if not states or not (states & cls.live):
            return VIOLATED
    return UNDETERMINED


# -- metrics --------------------------------------------------------------------


def _stabilization_core(f: Formula) -> Formula | None:
    """The propositional core p when f has the shape F G p, else None."""
    if (isinstance(f, Eventually) and isinstance(f.arg, Always)
            and is_boolean(f.arg.arg)):
        return f.arg.arg
    return None


def accepting_run_count(formula: Formula, labels, alphabet,
                        visits: int) -> int:
    """Accepting-state visit count for one trajectory.

    Stabilization tasks (F G p) are scored by the run of p-steps counted
    backward from the final timestep; everything else uses the online count
    of steps whose successor state set touched the accepting set.
    """
    core = _stabilization_core(formula)
    if core is None:
        return visits
    count = 0
    for label in reversed(labels):
        if not eval_bool(core, int(label), alphabet):
            break
        count += 1
    return count


def evaluate(specs, checkpoint: dict | None = None, *, n_traj: int = 100,
             seeds=(0, 1, 2, 3, 4), horizon_multiplier: int = 1,
             eps_scale: float = 0.5, switching: bool = True,
             env_config: EnvConfig | None = None, agent_factory=None,
             record_traces: bool = False):
    """Run each spec text over seeds x episodes and aggregate outcome rates.

    The agent comes from a checkpoint alone, or from agent_factory(env)
    with env_config (scripted baselines); the switching timeout comes from
    its mu_subgoal, and eps_scale must be above -1 and keep (1 + eps_scale)
    times it finite. n_traj and horizon_multiplier must be ints of at least
    1 (a bool is no count), and the seeds non-negative ints. Every spec is
    compiled before the first episode, and one that does not compile over
    the env's alphabet raises a ValueError naming it. Returns a list of
    EvalReport aligned with specs; with record_traces, returns (reports,
    traces) where traces[i] is the per-episode (outcome, trace) list for
    specs[i].
    """
    if ((checkpoint is None) == (agent_factory is None)
            or (env_config is None) != (agent_factory is None)):
        raise ValueError("need a checkpoint alone, or an agent_factory "
                         "together with an env_config")
    specs, seeds = tuple(specs), tuple(seeds)
    if not specs:
        raise ValueError("need at least one spec")
    for name, count in (("n_traj", n_traj),
                        ("horizon_multiplier", horizon_multiplier)):
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValueError(f"{name} must be an int, got {count!r}")
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if not seeds:
        raise ValueError("need at least one seed")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seeds must be non-negative ints, got {seed!r}")
    if checkpoint is not None:
        agent = PolicyAgent.from_checkpoint(checkpoint)
        env_config = agent.env_config
    if horizon_multiplier != 1:
        env_config = replace(env_config, max_steps=(
            env_config.max_steps * horizon_multiplier))
    alphabet = alphabet_for(env_config)
    achievable = achievable_assignments(env_config)
    compiled = []
    for text in specs:
        formula = parse(text)
        try:
            compiled.append((text, formula, compile_formula(formula, alphabet)))
        except ValueError as err:
            raise ValueError(f"spec {text!r}: {err}") from None

    env = make_env(env_config)
    if agent_factory is not None:
        agent = agent_factory(env)
    mu = getattr(agent, "mu_subgoal", None)
    if not (eps_scale > -1 and math.isfinite((1.0 + eps_scale) * (mu or 1))):
        raise ValueError(
            f"eps_scale must keep the timeout finite and positive: {eps_scale}")
    timeout = timeout_threshold(mu, eps_scale, env_config.max_steps)

    reports = []
    all_traces = []
    for text, formula, aut in compiled:
        cache = _CandidateCache(aut, achievable)
        n_s = n_v = 0
        steps_to = []
        acc_counts = []
        spec_traces = []
        for seed in seeds:
            for ep in range(n_traj):
                rng = stream_rng(seed, STREAM_EVAL, ep)
                outcome, trace = run_episode(
                    env, aut, agent, rng=rng, timeout=timeout,
                    switching=switching, cache=cache,
                    record_positions=record_traces)
                if outcome.status == SUCCESS:
                    n_s += 1
                    steps_to.append(outcome.steps_to_success)
                elif outcome.status == VIOLATION:
                    n_v += 1
                if outcome.status != VIOLATION:
                    acc_counts.append(accepting_run_count(
                        formula, trace["labels"], alphabet,
                        outcome.accepting_visits))
                if record_traces:
                    spec_traces.append((outcome, trace))
        total = len(seeds) * n_traj
        eta_s = n_s / total
        eta_v = n_v / total
        reports.append(EvalReport(
            spec=text,
            eta_s=eta_s, eta_v=eta_v, eta_o=1.0 - eta_s - eta_v,
            mu=float(np.mean(steps_to)) if steps_to else None,
            mu_acc=float(np.mean(acc_counts)) if acc_counts else None,
            seeds=seeds, n=n_traj))
        all_traces.append(spec_traces)
    if record_traces:
        return reports, all_traces
    return reports
