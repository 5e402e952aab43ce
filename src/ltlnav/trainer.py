"""Subgoal-conditioned policy training under a reachability constraint.

One policy is trained against subgoals drawn uniformly, by index and
without listing them, from every reach/avoid pair over the env's
achievable assignments.  Each transition carries two signals: a sparse
reward (1 exactly when the label equals the reach assignment) and a
safety value h (+1 when the label is in the avoid set, else -1).  Reward
advantages come from standard GAE; safety advantages use the reachability
residual ``(1-g)h + g*max(h, V_h(s')) - V_h(s)`` whose fixed point is the
maximum future h.  The policy ascends a clipped surrogate minus a
state-dependent multiplier times the constraint term; the multiplier head
descends the same term, growing where violations persist and decaying to
zero where they do not.

Collection is step-major: row t*W + i of every rollout array is worker
i's step t, written in place into arrays allocated before the first env
step.  The value passes behind the advantages run in blocks of minibatch
rows, the block the update works in, so no step of an iteration holds
hidden activations for more than a minibatch of rows.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .envs import EnvConfig, achievable_assignments, alphabet_for, make_env
from .nets import (
    AdamState, JsonFields, MlpSpec, adam_init, adam_step, backward,
    categorical_cdf, categorical_logp, categorical_logp_grad, forward,
    forward_tape, gaussian_logp, gaussian_logp_grad, head_to_json,
    init_params, n_params, sample_categorical, sample_gaussian,
)
from .reduction import FUSIONS, reduce, reduced_dim
from .subgoals import Subgoal, sample_subgoal

__all__ = [
    "TrainerConfig", "Rollout", "MIN_COMPLETIONS", "NonFiniteError",
    "Trainer", "signals", "gae_reward", "gae_cost", "episode_cost_togo",
    "loss", "float32_heads", "atomic_write_text", "LOSS_DIAGNOSTICS",
    "STREAM_ENV", "STREAM_POLICY_INIT", "STREAM_ROLLOUT", "STREAM_EVAL",
]

# Named sub-streams of the root seed, so each consumer of randomness is
# reproducible on its own.
STREAM_ENV = 0
STREAM_POLICY_INIT = 1
STREAM_ROLLOUT = 2
STREAM_EVAL = 3

# loss statistics that each log record carries as means over the
# iteration's minibatches
LOSS_DIAGNOSTICS = ("mean_lambda", "policy_objective", "vr_loss", "vh_loss",
                    "mean_ratio")

# completions the trailing window must hold before it reports mu_subgoal,
# the maximum number of steps one subgoal took
MIN_COMPLETIONS = 100


def stream_rng(seed: int, stream: int, member: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, member)))


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    # mkstemp creates the file 0600; give it the mode open(path, "w") would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class NonFiniteError(RuntimeError):
    """Training produced NaN/inf; diagnostics say where."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(f"{message}: {diagnostics}")
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TrainerConfig(JsonFields):
    gamma: float = 0.94
    lam_gae: float = 0.95
    clip_eps: float = 0.2
    lr: float = 3e-4
    multiplier_lr: float = 1e-3
    total_interactions: int = 100_000
    n_per_iter: int = 4096
    minibatch: int = 256
    epochs: int = 10
    workers: int = 1
    seed: int = 0
    fusion: str = "reduced"              # "reduced" | "raw"
    actor_hidden: tuple[int, ...] = (64, 64, 64)
    value_hidden: tuple[int, ...] = (64, 64)
    stats_window: int = 500

    def __post_init__(self):
        self._check_scalars()
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        if not 0 <= self.lam_gae <= 1:
            raise ValueError("lam_gae must be in [0, 1]")
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip_eps must be in (0, 1)")
        for name in ("lr", "multiplier_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fusion not in FUSIONS:
            raise ValueError(f"unknown fusion {self.fusion!r}")
        for name in ("total_interactions", "n_per_iter", "minibatch",
                     "epochs", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.n_per_iter % self.workers != 0:
            raise ValueError("n_per_iter must be divisible by workers")
        if not MIN_COMPLETIONS <= self.stats_window <= np.iinfo(np.intp).max:
            # a shorter window never reports mu_subgoal, and evaluation
            # would silently fall back to its default switching timeout
            raise ValueError(f"stats_window must be at least {MIN_COMPLETIONS} "
                             f"and fit a deque, got {self.stats_window}")
        object.__setattr__(self, "actor_hidden", tuple(self.actor_hidden))
        object.__setattr__(self, "value_hidden", tuple(self.value_hidden))


@dataclass
class Rollout:
    obs: np.ndarray          # (N, D) reduced observations
    next_obs: np.ndarray     # (N, D) successor under the then-active subgoal
    actions: np.ndarray      # (N,) int or (N, A) float
    logp: np.ndarray         # (N,)
    rewards: np.ndarray      # (N,) in {0, 1}
    costs: np.ndarray        # (N,) in {-1, +1}
    terminal: np.ndarray     # (N,) bool: episode truly ended (violation)
    boundary: np.ndarray     # (N,) bool: episode ended here for any reason

    def __post_init__(self):
        if not ((self.rewards == 0) | (self.rewards == 1)).all():
            raise ValueError("rewards must be 0/1")
        if not ((self.costs == -1) | (self.costs == 1)).all():
            raise ValueError("costs must be -1/+1")
        if (self.terminal & ~self.boundary).any():
            raise ValueError("terminal steps must be episode boundaries")


def signals(label: int, sub: Subgoal) -> tuple[int, int]:
    """(reward, safety): r = 1 iff the label equals the reach assignment;
    h = +1 iff the label is one of the avoid assignments, else -1."""
    r = 1 if label == sub.reach else 0
    h = 1 if label in sub.avoid else -1
    return r, h


def _scan_back(x: np.ndarray, boundary: np.ndarray, fold,
               empty: float) -> np.ndarray:
    """out[t] = fold(x[t], out[t+1]) over time (axis 0), where the future
    is `empty` past the end and at each episode boundary.  Trailing axes
    are independent streams, each with its own boundaries, and each is
    scanned in Python floats, which round as float64 arrays do."""
    width = math.prod(x.shape[1:])
    streams = zip(x.reshape(len(x), width).T.tolist(),
                  boundary.reshape(len(x), width).T.tolist())
    cols = []
    for xs, ends in streams:
        col = [empty] * len(xs)
        acc = empty
        for t in range(len(xs) - 1, -1, -1):
            acc = fold(xs[t], empty if ends[t] else acc)
            col[t] = acc
        cols.append(col)
    return np.array(cols, dtype=x.dtype).T.reshape(x.shape)


def gae_reward(rewards, v, v_next, terminal, boundary, gamma, lam_gae):
    """(advantages, returns): TD residuals with V(s') zeroed at true
    terminals, bootstrapped at horizon cutoffs, accumulation stopping at
    episode boundaries.  Returns are advantage + baseline.  Arrays are
    (steps,) or (steps, streams)."""
    v_eff = np.where(terminal, 0.0, v_next)
    delta = rewards + gamma * v_eff - v
    decay = gamma * lam_gae
    adv = _scan_back(delta, boundary, lambda d, acc: d + decay * acc, 0.0)
    return adv, adv + v


def episode_cost_togo(costs, boundary):
    """Per-step maximum of h over the remainder of the episode."""
    return _scan_back(costs, boundary, max, -math.inf)


def gae_cost(costs, v_h, v_h_next, terminal, boundary, gamma, lam_gae):
    """(advantages, cost-to-go): reachability residual
    (1-g)h + g*max(h, V_h(s')) - V_h(s); the max over an empty future is
    h itself, so terminals use max(h, .) = h."""
    v_eff = np.where(terminal, costs, np.maximum(costs, v_h_next))
    delta = (1 - gamma) * costs + gamma * v_eff - v_h
    decay = gamma * lam_gae
    adv = _scan_back(delta, boundary, lambda d, acc: d + decay * acc, 0.0)
    return adv, episode_cost_togo(costs, boundary)


@dataclass
class Head:
    spec: MlpSpec
    params: np.ndarray
    adam: AdamState

    @staticmethod
    def fresh(spec: MlpSpec, rng: np.random.Generator) -> "Head":
        return Head(spec, init_params(spec, rng), adam_init(n_params(spec)))


def float32_heads(heads: dict) -> dict:
    """The heads with float32 copies of their params, for one minibatch's
    forward and backward passes; the float64 params and Adam state stay
    the masters."""
    return {name: replace(h, params=h.params.astype(np.float32))
            for name, h in heads.items()}


def loss(heads: dict, batch: dict, clip_eps: float, gamma: float):
    """Objectives and exact gradients for one minibatch.

    The policy ascends mean(min(ratio*A_r, clip(ratio)*A_r)
    - lambda(s)*((1-gamma)*H + ratio*A_h)) with the multiplier held
    constant; the multiplier head descends -lambda(s)*C with the
    constraint term C held constant; both value heads regress their
    targets by mean squared error.  Returns (stats, grads) where grads
    maps head names to flat parameter gradients of each LOSS (the policy
    entry is the gradient of the negated objective, ready for descent).
    """
    obs = batch["obs"]
    b = len(obs)
    pol = heads["policy"]
    out, pol_tape = forward_tape(pol.spec, pol.params, obs)
    if pol.spec.head == "categorical":
        logits = out
        logp_new = categorical_logp(logits, batch["actions"])
    else:
        mean, log_std = out
        logp_new = gaussian_logp(mean, log_std, batch["actions"])
    ratio = np.exp(logp_new - batch["logp"])

    adv_r = batch["adv_r"]
    adv_h = batch["adv_h"]
    cost_togo = batch["cost_togo"]
    unclipped = ratio * adv_r
    clipped = np.clip(ratio, 1 - clip_eps, 1 + clip_eps) * adv_r
    surr = np.minimum(unclipped, clipped)

    lam_head = heads["lam"]
    lam, lam_tape = forward_tape(lam_head.spec, lam_head.params, obs)
    constraint = (1 - gamma) * cost_togo + ratio * adv_h

    # d surr / d ratio is adv_r exactly where the unclipped branch is the
    # minimum; the clipped branch has zero slope whenever it differs.
    dsurr = np.where(unclipped <= clipped, adv_r, 0.0)
    dlogp = -(dsurr - lam * adv_h) * ratio / b
    if pol.spec.head == "categorical":
        d_pol = dlogp[:, None] * categorical_logp_grad(
            logits, batch["actions"])
    else:
        g_mean, g_ls = gaussian_logp_grad(mean, log_std, batch["actions"])
        d_pol = dlogp[:, None] * g_mean, dlogp[:, None] * g_ls

    stats = {
        "policy_objective": float(np.mean(surr - lam * constraint)),
        "multiplier_loss": float(np.mean(-lam * constraint)),
        "mean_lambda": float(np.mean(lam)),
        "mean_ratio": float(np.mean(ratio)),
    }
    grads = {"policy": backward(pol.spec, pol_tape, d_pol),
             "lam": backward(lam_head.spec, lam_tape, -constraint / b)}
    for name, target in (("v_r", batch["ret"]), ("v_h", cost_togo)):
        head = heads[name]
        pred, tape = forward_tape(head.spec, head.params, obs)
        err = pred - target
        stats[name.replace("_", "") + "_loss"] = float(np.mean(err ** 2))
        grads[name] = backward(head.spec, tape, 2.0 * err / b)
    return stats, grads


@dataclass
class _Worker:
    env: object
    env_rng: np.random.Generator
    vec: np.ndarray = None   # current observation reduced under sub
    sub: Subgoal = None
    steps_on_sub: int = 0


class Trainer:
    def __init__(self, config: TrainerConfig, env_config: EnvConfig):
        self.config = config
        self.env_config = env_config
        self.alphabet = alphabet_for(env_config)
        # one target leaves no subgoal once reached; past 58, sample_subgoal's
        # m * 2^(m-1) subgoals overflow its int64 draw
        self.targets = achievable_assignments(env_config)
        if not 2 <= len(self.targets) <= 58:
            raise ValueError(f"letters must be 2 to 58 achievable assignments "
                             f"for training, got {len(self.targets)}")
        dim = reduced_dim(env_config, config.fusion)
        # an iteration's widest arrays are collect's (n_per_iter, dim)
        # floats, since the value passes run in minibatch blocks; past this
        # numpy cannot even work out their size
        if config.n_per_iter * dim * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"n_per_iter {config.n_per_iter} is too large: "
                             f"its rollout of {dim}-float rows cannot be sized")
        init_rng = stream_rng(config.seed, STREAM_POLICY_INIT)
        if env_config.env == "letterworld":
            policy_spec = MlpSpec(dim, config.actor_hidden, "categorical", 4)
        else:
            policy_spec = MlpSpec(dim, config.actor_hidden, "gaussian", 2)
        self.heads = {
            "policy": Head.fresh(policy_spec, init_rng),
            "v_r": Head.fresh(MlpSpec(dim, config.value_hidden, "scalar"),
                              init_rng),
            "v_h": Head.fresh(MlpSpec(dim, config.value_hidden, "scalar"),
                              init_rng),
            "lam": Head.fresh(MlpSpec(dim, config.value_hidden, "nonneg"),
                              init_rng),
        }
        self.rollout_rng = stream_rng(config.seed, STREAM_ROLLOUT)
        # steps taken by each completed subgoal, newest last
        self.completions = deque(maxlen=config.stats_window)
        self.workers = []
        for w in range(config.workers):
            rng = stream_rng(config.seed, STREAM_ENV, w)
            worker = _Worker(make_env(env_config), rng)
            self._reset_worker(worker)
            self.workers.append(worker)
        self.interactions = 0
        self.iter_count = 0
        self.log = []

    @property
    def mu_subgoal(self) -> int | None:
        """Most steps any subgoal in the window took, once it holds
        MIN_COMPLETIONS completions; None before."""
        if len(self.completions) < MIN_COMPLETIONS:
            return None
        return max(self.completions)

    def _reduce(self, obs, sub: Subgoal) -> np.ndarray:
        return reduce(obs, sub, self.config.fusion, self.alphabet)

    def _reset_worker(self, worker: _Worker) -> None:
        obs = worker.env.reset(worker.env_rng)
        worker.sub = sample_subgoal(self.targets, self.rollout_rng,
                                    current_label=worker.env.label())
        worker.vec = self._reduce(obs, worker.sub)
        worker.steps_on_sub = 0

    def collect(self, n: int) -> Rollout:
        """n transitions, n / W steps of each of the W workers, step-major:
        row t*W + i is worker i's step t.  Every array of the Rollout is
        allocated before the first env step, so a size that cannot be
        allocated fails before any stepping, and each row is written in
        place as its step is taken.  A step's policy forward reads the
        (W, D) block of obs rows it has just written."""
        w_count = len(self.workers)
        if n % w_count:
            raise ValueError("collection size must be divisible by workers")
        pol = self.heads["policy"]
        categorical = pol.spec.head == "categorical"
        obs = np.empty((n, pol.spec.in_dim))
        next_obs = np.empty((n, pol.spec.in_dim))
        actions = (np.empty(n, dtype=np.int64) if categorical
                   else np.empty((n, pol.spec.out_dim)))
        logp = np.empty(n)
        rewards = np.empty(n)
        costs = np.empty(n)
        terminal = np.empty(n, dtype=bool)
        boundary = np.empty(n, dtype=bool)
        for at in range(0, n, w_count):
            block = slice(at, at + w_count)
            for i, worker in enumerate(self.workers):
                obs[at + i] = worker.vec
            out = forward(pol.spec, pol.params, obs[block])
            # one softmax and CDF for all rows; each row's uniform is still
            # drawn in the worker loop, because sample_subgoal draws from
            # the same generator between them
            if categorical:
                cdfs = categorical_cdf(out).tolist()
            for i, worker in enumerate(self.workers):
                row = at + i
                if categorical:
                    action = sample_categorical(cdfs[i], self.rollout_rng)
                else:
                    action = sample_gaussian(out[0][i], out[1],
                                             self.rollout_rng)
                actions[row] = action
                obs2, label, done = worker.env.step(action)
                r, h = signals(label, worker.sub)
                worker.steps_on_sub += 1
                violated = h > 0
                ended = violated or done
                if r:
                    self.completions.append(worker.steps_on_sub)
                    if not ended:
                        # the next step already pursues the new subgoal
                        worker.sub = sample_subgoal(
                            self.targets, self.rollout_rng,
                            current_label=label)
                        worker.steps_on_sub = 0
                next_vec = self._reduce(obs2, worker.sub)
                next_obs[row] = next_vec
                rewards[row] = r
                costs[row] = h
                terminal[row] = violated
                boundary[row] = ended
                if ended:
                    self._reset_worker(worker)
                else:
                    worker.vec = next_vec
            logp[block] = (categorical_logp(out, actions[block]) if categorical
                           else gaussian_logp(*out, actions[block]))
        self.interactions += n
        return Rollout(obs, next_obs, actions, logp, rewards, costs,
                       terminal, boundary)

    def _values(self, name: str, rows: np.ndarray) -> np.ndarray:
        """A value head's (n,) outputs on n rows, one forward pass per
        block of minibatch rows; the `nets` docstring says which blocks
        give the bits of one pass over all rows."""
        head = self.heads[name]
        step = self.config.minibatch
        out = np.empty(len(rows))
        for at in range(0, len(rows), step):
            out[at:at + step] = forward(head.spec, head.params,
                                        rows[at:at + step])
        return out

    def _advantages(self, roll: Rollout) -> dict:
        """The update's batch: reward and safety advantages, returns and
        cost-to-go from one backward scan per worker, over value passes
        that run in blocks of minibatch rows (`_values`)."""
        cfg = self.config
        # collect writes row t*W + i for worker i's step t, so the scans run
        # down the columns of the (steps, workers) view, one per worker
        cols = lambda a: a.reshape(-1, len(self.workers))
        ends = cols(roll.terminal), cols(roll.boundary)
        v = self._values("v_r", roll.obs)
        v_next = self._values("v_r", roll.next_obs)
        adv_r, ret = gae_reward(cols(roll.rewards), cols(v), cols(v_next),
                                *ends, cfg.gamma, cfg.lam_gae)
        vh_now = self._values("v_h", roll.obs)
        vh_next = self._values("v_h", roll.next_obs)
        adv_h, cost_togo = gae_cost(cols(roll.costs), cols(vh_now),
                                    cols(vh_next), *ends, cfg.gamma,
                                    cfg.lam_gae)
        adv_r, ret, adv_h, cost_togo = (
            a.ravel() for a in (adv_r, ret, adv_h, cost_togo))
        # Only reward advantages are normalized; the safety term keeps its
        # natural scale so the multiplier balance stays meaningful.
        std = float(adv_r.std())
        if std > 1e-8:
            adv_r = (adv_r - adv_r.mean()) / std
        return {"obs": roll.obs, "actions": roll.actions, "logp": roll.logp,
                "adv_r": adv_r, "adv_h": adv_h, "cost_togo": cost_togo,
                "ret": ret}

    def iteration(self) -> dict:
        cfg = self.config
        roll = self.collect(cfg.n_per_iter)
        batch = self._advantages(roll)
        # the minibatch passes run in float32 (mixed precision): obs is cast
        # once here, each head's params once per minibatch, and gradients
        # go back to float64 for Adam on the float64 master params
        batch["obs"] = batch["obs"].astype(np.float32)
        n = len(roll.obs)
        stats_acc = []
        for _ in range(cfg.epochs):
            order = self.rollout_rng.permutation(n)
            for at in range(0, n, cfg.minibatch):
                idx = order[at:at + cfg.minibatch]
                mini = {k: v[idx] for k, v in batch.items()}
                stats, grads = loss(float32_heads(self.heads), mini,
                                    cfg.clip_eps, cfg.gamma)
                stats_acc.append(stats)
                for name, head in self.heads.items():
                    lr = cfg.multiplier_lr if name == "lam" else cfg.lr
                    head.params = adam_step(
                        head.params, grads[name].astype(np.float64),
                        head.adam, lr=lr)
        self.iter_count += 1
        mean_of = lambda key: float(np.mean([s[key] for s in stats_acc]))
        attempts = int((roll.rewards.astype(bool) | roll.boundary).sum())
        record = {
            "iter": self.iter_count,
            "steps": self.interactions,
            "mean_reward": float(roll.rewards.mean()),
            "subgoal_success": (float(roll.rewards.sum()) / attempts
                                if attempts else 0.0),
            "violation_rate": int(roll.terminal.sum()) / n,
            **{key: mean_of(key) for key in LOSS_DIAGNOSTICS},
            "mu_subgoal": self.mu_subgoal,
        }
        for key in LOSS_DIAGNOSTICS:
            if not np.isfinite(record[key]):
                raise NonFiniteError(f"non-finite {key}", record)
        for name, head in self.heads.items():
            if not np.all(np.isfinite(head.params)):
                raise NonFiniteError(f"non-finite parameters in {name}",
                                     record)
        self.log.append(record)
        return record

    def run(self, log_path: str | None = None,
            checkpoint_path: str | None = None) -> dict:
        cfg = self.config
        iterations = max(1, cfg.total_interactions // cfg.n_per_iter)
        if log_path:
            os.makedirs(os.path.dirname(os.path.abspath(log_path)),
                        exist_ok=True)
        # one line per finished iteration, flushed, so a crash keeps them all
        with open(log_path, "w") if log_path else nullcontext() as log:
            for _ in range(iterations):
                record = self.iteration()
                if log:
                    log.write(json.dumps(record) + "\n")
                    log.flush()
        ckpt = self.checkpoint()
        if checkpoint_path:
            atomic_write_text(checkpoint_path, json.dumps(ckpt))
        return {"iterations": self.iter_count, "mu_subgoal": self.mu_subgoal,
                "log": self.log, "checkpoint": ckpt}

    def checkpoint(self) -> dict:
        return {
            "version": 1,
            "env": self.env_config.to_json(),
            "fusion": self.config.fusion,
            "heads": {name: head_to_json(h.spec, h.params)
                      for name, h in self.heads.items()},
            "mu_subgoal": self.mu_subgoal,
        }
