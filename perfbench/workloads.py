"""The four benchmark workloads.

Every workload is closed-loop with one caller: the next unit of work starts
when the previous one has returned.  A unit is the next iteration of one
training run, one evaluation pass over the criterion 06/07 specs with the
next block of episode seeds, or one pass over the compile suite with its
propositions renamed.  No two units of a run share inputs, so no cache that
outlives a unit can skip work, and the same seed gives the same units.
Ops are timed in CPU time (``CLOCK``); run.py scales the times by the
speed of a reference loop.  Calls into ltlnav go through module
attributes (``executor.evaluate``, ``buchi.compile_formula``) so that the
tracer in tracing.py can wrap them.

Correctness is checked outside every timed region: training compares the
warm-up iteration's parameter hash with a fresh same-seed trainer's after
measuring, evaluation re-classifies every episode with
``classify_trace_oracle`` as its pass ends, and the compile suite compares
each pass with the first as it ends and, after measuring, each automaton
with ``eval_lasso`` on seeded random lasso words.  Nothing a unit produces
is kept beyond what the checks and the metadata need, so memory does not
grow with the number of units a run makes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ltlnav import buchi, executor, ltl, subgoals
from ltlnav.envs import EnvConfig, achievable_assignments
from ltlnav.ltl import Alphabet, Lasso
from ltlnav.trainer import Trainer, TrainerConfig

HERE = Path(__file__).resolve().parent

# CPU time of this thread.  BLAS runs in it alone and no timed region waits
# on I/O, so this is the work done, without the time the process is
# descheduled on a shared machine.  Not the process clock: while run.py's
# CPU-time interval timer is armed, Linux reads that at scheduler-tick
# granularity (4 ms).
CLOCK = time.thread_time

# Desk checkpoint the criterion 06/07 tests use, pinned so that retraining
# the cached one cannot change the evaluation work.
CHECKPOINT = HERE / "desk.ckpt.json"
CHECKPOINT_SHA256 = (
    "739472a6565fa85dcc2052bb95207a99973a994540cadc537b78f74b73e68b26")


class PinMismatch(RuntimeError):
    """The pinned checkpoint does not have its recorded checksum."""


def _report_error(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    op = item = ""
    items_per_op = 1     # throughput items per op
    tail_pct = 90        # percentile of the op latencies in op_ms.tail

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0           # ops whose output disagreed with an oracle
        self.done = False        # set when an op failed so that the state
        self.errors: list[str] = []  # left behind cannot be measured further

    def _failure(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def unit(self) -> list[tuple]:
        """Run one unit; returns (op key, CPU clock at start, CPU clock at
        end) per op.  Only compile-suite repeats a key across units."""
        raise NotImplementedError

    def restart(self) -> None:
        """Make the next unit the first unit's work again (for the traced
        half of a traced run)."""

    def check(self) -> None:
        """Checks that run once, after measuring."""

    def success_rate(self) -> float:
        raise NotImplementedError

    def detail(self) -> dict:
        return {}


# -- training -----------------------------------------------------------------

DESK_ENV = EnvConfig(env="letterworld", grid_size=5, letters=tuple("abcd"),
                     copies_per_letter=2, max_steps=75)
ZONE_ENV = EnvConfig(env="zonesim", overlap_mode=True)


def params_hash(trainer: Trainer) -> str:
    h = hashlib.sha256()
    for name in sorted(trainer.heads):
        h.update(name.encode())
        h.update(np.ascontiguousarray(trainer.heads[name].params).tobytes())
    return h.hexdigest()


class TrainWorkload(Workload):
    """Trainer.iteration on the desk trainer settings.  After one warm-up
    iteration, each unit is the next iteration of the same training run."""

    op, item = "iteration", "env step"

    def __init__(self, env_config: EnvConfig, seed: int, tiny: bool):
        super().__init__()
        self.env_config = env_config
        self.config = TrainerConfig(
            gamma=0.94, total_interactions=2_000_000,
            n_per_iter=256 if tiny else 4096, minibatch=64 if tiny else 256,
            epochs=2 if tiny else 10, workers=16, seed=seed)
        self.items_per_op = self.config.n_per_iter
        self.trainer = None
        self.warm_hash = None
        self.hashes: list[str] = []    # after each timed iteration

    def setup(self) -> None:
        self.trainer = Trainer(self.config, self.env_config)

    def _iterate(self) -> tuple[float, float] | None:
        """CPU clock at start and end, or None when it raised."""
        self.attempted += 1
        t0 = CLOCK()
        try:
            self.trainer.iteration()
        except Exception as exc:  # counted, then measuring stops
            _report_error("Trainer.iteration")
            self._failure("iteration", exc)
            self.done = True
            return None
        return t0, CLOCK()

    def warmup(self) -> None:
        if self._iterate() is not None:
            self.warm_hash = params_hash(self.trainer)

    def unit(self) -> list[tuple]:
        timed = self._iterate()
        if timed is None:
            return []
        self.hashes.append(params_hash(self.trainer))
        return [(len(self.hashes), *timed)]

    def check(self) -> None:
        """A fresh same-seed trainer must reproduce the warm-up iteration;
        two same-seed runs must agree on ``param_hashes``."""
        if self.warm_hash is None:
            return
        replay = Trainer(self.config, self.env_config)
        replay.iteration()
        if params_hash(replay) != self.warm_hash:
            self.wrong += 1
            self.failed += 1
            self.errors.append("warm-up iteration: parameters differ from a "
                               "same-seed replay")

    def success_rate(self) -> float:
        """Share of steps without a safety violation over the warm-up and
        first timed iterations, which depend on the seed alone."""
        log = self.trainer.log[:2] if self.trainer else []
        if not log:
            return 0.0
        return 1.0 - float(np.mean([r["violation_rate"] for r in log]))

    def detail(self) -> dict:
        return {"iterations": len(self.hashes),
                "n_per_iter": self.config.n_per_iter,
                "minibatches": self.config.n_per_iter // self.config.minibatch,
                "epochs": self.config.epochs,
                "log": self.trainer.log if self.trainer else [],
                "param_hashes": self.hashes}


# -- zero-shot evaluation -------------------------------------------------------

SEQ2_SPECS = [
    "(!b) U (a & ((!c) U d))",
    "(!a) U (c & ((!d) U b))",
    "(!d) U (b & ((!a) U c))",
]
NESTED_SPEC = "(!a) U (b & ((!c) U (d & ((!b) U c))))"

_ORACLE = {executor.SUCCESS: executor.SATISFIED,
           executor.VIOLATION: executor.VIOLATED,
           executor.OTHER: executor.UNDETERMINED}


class EvalWorkload(Workload):
    """executor.evaluate on criterion 06's specs plus criterion 07's."""

    op = item = "episode"
    tail_pct = 99        # of 2000 episodes per pass

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        # Pass p runs evaluate's seeds n*p .. n*p + n-1, so pass 0 is
        # criteria 06/07's (seeds 0..4) and success_rate stays the
        # acceptance tests' value, while no later pass repeats an episode.
        # The run's seed rotates the order of the specs.
        self.n_seeds = 1 if tiny else 5
        self.n_traj = 2 if tiny else 100
        specs = SEQ2_SPECS + [NESTED_SPEC]
        k = seed % len(specs)
        self.specs = specs[k:] + specs[:k]
        self.checkpoint = None
        self.next_pass = 0
        self.passes: list[tuple] = []   # seeds, reports, episodes, env steps

    def setup(self) -> None:
        data = CHECKPOINT.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != CHECKPOINT_SHA256:
            raise PinMismatch(f"{CHECKPOINT.name} has sha256 {digest}, "
                              f"expected {CHECKPOINT_SHA256}")
        self.checkpoint = json.loads(data)

    def _evaluate(self, specs, n_traj, seeds):
        """One evaluate call with each run_episode call timed; returns
        (reports, episodes) with episodes as (start, end, automaton, status,
        labels) tuples, start and end read from CLOCK."""
        episodes = []
        inner = executor.run_episode

        def timed(env, aut, agent, **kwargs):
            t0 = CLOCK()
            outcome, trace = inner(env, aut, agent, **kwargs)
            episodes.append((t0, CLOCK(), aut, outcome.status,
                             trace["labels"]))
            return outcome, trace

        executor.run_episode = timed
        try:
            reports = executor.evaluate(specs, self.checkpoint, n_traj=n_traj,
                                        seeds=seeds)
        finally:
            executor.run_episode = inner
        return reports, episodes

    def warmup(self) -> None:
        self._evaluate(["F a"], 2, (0,))

    def restart(self) -> None:
        self.next_pass = 0

    def unit(self) -> list[tuple]:
        p = self.next_pass
        self.next_pass += 1
        seeds = tuple(range(self.n_seeds * p, self.n_seeds * (p + 1)))
        try:
            reports, episodes = self._evaluate(self.specs, self.n_traj, seeds)
        except Exception as exc:  # counted, then measuring stops
            _report_error("evaluate")
            self.attempted += len(self.specs) * len(seeds) * self.n_traj
            self._failure("evaluate", exc)
            self.done = True
            return []
        self.attempted += len(episodes)
        for i, (_, _, aut, status, labels) in enumerate(episodes):
            oracle = executor.classify_trace_oracle(aut, labels)
            if oracle != _ORACLE[status]:
                self.wrong += 1
                self.failed += 1
                self.errors.append(f"seeds {seeds} episode {i}: {status}, "
                                   f"oracle {oracle}")
        self.passes.append((seeds, reports, len(episodes),
                            sum(len(e[4]) for e in episodes)))
        return [((seeds, i), e[0], e[1]) for i, e in enumerate(episodes)]

    def success_rate(self) -> float:
        """Mean eta_s over the specs in pass 0 (criteria 06/07's success
        rate)."""
        if not self.passes:
            return 0.0
        return float(np.mean([r.eta_s for r in self.passes[0][1]]))

    def detail(self) -> dict:
        if not self.passes:
            return {"passes": 0}
        return {"passes": len(self.passes), "n_traj": self.n_traj,
                "seeds_per_pass": [list(p[0]) for p in self.passes],
                "episodes_per_pass": [p[2] for p in self.passes],
                "env_steps_per_pass": [p[3] for p in self.passes],
                "eta_s": {r.spec: r.eta_s for r in self.passes[0][1]},
                "eta_v": {r.spec: r.eta_v for r in self.passes[0][1]}}


# -- compile suite ----------------------------------------------------------------

LETTERS = Alphabet(tuple("abcdefgh"))
ZONES = Alphabet(("blue", "green", "magenta", "yellow"))


def sequence_spec(k: int) -> str:
    """Reach-avoid sequence of k steps over the 8 letters: step i reaches
    one letter while avoiding the next, cycling through the alphabet."""
    names = LETTERS.names
    text = None
    for i in reversed(range(k)):
        reach, avoid = names[2 * i % 8], names[(2 * i + 1) % 8]
        text = reach if text is None else f"({reach} & ({text}))"
        text = f"(!{avoid}) U {text}"
    return text


@dataclass(frozen=True)
class Spec:
    name: str
    text: str
    alphabet: Alphabet
    why: str


SUITE = (
    *(Spec(f"sequence-{k}", sequence_spec(k), LETTERS,
           "tableau-heavy: the tableau grows with each nested Until")
      for k in (2, 3, 4, 5)),
    Spec("gf-3", "G F a & G F b & G F c", LETTERS,
         "degeneralization-heavy: three acceptance sets"),
    Spec("gf-4", "G F a & G F b & G F c & G F d", LETTERS,
         "degeneralization-heavy: four acceptance sets, the slowest compile"),
    Spec("response", "G (a -> F b) & G (c -> F d)", LETTERS,
         "extraction-heavy: two interleaved obligations"),
    Spec("response-next", "G (a -> X F b) & G (c -> X F d)", LETTERS,
         "extraction-heavy: enumerates about 330k lassos"),
    Spec("persistence", "F G a", LETTERS,
         "stabilization: a nondeterministic guess with a live sink"),
    Spec("nested-c07", NESTED_SPEC, LETTERS,
         "the held-out nested spec of criterion 07"),
    Spec("zone-c08", "(!yellow) U ((blue & green) | magenta)", ZONES,
         "criterion 08's overlap-mode spec with a two-color reach, the only "
         "overlap-mode spec the repository compiles"),
    Spec("too-many-lassos", "(G (a -> F b)) & (G (c -> F d)) & F e", LETTERS,
         "raises UniverseTooLarge today; kept as a counted failure"),
)
TINY_SUITE = ("sequence-2", "persistence", "zone-c08", "too-many-lassos")

_ZONE_ACHIEVABLE = achievable_assignments(ZONE_ENV)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _rename(text: str, names: dict[str, str]) -> str:
    return _NAME.sub(lambda m: names.get(m.group(0), m.group(0)), text)


def renamed(spec: Spec, tag: int) -> tuple[str, Alphabet, dict[str, str]]:
    """The spec with every proposition renamed to <name><tag>.  Bit
    positions stay, so the automaton and subgoals are the same up to the
    names, but neither the text nor the alphabet has been seen before.
    Returns the text, the alphabet and the map back to the old names."""
    names = {n: f"{n}{tag}" for n in spec.alphabet.names}
    return (_rename(spec.text, names), Alphabet(tuple(names.values())),
            {new: old for old, new in names.items()})


def achievable_for(alphabet: Alphabet) -> tuple[int, ...]:
    if alphabet is ZONES:
        return _ZONE_ACHIEVABLE
    return tuple(1 << i for i in range(alphabet.n))


class CompileWorkload(Workload):
    """parse + compile_formula + extract_subgoals for every live state, as
    the inspect-subgoals command does.  Pass u renames every proposition
    with the tag u, so no cache keyed by text, formula or alphabet carries
    over from an earlier pass."""

    op = item = "spec"
    tail_pct = 90        # of 12 specs
    WORDS = 100          # random lasso words checked per spec

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        self.seed = seed
        self.suite = [s for s in SUITE if not tiny or s.name in TINY_SUITE]
        self.achievable = {}
        self.passes = 0
        self.first = None    # per spec (formula, automaton) from pass 0
        self.signature = None    # per spec output of pass 0, up to names

    def setup(self) -> None:
        self.achievable = {s.name: achievable_for(s.alphabet)
                           for s in self.suite}

    def _run(self, spec: Spec, text: str, alphabet: Alphabet):
        """(formula, automaton, candidates per live state, error); the
        fields after a failing step stay None."""
        formula = aut = cands = None
        try:
            formula = ltl.parse(text)
            aut = buchi.compile_formula(formula, alphabet)
            cands = {q: subgoals.extract_subgoals(
                         aut, frozenset({q}), frozenset(),
                         self.achievable[spec.name])
                     for q in sorted(aut.classify().live)}
        except Exception as exc:  # counted; the next spec still runs
            return formula, aut, cands, exc
        return formula, aut, cands, None

    def warmup(self) -> None:
        spec = Spec("warmup", "F (a & F b)", LETTERS, "")
        self.achievable[spec.name] = achievable_for(LETTERS)
        self._run(spec, spec.text, spec.alphabet)

    def unit(self) -> list[tuple]:
        latencies, firsts, signature = [], [], []
        tag = self.passes
        self.passes += 1
        for spec in self.suite:
            text, alphabet, back = renamed(spec, tag)
            self.attempted += 1
            gc.collect()    # each spec starts from the same heap state
            t0 = CLOCK()
            formula, aut, cands, error = self._run(spec, text, alphabet)
            latencies.append((spec.name, t0, CLOCK()))
            if error is not None:
                self._failure(spec.name, error)
            firsts.append((formula, aut))
            signature.append((
                _rename(json.dumps(aut.to_json()), back)
                if aut is not None else None,
                repr(cands), type(error).__name__))
        if self.first is None:
            self.first, self.signature = firsts, signature
        for spec, got, want in zip(self.suite, signature, self.signature):
            if got != want:
                self.wrong += 1
                self.failed += 1
                self.errors.append(f"pass {tag} {spec.name}: output differs "
                                   "from the first pass's, up to names")
        return latencies

    def _random_lasso(self, rng, spec: Spec) -> Lasso:
        """Letters mostly from the achievable assignments (what the
        environments label), the rest uniform over all assignments."""
        common = (0, *self.achievable[spec.name])
        n_letters = 1 << spec.alphabet.n

        def word(length):
            return tuple(int(common[rng.integers(len(common))])
                         if rng.random() < 0.8
                         else int(rng.integers(n_letters))
                         for _ in range(length))

        return Lasso(word(int(rng.integers(0, 5))),
                     word(int(rng.integers(1, 5))))

    def check(self) -> None:
        if self.first is None:
            return
        rng = np.random.default_rng(self.seed)
        for spec, (formula, aut) in zip(self.suite, self.first):
            if aut is None:
                continue
            for _ in range(self.WORDS):
                w = self._random_lasso(rng, spec)
                if aut.accepts_lasso(w) != ltl.eval_lasso(formula, w,
                                                          aut.alphabet):
                    self.wrong += 1
                    self.failed += 1
                    self.errors.append(f"{spec.name}: automaton disagrees "
                                       f"with eval_lasso on {w}")
                    break

    def success_rate(self) -> float:
        """Share of suite specs that compiled and extracted in pass 0."""
        if self.signature is None:
            return 0.0
        ok = sum(1 for _, _, err in self.signature if err == "NoneType")
        return ok / len(self.suite)

    def detail(self) -> dict:
        return {"passes": self.passes,
                "specs": {s.name: {"text": s.text, "why": s.why}
                          for s in self.suite},
                "states": {s.name: (a.n_states if a is not None else None)
                           for s, (_, a) in zip(self.suite, self.first or [])}}


def make(name: str, seed: int, tiny: bool) -> Workload:
    if name == "train-letterworld":
        return TrainWorkload(DESK_ENV, seed, tiny)
    if name == "train-zonesim":
        return TrainWorkload(ZONE_ENV, seed, tiny)
    if name == "eval-zeroshot":
        return EvalWorkload(seed, tiny)
    if name == "compile-suite":
        return CompileWorkload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
