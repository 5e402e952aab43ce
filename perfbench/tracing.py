"""In-memory span tracer installed on the names that ltlnav modules import.

Nothing inside ``src/`` is instrumented.  The tracer replaces, for the
duration of a traced phase, the module attributes and class methods that
one ltlnav module calls in another (``ltlnav.trainer.forward``,
``ltlnav.executor.extract_subgoals``, ``BuchiAutomaton.step``, ...) with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Spans live in flat arrays and are written out when
the run ends; self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

MODULES = ("ltl", "buchi", "subgoals", "envs", "reduction", "nets", "trainer",
           "executor")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, count=None):
        """fn with one span per call; count(tracer, args, result) runs after
        a call that returned."""
        nid = self._id(name)
        clock = time.perf_counter
        name_ix, parent, start, end = (self.name_ix, self.parent, self.start,
                                       self.end)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str | None = None, count=None):
        """Replace owner.attr by a traced wrapper, or by a pure counter
        when name is None (for calls too frequent to span)."""
        original = getattr(owner, attr)
        if name is None:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[count] = counts.get(count, 0) + 1
                return original(*args, **kwargs)

            wrapper = counted
        else:
            wrapper = self.wrap(original, name, count)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        if not len(self.start):
            return {}
        ix = np.frombuffer(self.name_ix, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        covered = np.zeros_like(dur)
        inner = par >= 0
        np.add.at(covered, par[inner], dur[inner])
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(ix, minlength=k)
        total = np.bincount(ix, weights=dur, minlength=k)
        own = np.bincount(ix, weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_ix=np.frombuffer(self.name_ix, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


# -- where the wrappers go ----------------------------------------------------


def _count_rows(tracer, args, result):
    x = np.asarray(args[2])
    tracer.add("nets.forward_rows", 1 if x.ndim == 1 else x.shape[0])


def _count_states(tracer, args, result):
    tracer.add("buchi.states_total", result.n_states)


def _count_lassos(tracer, args, result):
    tracer.add("subgoals.lassos_total", len(result))


def _count_episode(tracer, args, result):
    _, trace = result
    tracer.add("executor.env_steps", len(trace["labels"]))
    tracer.add("executor.switches_total", len(trace["switches"]))


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call site the per-layer metrics need."""
    from ltlnav import buchi, envs, executor, ltl, subgoals, trainer

    # ltl and buchi: parse and compile as the benchmark and executor call
    # them; eval_bool only counted, through the name buchi imports.
    tracer.patch(ltl, "parse", "ltl.parse")
    tracer.patch(executor, "parse", "ltl.parse")
    tracer.patch(buchi, "eval_bool", None, "ltl.eval_bool_calls")
    tracer.patch(buchi, "compile_formula", "buchi.compile", _count_states)
    tracer.patch(executor, "compile_formula", "buchi.compile", _count_states)
    tracer.patch(buchi.BuchiAutomaton, "step", "buchi.step")
    tracer.patch(buchi.BuchiAutomaton, "classify", "buchi.classify")

    tracer.patch(subgoals, "extract_subgoals", "subgoals.extract")
    tracer.patch(executor, "extract_subgoals", "subgoals.extract")
    # find_lassos is called through subgoals' own global; count the lassos
    # each completed enumeration returns
    tracer.patch(subgoals, "find_lassos", "subgoals.find_lassos",
                 _count_lassos)
    tracer.patch(trainer, "sample_subgoal", "subgoals.sample")

    for cls, world in ((envs.LetterWorld, "letterworld"),
                       (envs.ZoneSim, "zonesim")):
        tracer.patch(cls, "step", f"envs.{world}.step")
        tracer.patch(cls, "reset", f"envs.{world}.reset")

    tracer.patch(trainer, "reduce", "reduction.reduce")
    tracer.patch(executor, "reduce", "reduction.reduce")

    tracer.patch(trainer, "forward", "nets.forward", _count_rows)
    tracer.patch(executor, "forward", "nets.forward", _count_rows)
    tracer.patch(trainer, "backward", "nets.backward")
    tracer.patch(trainer, "adam_step", "nets.adam")
    tracer.patch(trainer, "sample_categorical", "nets.sample")
    tracer.patch(trainer, "sample_gaussian", "nets.sample")

    tracer.patch(trainer.Trainer, "iteration", "trainer.iteration")
    tracer.patch(trainer.Trainer, "collect", "trainer.collect")
    tracer.patch(trainer.Trainer, "_advantages", "trainer.advantages")
    tracer.patch(trainer, "gae_reward", "trainer.gae")
    tracer.patch(trainer, "gae_cost", "trainer.gae")
    tracer.patch(trainer, "loss", "trainer.loss")

    tracer.patch(executor, "evaluate", "executor.evaluate")
    tracer.patch(executor, "run_episode", "executor.episode", _count_episode)
    tracer.patch(executor, "select_subgoal", "executor.select")
    tracer.patch(executor.PolicyAgent, "act", "executor.act")
    tracer.patch(executor.PolicyAgent, "score", "executor.score")
    tracer.patch(executor._CandidateCache, "get", "executor.candidates")


# -- per-layer metrics ----------------------------------------------------------

COUNT, SECONDS, RATIO = "count", "s", "ratio"


def layer_metrics(tracer: Tracer, units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per unit of work (one training iteration, one eval
    pass, or one compile-suite pass).  Modules a workload never calls read
    zero."""
    stats = tracer.span_stats()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value / units if unit != RATIO else value, unit)

    put("ltl.parse_s", secs("ltl.parse"), SECONDS)
    put("ltl.eval_bool_calls", counts.get("ltl.eval_bool_calls", 0), COUNT)
    put("buchi.compile_s", secs("buchi.compile"), SECONDS)
    put("buchi.states_total", counts.get("buchi.states_total", 0), COUNT)
    put("buchi.step_calls", calls("buchi.step"), COUNT)
    put("buchi.step_s", secs("buchi.step"), SECONDS)
    put("subgoals.extract_calls", calls("subgoals.extract"), COUNT)
    put("subgoals.extract_s", secs("subgoals.extract"), SECONDS)
    put("subgoals.lassos_total", counts.get("subgoals.lassos_total", 0), COUNT)
    put("subgoals.sample_calls", calls("subgoals.sample"), COUNT)
    put("subgoals.sample_s", secs("subgoals.sample"), SECONDS)
    for world in ("letterworld", "zonesim"):
        for op in ("step", "reset"):
            name = f"envs.{world}.{op}"
            put(f"{name}_calls", calls(name), COUNT)
            put(f"{name}_s", secs(name), SECONDS)
    put("reduction.reduce_calls", calls("reduction.reduce"), COUNT)
    put("reduction.reduce_s", secs("reduction.reduce"), SECONDS)
    put("nets.forward_calls", calls("nets.forward"), COUNT)
    put("nets.forward_rows", counts.get("nets.forward_rows", 0), COUNT)
    put("nets.forward_s", secs("nets.forward"), SECONDS)
    for op in ("backward", "adam", "sample"):
        put(f"nets.{op}_calls", calls(f"nets.{op}"), COUNT)
        put(f"nets.{op}_s", secs(f"nets.{op}"), SECONDS)
    put("trainer.collect_s", secs("trainer.collect"), SECONDS)
    put("trainer.advantages_s", secs("trainer.advantages"), SECONDS)
    put("trainer.gae_s", secs("trainer.gae"), SECONDS)
    put("trainer.update_s", secs("trainer.iteration") - secs("trainer.collect")
        - secs("trainer.advantages"), SECONDS)
    put("trainer.loss_calls", calls("trainer.loss"), COUNT)
    put("trainer.loss_s", secs("trainer.loss"), SECONDS)
    put("executor.env_steps", counts.get("executor.env_steps", 0), COUNT)
    put("executor.switches_total", counts.get("executor.switches_total", 0),
        COUNT)
    put("executor.score_calls", calls("executor.score"), COUNT)
    put("executor.select_s", secs("executor.select"), SECONDS)
    put("executor.act_s", secs("executor.act"), SECONDS)
    gets = calls("executor.candidates")
    misses = calls("subgoals.extract") if gets else 0
    put("executor.candidate_hit_ratio",
        (gets - misses) / gets if gets else 0.0, RATIO)
    for module in MODULES:
        own = sum(s[2] for name, s in stats.items()
                  if name.split(".", 1)[0] == module)
        put(f"{module}.self_s", own, SECONDS)
    put("trace.spans", len(tracer.start), COUNT)
    return out
