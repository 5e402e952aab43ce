"""The benchmark tracer in perfbench/tracing.py wraps names that ltlnav
modules import from each other. Installing it here makes a refactor that
renames or bypasses one of those names fail the test suite, not only a
traced benchmark run."""

import importlib.util
from pathlib import Path

from gen import small_alphabet
from scripted import ScriptedGridAgent
from ltlnav import buchi, envs, executor, ltl, subgoals, trainer

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

OWNERS = (ltl, buchi, subgoals, envs, executor, trainer,
          buchi.BuchiAutomaton, envs.LetterWorld, envs.ZoneSim,
          trainer.Trainer, executor.PolicyAgent, executor._CandidateCache)


def test_install_traces_extraction_and_restore_undoes_it():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        aut = buchi.compile_formula(ltl.parse("F (a & F b)"), small_alphabet(2))
        live = sorted(aut.classify().live)
        for q in live:
            subgoals.extract_subgoals(aut, frozenset({q}), frozenset(), (1, 2, 3))
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before

    stats = tracer.span_stats()
    assert stats["subgoals.extract"][0] == len(live)
    assert stats["subgoals.find_lassos"][0] == len(live)
    assert tracer.counts["subgoals.lassos_total"] == sum(
        len(subgoals.find_lassos(aut, q)) for q in live)
    assert tracer.counts["ltl.eval_bool_calls"] > 0
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["buchi.states_total"][0] == aut.n_states


def test_install_traces_the_episode_loop():
    before = [dict(vars(owner)) for owner in OWNERS]
    config = envs.EnvConfig(env="letterworld", grid_size=5,
                            letters=tuple("abcd"), copies_per_letter=2)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        _, traces = executor.evaluate(
            ["(!a) U (b & F c)"], env_config=config,
            agent_factory=ScriptedGridAgent, n_traj=3, seeds=(0,),
            record_traces=True)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before

    stats = tracer.span_stats()
    switches = sum(len(trace["switches"]) for _, trace in traces[0])
    assert stats["executor.episode"][0] == 3
    assert stats["executor.select"][0] == switches
    assert stats["executor.candidates"][0] >= stats["executor.select"][0]
    assert tracer.counts["executor.switches_total"] == switches
