"""Smoke and consistency tests for the benchmark itself.

    python3 -m pytest perfbench

Every run uses --size tiny, so each takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seed=0, cwd=ROOT, seconds=0.2):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace=0, seed=0, seconds=0.2):
    proc = bench(workload, trace, seed, seconds=seconds)
    assert proc.returncode == 0, proc.stderr
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line), json.loads(result_line)


def values(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    meta, res = result(workload)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    got = values(res)
    assert set(got) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
    assert meta["meta"]["traced"] is False
    assert meta["meta"]["src_lines"] > 0
    assert meta["meta"]["blas_threads"] <= meta["meta"]["nproc"]


def test_compile_suite_counts_the_too_many_lassos_spec():
    # several passes, each with other proposition names; the workload
    # checks that they agree up to the names
    meta, res = result("compile-suite", seconds=1.5)
    passes = meta["detail"]["passes"]
    assert passes >= 2
    assert res["correct"] is True
    assert res["failed"] == passes
    assert all("UniverseTooLarge" in e for e in meta["detail"]["errors"])
    assert values(res)["ok_frac"] == pytest.approx(3 / 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    meta, res = result(workload, trace=1)
    assert res["correct"] is True
    assert set(values(res)) == {m["name"] for m in SPEC["per_layer"]}
    assert meta["meta"]["traced"] is True


def test_eval_traced_and_untraced_agree():
    # so short that each half of the traced run makes one pass, pass 0
    plain_meta, _ = result("eval-zeroshot", seed=3, seconds=0.002)
    traced_meta, traced = result("eval-zeroshot", trace=1, seed=3,
                                 seconds=0.002)
    got = values(traced)
    assert traced_meta["detail"]["seeds_per_pass"] == [[0], [0]]
    steps = plain_meta["detail"]["env_steps_per_pass"][0]
    assert got["executor.env_steps"] == steps
    assert got["envs.letterworld.step_calls"] == steps
    assert traced_meta["detail"]["eta_s"] == plain_meta["detail"]["eta_s"]
    assert got["nets.backward_calls"] == 0
    assert 0 < got["executor.candidate_hit_ratio"] < 1


@pytest.mark.parametrize("workload,world", [
    ("train-letterworld", "letterworld"), ("train-zonesim", "zonesim")])
def test_train_traced_counts_match_the_config(workload, world):
    meta, res = result(workload, trace=1)
    got = values(res)
    d = meta["detail"]
    # per-layer counts are per iteration
    assert got[f"envs.{world}.step_calls"] == d["n_per_iter"]
    assert got["nets.backward_calls"] == 4 * d["epochs"] * d["minibatches"]
    assert got["nets.adam_calls"] == 4 * d["epochs"] * d["minibatches"]
    assert got["trainer.loss_calls"] == d["epochs"] * d["minibatches"]
    assert got["executor.env_steps"] == 0


def test_same_seed_runs_train_the_same_parameters():
    a, _ = result("train-letterworld", seed=5)
    b, _ = result("train-letterworld", seed=5)
    a, b = a["detail"]["param_hashes"], b["detail"]["param_hashes"]
    n = min(len(a), len(b))
    assert n >= 1
    assert a[:n] == b[:n]
    assert len(set(a)) == len(a)    # every timed iteration is a new one


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("compile-suite", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_fails_fast_on_a_changed_checkpoint(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    ckpt = tmp_path / "perfbench" / "desk.ckpt.json"
    ckpt.write_text(ckpt.read_text().replace('"mu_subgoal": 6',
                                             '"mu_subgoal": 7'))
    proc = bench("eval-zeroshot", cwd=tmp_path)
    assert proc.returncode == 3
    assert '"metrics"' not in proc.stdout
    assert "sha256" in proc.stderr
