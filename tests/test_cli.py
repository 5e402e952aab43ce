import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import ltlnav
from ltlnav import cli, envs, executor
from ltlnav.buchi import compile_formula
from ltlnav.cli import _render_svg, main
from ltlnav.envs import EnvConfig, make_env
from ltlnav.ltl import MAX_DEPTH, Alphabet, parse
from ltlnav.trainer import STREAM_EVAL, TrainerConfig, stream_rng
from test_acceptance import ZONE_CONFIG
from test_trainer import zone_checkpoint

F_A_DOT = """\
digraph buchi {
  rankdir=LR;
  node [shape=circle];
  __init [shape=point, label=""];
  __init -> q0;
  q0 [shape=circle];
  q1 [shape=doublecircle];
  q0 -> q0 [label="!a"];
  q0 -> q1 [label="a"];
  q1 -> q1 [label="true"];
}"""


# formulas nested n levels deep, each with the token that opens a level
NESTED = {
    "parentheses": (lambda n: "(" * n + "a" + ")" * n, "("),
    "not": (lambda n: "!" * n + "a", "!"),
    "next": (lambda n: "X " * n + "a", "X"),
    "and": (lambda n: " & ".join(f"p{i}" for i in range(n + 1)), "&"),
}


def write_train_config(tmp_path, seed=3):
    cfg = {
        "env": {"env": "letterworld", "grid_size": 5,
                "letters": list("abcd"), "copies_per_letter": 2,
                "max_steps": 30},
        "trainer": {"total_interactions": 128, "n_per_iter": 64,
                    "minibatch": 32, "epochs": 1, "workers": 2, "seed": seed,
                    "actor_hidden": [16], "value_hidden": [16]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


# every int and float field of the two configs that a run file holds
SCALAR_FIELDS = [(section, f.name)
                 for section, cls in (("env", EnvConfig),
                                      ("trainer", TrainerConfig))
                 for f in fields(cls) if f.type in ("int", "float")]


def set_params(ckpt, head, value, n):
    ckpt["heads"][head]["params"][3:3 + n] = [value] * n


def split_params(ckpt, head):
    params = ckpt["heads"][head]["params"]
    half = len(params) // 2
    ckpt["heads"][head]["params"] = [params[:half], params[half:]]


def train_checkpoint(tmp_path):
    cfg = write_train_config(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    code = main(["train", "--config", str(cfg), "--checkpoint", str(ckpt)])
    assert code == 0
    return ckpt


class TestCompile:
    def test_golden_dot_and_json(self, tmp_path, capsys):
        dot = tmp_path / "fa.dot"
        aut_json = tmp_path / "fa.json"
        code = main(["compile", "F a", "--dot", str(dot),
                     "--json", str(aut_json)])
        assert code == 0
        assert dot.read_text().strip() == F_A_DOT
        written = json.loads(aut_json.read_text())
        aut = compile_formula(parse("F a"), Alphabet(("a",)))
        assert written == aut.to_json()
        assert written["states"] == [0, 1]
        summary = json.loads(capsys.readouterr().out)
        assert summary["states"] == 2
        assert summary["initial_subgoals"] == [
            {"state": 0, "reach": ["a"], "avoid": []}]

    def test_parse_error_exit_2(self, capsys):
        assert main(["compile", "(a &"]) == 2
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", NESTED)
    def test_nesting_bound_exit_2(self, shape, capsys):
        # past the bound is a parse error at the token that opens the level
        # too many, not a RecursionError
        spec, token = NESTED[shape]
        assert main(["compile", spec(MAX_DEPTH)]) == 0
        capsys.readouterr()
        deep = spec(MAX_DEPTH + 1)
        assert main(["compile", deep]) == 2
        assert f"at byte {deep.rindex(token)}:" in capsys.readouterr().err

    def test_nested_formula_compiles(self, capsys):
        spec = "(!a) U (b & ((!c) U (d & ((!e) U f))))"
        assert main(["compile", spec]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["states"] >= 4

    def test_spec_from_file(self, tmp_path, capsys):
        path = tmp_path / "spec.ltl"
        path.write_text("# reach a\nF a\n")
        assert main(["compile", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["formula"] == "F a"

    def test_directory_named_like_the_spec_stays_inline(
            self, tmp_path, capsys, monkeypatch):
        # only a regular file is read as a spec file
        (tmp_path / "a").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["compile", "a"]) == 0
        assert json.loads(capsys.readouterr().out)["formula"] == "a"

    @pytest.mark.parametrize("spec", ["\fa & b", "\u00a0a &"],
                             ids=["form-feed", "no-break-space"])
    def test_spec_file_line_fails_where_inline_text_does(
            self, spec, tmp_path, capsys):
        # a file line is stripped of the tokenizer's whitespace only
        assert main(["compile", spec]) == 2
        inline = capsys.readouterr().err
        assert inline.startswith("error: at byte 0: found ")
        path = tmp_path / "spec.ltl"
        path.write_text(f"{spec}\n", encoding="utf-8")
        assert main(["compile", str(path)]) == 2
        assert capsys.readouterr().err == inline.replace(
            "error: ", f"error: {path}, line 1: ", 1)

    def test_props_flag_orders_alphabet(self, capsys):
        assert main(["compile", "F a", "--props", "z,a"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["props"] == ["z", "a"]

    @pytest.mark.parametrize("command", ["compile", "inspect-subgoals"])
    @pytest.mark.parametrize("props", ["", " ", "a,,b"])
    def test_empty_props_name_exit_4(self, command, props, capsys):
        # an empty order names one empty proposition, like a blank entry;
        # it does not fall back to the default alphabet
        assert main([command, "F a", "--props", props]) == 4
        assert "bad proposition name ''" in capsys.readouterr().err


class TestInspectSubgoals:
    def test_per_state_listing(self, capsys):
        assert main(["inspect-subgoals", "(!a) U b"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["subgoals"]["0"] == [
            {"state": 0, "reach": ["b"], "avoid": [["a"]]}]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "subs.json"
        assert main(["inspect-subgoals", "F a", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["formula"] == "F a"


class TestTrain:
    def test_writes_artifacts_and_preserves_config(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path)
        before = cfg.read_bytes()
        ckpt = tmp_path / "out" / "ckpt.json"
        log = tmp_path / "out" / "log.jsonl"
        code = main(["train", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--log", str(log)])
        assert code == 0
        assert cfg.read_bytes() == before
        saved = json.loads(ckpt.read_text())
        assert saved["version"] == 1
        records = [json.loads(x)
                   for x in log.read_text().strip().split("\n")]
        assert len(records) == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 2
        assert summary["final"]["iter"] == 2

    def test_idempotent_given_same_seed(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path)
        blobs = []
        for name in ("a.json", "b.json"):
            ckpt = tmp_path / name
            assert main(["train", "--config", str(cfg),
                         "--checkpoint", str(ckpt)]) == 0
            blobs.append(ckpt.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        cfg = write_train_config(tmp_path, seed=3)

        def run(name, *extra):
            ckpt = tmp_path / name
            assert main(["train", "--config", str(cfg),
                         "--checkpoint", str(ckpt), *extra]) == 0
            return ckpt.read_bytes()

        base = run("base.json")
        monkeypatch.setenv("GENZ_SEED", "9")
        env_run = run("env.json")
        flag_run = run("flag.json", "--seed", "3")
        monkeypatch.delenv("GENZ_SEED")
        capsys.readouterr()
        assert env_run != base          # env var overrides the config seed
        assert flag_run == base         # explicit flag beats the env var

    @staticmethod
    def train_huge(tmp_path, monkeypatch, n_per_iter):
        """Exit code of a train run with n_per_iter rows over 16 workers,
        and the env steps it took."""
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg["trainer"].update(n_per_iter=n_per_iter, workers=16)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        steps = []

        def counting_step(self, action):
            # a step here would start an iteration that never ends, so the
            # first one stops the run
            steps.append(action)
            raise AssertionError("an env step ran before the allocation")

        monkeypatch.setattr(envs.LetterWorld, "step", counting_step)
        return main(["train", "--config", str(path)]), steps

    def test_out_of_memory_exit_4(self, tmp_path, capsys, monkeypatch):
        # passes every config check; collect allocates the rollout before
        # its first env step, and 2^44 rows are more than the address space
        # holds, so the allocation raises MemoryError at once and nothing
        # is allocated
        assert self.train_huge(tmp_path, monkeypatch, 2**44) == (4, [])
        assert capsys.readouterr().err == "error: ran out of memory\n"

    def test_unsizable_rollout_names_n_per_iter(self, tmp_path, capsys,
                                                monkeypatch):
        # 2^60 rows of D floats are more bytes than numpy can count, so the
        # trainer rejects the config before it builds an env
        assert self.train_huge(tmp_path, monkeypatch, 2**60) == (4, [])
        err = capsys.readouterr().err
        assert err.startswith("error: n_per_iter") and "sized" in err

    def test_unknown_config_key_exit_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"env": {}, "optimizer": "sgd"}))
        assert main(["train", "--config", str(path)]) == 4
        assert "unknown" in capsys.readouterr().err

    def test_malformed_json_exit_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("blob", ["[]", "3", '"env"', "null"])
    def test_non_object_config_exit_4(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.json"
        path.write_text(blob)
        assert main(["train", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: config must be a JSON object")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key,blob", [
        ("env", "[]"), ("env", '"x"'), ("trainer", "[]"), ("trainer", "3"),
    ])
    def test_non_object_section_exit_4(self, tmp_path, capsys, key, blob):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"{key}": {blob}}}')
        assert main(["train", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be an object, got ")

    def test_non_int_count_exit_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"env": {"env": "letterworld", "max_steps": 2.5}}))
        ckpt = tmp_path / "ckpt.json"
        assert main(["train", "--config", str(path),
                     "--checkpoint", str(ckpt)]) == 4
        assert "max_steps" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_zero_workers_exit_4(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        assert main(["train", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--workers", "0"]) == 4
        err = capsys.readouterr().err
        assert "workers" in err
        assert "Traceback" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("env", [
        {"env": "letterworld", "grid_size": -7},
        {"env": "zonesim", "arena_half_extent": 0.3},   # no room for a zone
        {"env": "letterworld", "agent_start": [1.7, -0.5]},  # not a cell
    ])
    def test_bad_env_config_exit_4(self, tmp_path, capsys, env):
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg["env"] = env
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        ckpt = tmp_path / "ckpt.json"
        assert main(["train", "--config", str(path),
                     "--checkpoint", str(ckpt)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("env", "overlap_mode", "false"),
        ("trainer", "epochs", 1.5),
        ("trainer", "total_interactions", 1e3),
        ("trainer", "minibatch", True),
        ("trainer", "seed", 2.5),
        ("trainer", "stats_window", 50),
        ("trainer", "lr", 0),
        ("trainer", "lr", -1e-3),
        ("trainer", "multiplier_lr", -1),
        ("trainer", "lam_gae", 3),
        ("trainer", "lam_gae", -0.5),
        ("trainer", "total_interactions", 0),
        ("trainer", "total_interactions", -5),
        ("trainer", "actor_hidden", [True]),
        ("trainer", "value_hidden", "ab"),
        ("trainer", "value_hidden", [16.0]),
        ("trainer", "seed", -1),
        ("env", "letters", "blue"),
        ("env", "letters", [1, 2]),
    ] + [(section, key, value) for section, key in SCALAR_FIELDS
         for value in (math.nan, math.inf, "1")])
    def test_bad_config_type_exit_4_before_any_reset(
            self, tmp_path, capsys, monkeypatch, section, key, value):
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg[section][key] = value
        self.exits_4_before_any_reset(tmp_path, capsys, monkeypatch, cfg, key)

    def test_no_room_for_zones_exit_4_before_any_reset(
            self, tmp_path, capsys, monkeypatch):
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg["env"] = {"env": "zonesim", "arena_half_extent": 0.3}
        self.exits_4_before_any_reset(tmp_path, capsys, monkeypatch, cfg,
                                      "zone_radius")

    @staticmethod
    def exits_4_before_any_reset(tmp_path, capsys, monkeypatch, cfg, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))

        def no_reset(*args, **kwargs):
            raise AssertionError("an env was reset under a bad config")

        monkeypatch.setattr(envs.LetterWorld, "reset", no_reset)
        monkeypatch.setattr(envs.ZoneSim, "reset", no_reset)
        monkeypatch.delenv("GENZ_SEED", raising=False)
        ckpt = tmp_path / "ckpt.json"
        assert main(["train", "--config", str(path),
                     "--checkpoint", str(ckpt)]) == 4
        assert f"{key} must be" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("key,value", [
        ("agent_start", [math.nan, 0.0]),
        ("agent_start", [0.0, math.inf]),
        ("agent_start", [1.0]),
        ("agent_start", [1.0, 2.0, 3.0]),
        ("agent_start", [2.6, 0.0]),         # outside the 2.5 arena
        ("fixed_zones", [["blue", [0.0, 1.0], math.nan]]),
        ("fixed_zones", [["blue", [0.0, 1.0], -1.0]]),
        ("fixed_zones", [["blue", [0.0, 1.0], 0.0]]),
        ("fixed_zones", [["blue", [0.0, 1.0], math.inf]]),
        ("fixed_zones", [["blue", [math.nan, 1.0], 0.4]]),
        ("fixed_zones", [["purple", [0.0, 1.0], 0.4]]),
    ])
    def test_bad_zone_layout_exit_4_before_any_reset(
            self, tmp_path, capsys, monkeypatch, key, value):
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg["env"] = {"env": "zonesim", key: value}
        self.exits_4_before_any_reset(tmp_path, capsys, monkeypatch, cfg, key)

    @pytest.mark.parametrize("env", [
        {"env": "letterworld", "letters": ["a"]},
        {"env": "zonesim", "letters": ["blue"]},
    ], ids=["letterworld-1", "zonesim-1"])
    def test_one_target_exit_4_before_any_reset(
            self, tmp_path, capsys, monkeypatch, env):
        # once its only target is reached, no subgoal is left to train on
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg["env"] = env
        self.exits_4_before_any_reset(tmp_path, capsys, monkeypatch, cfg,
                                      "letters")

    @pytest.mark.parametrize("flags,seed_env,message", [
        (["--seed", "-2"], None, "seed must be at least 0, got -2"),
        ([], "-3", "GENZ_SEED must be a non-negative int, got '-3'"),
        ([], "abc", "GENZ_SEED must be a non-negative int, got 'abc'"),
    ], ids=["flag-neg", "env-neg", "env-abc"])
    def test_bad_seed_exit_4_naming_its_source(
            self, tmp_path, capsys, monkeypatch, flags, seed_env, message):
        cfg = write_train_config(tmp_path)

        def no_reset(*args, **kwargs):
            raise AssertionError("an env was reset under a bad seed")

        monkeypatch.setattr(envs.LetterWorld, "reset", no_reset)
        monkeypatch.delenv("GENZ_SEED", raising=False)
        if seed_env is not None:
            monkeypatch.setenv("GENZ_SEED", seed_env)
        ckpt = tmp_path / "ckpt.json"
        assert main(["train", "--config", str(cfg), "--checkpoint", str(ckpt),
                     *flags]) == 4
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    def test_missing_config_exit_4(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 4
        capsys.readouterr()


class TestEval:
    def test_report_and_idempotence(self, tmp_path, capsys):
        ckpt = train_checkpoint(tmp_path)
        out = tmp_path / "report.json"
        argv = ["eval", "--spec", "F a", "--checkpoint", str(ckpt),
                "--n", "2", "--seeds", "2", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        payload = json.loads(first)
        assert len(payload) == 1
        rep = payload[0]
        assert rep["spec"] == "F a"
        assert rep["eta_s"] + rep["eta_v"] + rep["eta_o"] == 1.0
        assert rep["seeds"] == [0, 1] and rep["n"] == 2
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_spec_file_multiple_formulas(self, tmp_path, capsys):
        ckpt = train_checkpoint(tmp_path)
        capsys.readouterr()
        specs = tmp_path / "specs.ltl"
        specs.write_text("F a\nF b\n")
        assert main(["eval", "--spec", str(specs), "--checkpoint", str(ckpt),
                     "--n", "1", "--seeds", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["spec"] for r in payload] == ["F a", "F b"]

    def test_comment_only_spec_file_exits_4_before_any_episode(
            self, tmp_path, capsys, monkeypatch):
        ckpt = train_checkpoint(tmp_path)
        specs = tmp_path / "specs.ltl"
        specs.write_text("# no formula here\n\n# nor here\n")
        out = tmp_path / "out.json"
        capsys.readouterr()

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran with no spec")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        assert main(["eval", "--spec", str(specs), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "need at least one spec" in captured.err
        assert captured.out == "" and not out.exists()

    def test_spec_outside_the_alphabet_exits_4_before_any_episode(
            self, tmp_path, capsys, monkeypatch):
        ckpt = train_checkpoint(tmp_path)
        specs = tmp_path / "specs.ltl"
        specs.write_text("F a\nF z\n")
        out = tmp_path / "out.json"
        capsys.readouterr()

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before every spec compiled")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        assert main(["eval", "--spec", str(specs), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "spec 'F z': formula atoms ['z'] not in alphabet" in captured.err
        assert captured.out == "" and not out.exists()

    def test_parse_error_exit_2(self, tmp_path, capsys):
        ckpt = train_checkpoint(tmp_path)
        assert main(["eval", "--spec", "F (", "--checkpoint",
                     str(ckpt)]) == 2
        capsys.readouterr()
        specs = tmp_path / "specs.ltl"
        specs.write_text("F a\n# a comment\nF (a U\n")
        assert main(["eval", "--spec", str(specs), "--checkpoint",
                     str(ckpt)]) == 2
        assert (f"error: {specs}, line 3: at byte 6: found end of input"
                in capsys.readouterr().err)

    def test_spec_file_parse_error_names_the_byte_of_its_line(
            self, tmp_path, capsys):
        ckpt = train_checkpoint(tmp_path)
        specs = tmp_path / "specs.ltl"
        specs.write_text("F a\n    a &\n")
        assert main(["eval", "--spec", str(specs), "--checkpoint",
                     str(ckpt)]) == 2
        assert (f"error: {specs}, line 2: at byte 7: found end of input"
                in capsys.readouterr().err)

    def test_missing_checkpoint_exit_4(self, tmp_path, capsys):
        assert main(["eval", "--spec", "F a", "--checkpoint",
                     str(tmp_path / "nope.json")]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c.update(version=2), "unsupported checkpoint version 2"),
        (lambda c: c["env"].update(grid_size=7),
         "checkpoint head 'policy' takes 25 inputs"),
        (lambda c: c.update(fusion="conv"), "unknown fusion 'conv'"),
        (lambda c: set_params(c, "policy", float("nan"), 1),
         "checkpoint has 1 non-finite params"),
        (lambda c: set_params(c, "v_r", float("inf"), 2),
         "checkpoint has 2 non-finite params"),
        (lambda c: c["heads"].pop("lam"), "expected policy, v_r, v_h and lam"),
        (lambda c: c["heads"].update(v_h=c["heads"]["policy"]),
         "stacked heads differ in shape"),
        (lambda c: c.update(heads=[]), "heads must be an object, got list"),
        (lambda c: c.update(heads="x"), "heads must be an object, got str"),
        (lambda c: c.update(env=[]),
         "checkpoint env must be an object, got list"),
        (lambda c: c.update(env="x"),
         "checkpoint env must be an object, got str"),
        (lambda c: c["heads"].update(policy=3),
         "checkpoint heads.policy must be an object, got int"),
        (lambda c: c["heads"]["lam"].update(spec=None),
         "checkpoint heads.lam.spec must be an object, got NoneType"),
        (lambda c: c.update(mu_subgoal=-3),
         "mu_subgoal must be null or an int >= 1, got -3"),
        (lambda c: c.update(mu_subgoal=0),
         "mu_subgoal must be null or an int >= 1, got 0"),
        (lambda c: c.update(mu_subgoal=2.5),
         "mu_subgoal must be null or an int >= 1, got 2.5"),
        (lambda c: c.update(mu_subgoal="7"),
         "mu_subgoal must be null or an int >= 1, got '7'"),
        (lambda c: c.update(mu_subgoal=True),
         "mu_subgoal must be null or an int >= 1, got True"),
        (lambda c: c.pop("env"), "checkpoint env is missing"),
        (lambda c: c.pop("fusion"), "checkpoint fusion is missing"),
        (lambda c: c.pop("heads"), "checkpoint heads is missing"),
        (lambda c: c["heads"]["v_h"].pop("spec"),
         "checkpoint heads.v_h.spec is missing"),
        (lambda c: c["heads"]["policy"].pop("params"),
         "checkpoint heads.policy.params is missing"),
        (lambda c: c["heads"]["policy"].update(params="abc"),
         "checkpoint heads.policy.params must be a flat list of numbers"),
        (lambda c: split_params(c, "v_r"),
         "checkpoint heads.v_r.params must be a flat list of numbers"),
        (lambda c: set_params(c, "lam", True, 1),
         "checkpoint heads.lam.params must be a flat list of numbers"),
        (lambda c: c["heads"]["v_r"]["spec"].update(hidden="ab"),
         "hidden must be a list of ints, got 'ab'"),
        (lambda c: c["heads"]["v_r"]["spec"].update(hidden=[True, 8]),
         "hidden must be a list of ints, got [True, 8]"),
        (lambda c: c["heads"]["policy"]["spec"].update(in_dim=True),
         "in_dim must be an int, got True"),
        (lambda c: c["heads"]["policy"].update(params=[10 ** 400]),
         "checkpoint heads.policy.params holds a number past float range"),
    ])
    def test_bad_checkpoint_exit_4_before_any_episode(
            self, tmp_path, capsys, monkeypatch, edit, message):
        ckpt = train_checkpoint(tmp_path)
        saved = json.loads(ckpt.read_text())
        edit(saved)
        ckpt.write_text(json.dumps(saved))
        capsys.readouterr()

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran on a bad checkpoint")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        assert main(["eval", "--spec", "F a", "--checkpoint", str(ckpt),
                     "--n", "1", "--seeds", "1"]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags,message", [
        ("eval", ["--n", "0"], "n_traj must be at least 1"),
        ("eval", ["--n", "-2"], "n_traj must be at least 1"),
        ("eval", ["--seeds", "0"], "need at least one seed"),
        ("eval", ["--horizon-mult", "0"], "horizon_multiplier must be"),
        ("trace", ["--n", "0"], "n_traj must be at least 1"),
        ("eval", ["--eps-scale", "inf"], "eps_scale must"),
        ("eval", ["--eps-scale=-inf"], "eps_scale must"),
        ("eval", ["--eps-scale", "nan"], "eps_scale must"),
        ("eval", ["--eps-scale", "1e308"], "eps_scale must"),
        ("eval", ["--eps-scale=-1"], "eps_scale must"),
        ("eval", ["--eps-scale=-2"], "eps_scale must"),
        ("trace", ["--eps-scale", "inf"], "eps_scale must"),
        ("trace", ["--eps-scale=-1"], "eps_scale must"),
        ("trace", ["--seed", "-2"], "seeds must be non-negative ints, got -2"),
    ], ids=["eval-n-0", "eval-n-neg", "eval-seeds-0", "eval-horizon-0",
            "trace-n-0", "eval-eps-inf", "eval-eps-neg-inf", "eval-eps-nan",
            "eval-eps-1e308", "eval-eps-neg-1", "eval-eps-neg-2",
            "trace-eps-inf", "trace-eps-neg-1", "trace-seed-neg"])
    def test_degenerate_counts_exit_4_before_any_episode(
            self, tmp_path, capsys, monkeypatch, command, flags, message):
        ckpt = train_checkpoint(tmp_path)
        # a window statistic, as a longer run records, so that eps_scale
        # scales a timeout instead of the fallback ignoring it
        saved = json.loads(ckpt.read_text())
        saved["mu_subgoal"] = 40
        ckpt.write_text(json.dumps(saved))
        out = tmp_path / "out.json"
        capsys.readouterr()

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran with a degenerate count")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        assert main([command, "--spec", "F a", "--checkpoint", str(ckpt),
                     "--out", str(out), *flags]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,seed_env", [
        ("eval", "-3"), ("eval", "abc"), ("trace", "-3")])
    def test_bad_genz_seed_exit_4_before_any_episode(
            self, tmp_path, capsys, monkeypatch, command, seed_env):
        ckpt = train_checkpoint(tmp_path)
        out = tmp_path / "out.json"
        capsys.readouterr()

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran under a bad seed")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        monkeypatch.setenv("GENZ_SEED", seed_env)
        assert main([command, "--spec", "F a", "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 4
        assert (f"GENZ_SEED must be a non-negative int, got '{seed_env}'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["eval"])
        assert err.value.code == 2


class TestTrace:
    def test_jsonl_svg_and_idempotence(self, tmp_path, capsys):
        ckpt = train_checkpoint(tmp_path)
        out = tmp_path / "trace.jsonl"
        svg = tmp_path / "trace.svg"
        argv = ["trace", "--spec", "F a", "--checkpoint", str(ckpt),
                "--n", "2", "--seed", "0", "--out", str(out),
                "--svg", str(svg)]
        assert main(argv) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["status"] in ("success", "violation", "other")
        assert len(rec["positions"]) == rec["steps"] + 1
        assert rec["switches"][0]["t"] == 0
        svg_text = svg.read_text()
        assert svg_text.startswith("<svg")
        assert "<polyline" in svg_text and "<text" in svg_text
        first = (out.read_bytes(), svg.read_bytes())
        assert main(argv) == 0
        capsys.readouterr()
        assert (out.read_bytes(), svg.read_bytes()) == first

    def test_stdout_when_no_out(self, tmp_path, capsys):
        ckpt = train_checkpoint(tmp_path)
        assert main(["trace", "--spec", "F a", "--checkpoint", str(ckpt),
                     "--seed", "1"]) == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        assert json.loads(line)["episode"] == 0

    def test_zone_svg(self, tmp_path, capsys):
        ckpt = tmp_path / "zone.json"
        ckpt.write_text(json.dumps(zone_checkpoint()))
        svg = tmp_path / "zone.svg"
        argv = ["trace", "--spec", "F blue", "--checkpoint", str(ckpt),
                "--seed", "0", "--svg", str(svg)]
        assert main(argv) == 0
        first = svg.read_bytes()
        text = first.decode()
        # 4 colors x 2 zones, plus the start and end markers
        assert text.count("<circle") == 8 + 2
        assert "<polyline" in text
        assert main(argv) == 0
        capsys.readouterr()
        assert svg.read_bytes() == first


class TestOutputPaths:
    """An output path that is empty, not a string, or an existing directory
    exits 4 before any env reset, episode or compile, and the error names
    its flag or config key."""

    @staticmethod
    def forbid(monkeypatch, *targets):
        def no_work(*args, **kwargs):
            raise AssertionError("work started under a bad output path")

        for obj, name in targets:
            monkeypatch.setattr(obj, name, no_work)

    @pytest.mark.parametrize("key,value,message", [
        ("checkpoint", None, "checkpoint must not be a directory"),
        ("log", None, "log must not be a directory"),
        ("checkpoint", 3, "checkpoint must be a non-empty path, got 3"),
        ("log", ["x"], "log must be a non-empty path, got ['x']"),
        ("checkpoint", "", "checkpoint must be a non-empty path, got ''"),
    ], ids=["checkpoint-dir", "log-dir", "checkpoint-int", "log-list",
            "checkpoint-empty"])
    def test_train_config_key(self, tmp_path, capsys, monkeypatch, key, value,
                              message):
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg[key] = str(tmp_path) if value is None else value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        self.forbid(monkeypatch, (envs.LetterWorld, "reset"))
        assert main(["train", "--config", str(path)]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--checkpoint", "--log"])
    def test_train_flag(self, tmp_path, capsys, monkeypatch, flag):
        cfg = write_train_config(tmp_path)
        self.forbid(monkeypatch, (envs.LetterWorld, "reset"))
        assert main(["train", "--config", str(cfg), flag, str(tmp_path)]) == 4
        assert f"{flag} must not be a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("eval", "--out"), ("trace", "--out"), ("trace", "--svg")])
    def test_episode_commands(self, tmp_path, capsys, monkeypatch, command,
                              flag):
        ckpt = train_checkpoint(tmp_path)
        capsys.readouterr()
        self.forbid(monkeypatch, (executor, "run_episode"))
        argv = [command, "--spec", "F a", "--checkpoint", str(ckpt), "--n", "1"]
        assert main([*argv, flag, str(tmp_path)]) == 4
        assert f"{flag} must not be a directory" in capsys.readouterr().err
        assert main([*argv, flag, ""]) == 4
        assert (f"{flag} must be a non-empty path, got ''"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,flag", [
        ("compile", "--dot"), ("compile", "--json"),
        ("inspect-subgoals", "--out")])
    def test_compile_commands(self, tmp_path, capsys, monkeypatch, command,
                              flag):
        self.forbid(monkeypatch, (cli, "compile_formula"))
        assert main([command, "F a", flag, str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert f"{flag} must not be a directory" in captured.err
        assert captured.out == ""


class TestSvg:
    # the SVG is pure string formatting of a seeded layout and a fixed path,
    # so its digest is the same on every machine
    @pytest.mark.parametrize("config,path,digest", [
        (EnvConfig(env="letterworld", grid_size=5, letters=tuple("abcd"),
                   copies_per_letter=2),
         # wraps around both torus edges, so the path splits in three
         [(2, 3), (2, 4), (2, 0), (1, 0), (0, 0), (4, 0), (4, 1)],
         "6c0097d45cb774f85ff462abf6ccafb89d1b5a1e8c11211e270c4d3dad127fd3"),
        (ZONE_CONFIG,
         [(0.0, 0.0), (0.1, 0.25), (-0.2, 0.6), (-0.45, 1.1)],
         "931c596de6846001352cce55748c05b45d9a4b7a2d86a02bbea0de7e748e1e62"),
    ], ids=["letterworld", "zonesim"])
    def test_render_svg_bytes_pinned(self, config, path, digest):
        env = make_env(config)
        env.reset(stream_rng(0, STREAM_EVAL, 0))
        svg = _render_svg(env, path)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_entry_points_import_only_stdlib_and_numpy():
    # the package is pure Python on numpy: importing every entry point in a
    # fresh interpreter loads no other third-party module
    code = ("import sys; before = set(sys.modules); "
            "import ltlnav.cli, ltlnav.executor, ltlnav.trainer; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(ltlnav.__file__).resolve().parents[1]))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "ltlnav.trainer" in added
    foreign = {m for m in added if m.split(".")[0] not in
               sys.stdlib_module_names | {"numpy", "ltlnav"}}
    assert not foreign, sorted(foreign)
