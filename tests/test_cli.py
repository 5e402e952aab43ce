import hashlib
import json

import pytest

from ltlnav import envs, executor
from ltlnav.buchi import compile_formula
from ltlnav.cli import _render_svg, main
from ltlnav.envs import EnvConfig, make_env
from ltlnav.ltl import Alphabet, parse
from ltlnav.trainer import STREAM_EVAL, stream_rng
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


def set_params(ckpt, head, value, n):
    ckpt["heads"][head]["params"][3:3 + n] = [value] * n


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

    def test_props_flag_orders_alphabet(self, capsys):
        assert main(["compile", "F a", "--props", "z,a"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["props"] == ["z", "a"]


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
    ])
    def test_bad_config_type_exit_4_before_any_reset(
            self, tmp_path, capsys, monkeypatch, section, key, value):
        cfg = json.loads(write_train_config(tmp_path).read_text())
        cfg[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))

        def no_reset(*args, **kwargs):
            raise AssertionError("an env was reset under a bad config")

        monkeypatch.setattr(envs.LetterWorld, "reset", no_reset)
        monkeypatch.setattr(envs.ZoneSim, "reset", no_reset)
        ckpt = tmp_path / "ckpt.json"
        assert main(["train", "--config", str(path),
                     "--checkpoint", str(ckpt)]) == 4
        assert f"{key} must be" in capsys.readouterr().err
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

    def test_parse_error_exit_2(self, tmp_path, capsys):
        ckpt = train_checkpoint(tmp_path)
        assert main(["eval", "--spec", "F (", "--checkpoint",
                     str(ckpt)]) == 2
        capsys.readouterr()

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
    ], ids=["eval-n-0", "eval-n-neg", "eval-seeds-0", "eval-horizon-0",
            "trace-n-0"])
    def test_degenerate_counts_exit_4_before_any_episode(
            self, tmp_path, capsys, monkeypatch, command, flags, message):
        ckpt = train_checkpoint(tmp_path)
        out = tmp_path / "out.json"
        capsys.readouterr()

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran with a degenerate count")

        monkeypatch.setattr(executor, "run_episode", no_episode)
        assert main([command, "--spec", "F a", "--checkpoint", str(ckpt),
                     "--out", str(out), *flags]) == 4
        assert message in capsys.readouterr().err
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
