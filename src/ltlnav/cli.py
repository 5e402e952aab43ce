"""Command-line entry point: compile specs, inspect subgoals, train,
evaluate, and trace episodes.

Exit codes: 0 ok, 2 formula parse error, 3 numeric divergence during
training, 4 config or I/O error, or memory ran out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .buchi import compile_formula
from .envs import EnvConfig, make_env
from .executor import evaluate
from .ltl import Alphabet, ParseError, format_formula, parse
from .nets import json_object
from .subgoals import extract_subgoals
from .trainer import (
    STREAM_EVAL, NonFiniteError, Trainer, TrainerConfig, atomic_write_text,
    stream_rng,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4


def _load_specs(value: str) -> list:
    """Formulas from an inline string, or one per line of a file; a parse
    error in a file names the file, the line and the byte in that line."""
    if not os.path.exists(value):
        return [(value, parse(value))]
    specs = []
    with open(value) as fh:
        for n, line in enumerate(fh, 1):
            text = line.strip()
            if text and not text.startswith("#"):
                try:
                    specs.append((text, parse(text)))
                except ParseError as err:
                    lead = len(line) - len(line.lstrip())
                    moved = ParseError(line, lead + err.offset, err.expected,
                                       err.found)
                    moved.args = (f"{value}, line {n}: {moved}",)
                    raise moved from None
    return specs


def _load_one_spec(args) -> tuple:
    """The single (text, formula) that args.spec names."""
    specs = _load_specs(args.spec)
    if len(specs) != 1:
        raise ValueError(f"{args.command} expects exactly one formula")
    return specs[0]


def _resolve_seed(flag_value, config_value=None) -> int:
    """The --seed flag, else GENZ_SEED, else the config's seed, else 0."""
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("GENZ_SEED")
    if env is not None:
        if not env.strip().isdecimal():
            raise ValueError(f"GENZ_SEED must be a non-negative int, "
                             f"got {env!r}")
        return int(env)
    if config_value is not None:
        return config_value             # TrainerConfig checks its type
    return 0


def _output(name: str, path):
    """path, checked before any work starts: None (no output), or a
    non-empty string that is not an existing directory. The error names
    the flag or config key, `name`."""
    if path is not None:
        if not isinstance(path, str) or not path:
            raise ValueError(f"{name} must be a non-empty path, got {path!r}")
        if os.path.isdir(path):
            raise ValueError(f"{name} must not be a directory, got {path!r}")
    return path


def _subgoal_entry(alphabet: Alphabet, q: int, sub) -> dict:
    return {
        "state": q,
        "reach": list(alphabet.names_of(sub.reach)),
        "avoid": [list(alphabet.names_of(m)) for m in sorted(sub.avoid)],
    }


# -- compile / inspect-subgoals -------------------------------------------------


def _compile_spec(args):
    """(formula, alphabet, automaton, achievable) for the one formula of
    args.spec, over the --props order or else compile_formula's default;
    every single proposition counts as achievable."""
    _, formula = _load_one_spec(args)
    props = (Alphabet(tuple(p.strip() for p in args.props.split(",")))
             if args.props is not None else None)
    aut = compile_formula(formula, props)
    alphabet = aut.alphabet
    return formula, alphabet, aut, tuple(1 << i for i in range(alphabet.n))


def cmd_compile(args) -> int:
    _output("--dot", args.dot)
    _output("--json", args.json)
    formula, alphabet, aut, achievable = _compile_spec(args)
    subs = extract_subgoals(aut, frozenset({aut.initial}), frozenset(),
                            achievable)
    summary = {
        "formula": format_formula(formula),
        "props": list(alphabet.names),
        "states": aut.n_states,
        "initial": aut.initial,
        "accepting": sorted(aut.accepting),
        "initial_subgoals": [_subgoal_entry(alphabet, q, s)
                             for q, s in subs],
    }
    if args.dot:
        atomic_write_text(args.dot, aut.to_dot())
    if args.json:
        atomic_write_text(args.json, json.dumps(aut.to_json(), indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_inspect_subgoals(args) -> int:
    _output("--out", args.out)
    formula, alphabet, aut, achievable = _compile_spec(args)
    per_state = {}
    for q in sorted(aut.classify().live):
        subs = extract_subgoals(aut, frozenset({q}), frozenset(), achievable)
        per_state[str(q)] = [_subgoal_entry(alphabet, owner, s)
                             for owner, s in subs]
    summary = {"formula": format_formula(formula),
               "props": list(alphabet.names),
               "subgoals": per_state}
    if args.out:
        atomic_write_text(args.out, json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# -- train ----------------------------------------------------------------------


def cmd_train(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got {cfg!r}")
    allowed = {"env", "trainer", "checkpoint", "log"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    trainer_dict = dict(json_object(cfg.get("trainer", {}), "trainer"))
    trainer_dict["seed"] = _resolve_seed(args.seed, trainer_dict.get("seed"))
    if args.total_interactions is not None:
        trainer_dict["total_interactions"] = args.total_interactions
    if args.workers is not None:
        trainer_dict["workers"] = args.workers
    env_config = EnvConfig.from_json(cfg.get("env", {}))
    trainer_config = TrainerConfig.from_json(trainer_dict)
    # a flag overrides the config key; the error names whichever was read
    checkpoint_path, log_path = (
        _output(f"--{key}", flag) if (flag := getattr(args, key)) is not None
        else _output(key, cfg.get(key)) for key in ("checkpoint", "log"))
    for path in (checkpoint_path, log_path):
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    result = Trainer(trainer_config, env_config).run(
        log_path=log_path, checkpoint_path=checkpoint_path)
    summary = {
        "iterations": result["iterations"],
        "mu_subgoal": result["mu_subgoal"],
        "final": result["log"][-1] if result["log"] else None,
        "checkpoint": checkpoint_path,
        "log": log_path,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# -- eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    _output("--out", args.out)
    with open(args.checkpoint) as fh:
        ckpt = json.load(fh)
    specs = _load_specs(args.spec)
    base = _resolve_seed(None)
    seeds = tuple(range(base, base + args.seeds))
    reports = evaluate([text for text, _ in specs], ckpt, n_traj=args.n,
                       seeds=seeds, horizon_multiplier=args.horizon_mult,
                       eps_scale=args.eps_scale,
                       switching=not args.no_switching)
    out = json.dumps([rep.to_json() for rep in reports], indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, out)
    print(out, end="")
    return EXIT_OK


# -- trace ----------------------------------------------------------------------

_ZONE_FILL = {"blue": "#4a90d9", "green": "#4caf50", "magenta": "#c543c5",
              "yellow": "#e0c030"}
_FALLBACK_FILL = ("#4a90d9", "#4caf50", "#c543c5", "#e0c030", "#e06030",
                  "#30b0a0", "#8050d0", "#a0a030")


def _svg(size: float, layout: list, paths: list, pt,
         border: str = "") -> str:
    """The frame both worlds share: header, background, the world's own
    layout rows, each path as one polyline of points mapped through pt to
    pixels, start and end markers, and footer."""
    rows = [f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {size:.1f} {size:.1f}">',
            f'<rect width="{size:.1f}" height="{size:.1f}" fill="#fafafa"'
            f'{border}/>', *layout]
    for path in paths:
        pts = " ".join("{:.1f},{:.1f}".format(*pt(p)) for p in path)
        rows.append(f'<polyline points="{pts}" fill="none" stroke="#222" '
                    f'stroke-width="2"/>')
    sx, sy = pt(paths[0][0])
    ex, ey = pt(paths[-1][-1])
    rows.append(f'<circle cx="{sx:.1f}" cy="{sy:.1f}" r="5" fill="#fff" '
                f'stroke="#222" stroke-width="2"/>')
    rows.append(f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="5" fill="#222"/>')
    rows.append("</svg>")
    return "\n".join(rows) + "\n"


def _zone_svg(env, positions: list) -> str:
    half = env.config.arena_half_extent
    scale = 100.0

    def pt(p):
        return (p[0] + half) * scale, (half - p[1]) * scale

    layout = []
    for z in env.state.zones:
        name = env.config.letters[z.color]
        fill = _ZONE_FILL.get(name, _FALLBACK_FILL[z.color
                                                   % len(_FALLBACK_FILL)])
        cx, cy = pt(z.center)
        layout.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" '
                      f'r="{z.radius * scale:.1f}" fill="{fill}" '
                      f'fill-opacity="0.5" stroke="{fill}"/>')
        layout.append(f'<text x="{cx:.1f}" y="{cy:.1f}" font-size="14" '
                      f'text-anchor="middle">{name}</text>')
    return _svg(2 * half * scale, layout, [positions], pt,
                border=' stroke="#333"')


def _grid_svg(env, positions: list) -> str:
    g = env.config.grid_size
    s = 40.0
    size = g * s
    layout = []
    for i in range(g + 1):
        v = i * s
        layout.append(f'<line x1="{v:.1f}" y1="0" x2="{v:.1f}" '
                      f'y2="{size:.1f}" stroke="#ddd"/>')
        layout.append(f'<line x1="0" y1="{v:.1f}" x2="{size:.1f}" '
                      f'y2="{v:.1f}" stroke="#ddd"/>')
    for (r, c), p in sorted(env.state.placement.items()):
        layout.append(f'<text x="{c * s + s / 2:.1f}" '
                      f'y="{r * s + s / 2 + 5:.1f}" font-size="18" '
                      f'text-anchor="middle">{env.config.letters[p]}</text>')

    def pt(cell):
        return cell[1] * s + s / 2, cell[0] * s + s / 2

    # split the path where it wraps around the torus edge
    segments, current = [], [positions[0]]
    for prev, cur in zip(positions, positions[1:]):
        if abs(prev[0] - cur[0]) + abs(prev[1] - cur[1]) > 1:
            segments.append(current)
            current = []
        current.append(cur)
    segments.append(current)
    return _svg(size, layout, segments, pt)


def _render_svg(env, positions: list) -> str:
    if env.config.env == "zonesim":
        return _zone_svg(env, positions)
    return _grid_svg(env, positions)


def cmd_trace(args) -> int:
    _output("--out", args.out)
    _output("--svg", args.svg)
    with open(args.checkpoint) as fh:
        ckpt = json.load(fh)
    text, _ = _load_one_spec(args)
    seed = _resolve_seed(args.seed)
    _, (episodes,) = evaluate([text], ckpt, n_traj=args.n, seeds=(seed,),
                              eps_scale=args.eps_scale,
                              switching=not args.no_switching,
                              record_traces=True)
    lines = [json.dumps({
        "episode": ep, "spec": text, "status": outcome.status,
        "steps": outcome.steps,
        "steps_to_success": outcome.steps_to_success,
        "accepting_visits": outcome.accepting_visits,
        "labels": [int(x) for x in trace["labels"]],
        "switches": trace["switches"],
        "positions": trace["positions"],
    }) for ep, (outcome, trace) in enumerate(episodes)]
    text_out = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text_out)
    else:
        print(text_out, end="")
    if args.svg:
        # the layout is the first draw from episode 0's stream
        env = make_env(EnvConfig.from_json(ckpt["env"], "checkpoint env"))
        env.reset(stream_rng(seed, STREAM_EVAL, 0))
        atomic_write_text(args.svg,
                          _render_svg(env, episodes[0][1]["positions"]))
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlnav",
        description="LTL task compilation, subgoal training, and zero-shot "
                    "evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a formula to an automaton")
    p.add_argument("spec", help="formula text or path to a file")
    p.add_argument("--props", help="comma-separated proposition order")
    p.add_argument("--dot", help="write Graphviz output here")
    p.add_argument("--json", help="write automaton JSON here")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("inspect-subgoals",
                       help="list reach-avoid subgoals per live state")
    p.add_argument("spec", help="formula text or path to a file")
    p.add_argument("--props", help="comma-separated proposition order")
    p.add_argument("--out", help="write the listing here as JSON")
    p.set_defaults(func=cmd_inspect_subgoals)

    p = sub.add_parser("train", help="train a subgoal-conditioned policy")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--seed", type=int, help="override the root seed")
    p.add_argument("--total-interactions", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--checkpoint", help="override checkpoint output path")
    p.add_argument("--log", help="override training log output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on formulas")
    p.add_argument("--spec", required=True,
                   help="formula text or file with one formula per line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=100,
                   help="episodes per seed")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds")
    p.add_argument("--horizon-mult", type=int, default=1)
    p.add_argument("--eps-scale", type=float, default=0.5)
    p.add_argument("--no-switching", action="store_true",
                   help="disable timeout-based subgoal switching")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="log single episodes, optionally as SVG")
    p.add_argument("--spec", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1, help="episode count")
    p.add_argument("--seed", type=int)
    p.add_argument("--eps-scale", type=float, default=0.5)
    p.add_argument("--no-switching", action="store_true")
    p.add_argument("--out", help="write episode JSONL here")
    p.add_argument("--svg", help="write an SVG of the first episode here")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except NonFiniteError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, KeyError, TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
