"""Command-line interface: generate one suite, run an experiment, print a report.

Exit codes: 0 success, 1 configuration error, 2 corpus/input error.

An experiment file (``affsgen experiment --config``) holds one JSON object.
Its top-level keys are ``goal`` (required), ``strategies`` (a list of at
least one), ``trials_per_fault``, ``corpus`` (the corpus directory),
``master_seed``, ``workers`` and four sections, each an object of settings
of one dataclass: ``engine`` (``EngineConfig``: ``population_size``,
``skip_iter``, ``budget``), its ``budget`` (``Budget``: ``generations``,
``seconds``), ``generation`` (``GenConfig``: ``max_calls_per_test``,
``max_suite_size``) and ``interp`` (``InterpConfig``: ``step_limit``,
``max_call_depth``). A key left out keeps its dataclass default. An unknown
key at any level, or a section that is not an object, exits 1. Seeds are
not settings: each trial's seed derives from ``master_seed``, so
``engine.rng_seed`` exits 1 too. The genetic operators' rates are module
constants in ``engine`` and ``testmodel``, not settings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from affsgen.affs import Goal, load_pinned_space, make_strategy
from affsgen.engine import Budget, EngineConfig, run_search
from affsgen.harness import (
    ConfigError,
    CorpusError,
    ExperimentConfig,
    format_report,
    run_experiment,
)
from affsgen.minilang.interpreter import InterpConfig
from affsgen.minilang.parser import ParseError, parse
from affsgen.mutation import mutants_of
from affsgen.testmodel import GenConfig

GOALS = {g.value: g for g in Goal}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affsgen",
        description="Search-based test generation for MiniJ programs with "
                    "adaptive fitness function selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a test suite for one program")
    gen.add_argument("--program", required=True, help="path to a .minij file")
    gen.add_argument("--goal", required=True, choices=sorted(GOALS))
    gen.add_argument("--strategy", required=True,
                     help="ucb | sarsa | static:<fn> | default | random")
    gen.add_argument("--budget-gens", type=int, default=None)
    gen.add_argument("--budget-seconds", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output suite JSON path")
    gen.add_argument("--action-space", default=None,
                     help="optional pin file for the action space")

    exp = sub.add_parser("experiment", help="run a strategies x faults x trials sweep")
    exp.add_argument("--config", required=True, help="experiment config JSON")
    exp.add_argument("--out", required=True, help="output directory")

    rep = sub.add_parser("report", help="print tables from experiment output")
    rep.add_argument("--in", dest="in_dir", required=True, help="experiment output dir")
    return parser


def _cmd_generate(args) -> int:
    goal = GOALS[args.goal]
    if args.budget_gens is None and args.budget_seconds is None:
        print("error: provide --budget-gens and/or --budget-seconds", file=sys.stderr)
        return 1
    try:
        budget = Budget(generations=args.budget_gens, seconds=args.budget_seconds)
        space = load_pinned_space(goal, args.action_space) if args.action_space else None
        strategy = make_strategy(args.strategy, goal, space=space)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        source = Path(args.program).read_text(encoding="utf-8")
        program = parse(source, source_id=Path(args.program).stem)
    except (OSError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not program.functions:
        print(f"error: {args.program} defines no functions to test", file=sys.stderr)
        return 2
    if not mutants_of(program)[0]:
        # mutation scores, which the strong-mutation reward and the weak_mut
        # fitness need, are undefined without mutants
        print(f"error: {args.program} has no mutation sites", file=sys.stderr)
        return 2
    config = EngineConfig(budget=budget, rng_seed=args.seed)
    result = run_search(program, goal, strategy, config, GenConfig(), InterpConfig())
    Path(args.out).write_text(result.to_json(), encoding="utf-8")
    print(f"wrote {args.out}: {len(result.final_suite.tests)} tests, {result.generations} "
          f"generations, metrics {json.dumps(result.metrics, sort_keys=True)}")
    return 0


# the experiment file names ExperimentConfig.corpus_path "corpus"
_FILE_KEYS = {"corpus_path": "corpus"}


def _settings(where: str, raw, cls) -> dict:
    """``raw``, a JSON object whose keys all name fields of ``cls``, as its
    keyword arguments."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, not {type(raw).__name__}")
    fields = {_FILE_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; expected some of {sorted(fields)}")
    return {fields[key]: value for key, value in raw.items()}


def _experiment_config(path: str) -> ExperimentConfig:
    settings = _settings(path, json.loads(Path(path).read_text(encoding="utf-8")),
                         ExperimentConfig)
    goal_name = settings.get("goal")
    if not (isinstance(goal_name, str) and goal_name in GOALS):
        raise ConfigError(f"unknown goal {goal_name!r}; expected one of {sorted(GOALS)}")
    settings["goal"] = GOALS[goal_name]
    settings.setdefault("strategies", [])
    if "engine" in settings:
        engine = _settings("engine", settings["engine"], EngineConfig)
        if "rng_seed" in engine:
            raise ConfigError("engine.rng_seed is not a setting: each trial's seed "
                              "derives from master_seed")
        if "budget" in engine:
            engine["budget"] = Budget(**_settings("engine.budget", engine["budget"], Budget))
        settings["engine"] = EngineConfig(**engine)
    for name, cls in (("generation", GenConfig), ("interp", InterpConfig)):
        if name in settings:
            settings[name] = cls(**_settings(name, settings[name], cls))
    return ExperimentConfig(**settings)


def _cmd_experiment(args) -> int:
    try:
        cfg = _experiment_config(args.config)
    except (ConfigError, ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        summary = run_experiment(cfg, args.out)
    except CorpusError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(format_report(summary))
    print(f"\nwrote trials.csv, summary.json, actions.csv under {args.out}")
    return 0


def _cmd_report(args) -> int:
    summary_path = Path(args.in_dir) / "summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        report = format_report(summary)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        # JSONDecodeError is a ValueError; the others come from a summary
        # missing the fields or types run_experiment writes
        print(f"error: {summary_path} is not an experiment summary: "
              f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    print(report)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
