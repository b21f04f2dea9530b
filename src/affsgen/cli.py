"""Command-line interface: generate one suite, run an experiment, print a report.

Exit codes: 0 success, 1 configuration error, 2 corpus/input error.

An experiment file (``affsgen experiment --config``) holds one JSON object.
Its top-level keys are ``goal`` (required), ``strategies`` (a list of at
least one), ``trials_per_fault``, ``corpus`` (the corpus directory),
``master_seed``, ``workers`` and four sections, each an object of settings
of one dataclass: ``engine`` (``EngineConfig``: ``population_size``,
``skip_iter``, ``budget``), its ``budget`` (``Budget``: ``generations``,
``seconds``), ``generation`` (``GenConfig``: ``max_calls_per_test``,
``max_suite_size``) and ``interp`` (``InterpConfig``: ``step_limit``). A
key left out keeps its dataclass default. An unknown key at any level, or a
section that is not an object, exits 1. A seed is not a setting but an
argument of ``engine.run_search``: each trial's seed derives from
``master_seed``, and ``generate`` takes ``--seed``. The genetic operators'
rates and the call-depth cap are module constants in ``engine``,
``testmodel`` and ``interpreter``, not settings.
An ``--out`` that cannot be written exits 1 before any search runs.

``generate`` writes the suite to a temporary file beside ``--out`` and
moves that into place only after a search that succeeds, so a search that
fails leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from affsgen.affs import Goal, make_strategy
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

    exp = sub.add_parser("experiment", help="run a strategies x faults x trials sweep")
    exp.add_argument("--config", required=True, help="experiment config JSON")
    exp.add_argument("--out", required=True, help="output directory")

    rep = sub.add_parser("report", help="print tables from experiment output")
    rep.add_argument("--in", dest="in_dir", required=True, help="experiment output dir")
    return parser


def _cmd_generate(args) -> int:
    goal = GOALS[args.goal]
    try:
        budget = Budget(generations=args.budget_gens, seconds=args.budget_seconds)
        strategy = make_strategy(args.strategy, goal)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        source = Path(args.program).read_text(encoding="utf-8")
        program = parse(source, source_id=Path(args.program).stem)
    except (OSError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"error: {args.program} is not UTF-8 text: {err}", file=sys.stderr)
        return 2
    if not program.functions:
        print(f"error: {args.program} defines no functions to test", file=sys.stderr)
        return 2
    if not mutants_of(program):
        # mutation scores, which the strong-mutation reward and the weak_mut
        # fitness need, are undefined without mutants
        print(f"error: {args.program} has no mutation sites", file=sys.stderr)
        return 2
    try:
        if os.path.isdir(args.out):
            raise IsADirectoryError(f"{args.out} is a directory")
        fd, temporary = tempfile.mkstemp(dir=os.path.dirname(args.out) or ".",
                                         prefix=f".{os.path.basename(args.out)}.", suffix=".tmp")
    except OSError as err:
        print(f"error: cannot write --out: {err}", file=sys.stderr)
        return 1
    try:
        with open(fd, "w", encoding="utf-8") as out:
            result = run_search(program, goal, strategy, EngineConfig(budget=budget), args.seed)
            out.write(result.to_json())
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temporary, 0o666 & ~umask)  # as open() would have made it
        os.replace(temporary, args.out)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    print(f"wrote {args.out}: {len(result.final_suite)} tests, {result.generations} "
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
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot write --out: {err}", file=sys.stderr)
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
