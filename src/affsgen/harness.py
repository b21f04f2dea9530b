"""Experiment harness: corpus management, trials, statistics, and reports.

An experiment sweeps strategies x fault pairs x trials. Suites are generated
against the fixed version of each pair; a fault counts as detected when any
generated test behaves differently on the faulty version. The fixed
version's behaviours come from the search that made the suite, so only the
faulty version runs for it. Every trial gets a seed derived from (master
seed, fault, strategy, trial), so reruns reproduce the same rows byte for
byte.

Everything that depends only on a program's text is built once and shared
by the trials: the compiled module of the text (``interpreter.module_of``)
holds the code, the fixed program's mutants, which are also its schema
(``mutation.mutants_of``), and the schema shape of its runs with sides. The
module stays in the interpreter's module cache, shared with any later
program of the same text: a later experiment on the same corpus parses it
again, but generates no mutant and compiles nothing again. No parsed
program is part of a reference cycle, so the corpus is freed as soon as
the experiment returns. A serial run compiles lazily. A pool's workers are
forked, whatever the platform's default, so they inherit what the parent
set up before the pool started: every pair's programs compiled, with the
fixed program's lean code, schema shape and mutants
(``interpreter.precompile``); the pairs, the job list, a lock and a shared
job counter, from the pool's initializer; and any hook patched onto
``_trial_job`` or ``run_trial``. Each worker runs one ``_drain`` task,
which takes jobs by index until none is left and sends its records back
once, so no message passes per job.
"""

from __future__ import annotations

import csv
import hashlib
import json
import mmap
import multiprocessing
import os
import statistics
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

from affsgen.affs import Goal, make_strategy
from affsgen.engine import EngineConfig, SearchResult, run_search
from affsgen.minilang.interpreter import InterpConfig, precompile
from affsgen.minilang.nodes import Program
from affsgen.minilang.parser import ParseError, parse
from affsgen.mutation import mutants_of
from affsgen.testmodel import GenConfig, TestSuite
from affsgen.tracing import behavior_of, run_test


class CorpusError(ValueError):
    """A fault pair failed to load or validate."""


class ConfigError(ValueError):
    """An experiment configuration is unusable."""


@dataclass(frozen=True, slots=True)
class FaultPair:
    fault_id: str
    fixed_program: Program
    faulty_program: Program
    description: str


def load_corpus(path) -> list[FaultPair]:
    """Load every fault pair under a corpus directory, sorted by id."""
    root = Path(path)
    if not root.is_dir():
        raise CorpusError(f"corpus directory {root} does not exist")
    pairs = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        manifest = entry / "manifest.json"
        fixed = entry / "fixed.minij"
        faulty = entry / "faulty.minij"
        if not manifest.exists():
            continue  # not a fault-pair directory
        for required in (fixed, faulty):
            if not required.exists():
                raise CorpusError(f"{entry.name}: missing {required.name}")
        texts = []
        for source in (manifest, fixed, faulty):
            try:
                texts.append(source.read_text(encoding="utf-8"))
            except UnicodeDecodeError as err:
                raise CorpusError(f"{entry.name}: {source.name} is not UTF-8 text: {err}") from err
            except OSError as err:  # a directory, say, or not readable
                raise CorpusError(f"{entry.name}: cannot read {source.name}: "
                                  f"{err.strerror or err}") from err
        manifest_text, fixed_text, faulty_text = texts
        try:
            meta = json.loads(manifest_text)
        except ValueError as err:
            raise CorpusError(f"{entry.name}: bad manifest: {err}") from err
        if not isinstance(meta, dict):
            raise CorpusError(f"{entry.name}: manifest must hold a JSON object, "
                              f"not {type(meta).__name__}")
        if fixed_text == faulty_text:
            raise CorpusError(f"{entry.name}: fixed and faulty versions are identical")
        try:
            fixed_program = parse(fixed_text, source_id=entry.name)
            faulty_program = parse(faulty_text, source_id=f"{entry.name}:faulty")
        except ParseError as err:
            raise CorpusError(f"{entry.name}: {err}") from err
        if fixed_program.signature() != faulty_program.signature():
            raise CorpusError(f"{entry.name}: fixed and faulty signatures differ")
        pairs.append(FaultPair(
            fault_id=entry.name,
            fixed_program=fixed_program,
            faulty_program=faulty_program,
            description=str(meta.get("description", "")),
        ))
    return pairs


def fault_detected(suite: TestSuite, pair: FaultPair, fixed: Iterable[tuple[tuple, ...]],
                   interp: InterpConfig = InterpConfig()) -> bool:
    """True when any call of any test behaves differently on the faulty version.

    ``fixed`` gives the fixed version's behaviour of each call
    (``tracing.behavior_of``), test by test: the search that made the suite
    ran them all, and its ``SearchResult.final_behaviors`` holds them. The
    faulty version runs each distinct call of the suite once.
    """
    memo: dict = {}
    for test, expected in zip(suite, fixed):
        faulty = run_test(pair.faulty_program, test, interp, memo).calls
        if any(a != behavior_of(b.result) for a, b in zip(expected, faulty)):
            return True
    return False


# --- metrics -------------------------------------------------------------------


@dataclass(slots=True, kw_only=True)
class TrialRecord:
    """One row of trials.csv; the defaults are those of a trial that raised."""

    fault_id: str
    strategy: str
    trial_index: int = -1
    seed: int
    goal_metric: float = 0.0
    normalized_goal_metric: float | None = None
    fault_detected: bool = False
    generations_completed: int = 0
    mean_seconds_per_generation: float = 0.0
    suite_size: int = 0
    rendered_chars: int = 0
    action_histogram: dict[int, int] = field(default_factory=dict)
    error: str = ""


def normalize_goal_metric(records: list[TrialRecord]) -> list[TrialRecord]:
    """Scale one fault's raw metrics by the maximum over its trials.

    An all-zero fault normalizes to 0 for every trial.
    """
    if not records:
        raise ValueError("no records to normalize")
    peak = max(r.goal_metric for r in records)
    for record in records:
        record.normalized_goal_metric = (record.goal_metric / peak) if peak > 0 else 0.0
    return records


def vargha_delaney_a(xs, ys) -> float:
    """Probability (with tie credit) that a draw from xs exceeds one from ys."""
    if not xs or not ys:
        raise ValueError("effect size requires nonempty samples")
    wins = ties = 0
    for x in xs:
        for y in ys:
            if x > y:
                wins += 1
            elif x == y:
                ties += 1
    return (wins + 0.5 * ties) / (len(xs) * len(ys))


# --- experiment orchestration ------------------------------------------------------


@dataclass(slots=True)
class ExperimentConfig:
    goal: Goal
    strategies: list[str]
    trials_per_fault: int = 10
    corpus_path: str = "corpus"
    master_seed: int = 2024
    engine: EngineConfig = field(default_factory=EngineConfig)
    generation: GenConfig = field(default_factory=GenConfig)
    interp: InterpConfig = field(default_factory=InterpConfig)
    workers: int = 1

    def __post_init__(self):
        for name, least in (("trials_per_fault", 1), ("workers", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"{name} must be an int of at least {least}, not {value!r}")
        if type(self.master_seed) is not int:
            raise ConfigError(f"master_seed must be an int, not {self.master_seed!r}")
        if type(self.corpus_path) is not str:
            raise ConfigError(f"corpus_path must be a str, not {self.corpus_path!r}")
        if type(self.strategies) is not list or not all(type(s) is str for s in self.strategies):
            raise ConfigError(f"strategies must be a list of str, not {self.strategies!r}")
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        for i, spec in enumerate(self.strategies):
            if spec in self.strategies[:i]:
                # its trials would repeat the same seeds and count twice
                raise ConfigError(f"strategy {spec!r} appears more than once")
            try:
                make_strategy(spec, self.goal)
            except ValueError as err:
                raise ConfigError(str(err)) from err


def derive_seed(master_seed: int, fault_id: str, strategy: str, trial: int) -> int:
    """Stable per-trial seed from the identifying coordinates."""
    text = f"{master_seed}|{fault_id}|{strategy}|{trial}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def run_trial(pair: FaultPair, strategy_spec: str, goal: Goal, seed: int,
              engine: EngineConfig, gen_config: GenConfig,
              interp: InterpConfig) -> tuple[SearchResult, TrialRecord]:
    """One seeded search on the pair's fixed program, and its row. The
    fault counts as detected when the faulty program, run on the final
    suite, differs from the fixed program's behaviours the search kept."""
    strategy = make_strategy(strategy_spec, goal)
    result = run_search(pair.fixed_program, goal, strategy, engine, seed, gen_config, interp)
    detected = fault_detected(result.final_suite, pair, result.final_behaviors, interp)
    elapsed = sum(rec.elapsed_ns for rec in result.log)
    mean_seconds = (elapsed / result.generations / 1e9) if result.generations else 0.0
    record = TrialRecord(
        fault_id=pair.fault_id,
        strategy=strategy_spec,
        seed=seed,
        goal_metric=_goal_metric(goal, result),
        fault_detected=detected,
        generations_completed=result.generations,
        mean_seconds_per_generation=mean_seconds,
        suite_size=result.metrics["suite_size"],
        rendered_chars=result.metrics["rendered_chars"],
        action_histogram=result.action_histogram,
    )
    return result, record


def _goal_metric(goal: Goal, result: SearchResult) -> float:
    if goal is Goal.EXCEPTIONS:
        return float(result.metrics["exceptions_discovered"])
    if goal is Goal.DIVERSITY:
        return float(result.metrics["diversity_fitness"])
    return float(result.metrics["strong_mutation_score"])


# the pairs of the running experiment, which jobs name by index: set in
# the parent for a serial run and by the pool's initializer in each worker
_pairs: list[FaultPair] = []
# a pool's (job list, lock, next-job counter): set by its initializer
_queue: tuple = ()


def _use_pairs(pairs: list[FaultPair], queue: tuple = ()) -> None:
    global _pairs, _queue
    _pairs, _queue = pairs, queue


def _jobs(cfg: ExperimentConfig, pairs: list[FaultPair]) -> list[tuple]:
    """One job per trial: (pair index, fault id, strategy, goal value, seed,
    trial index, engine, generation and interpreter configs)."""
    jobs = []
    for index, pair in enumerate(pairs):
        for strategy in cfg.strategies:
            for trial in range(cfg.trials_per_fault):
                seed = derive_seed(cfg.master_seed, pair.fault_id, strategy, trial)
                jobs.append((index, pair.fault_id, strategy, cfg.goal.value, seed, trial,
                             cfg.engine, cfg.generation, cfg.interp))
    return jobs


def _trial_job(args) -> TrialRecord:
    (index, fault_id, strategy_spec, goal_value, seed, trial,
     engine, gen_config, interp) = args
    goal = Goal(goal_value)
    try:
        _, record = run_trial(_pairs[index], strategy_spec, goal, seed, engine, gen_config,
                              interp)
    except Exception as err:  # recorded per-trial, never aborts the sweep
        record = TrialRecord(fault_id=fault_id, strategy=strategy_spec, seed=seed,
                             error=f"{type(err).__name__}: {err}")
    record.trial_index = trial
    return record


def _drain() -> list[tuple[int, TrialRecord]]:
    """Run the pool's next job until none is left: the (job index, record)
    of each. ``_trial_job`` is looked up by name, so a hook patched onto it
    before the fork runs."""
    jobs, lock, counter = _queue
    done = []
    while True:
        with lock:
            index = int.from_bytes(counter, "little")
            counter[:] = (index + 1).to_bytes(len(counter), "little")
        if index >= len(jobs):
            return done
        done.append((index, _trial_job(jobs[index])))


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run the full sweep and write trials.csv, summary.json, and actions.csv.

    With ``cfg.workers`` above 1 the trials run on a pool of forked workers,
    no more than the CPUs or the jobs. A trial that raises is an error row;
    a worker that dies breaks the pool, and this raises ``BrokenProcessPool``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = load_corpus(cfg.corpus_path)
    if not pairs:
        raise CorpusError(f"no fault pairs found under {cfg.corpus_path}")
    for pair in pairs:
        # mutation scores, which the strong-mutation reward and the weak_mut
        # fitness need, are undefined without mutants
        if not mutants_of(pair.fixed_program):
            raise CorpusError(f"{pair.fault_id}: fixed.minij has no mutation sites")

    jobs = _jobs(cfg, pairs)
    # a pool starts all its workers at once, so no more than the CPUs or jobs
    workers = min(cfg.workers, os.cpu_count() or 1, len(jobs))
    _use_pairs(pairs)
    try:
        if workers > 1:
            # compile everything the trials run, so the forked workers inherit
            # it: both programs' traced code, and the fixed program's lean code,
            # schema shape and every mutant's alternative (a deleted assignment
            # has none); each fixed program's mutants, its schema, exist already
            for pair in pairs:
                precompile(pair.fixed_program)
                precompile(pair.faulty_program)
            records = [None] * len(jobs)
            context = multiprocessing.get_context("fork")
            # 8 shared bytes: a multiprocessing.Value would import ctypes
            with mmap.mmap(-1, 8) as counter, ProcessPoolExecutor(
                    max_workers=workers, mp_context=context, initializer=_use_pairs,
                    initargs=(pairs, (jobs, context.Lock(), counter))) as pool:
                for future in [pool.submit(_drain) for _ in range(workers)]:
                    for index, record in future.result():
                        records[index] = record
        else:
            records = [_trial_job(job) for job in jobs]
    finally:
        _use_pairs([])

    # normalization is per fault, across every strategy and trial
    by_fault: dict[str, list[TrialRecord]] = {}
    for record in records:
        by_fault.setdefault(record.fault_id, []).append(record)
    for fault_records in by_fault.values():
        normalize_goal_metric(fault_records)

    records.sort(key=lambda r: (r.fault_id, r.strategy, r.trial_index))
    _write_trials_csv(out / "trials.csv", records)
    summary = _summarize(cfg, records)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    _write_actions_csv(out / "actions.csv", records)
    return summary


_TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _csv_cell(value):
    """The trials.csv text of one TrialRecord field."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return repr(value)  # floats in full, None as "None"


def _write_trials_csv(path: Path, records: list[TrialRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRIAL_COLUMNS)
        for r in records:
            writer.writerow([_csv_cell(getattr(r, name)) for name in _TRIAL_COLUMNS])


def _write_actions_csv(path: Path, records: list[TrialRecord]) -> None:
    totals: dict[tuple[str, int], int] = {}
    for r in records:
        for action_id, count in r.action_histogram.items():
            key = (r.strategy, int(action_id))
            totals[key] = totals.get(key, 0) + count
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "action_id", "generations"])
        ranked = sorted(totals.items(), key=lambda kv: (kv[0][0], -kv[1], kv[0][1]))
        for (strategy, action_id), count in ranked:
            writer.writerow([strategy, action_id, count])


def _oriented(goal: Goal, values: list[float]) -> list[float]:
    # diversity fitness is lower-better; flip it so > 0.5 means "row wins"
    if goal is Goal.DIVERSITY:
        return [-v for v in values]
    return [v for v in values]


def _summarize(cfg: ExperimentConfig, records: list[TrialRecord]) -> dict:
    strategies = list(dict.fromkeys(r.strategy for r in records))
    per_strategy = {}
    samples: dict[str, list[float]] = {}
    for strategy in strategies:
        rows = [r for r in records if r.strategy == strategy and not r.error]
        errors = sum(1 for r in records if r.strategy == strategy and r.error)
        if not rows:
            per_strategy[strategy] = {"trials": 0, "errors": errors}
            samples[strategy] = []
            continue
        normalized = [r.normalized_goal_metric for r in rows]
        per_strategy[strategy] = {
            "trials": len(rows),
            "median_goal_metric": statistics.median(r.goal_metric for r in rows),
            "median_normalized_goal_metric": statistics.median(normalized),
            "fault_detection_rate": sum(r.fault_detected for r in rows) / len(rows),
            "median_seconds_per_generation": statistics.median(
                r.mean_seconds_per_generation for r in rows),
            "mean_suite_size": statistics.fmean(r.suite_size for r in rows),
            "mean_rendered_chars": statistics.fmean(r.rendered_chars for r in rows),
            "errors": errors,
        }
        samples[strategy] = normalized
    matrix: dict[str, dict[str, float]] = {}
    for row in strategies:
        matrix[row] = {}
        for col in strategies:
            if row == col or not samples[row] or not samples[col]:
                continue
            matrix[row][col] = vargha_delaney_a(
                _oriented(cfg.goal, samples[row]), _oriented(cfg.goal, samples[col]))
    return {
        "goal": cfg.goal.value,
        "trials_per_fault": cfg.trials_per_fault,
        "master_seed": cfg.master_seed,
        "strategies": per_strategy,
        "vargha_delaney": matrix,
        "metadata": {
            "normalization": (
                "per fault: raw / max(raw over all trials and strategies); "
                "applied to every goal for cross-fault comparability, not just "
                "exception counts"
            ),
            "effect_size_orientation": (
                "A > 0.5 means the row strategy attains better goal values "
                "than the column strategy (diversity fitness is flipped, "
                "since lower is better there)"
            ),
            "thresholds": {"large": 0.80, "medium": 0.70},
        },
    }


def format_report(summary: dict) -> str:
    """Plain-text medians table and effect-size matrix for the CLI."""
    lines = [f"goal: {summary['goal']}", ""]
    strategies = list(summary["strategies"])
    lines.append(f"{'strategy':<24}{'median(norm)':>14}{'faults%':>10}"
                 f"{'s/gen':>10}{'size':>8}")
    for name in strategies:
        row = summary["strategies"][name]
        if row.get("trials", 0) == 0:
            lines.append(f"{name:<24}{'-':>14}{'-':>10}{'-':>10}{'-':>8}")
            continue
        lines.append(
            f"{name:<24}"
            f"{row['median_normalized_goal_metric']:>14.3f}"
            f"{100 * row['fault_detection_rate']:>9.1f}%"
            f"{row['median_seconds_per_generation']:>10.4f}"
            f"{row['mean_suite_size']:>8.1f}"
        )
    lines.append("")
    lines.append("Vargha-Delaney A (row vs column; > 0.5 favors row; "
                 "large >= 0.80, medium >= 0.70):")
    header = f"{'':<24}" + "".join(f"{s[:12]:>14}" for s in strategies)
    lines.append(header)
    for row_name in strategies:
        cells = []
        for col_name in strategies:
            value = summary["vargha_delaney"].get(row_name, {}).get(col_name)
            cells.append(f"{value:>14.3f}" if value is not None else f"{'-':>14}")
        lines.append(f"{row_name:<24}" + "".join(cells))
    return "\n".join(lines)
