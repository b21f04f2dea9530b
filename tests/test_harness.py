"""Corpus loading, fault detection, statistics, experiments, and the CLI."""

import collections
import csv
import dataclasses
import functools
import gc
import json
import mmap
import multiprocessing
import os
import pickle
import random
import shutil
import subprocess
import sys
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from affsgen import cli, harness, mutation, tracing
from affsgen import engine as engine_module
from affsgen.affs import Goal
from affsgen.cli import main as cli_main
from affsgen.engine import Budget, EngineConfig
from affsgen.harness import (
    ConfigError,
    CorpusError,
    ExperimentConfig,
    FaultPair,
    TrialRecord,
    derive_seed,
    fault_detected,
    load_corpus,
    normalize_goal_metric,
    run_experiment,
    run_trial,
    vargha_delaney_a,
)
from affsgen.minilang import codegen, interpreter, parse
from affsgen.minilang.interpreter import InterpConfig
from affsgen.minilang.nodes import Program
from affsgen.testmodel import CallStmt, GenConfig, TestCase
from affsgen.tracing import run_test
from oracles import brute_force_a_measure, rerun_fault_detected

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _case(name, *args):
    return TestCase(calls=(CallStmt(name, tuple(args)),))


# --- corpus -----------------------------------------------------------------


def test_bundled_corpus_loads_at_least_ten_pairs():
    pairs = load_corpus(CORPUS)
    assert len(pairs) >= 10
    assert [p.fault_id for p in pairs] == sorted(p.fault_id for p in pairs)


def test_empty_directory_gives_empty_corpus(tmp_path):
    assert load_corpus(tmp_path) == []


def test_missing_file_is_corpus_error(tmp_path):
    pair = tmp_path / "x01_broken"
    pair.mkdir()
    (pair / "manifest.json").write_text("{}")
    (pair / "fixed.minij").write_text("fn f(){ return 1; }")
    with pytest.raises(CorpusError, match="missing"):
        load_corpus(tmp_path)


def test_identical_versions_rejected(tmp_path):
    pair = tmp_path / "x02_same"
    pair.mkdir()
    (pair / "manifest.json").write_text("{}")
    (pair / "fixed.minij").write_text("fn f(){ return 1; }")
    (pair / "faulty.minij").write_text("fn f(){ return 1; }")
    with pytest.raises(CorpusError, match="identical"):
        load_corpus(tmp_path)


def test_signature_mismatch_rejected(tmp_path):
    pair = tmp_path / "x03_sig"
    pair.mkdir()
    (pair / "manifest.json").write_text("{}")
    (pair / "fixed.minij").write_text("fn f(a:int){ return a; }")
    (pair / "faulty.minij").write_text("fn f(a:str){ return a; }")
    with pytest.raises(CorpusError, match="signatures"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("name", ["fixed.minij", "faulty.minij"])
def test_a_source_that_is_not_utf8_is_a_corpus_error_naming_it(tmp_path, capsys, name):
    pair = tmp_path / "corpus" / "x05_bytes"
    pair.mkdir(parents=True)
    (pair / "manifest.json").write_text("{}")
    (pair / "fixed.minij").write_text("fn f(){ return 1; }")
    (pair / "faulty.minij").write_text("fn f(){ return 2; }")
    (pair / name).write_bytes(b"fn f(){ return 1; }\xff")
    with pytest.raises(CorpusError, match=f"^x05_bytes: {name} is not UTF-8 text"):
        load_corpus(tmp_path / "corpus")
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "exceptions", "strategies": ["ucb"],
                                       "corpus": str(tmp_path / "corpus")}))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: x05_bytes: {name} is not UTF-8 text")


@pytest.mark.parametrize("name", ["fixed.minij", "manifest.json"])
def test_a_file_that_cannot_be_read_is_a_corpus_error_naming_it(tmp_path, capsys, name):
    pair = tmp_path / "corpus" / "x07_unreadable"
    pair.mkdir(parents=True)
    (pair / "manifest.json").write_text("{}")
    (pair / "fixed.minij").write_text("fn f(){ return 1; }")
    (pair / "faulty.minij").write_text("fn f(){ return 2; }")
    (pair / name).unlink()
    (pair / name).mkdir()
    message = f"x07_unreadable: cannot read {name}: Is a directory"
    with pytest.raises(CorpusError, match=f"^{message}$"):
        load_corpus(tmp_path / "corpus")
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "exceptions", "strategies": ["ucb"],
                                       "corpus": str(tmp_path / "corpus")}))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("literal", ["\u00b2", "9" * 4300, "9" * 5000],
                         ids=["superscript-two", "digits-4300", "digits-5000"])
def test_an_int_literal_python_cannot_read_is_a_corpus_error(tmp_path, capsys, literal):
    pair = tmp_path / "corpus" / "x06_literal"
    pair.mkdir(parents=True)
    (pair / "manifest.json").write_text("{}")
    (pair / "fixed.minij").write_text("fn f(x:int){ return x + 1; }")
    (pair / "faulty.minij").write_text("fn f(x:int){ return x + " + literal + "; }")
    with pytest.raises(CorpusError, match="^x06_literal: "):
        load_corpus(tmp_path / "corpus")
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "exceptions", "strategies": ["ucb"],
                                       "corpus": str(tmp_path / "corpus")}))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: x06_literal: ")


def test_parse_failure_is_corpus_error(tmp_path):
    pair = tmp_path / "x04_syntax"
    pair.mkdir()
    (pair / "manifest.json").write_text("{}")
    (pair / "fixed.minij").write_text("fn f(){")
    (pair / "faulty.minij").write_text("fn f(){ return 1; }")
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


# --- fault detection ------------------------------------------------------------


def _pair(fault_id):
    return {p.fault_id: p for p in load_corpus(CORPUS)}[fault_id]


def _on_fixed(suite, pair, interp=InterpConfig()) -> list[tuple]:
    """The fixed version's behaviour of each call, test by test."""
    return [tuple(map(tracing.behavior_of,
                      run_test(pair.fixed_program, test, interp).call_results))
            for test in suite]


def test_boundary_fault_detected_by_boundary_test():
    pair = _pair("p08_account_rules")
    suite = (_case("withdraw", 50, 50),)
    assert fault_detected(suite, pair, _on_fixed(suite, pair)) is True


def test_empty_suite_detects_nothing():
    assert fault_detected((), _pair("p01_sign_boundary"), ()) is False


def test_equivalent_refactor_is_never_detected():
    pair = _pair("p03_equivalent_refactor")
    rng = random.Random(5)
    tests = [_case("double_sum", rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9))
             for _ in range(300)]
    assert fault_detected(tuple(tests), pair, _on_fixed(tests, pair)) is False


def test_off_boundary_test_misses_boundary_fault():
    pair = _pair("p08_account_rules")
    suite = (_case("withdraw", 50, 10),)
    assert fault_detected(suite, pair, _on_fixed(suite, pair)) is False


def _bool_int_pair() -> FaultPair:
    return FaultPair(
        fault_id="bool_int",
        fixed_program=parse("fn f(b:bool){ let r = 1; if (b) { r = true; } return r; }"),
        faulty_program=parse("fn f(b:bool){ let r = 1; return r; }"),
        description="",
    )


def test_a_fault_returning_one_for_true_is_detected():
    # True == 1 in Python; behaviours must still tell them apart
    pair = _bool_int_pair()
    true, false = (_case("f", True),), (_case("f", False),)
    assert fault_detected(true, pair, _on_fixed(true, pair)) is True
    assert fault_detected(false, pair, _on_fixed(false, pair)) is False


def _detections(suite, pair, interp=InterpConfig()) -> tuple[bool, bool]:
    """Fault detection on the fixed version's behaviours, and by the oracle
    that runs both versions again on every test."""
    return (fault_detected(suite, pair, _on_fixed(suite, pair, interp), interp),
            rerun_fault_detected(suite, pair, interp))


@pytest.mark.parametrize("goal", list(Goal))
def test_fault_detection_from_the_search_matches_running_both_versions_again(goal):
    engine = EngineConfig(population_size=4, skip_iter=1, budget=Budget(generations=2))
    gen = GenConfig(max_suite_size=4, max_calls_per_test=3)
    interp = InterpConfig()
    detected = []
    for pair in load_corpus(CORPUS):
        for strategy in ("ucb", "default"):
            seed = derive_seed(31, pair.fault_id, strategy, 0)
            result, record = run_trial(pair, strategy, goal, seed, engine, gen, interp)
            want = rerun_fault_detected(result.final_suite, pair, interp)
            assert record.fault_detected is want, (pair.fault_id, strategy)
            assert _detections(result.final_suite, pair, interp) == (want,) * 2
            detected.append(want)
    assert any(detected) and not all(detected)  # both outcomes are compared


def test_fault_detection_of_an_empty_suite_and_of_true_against_one_matches_the_oracle():
    assert _detections((), _pair("p01_sign_boundary")) == (False,) * 2
    pair = _bool_int_pair()
    assert _detections((_case("f", True),), pair) == (True,) * 2
    assert _detections((_case("f", False),), pair) == (False,) * 2


def test_fault_detection_on_kept_results_runs_each_distinct_call_once_on_the_faulty_version(
        monkeypatch):
    pair = _pair("p08_account_rules")
    twice = TestCase(calls=(CallStmt("withdraw", (50, 10)), CallStmt("withdraw", (50, 10))))
    suite = (_case("withdraw", 50, 10), twice, _case("withdraw", 50, 50))
    fixed = _on_fixed(suite, pair)
    runs = []
    real_execute = tracing.execute

    def counting_execute(program, function, args, *rest):
        runs.append((program.source_id, args))
        return real_execute(program, function, args, *rest)

    monkeypatch.setattr(tracing, "execute", counting_execute)
    assert fault_detected(suite, pair, fixed) is True
    assert runs == [("p08_account_rules:faulty", (50, 10)), ("p08_account_rules:faulty", (50, 50))]


def test_no_fitness_context_outlives_its_search(monkeypatch):
    contexts = []

    class Recorded(engine_module.FitnessContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(engine_module, "FitnessContext", Recorded)
    result, _ = run_trial(_pair("p04_guarded_divide"), "ucb", Goal.STRONG_MUTATION, 3,
                          EngineConfig(population_size=4, budget=Budget(generations=2)),
                          GenConfig(), InterpConfig())
    assert len(contexts) == 1 and contexts[0]() is None
    assert len(result.final_behaviors) == len(result.final_suite)


# --- normalization -----------------------------------------------------------------


def _record(fault, raw):
    return TrialRecord(
        fault_id=fault, strategy="s", trial_index=0, seed=0, goal_metric=raw,
        normalized_goal_metric=None, fault_detected=False, generations_completed=1,
        mean_seconds_per_generation=0.0, suite_size=0, rendered_chars=0,
        action_histogram={},
    )


def test_normalization_examples():
    records = [_record("f", 5.0), _record("f", 10.0), _record("f", 2.0)]
    normalize_goal_metric(records)
    assert records[0].normalized_goal_metric == 0.5
    assert records[1].normalized_goal_metric == 1.0


def test_normalization_all_zero_convention():
    records = [_record("f", 0.0), _record("f", 0.0)]
    normalize_goal_metric(records)
    assert [r.normalized_goal_metric for r in records] == [0.0, 0.0]


def test_normalization_bounds_and_unique_peak():
    rng = random.Random(2)
    records = [_record("f", rng.uniform(0, 9)) for _ in range(20)]
    normalize_goal_metric(records)
    values = [r.normalized_goal_metric for r in records]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values.count(1.0) >= 1


# --- effect size ---------------------------------------------------------------------


def test_a_measure_examples():
    assert vargha_delaney_a([1, 2], [1, 2]) == 0.5
    assert vargha_delaney_a([5, 6], [1, 2]) == 1.0
    assert vargha_delaney_a([1, 2], [1, 3]) == 0.375


def test_a_measure_matches_brute_force():
    rng = random.Random(9)
    for _ in range(100):
        xs = [rng.randint(0, 6) for _ in range(rng.randint(1, 8))]
        ys = [rng.randint(0, 6) for _ in range(rng.randint(1, 8))]
        assert vargha_delaney_a(xs, ys) == brute_force_a_measure(xs, ys)


def test_a_measure_antisymmetry_without_ties():
    rng = random.Random(10)
    xs = rng.sample(range(1000), 12)
    ys = rng.sample(range(1000, 2000), 9)
    assert vargha_delaney_a(xs, ys) + vargha_delaney_a(ys, xs) == pytest.approx(1.0)


def test_a_measure_rejects_empty():
    with pytest.raises(ValueError):
        vargha_delaney_a([], [1])


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(1, "f1", "ucb", 0)
    assert a == derive_seed(1, "f1", "ucb", 0)
    assert a != derive_seed(1, "f1", "ucb", 1)
    assert a != derive_seed(1, "f2", "ucb", 0)
    assert a != derive_seed(2, "f1", "ucb", 0)


# --- experiment -----------------------------------------------------------------------


def _mini_corpus(tmp_path) -> Path:
    root = tmp_path / "corpus"
    for fault_id in ("p02_bigger_swap", "p04_guarded_divide"):
        src = CORPUS / fault_id
        dst = root / fault_id
        dst.mkdir(parents=True)
        for name in ("fixed.minij", "faulty.minij", "manifest.json"):
            (dst / name).write_text((src / name).read_text())
    return root


def _experiment_config(corpus, **overrides):
    defaults = dict(
        goal=Goal.EXCEPTIONS,
        strategies=["ucb", "static:ex"],
        trials_per_fault=3,
        corpus_path=str(corpus),
        master_seed=11,
        engine=EngineConfig(population_size=8, budget=Budget(generations=6)),
        generation=GenConfig(max_calls_per_test=4, max_suite_size=10),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_experiment_row_counts_and_rerun_identical(tmp_path):
    corpus = _mini_corpus(tmp_path)
    cfg = _experiment_config(corpus)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    rows_a = (out_a / "trials.csv").read_text().splitlines()
    rows_b = (out_b / "trials.csv").read_text().splitlines()
    assert len(rows_a) == 1 + 2 * 2 * 3  # header + faults x strategies x trials
    # timing columns differ between reruns; everything else must match
    keep = [i for i, name in enumerate(rows_a[0].split(","))
            if name != "mean_seconds_per_generation"]
    strip = lambda rows: [",".join(row.split(",")[i] for i in keep) for row in rows]
    assert strip(rows_a) == strip(rows_b)


def test_experiment_summary_consistent_with_trials(tmp_path):
    corpus = _mini_corpus(tmp_path)
    out = tmp_path / "out"
    summary = run_experiment(_experiment_config(corpus), out)
    with open(out / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for strategy in ("ucb", "static:ex"):
        detected = [int(r["fault_detected"]) for r in rows if r["strategy"] == strategy]
        expected_rate = sum(detected) / len(detected)
        assert summary["strategies"][strategy]["fault_detection_rate"] == pytest.approx(expected_rate)
    assert (out / "summary.json").exists()
    assert (out / "actions.csv").exists()
    matrix = summary["vargha_delaney"]
    assert matrix["ucb"]["static:ex"] + matrix["static:ex"]["ucb"] == pytest.approx(1.0)


def _trial_rows(out: Path) -> list[dict]:
    """trials.csv under out, without its timing column."""
    with open(out / "trials.csv", newline="") as fh:
        return [{k: v for k, v in row.items() if k != "mean_seconds_per_generation"}
                for row in csv.DictReader(fh)]


def test_experiment_with_worker_pool_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    real_drain = harness._drain

    @functools.wraps(real_drain)  # so the pool pickles it by name
    def recording_drain():
        rows = real_drain()
        with open(tmp_path / f"drained-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps([index for index, _ in rows]) + "\n")
        return rows

    monkeypatch.setattr(harness, "_drain", recording_drain)
    corpus = _mini_corpus(tmp_path)
    for goal in Goal:
        for path in tmp_path.glob("drained-*.jsonl"):
            path.unlink()
        rows = {}
        for workers in (1, 2):
            cfg = _experiment_config(corpus, goal=goal, strategies=["ucb", "sarsa", "default"],
                                     workers=workers)
            run_experiment(cfg, tmp_path / f"{goal.value}-{workers}")
            rows[workers] = _trial_rows(tmp_path / f"{goal.value}-{workers}")
        assert len(rows[1]) == 2 * 3 * 3 and not any(row["error"] for row in rows[1])
        assert rows[1] == rows[2]
        drained = [json.loads(line) for path in tmp_path.glob("drained-*.jsonl")
                   for line in path.read_text().splitlines()]
        assert len(drained) == 2  # one task per worker, not one per job
        assert sorted(index for indices in drained for index in indices) == list(range(18))


def test_a_trial_that_raises_in_a_worker_is_an_error_row(tmp_path, monkeypatch):
    real_trial = harness.run_trial

    def failing_on_p02(pair, *rest):
        if pair.fault_id == "p02_bigger_swap":
            raise RuntimeError("boom")
        return real_trial(pair, *rest)

    monkeypatch.setattr(harness, "run_trial", failing_on_p02)  # before the fork
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    corpus = _mini_corpus(tmp_path)
    rows = {}
    for workers in (1, 2):
        run_experiment(_experiment_config(corpus, workers=workers), tmp_path / str(workers))
        rows[workers] = _trial_rows(tmp_path / str(workers))
    assert [(r["fault_id"], r["error"]) for r in rows[2]] == \
        [("p02_bigger_swap", "RuntimeError: boom")] * 6 + [("p04_guarded_divide", "")] * 6
    assert rows[1] == rows[2]


def test_a_worker_that_dies_breaks_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_trial", lambda *args: os._exit(1))  # before the fork
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    with pytest.raises(BrokenProcessPool):
        run_experiment(_experiment_config(_mini_corpus(tmp_path), workers=2), tmp_path / "out")


def test_more_drains_than_cores_take_every_job_exactly_once(monkeypatch):
    # a lost update of the shared counter would run a job twice or skip one
    monkeypatch.setattr(harness, "_trial_job", lambda job: -job)  # before the fork
    jobs = list(range(3000))
    context = multiprocessing.get_context("fork")
    with mmap.mmap(-1, 8) as counter, ProcessPoolExecutor(
            max_workers=6, mp_context=context, initializer=harness._use_pairs,
            initargs=([], (jobs, context.Lock(), counter))) as pool:
        futures = [pool.submit(harness._drain) for _ in range(6)]
        done = [pair for future in futures for pair in future.result(timeout=120)]
    assert sorted(done) == [(index, -index) for index in jobs]


def test_experiment_parses_each_program_once(tmp_path, monkeypatch):
    parsed = []
    real_parse = harness.parse

    def counting_parse(source, source_id="<anonymous>"):
        parsed.append(source_id)
        return real_parse(source, source_id)

    monkeypatch.setattr(harness, "parse", counting_parse)
    run_experiment(_experiment_config(_mini_corpus(tmp_path)), tmp_path / "out")
    assert len(parsed) == 2 * 2  # fixed and faulty version of each pair, once


@pytest.mark.parametrize("workers", [1, 2])
def test_an_experiment_frees_its_corpus_when_it_returns(tmp_path, monkeypatch, workers):
    # the compiled modules keep the corpus's mutants and code on copies of
    # their own, so no program the experiment parsed is part of a reference
    # cycle, and a later experiment on the same corpus builds none of it again
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(interpreter, "_MODULES", {})
    parsed, built = [], collections.Counter()
    real_parse = harness.parse

    def recording_parse(*args, **kwargs):
        program = real_parse(*args, **kwargs)
        parsed.append(id(program))
        return program

    def counted(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    monkeypatch.setattr(harness, "parse", recording_parse)
    counted(mutation, "generate_mutants")
    counted(codegen, "program_source")
    counted(codegen, "root_source")
    cfg = _experiment_config(_mini_corpus(tmp_path), goal=Goal.STRONG_MUTATION,
                             trials_per_fault=1, workers=workers)
    gc.collect()
    gc.disable()
    try:
        for run in range(2):
            parsed.clear()
            built.clear()
            run_experiment(cfg, tmp_path / str(run))
            assert len(parsed) == 2 * 2
            alive = {id(o) for o in gc.get_objects() if type(o) is Program}
            assert not alive.intersection(parsed), run
            if run == 0:
                assert built["generate_mutants"] == 2 and built["program_source"] > 0
            else:
                assert not built
    finally:
        gc.enable()
    assert _trial_rows(tmp_path / "0") == _trial_rows(tmp_path / "1")


def test_experiments_in_one_process_write_the_rows_of_fresh_processes(tmp_path):
    # experiments in one process share the compiled modules of programs of
    # the same text (``interpreter._MODULES``), each its analysis included
    corpus = _mini_corpus(tmp_path)
    shutil.copytree(CORPUS / "p06_loop_boundary", corpus / "p06_loop_boundary")
    configs = []
    for workers in (1, 2):
        for goal, step_limit in (("strong-mutation", 10_000), ("exceptions", 40),
                                 ("diversity", 200)):
            path = tmp_path / f"{goal}-{step_limit}-{workers}.json"
            path.write_text(json.dumps({
                "goal": goal, "strategies": ["ucb", "default"], "trials_per_fault": 1,
                "corpus": str(corpus), "workers": workers, "interp": {"step_limit": step_limit},
                "engine": {"population_size": 4, "budget": {"generations": 2}},
                "generation": {"max_suite_size": 4, "max_calls_per_test": 3}}))
            configs.append(path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(CORPUS.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    for path in configs:
        assert cli_main(["experiment", "--config", str(path),
                         "--out", str(tmp_path / "one" / path.stem)]) == 0
        subprocess.run([sys.executable, "-m", "affsgen.cli", "experiment", "--config", str(path),
                        "--out", str(tmp_path / "fresh" / path.stem)],
                       env=env, check=True, capture_output=True, timeout=300)
    for path in configs:
        one = _trial_rows(tmp_path / "one" / path.stem)
        assert one and not any(row["error"] for row in one)
        assert one == _trial_rows(tmp_path / "fresh" / path.stem), path.stem


def test_run_trial_copies_every_engine_field(monkeypatch):
    engine = EngineConfig(population_size=5, skip_iter=2, budget=Budget(generations=2))
    for f in dataclasses.fields(EngineConfig):
        assert getattr(engine, f.name) != f.default, f.name
    seen = []
    real_search = harness.run_search

    def recording_search(program, goal, strategy, config, seed, *rest):
        seen.append((config, seed))
        return real_search(program, goal, strategy, config, seed, *rest)

    monkeypatch.setattr(harness, "run_search", recording_search)
    run_trial(_pair("p04_guarded_divide"), "static:ex", Goal.EXCEPTIONS, 1234,
              engine, GenConfig(max_calls_per_test=2, max_suite_size=4), InterpConfig())
    assert seen == [(engine, 1234)]


def test_a_failing_trial_is_a_row_of_every_column(tmp_path, monkeypatch):
    real_search = harness.run_search

    def failing_on_p02(program, *rest):
        if program.source_id == "p02_bigger_swap":
            raise RuntimeError("boom")
        return real_search(program, *rest)

    monkeypatch.setattr(harness, "run_search", failing_on_p02)
    cfg = _experiment_config(_mini_corpus(tmp_path), strategies=["static:ex"],
                             trials_per_fault=1)
    run_experiment(cfg, tmp_path / "out")
    with open(tmp_path / "out" / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [f.name for f in dataclasses.fields(TrialRecord)]
    assert [r["fault_id"] for r in rows] == ["p02_bigger_swap", "p04_guarded_divide"]
    assert rows[0] == {
        "fault_id": "p02_bigger_swap", "strategy": "static:ex", "trial_index": "0",
        "seed": str(derive_seed(11, "p02_bigger_swap", "static:ex", 0)),
        "goal_metric": "0.0", "normalized_goal_metric": "0.0", "fault_detected": "0",
        "generations_completed": "0", "mean_seconds_per_generation": "0.0",
        "suite_size": "0", "rendered_chars": "0", "action_histogram": "{}",
        "error": "RuntimeError: boom",
    }
    assert rows[1]["error"] == "" and rows[1]["generations_completed"] == "6"


def test_experiment_empty_corpus_is_error(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    with pytest.raises(CorpusError):
        run_experiment(_experiment_config(empty), tmp_path / "out")


def test_a_pair_without_mutation_sites_is_exit_2_before_any_trial(tmp_path, capsys, monkeypatch):
    # mutation scores are undefined without mutants, so every default trial would fail
    pair = tmp_path / "corpus" / "p00_echo"
    pair.mkdir(parents=True)
    (pair / "fixed.minij").write_text("fn f(s:str){ return s; }")
    (pair / "faulty.minij").write_text('fn f(s:str){ return "a"; }')
    (pair / "manifest.json").write_text("{}")
    started = _no_search(monkeypatch)
    cfg = _experiment_config(pair.parent, strategies=["default", "ucb"], trials_per_fault=1)
    with pytest.raises(CorpusError, match="p00_echo: fixed.minij has no mutation sites"):
        run_experiment(cfg, tmp_path / "out")
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "exceptions", "strategies": ["default", "ucb"],
                                       "corpus": str(pair.parent), "trials_per_fault": 1}))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: p00_echo: fixed.minij has no mutation sites")
    assert started == []


def test_a_strategy_whose_every_trial_failed_reports_its_errors(tmp_path, monkeypatch):
    real_search = harness.run_search

    def failing_static(program, goal, strategy, *rest):
        if strategy.name == "static:ex":
            raise RuntimeError("boom")
        return real_search(program, goal, strategy, *rest)

    monkeypatch.setattr(harness, "run_search", failing_static)
    cfg = _experiment_config(_mini_corpus(tmp_path), trials_per_fault=1,
                             engine=EngineConfig(population_size=6, budget=Budget(generations=2)))
    summary = run_experiment(cfg, tmp_path / "out")
    assert summary["strategies"]["static:ex"] == {"trials": 0, "errors": 2}
    assert summary["strategies"]["ucb"]["errors"] == 0


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _experiment_config(tmp_path, trials_per_fault=0)
    with pytest.raises(ValueError):
        _experiment_config(tmp_path, strategies=[])
    with pytest.raises(ConfigError, match="strategy 'default' appears more than once"):
        _experiment_config(tmp_path, strategies=["default", "ucb", "default"])
    for workers in (0, -2):
        with pytest.raises(ConfigError):
            _experiment_config(tmp_path, workers=workers)


def _inline_pool(started: list, submitted: list):
    class InlinePool:
        """Records its size and how many tasks it got, calls its initializer
        and runs every task in this process."""

        def __init__(self, max_workers, mp_context, initializer=None, initargs=()):
            assert mp_context.get_start_method() == "fork"
            started.append(max_workers)
            submitted.append(0)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted[-1] += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    return InlinePool


def test_experiment_pool_is_capped_at_the_cpu_count(tmp_path, monkeypatch):
    started, submitted = [], []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _inline_pool(started, submitted))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    corpus = _mini_corpus(tmp_path)
    for workers in (1, 2, 10_000):
        run_experiment(_experiment_config(corpus, workers=workers), tmp_path / str(workers))
    assert started == [2, 3]
    assert (tmp_path / "10000" / "trials.csv").read_text().count("\n") == 1 + 2 * 2 * 3
    # and at the job count: two jobs get two workers, and one job forks nothing
    run_experiment(_experiment_config(corpus, strategies=["ucb"], trials_per_fault=1,
                                      workers=10_000), tmp_path / "two-jobs")
    (tmp_path / "one-pair").mkdir()
    (corpus / "p04_guarded_divide").rename(tmp_path / "one-pair" / "p04_guarded_divide")
    run_experiment(_experiment_config(tmp_path / "one-pair", strategies=["ucb"],
                                      trials_per_fault=1, workers=10_000),
                   tmp_path / "one-job")
    assert started == [2, 3, 2] and submitted == started
    assert (tmp_path / "one-job" / "trials.csv").read_text().count("\n") == 1 + 1


def _count_compiles(monkeypatch) -> dict:
    """Count every compile from now on by whether a trial job was running."""
    in_job = [False]
    compiles = {False: 0, True: 0}
    original_exec = interpreter._Compiled._exec
    original_job = harness._trial_job

    def counting_exec(self, source, name):
        compiles[in_job[0]] += 1
        return original_exec(self, source, name)

    def marked_job(args):
        in_job[0] = True
        try:
            return original_job(args)
        finally:
            in_job[0] = False

    monkeypatch.setattr(interpreter._Compiled, "_exec", counting_exec)
    monkeypatch.setattr(harness, "_trial_job", marked_job)
    return compiles


def test_a_pool_compiles_and_generates_mutants_once_before_its_jobs(tmp_path, monkeypatch):
    started, submitted = [], []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _inline_pool(started, submitted))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    compiles = _count_compiles(monkeypatch)
    generated = []
    original_generate = mutation.generate_mutants

    def counting_generate(program):
        generated.append(program.source_id)
        return original_generate(program)

    monkeypatch.setattr(mutation, "generate_mutants", counting_generate)
    corpus = _mini_corpus(tmp_path)
    rows = {}
    for workers in (1, 2):
        # nothing compiled yet, so each run compiles every program it runs
        monkeypatch.setattr(interpreter, "_MODULES", {})
        compiles.update({False: 0, True: 0})
        generated.clear()
        out = tmp_path / str(workers)
        run_experiment(_experiment_config(corpus, goal=Goal.STRONG_MUTATION, workers=workers),
                       out)
        rows[workers] = _trial_rows(out)
        assert generated == ["p02_bigger_swap", "p04_guarded_divide"]
        if workers == 1:
            assert compiles[False] == 0 and compiles[True] > 0  # serial runs compile lazily
        else:
            assert compiles[False] > 0 and compiles[True] == 0
    assert started == [2] and submitted == [2]
    assert rows[1] == rows[2] and not any(row["error"] for row in rows[1])


def test_a_pool_compiles_the_lean_code_of_a_program_whose_mutants_are_all_deletions(
        tmp_path, monkeypatch):
    # a deleted assignment compiles no alternative, so nothing but the
    # precompiling before the pool compiles the lean code its kill runs run
    pair = tmp_path / "corpus" / "p00_deletions"
    pair.mkdir(parents=True)
    (pair / "fixed.minij").write_text("fn f(x:int){ let y = x; y = x; return y; }\n")
    (pair / "faulty.minij").write_text("fn f(x:int){ let y = x; return 0; }\n")
    (pair / "manifest.json").write_text("{}")
    started, submitted = [], []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _inline_pool(started, submitted))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(interpreter, "_MODULES", {})
    compiles = _count_compiles(monkeypatch)
    run_experiment(_experiment_config(pair.parent, goal=Goal.STRONG_MUTATION, workers=2),
                   tmp_path / "out")
    fixed = harness.load_corpus(pair.parent)[0].fixed_program
    assert {m.operator for m in mutation.mutants_of(fixed)} == {mutation.DELETE_ASSIGNMENT}
    assert compiles[False] > 0 and compiles[True] == 0
    assert started == [2] and submitted == [2]


def test_jobs_on_pickled_pairs_give_the_same_records(tmp_path):
    corpus = _mini_corpus(tmp_path)
    cfg = _experiment_config(corpus, goal=Goal.STRONG_MUTATION, trials_per_fault=1)
    pairs = load_corpus(corpus)
    jobs = harness._jobs(cfg, pairs)
    records = []
    try:
        for given in (pairs, pickle.loads(pickle.dumps(pairs))):
            harness._use_pairs(given)
            records.append([dataclasses.asdict(harness._trial_job(job)) for job in jobs])
    finally:
        harness._use_pairs([])
    for record in (r for side in records for r in side):
        assert not record.pop("error") and record.pop("mean_seconds_per_generation") > 0
    assert records[0] == records[1]
    assert [r["trial_index"] for r in records[0]] == [0] * len(jobs)


# --- CLI -------------------------------------------------------------------------------


def test_cli_generate_writes_suite(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = cli_main([
        "generate",
        "--program", str(CORPUS / "p04_guarded_divide" / "fixed.minij"),
        "--goal", "exceptions", "--strategy", "ucb",
        "--budget-gens", "5", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["goal"] == "exceptions"
    assert payload["strategy"] == "ucb"
    assert isinstance(payload["tests"], list)
    assert "wrote" in capsys.readouterr().out


def test_cli_generate_requires_budget(tmp_path, capsys):
    code = cli_main([
        "generate", "--program", str(CORPUS / "p04_guarded_divide" / "fixed.minij"),
        "--goal", "exceptions", "--strategy", "ucb", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: budget needs a generation count")


def test_cli_generate_bad_program_is_exit_2(tmp_path):
    bad = tmp_path / "bad.minij"
    bad.write_text("fn f(){")
    code = cli_main([
        "generate", "--program", str(bad), "--goal", "exceptions",
        "--strategy", "ucb", "--budget-gens", "3", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2


def test_cli_generate_program_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    program = tmp_path / "p.minij"
    program.write_bytes(b"fn f(x:int){ return x; }\xff")
    code = cli_main([
        "generate", "--program", str(program), "--goal", "exceptions",
        "--strategy", "ucb", "--budget-gens", "3", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {program} is not UTF-8 text")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("source", [
    "// nothing to test\n",
    "fn f(x:int){ return x" + " + x" * 3000 + "; }",
    "fn f(x:int){ return " + "(" * 2000 + "x" + ")" * 2000 + "; }",
    "fn f(x:int){ " + "if (x > 0) { " * 2000 + "return x; " + "} " * 2000 + "return 0; }",
    "fn f(x:int){ return x; }",
    "fn f(x:int){ return \u00b2; }",
    "fn f(x:int){ return " + "9" * 5000 + "; }",
], ids=["no-functions", "sum-3000", "parens-2000", "if-blocks-2000", "no-mutants",
        "superscript-two", "digits-5000"])
def test_cli_generate_unusable_program_is_exit_2(tmp_path, capsys, source):
    program = tmp_path / "p.minij"
    program.write_text(source)
    code = cli_main([
        "generate", "--program", str(program), "--goal", "exceptions",
        "--strategy", "ucb", "--budget-gens", "3", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("goal", ["strong-mutation", "diversity"])
def test_cli_generate_an_int_literal_whose_neighbour_python_cannot_read_is_exit_2(
        tmp_path, capsys, goal):
    # a mutant, or a test's literal, one more than 4300 nines has 4301 digits
    program = tmp_path / "p.minij"
    program.write_text("fn f(x:int){ return x + " + "9" * 4300 + "; }")
    code = cli_main([
        "generate", "--program", str(program), "--goal", goal,
        "--strategy", "ucb", "--budget-gens", "3", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2
    assert "integer literal of 4300 digits is too long" in capsys.readouterr().err


def _grows(tmp_path) -> list:
    """``generate`` arguments for a program whose ints outgrow float range:
    k grows threefold until the step limit, and k != 0 compares it each pass."""
    program = tmp_path / "grows.minij"
    program.write_text("fn f(k:int){ while (k != 0) { k = k * 3; } return k; }")
    return ["generate", "--program", str(program), "--goal", "exceptions",
            "--strategy", "ucb", "--budget-gens", "2", "--out", str(tmp_path / "s.json")]


def test_cli_generate_compares_ints_beyond_float_range_and_writes_its_suite(tmp_path, capsys):
    assert cli_main(_grows(tmp_path)) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"wrote {tmp_path / 's.json'}: ") and err == ""
    assert json.loads((tmp_path / "s.json").read_text())["goal"] == "exceptions"
    # no temporary file is left behind
    assert sorted(path.name for path in tmp_path.iterdir()) == ["grows.minij", "s.json"]


def test_cli_generate_leaves_an_existing_out_as_it_was_when_the_search_fails(tmp_path,
                                                                             monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("the search failed")

    monkeypatch.setattr("affsgen.cli.run_search", fail)
    out = tmp_path / "s.json"
    out.write_text("an earlier suite")
    with pytest.raises(RuntimeError, match="the search failed"):
        cli_main(_grows(tmp_path))
    assert out.read_text() == "an earlier suite"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["grows.minij", "s.json"]


def test_cli_generate_replaces_an_existing_out_after_a_search(tmp_path):
    out = tmp_path / "suite.json"
    out.write_text("an earlier suite")
    code = cli_main([
        "generate", "--program", str(CORPUS / "p04_guarded_divide" / "fixed.minij"),
        "--goal", "exceptions", "--strategy", "ucb", "--budget-gens", "2", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["goal"] == "exceptions"
    assert [path.name for path in tmp_path.iterdir()] == ["suite.json"]


@pytest.mark.parametrize("text", [
    "{not json",
    "{}",
    "[1, 2]",
    '{"goal": "exceptions", "strategies": {"ucb": "fast"}}',
], ids=["not-json", "no-fields", "a-list", "bad-row"])
def test_cli_report_malformed_summary_is_exit_2(tmp_path, capsys, text):
    (tmp_path / "summary.json").write_text(text)
    assert cli_main(["report", "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_generate_with_an_out_in_a_missing_directory_is_exit_1(tmp_path, capsys,
                                                                   monkeypatch):
    started = _no_search(monkeypatch)
    code = cli_main([
        "generate", "--program", str(CORPUS / "p04_guarded_divide" / "fixed.minij"),
        "--goal", "exceptions", "--strategy", "ucb", "--budget-gens", "3",
        "--out", str(tmp_path / "missing" / "s.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot write --out: ")
    assert started == []


def test_cli_generate_with_an_out_that_is_a_directory_is_exit_1(tmp_path, capsys, monkeypatch):
    started = _no_search(monkeypatch)
    code = cli_main([
        "generate", "--program", str(CORPUS / "p04_guarded_divide" / "fixed.minij"),
        "--goal", "exceptions", "--strategy", "ucb", "--budget-gens", "3",
        "--out", str(tmp_path),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot write --out: ")
    assert started == [] and list(tmp_path.iterdir()) == []


def test_cli_experiment_with_an_out_that_is_a_file_is_exit_1(tmp_path, capsys, monkeypatch):
    started = _no_search(monkeypatch)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "exceptions", "strategies": ["ucb"],
                                       "corpus": str(_mini_corpus(tmp_path)),
                                       "trials_per_fault": 1}))
    out = tmp_path / "results"
    out.write_text("not a directory")
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write --out: ")
    assert started == [] and out.read_text() == "not a directory"


def test_cli_generate_unknown_strategy_is_exit_1(tmp_path):
    code = cli_main([
        "generate", "--program", str(CORPUS / "p04_guarded_divide" / "fixed.minij"),
        "--goal", "exceptions", "--strategy", "wat",
        "--budget-gens", "3", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 1


def test_cli_experiment_and_report(tmp_path, capsys):
    corpus = _mini_corpus(tmp_path)
    config = {
        "goal": "exceptions",
        "strategies": ["static:ex"],
        "trials_per_fault": 1,
        "corpus": str(corpus),
        "master_seed": 4,
        "engine": {"population_size": 6, "budget": {"generations": 4}},
        "generation": {"max_calls_per_test": 3, "max_suite_size": 8},
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert cli_main(["report", "--in", str(out_dir)]) == 0
    assert "static:ex" in capsys.readouterr().out


def test_cli_experiment_bad_config_is_exit_1(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "nope", "strategies": ["ucb"]}))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
    config_path.write_text(json.dumps({"goal": "exceptions", "strategies": ["ucb"], "workers": 0}))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1


def test_cli_experiment_unknown_strategy_is_exit_1(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "goal": "exceptions", "strategies": ["ucb", "zigzag"],
        "corpus": str(_mini_corpus(tmp_path)), "trials_per_fault": 1,
        "engine": {"population_size": 6, "budget": {"generations": 2}},
    }))
    out_dir = tmp_path / "o"
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: unknown strategy 'zigzag'\n"
    assert not out_dir.exists()


def test_cli_experiment_config_not_an_object_is_exit_1(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(["exceptions", "ucb"]))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_experiment_missing_corpus_is_exit_2(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "goal": "exceptions", "strategies": ["static:ex"],
        "corpus": str(tmp_path / "missing"), "trials_per_fault": 1,
        "engine": {"population_size": 6, "budget": {"generations": 2}},
    }))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("setting", [
    {"trails_per_fault": 3},
    {"corpus": 5},
    {"seed": 3},
    {"generation": [["max_calls_per_test", 3]]},
    {"strategies": [5]},
    {"strategies": "ucb"},
    {"strategies": ["default", "default"]},
], ids=["misspelt-key", "corpus-int", "unknown-key", "section-pairs", "strategy-int",
        "strategies-str", "strategy-twice"])
def test_cli_experiment_with_bad_top_level_settings_is_exit_1(tmp_path, capsys, monkeypatch,
                                                              setting):
    started = _no_search(monkeypatch)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "goal": "exceptions", "strategies": ["ucb"], "trials_per_fault": 1,
        "corpus": str(_mini_corpus(tmp_path)), "engine": {"budget": {"generations": 2}},
        **setting,
    }))
    out_dir = tmp_path / "o"
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert started == [] and not out_dir.exists()


@pytest.mark.parametrize("make, name, value", [
    (EngineConfig, "skip_iter", True),
    (GenConfig, "max_suite_size", None),
    (lambda **kw: ExperimentConfig(Goal.EXCEPTIONS, ["ucb"], **kw), "corpus_path", 5),
    (lambda **kw: ExperimentConfig(Goal.EXCEPTIONS, **kw), "strategies", ("ucb",)),
])
def test_a_setting_of_the_wrong_kind_is_an_error_that_names_it(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make(**{name: value})


def test_cli_experiment_file_passes_only_the_keys_it_holds(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "diversity", "strategies": ["ucb"],
                                       "engine": {"skip_iter": 2}}))
    cfg = cli._experiment_config(str(config_path))
    assert cfg == ExperimentConfig(goal=Goal.DIVERSITY, strategies=["ucb"],
                                   engine=EngineConfig(skip_iter=2))


def test_a_manifest_that_is_not_an_object_is_a_corpus_error(tmp_path, capsys):
    corpus = _mini_corpus(tmp_path)
    (corpus / "p04_guarded_divide" / "manifest.json").write_text("[]")
    with pytest.raises(CorpusError, match="p04_guarded_divide: manifest must hold a JSON object"):
        load_corpus(corpus)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"goal": "exceptions", "strategies": ["ucb"],
                                       "corpus": str(corpus)}))
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: p04_guarded_divide: manifest")


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0, 0.0, True, "3"])
def test_budget_rejects_a_wall_clock_limit_that_is_not_positive_and_finite(seconds):
    with pytest.raises(ValueError, match="positive and finite"):
        Budget(seconds=seconds)
    with pytest.raises(ValueError):
        Budget(generations=3, seconds=seconds)


def _no_search(monkeypatch) -> list:
    started = []
    monkeypatch.setattr(harness, "run_search", lambda *a, **k: started.append(a))
    monkeypatch.setattr("affsgen.cli.run_search", lambda *a, **k: started.append(a))
    return started


@pytest.mark.parametrize("seconds", ["nan", "inf"])
def test_cli_generate_with_a_non_finite_budget_is_exit_1(tmp_path, capsys, monkeypatch, seconds):
    started = _no_search(monkeypatch)
    code = cli_main([
        "generate", "--program", str(CORPUS / "p04_guarded_divide" / "fixed.minij"),
        "--goal", "exceptions", "--strategy", "ucb",
        "--budget-seconds", seconds, "--out", str(tmp_path / "s.json"),
    ])
    assert code == 1
    assert "positive and finite" in capsys.readouterr().err
    assert started == [] and not (tmp_path / "s.json").exists()


# fresh-negative, rate-bool and rate-str set keys that are module constants now: they
# exit 1 as unknown keys, as test_cli_experiment_with_a_constant_as_a_key_is_exit_1 checks
@pytest.mark.parametrize("engine, interp", [
    ({"budget": {"seconds": float("nan")}}, {}),
    ({"budget": {"seconds": float("inf")}}, {}),
    ({"budget": {"seconds": True}}, {}),
    ({"budget": {"generations": 2}}, {"step_limit": "x"}),
    ({"budget": {"generations": 2}}, {"step_limit": 0}),
    ({"budget": {"generations": 2}}, {"max_call_depth": 10**6}),
    ({"budget": {"generations": 2}}, {"frames": 3}),
    ({"budget": {"generations": 2.5}}, {}),
    ({"budget": {"generations": 2}, "population_size": 4.5}, {}),
    ({"budget": {"generations": 2}, "fresh_random_per_gen": -3}, {}),
    ({"budget": {"generations": 2}, "skip_iter": 1.5}, {}),
    ({"budget": {"generations": 2}, "crossover_rate": True}, {}),
    ({"budget": {"generations": 2}, "mutation_rate": "0.5"}, {}),
    ({"budget": {"generations": 2}, "rng_seed": 5}, {}),
    ({"budget": {"generations": 2}, "populaton_size": 4}, {}),
    ({"budget": {"generations": 2, "secs": 1}}, {}),
    ([["population_size", 4], ["budget", {"generations": 2}]], {}),
    ({"budget": [["generations", 2]]}, {}),
    ({"budget": {"generations": 2}}, [["step_limit", 50]]),
], ids=["nan-seconds", "inf-seconds", "bool-seconds", "step-limit-str", "step-limit-0", "call-depth-huge",
        "unknown-key", "generations-float", "population-float", "fresh-negative",
        "skip-iter-float", "rate-bool", "rate-str", "engine-seed", "engine-unknown-key",
        "budget-unknown-key", "engine-pairs", "budget-pairs", "interp-pairs"])
def test_cli_experiment_with_bad_limits_is_exit_1(tmp_path, capsys, monkeypatch, engine, interp):
    started = _no_search(monkeypatch)
    config_path = tmp_path / "exp.json"
    # json writes NaN and Infinity, and reads them back
    config_path.write_text(json.dumps({
        "goal": "exceptions", "strategies": ["ucb"], "trials_per_fault": 1,
        "corpus": str(_mini_corpus(tmp_path)), "engine": engine, "interp": interp,
    }))
    out_dir = tmp_path / "o"
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "max_call_depth" in interp:
        # the call-depth cap is the constant interpreter.MAX_CALL_DEPTH, not a setting
        assert err.startswith("error: interp: unknown key(s) ['max_call_depth']")
    if "rng_seed" in engine:
        # a seed is an argument of run_search, which each trial derives from master_seed
        assert err.startswith("error: engine: unknown key(s) ['rng_seed']")
    assert started == [] and not out_dir.exists()


@pytest.mark.parametrize("setting", [
    {"trials_per_fault": 2.5},
    {"trials_per_fault": True},
    {"workers": 1.9},
    {"workers": "2"},
    {"master_seed": True},
    {"master_seed": 7.0},
], ids=["trials-float", "trials-bool", "workers-float", "workers-str", "seed-bool", "seed-float"])
def test_cli_experiment_with_non_int_counts_is_exit_1(tmp_path, capsys, monkeypatch, setting):
    started = _no_search(monkeypatch)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "goal": "exceptions", "strategies": ["ucb"], "trials_per_fault": 1,
        "corpus": str(_mini_corpus(tmp_path)), "engine": {"budget": {"generations": 2}},
        **setting,
    }))
    out_dir = tmp_path / "o"
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 1
    name = next(iter(setting))
    assert capsys.readouterr().err.startswith(f"error: {name} must be an int")
    assert started == [] and not out_dir.exists()


# all but suite-size-0, calls-0, calls-float and pairs set keys that are module constants
# now: they exit 1 as unknown keys, as test_cli_experiment_with_a_constant_as_a_key_is_exit_1
# checks
@pytest.mark.parametrize("generation", [
    {"max_suite_size": 0},
    {"max_calls_per_test": 0},
    {"int_min": 5, "int_max": 1},
    {"str_max_len": -1},
    {"str_alphabet": ""},
    {"alias_prob": 1.5},
    {"test_change_prob": float("nan")},
    {"max_calls_per_test": 2.5},
    {"alias_prob": True},
    {"pool_prob": "0.5"},
    {"str_alphabet": 5},
    {"str_alpabet": "ab"},
    [["max_calls_per_test", 3]],
], ids=["suite-size-0", "calls-0", "int-range", "str-len", "alphabet", "prob-high", "prob-nan",
        "calls-float", "prob-bool", "prob-str", "alphabet-int", "unknown-key", "pairs"])
def test_cli_experiment_with_bad_generation_settings_is_exit_1(tmp_path, capsys, monkeypatch,
                                                              generation):
    started = _no_search(monkeypatch)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "goal": "exceptions", "strategies": ["ucb"], "trials_per_fault": 1,
        "corpus": str(_mini_corpus(tmp_path)), "engine": {"budget": {"generations": 2}},
        "generation": generation,
    }))
    out_dir = tmp_path / "o"
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert started == [] and not out_dir.exists()


# each setting that is a module constant now, at the value it takes
_CONSTANTS = [
    ("engine", "elite_count", 2),
    ("engine", "crossover_rate", 0.75),
    ("engine", "mutation_rate", 0.9),
    ("engine", "fresh_random_per_gen", 2),
    ("generation", "int_min", -1000),
    ("generation", "int_max", 1000),
    ("generation", "pool_prob", 0.5),
    ("generation", "alias_prob", 0.1),
    ("generation", "str_alphabet", "abc"),
    ("generation", "str_max_len", 4),
    ("generation", "add_test_prob", 0.3),
    ("generation", "remove_test_prob", 0.2),
    ("generation", "test_change_prob", 0.5),
]


@pytest.mark.parametrize("section, key, value", _CONSTANTS,
                         ids=[f"{section}.{key}" for section, key, _ in _CONSTANTS])
def test_cli_experiment_with_a_constant_as_a_key_is_exit_1(tmp_path, capsys, monkeypatch,
                                                          section, key, value):
    started = _no_search(monkeypatch)
    sections = {"engine": {"budget": {"generations": 2}}, "generation": {}}
    sections[section][key] = value
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "goal": "exceptions", "strategies": ["ucb"], "trials_per_fault": 1,
        "corpus": str(_mini_corpus(tmp_path)), **sections,
    }))
    out_dir = tmp_path / "o"
    assert cli_main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {section}: unknown key(s) [{key!r}]")
    assert started == [] and not out_dir.exists()
