"""The test-major mask fold against the mutant-major reference fold."""

import random
from collections import Counter
from pathlib import Path

import pytest

from affsgen import mutation, tracing
from affsgen.affs import Goal
from affsgen.engine import _killed_goals, make_archive_updater
from affsgen.fitness import _STRONG_STAGES, _WEAK_STAGES, FitnessContext
from affsgen.harness import load_corpus
from affsgen.minilang import parse
from affsgen.mutation import MutantStatus
from affsgen.testmodel import Archive, CallStmt, GenConfig, MutantGoal, TestCase, random_test_case
from affsgen.tracing import call_key
from oracles import MutantMajorFold

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
MODES = {"weak": (_WEAK_STAGES, MutantStatus.INFECTED),
         "strong": (_STRONG_STAGES, MutantStatus.KILLED)}


def _fixed_programs() -> list:
    """The corpus's fixed programs, parsed afresh."""
    return [pair.fixed_program for pair in load_corpus(CORPUS)]


class _RunCounter:
    """Counts ``mutation.execute`` runs, by program and call, for whichever
    side is current: the schema runs and mutant runs classification starts."""

    def __init__(self, monkeypatch):
        self.side = None
        self.runs = {"mask": Counter(), "reference": Counter()}
        real_execute = mutation.execute

        def counting_execute(prog, function, args, *rest, **kwargs):
            self.runs[self.side][(id(prog), call_key(function, tuple(args)))] += 1
            return real_execute(prog, function, args, *rest, **kwargs)

        monkeypatch.setattr(mutation, "execute", counting_execute)

    def on(self, side: str, action):
        self.side = side
        try:
            return action()
        finally:
            self.side = None


def _check_against_reference(program, rng: random.Random, counter: _RunCounter) -> None:
    ctx, reference = FitnessContext(program), MutantMajorFold(program)
    mutants = ctx.mutants
    tests = [random_test_case(program, rng, GenConfig(max_calls_per_test=4)) for _ in range(6)]
    suites = [tuple(tests[:2]), tuple(tests[1:4]), tuple(tests), tuple(tests[3:])]
    # every other mutant, as an archive updater might still want them
    some = sum(1 << position for position in range(0, len(mutants), 2))

    def same(mask_action, reference_action, what):
        got = counter.on("mask", mask_action)
        want = counter.on("reference", reference_action)
        # bit-identical floats: repr tells 0.1 + 0.2 from 0.3
        assert repr(got) == repr(want), (program.source_id, what)
        assert counter.runs["mask"] == counter.runs["reference"], (program.source_id, what)
        assert ctx._traces.keys() == reference._traces.keys(), (program.source_id, what)

    for index, suite in enumerate(suites):
        # weak and strong folds interleaved, each order in turn: a weak fold
        # leaves infected calls unrun for a later strong one
        modes = ("weak", "strong") if index % 2 == 0 else ("strong", "weak")
        for mode in modes:
            stages, stop = MODES[mode]
            same(lambda: ctx.stage_sum(suite, stages, stop),
                 lambda: reference.stage_sum(suite, stages, stop), (index, mode, "stage_sum"))
            same(lambda: ctx.mutation_score(suite, mode),
                 lambda: reference.mutation_score(suite, mode), (index, mode, "score"))
            same(lambda: [ctx.classify(m, suite, stop) for m in mutants],
                 lambda: [reference.classify(m, suite, stop) for m in mutants],
                 (index, mode, "classify"))
        for test in suite:
            for wanted in (some, None):
                chosen = [m for position, m in enumerate(mutants)
                          if wanted is None or wanted >> position & 1]
                same(lambda: _killed_goals(ctx, test, wanted),
                     lambda: reference.killed_goals(test, chosen), (index, "killed goals"))


@pytest.mark.parametrize("index", range(12))
def test_the_mask_fold_equals_the_mutant_major_fold_on_the_corpus(monkeypatch, index):
    program = _fixed_programs()[index]
    _check_against_reference(program, random.Random(index), _RunCounter(monkeypatch))


# a deleted assignment that leaves its variable as it was is neither infected
# nor drifted, yet it runs; a loop makes mutants drift
SMALL = [
    "fn f(a:int){ let y = a; y = a; if (y > 3) { return y - 1; } return y * 2; }",
    "fn g(n:int){ let s = 0; while (n > 0) { s = s + n; n = n - 2; } return s; }",
]


@pytest.mark.parametrize("source", SMALL)
def test_the_mask_fold_equals_the_mutant_major_fold_on_small_programs(monkeypatch, source):
    _check_against_reference(parse(source), random.Random(3), _RunCounter(monkeypatch))


DOUBLE = "fn f(a:int){ if (a > 0) { return a * 2; } return 0; }"


def _count_runs(monkeypatch) -> list:
    """Every interpreter run, traced, schema or mutant, in order."""
    runs = []
    for module in (tracing, mutation):
        real_execute = module.execute

        def counting_execute(prog, function, args, *rest, real_execute=real_execute, **kwargs):
            runs.append((prog, tuple(args)))
            return real_execute(prog, function, args, *rest, **kwargs)

        monkeypatch.setattr(module, "execute", counting_execute)
    return runs


def test_a_fold_that_wants_no_mutant_traces_and_runs_nothing(monkeypatch):
    ctx = FitnessContext(parse(DOUBLE))
    runs = _count_runs(monkeypatch)
    tests = (TestCase(calls=(CallStmt("f", (3,)),)), TestCase(calls=(CallStmt("f", (-1,)),)))
    for stop in (MutantStatus.INFECTED, MutantStatus.KILLED):
        assert ctx.fold(tests, stop, 0) == (0, 0, 0)
    assert runs == [] and not ctx._traces and not ctx._classifications


def test_the_archive_updater_traces_nothing_once_every_mutant_is_archived(monkeypatch):
    # f(3) kills every mutant of a * 2
    ctx, archive = FitnessContext(parse("fn f(a:int){ return a * 2; }")), Archive()
    update = make_archive_updater(Goal.STRONG_MUTATION, ctx, archive, None)
    killer = TestCase(calls=(CallStmt("f", (3,)),))
    update([killer])
    assert archive.entries == {MutantGoal(m.mutant_id): killer for m in ctx.mutants}
    runs = _count_runs(monkeypatch)
    later = [TestCase(calls=(CallStmt("f", (a,)),)) for a in (4, -2, 5)]
    update(later)
    assert runs == []
    assert not any(test in ctx._traces for test in later)
