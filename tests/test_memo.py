"""The per-context memos of base-program calls: same traces, same classifications;
and whole searches that give the same results with every memo wiped."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affsgen import engine, mutation, tracing
from affsgen.affs import Goal, make_strategy
from affsgen.engine import Budget, EngineConfig, run_search
from affsgen.fitness import (
    _DETECTED,
    _STRONG_STAGES,
    _WEAK_STAGES,
    FitnessContext,
    FitnessFunctionId,
    eval_fitness,
)
from affsgen.harness import load_corpus
from affsgen.minilang import ArityError, parse
from affsgen.minilang.interpreter import InterpConfig, execute
from affsgen.mutation import MutantStatus, classify_against_mutant, schema_run
from affsgen.testmodel import CallStmt, GenConfig, TestCase, random_test_case, render_lines
from affsgen.tracing import call_key, run_test

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PAIRS = load_corpus(CORPUS)
PROGRAMS = [program for pair in PAIRS
            for program in (pair.fixed_program, pair.faulty_program)]


def _call(record) -> tuple:
    return record.function, record.args, record.result


def _assert_same_trace(actual, expected) -> None:
    for name in ("calls", "lines_hit", "branch_best", "branch_best_direct",
                 "functions_called", "exceptions", "returns"):
        got, want = getattr(actual, name), getattr(expected, name)
        if name == "calls":
            got, want = list(map(_call, got)), list(map(_call, want))
        assert got == want, name


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_context_trace_equals_run_test_on_cold_and_warm_memo(seed):
    rng = random.Random(seed)
    cfg = GenConfig(max_calls_per_test=4)
    for program in PROGRAMS:
        tests = [random_test_case(program, rng, cfg) for _ in range(3)]
        cold = FitnessContext(program)
        _assert_same_trace(cold.trace(tests[0]), run_test(program, tests[0]))
        # warm: earlier tests put their calls in the memo first; the last
        # test repeats calls of both in a new order
        warm = FitnessContext(program)
        mixed = TestCase(calls=tests[1].calls[::-1] + tests[0].calls)
        for test in (tests[0], tests[1], mixed, tests[2]):
            _assert_same_trace(warm.trace(test), run_test(program, test))


def test_each_distinct_call_has_one_record_that_every_trace_of_it_shares():
    rng = random.Random(23)
    for program in PROGRAMS[::2]:
        ctx = FitnessContext(program)
        tests = [random_test_case(program, rng, GenConfig(max_calls_per_test=4))
                 for _ in range(6)]
        calls = [test.calls for test in tests]
        # joined tests make calls of earlier tests again, and one repeats its own
        tests += [TestCase(calls=calls[0] + calls[1]), TestCase(calls=calls[2][::-1] + calls[2])]
        traces = [ctx.trace(test) for test in tests]
        records: dict = {}
        for test, trace in zip(tests, traces):
            assert len(trace.calls) == len(test.calls)
            for call, record in zip(test.calls, trace.calls):
                key = call_key(call.function, call.args)
                assert (record.function, record.args) == (call.function, call.args)
                assert records.setdefault(key, record) is record
        assert ctx._classifications == records
        assert all(a is b for a, b in zip(traces[6].calls, traces[0].calls + traces[1].calls))
        # the masks fill on the first fold that sees a call, in the records the traces hold
        assert all(r.reach is None and r.infected is None for r in records.values())
        for test in tests:
            ctx.fold((test,), MutantStatus.INFECTED)
        assert all(r.reach is not None for r in records.values())
        assert any(r.infected is not None for r in records.values())
        masks = {key: (r.reach, r.infected) for key, r in records.items()}
        # later folds, weak and strong, add to the same records and change no reach
        for test in tests:
            ctx.fold((test,))
            ctx.fold((test,), MutantStatus.INFECTED)
        assert ctx._classifications.keys() == records.keys()
        for key, record in records.items():
            assert ctx._classifications[key] is record
            assert record.reach == masks[key][0]
            infected = masks[key][1]
            assert infected is None or record.infected & infected == infected
        assert all(ctx.trace(test).calls is trace.calls for test, trace in zip(tests, traces))


def test_traces_leave_the_memoized_results_as_they_ran():
    # a trace's branch tables start from its first call's: merging the
    # later calls into them must not write the memoized results
    program = parse("fn f(n:int){ if (n > 0) { return f(n - 1); } return 0; } "
                    "fn g(n:int){ while (n > 5) { n = n - 2; } return f(n); }")
    memo: dict = {}
    # f(0) alone never takes f's branch, which the later calls do
    calls = [CallStmt(*call) for call in
             [("f", (0,)), ("g", (9,)), ("f", (3,)), ("g", (2,)), ("f", (0,))]]
    for test in (TestCase(calls=tuple(calls[:3])), TestCase(calls=tuple(calls[2:]))):
        run_test(program, test, memo=memo)
    assert len(memo) == 4
    for key, record in memo.items():
        assert key == call_key(record.function, record.args)
        assert record.result == execute(program, record.function, record.args)


def _fresh_status(mutant, test: TestCase) -> MutantStatus:
    """A test's status from scratch: every call classified with no memo,
    from a fresh schema run of the mutant's base program."""
    statuses = [MutantStatus.NOT_REACHED]
    config = InterpConfig()
    for call in test.calls:
        base = execute(mutant.base_program, call.function, call.args, config)
        schema = schema_run(mutant.base_program, call.function, call.args, config)
        statuses.append(classify_against_mutant(mutant, call.function, call.args, base, config,
                                                schema).status)
    return max(statuses)


@pytest.mark.parametrize("fault_id", ["p05", "p07", "p08", "p09", "p12"])
def test_classifications_with_warm_memo_equal_fresh_ones(fault_id):
    program = next(p for p in PROGRAMS if p.source_id.startswith(fault_id))
    rng = random.Random(17)
    cfg = GenConfig(max_calls_per_test=4)
    tests = [random_test_case(program, rng, cfg) for _ in range(8)]
    tests.append(TestCase(calls=tests[0].calls + tests[1].calls))
    ctx = FitnessContext(program)
    # weak folds first leave the calls they find infected unrun
    for mutant in ctx.mutants:
        ctx.classify(mutant, tests, MutantStatus.INFECTED)
    for test in tests:
        for mutant in ctx.mutants:
            fresh = _fresh_status(mutant, test)
            weak = ctx.classify(mutant, (test,), MutantStatus.INFECTED)
            assert _WEAK_STAGES[weak] == _WEAK_STAGES[fresh], (mutant.operator, mutant.site, test)
            assert ctx.classify(mutant, (test,)) == fresh, (mutant.operator, mutant.site, test)
    # some call had its schema run, and a record holds it only while a mutant is owed a run
    records = ctx._classifications.values()
    assert any(record.infected is not None for record in records)
    assert all((record.schema is not None) == bool(record.unrun) for record in records)


def _pinned_classifications() -> str:
    """sha256 over (program, mutant id, test index, status) on the whole corpus.

    Seeded random tests, then tests joined from them, so that calls repeat
    within a test and across tests.
    """
    digest = hashlib.sha256()
    for index, program in enumerate(PROGRAMS):
        rng = random.Random(index)
        tests = [random_test_case(program, rng, GenConfig(max_calls_per_test=4))
                 for _ in range(6)]
        calls = [test.calls for test in tests]
        tests += [TestCase(calls=calls[0] + calls[1]),
                  TestCase(calls=calls[2] + calls[2]),
                  TestCase(calls=calls[3][::-1] + calls[0])]
        ctx = FitnessContext(program)
        for test_index, test in enumerate(tests):
            for mutant in ctx.mutants:
                status = ctx.classify(mutant, (test,)).name
                digest.update(f"{program.source_id}\t{mutant.mutant_id}\t"
                              f"{test_index}\t{status}\n".encode())
    return digest.hexdigest()


def test_corpus_classifications_are_pinned():
    assert _pinned_classifications() == (
        "d246a19c972a8930be4153c3acc1c64bc6e72964137c18435575a73cf4bfd686")


_MODES = {"weak": (_WEAK_STAGES, MutantStatus.INFECTED),
          "strong": (_STRONG_STAGES, MutantStatus.KILLED)}


def _scores(ctx: FitnessContext, suite: tuple, mode: str) -> tuple:
    """One mode's fitness stage sum and mutation score of ``suite`` on ``ctx``."""
    stages, stop = _MODES[mode]
    return ctx.stage_sum(suite, stages, stop), ctx.mutation_score(suite, mode)


def _fresh_scores(program, suite: tuple, mode: str) -> tuple:
    """``_scores`` from the statuses of a fresh context's strong folds, mapped
    through the mode's stage tables and summed in mutant order."""
    ctx = FitnessContext(program)
    stages = _MODES[mode][0]
    detected = _DETECTED[mode][1]
    stage_total = detected_total = 0
    for mutant in ctx.mutants:
        status = ctx.classify(mutant, suite)
        stage_total += stages[status]
        detected_total += detected[status]
    return stage_total, 100.0 * detected_total / len(ctx.mutants)


@pytest.mark.parametrize("first", ["weak", "strong"])
def test_weak_and_strong_scores_interleaved_equal_fresh_ones(first):
    # one context scores seeded random suites in both modes, one after the
    # other: a weak fold leaves infected calls unrun, and a later strong
    # fold, on this suite or a later one, runs them
    modes = (first, "strong" if first == "weak" else "weak")
    for index, program in enumerate(PROGRAMS):
        rng = random.Random(index)
        tests = [random_test_case(program, rng, GenConfig(max_calls_per_test=4))
                 for _ in range(6)]
        suites = [tuple(tests[:2]), tuple(tests[1:4]), tuple(tests), tuple(tests[3:])]
        ctx = FitnessContext(program)
        for suite in suites:
            for mode in modes:
                got, want = _scores(ctx, suite, mode), _fresh_scores(program, suite, mode)
                # bit-identical floats: repr tells 0.1 + 0.2 from 0.3
                assert repr(got) == repr(want), (program.source_id, mode, suite)


def _count_runs(monkeypatch) -> list:
    """(program, arguments) of every run classification starts, in order."""
    runs = []
    real_execute = mutation.execute

    def counting_execute(prog, function, args, *rest, **kwargs):
        runs.append((prog, tuple(args)))
        return real_execute(prog, function, args, *rest, **kwargs)

    monkeypatch.setattr(mutation, "execute", counting_execute)
    return runs


DOUBLE = "fn f(a:int){ if (a > 0) { return a * 2; } return 0; }"


def test_one_schema_run_per_distinct_call_serves_every_mutant(monkeypatch):
    program = parse("fn f(a:int){ let y = a * 2; if (y > 3) { return y - 1; } return 0; }")
    ctx = FitnessContext(program)
    runs = _count_runs(monkeypatch)
    tests = [TestCase(calls=(CallStmt("f", (2,)), CallStmt("f", (-1,)))),
             TestCase(calls=(CallStmt("f", (-1,)), CallStmt("f", (2,)), CallStmt("f", (5,))))]
    for test in tests:
        for mutant in ctx.mutants:
            ctx.classify(mutant, (test,))
    assert sorted(args for prog, args in runs if prog is program) == [(-1,), (2,), (5,)]
    # and no program, base or mutant, runs one call twice
    assert len({(id(prog), args) for prog, args in runs}) == len(runs)


def test_a_reached_not_infected_call_runs_no_mutant(monkeypatch):
    program = parse(DOUBLE)
    ctx = FitnessContext(program)
    mutant = next(m for m in ctx.mutants if m.operator == "aor:*->+")
    runs = _count_runs(monkeypatch)
    # 2 * 2 == 2 + 2 in the same number of steps: the schema run settles it
    test = TestCase(calls=(CallStmt("f", (2,)), CallStmt("f", (-5,))))
    assert ctx.classify(mutant, (test,)) == MutantStatus.REACHED_NOT_INFECTED
    assert runs == [(program, (2,))]


def test_a_killing_call_runs_the_mutant_once(monkeypatch):
    program = parse(DOUBLE)
    ctx = FitnessContext(program)
    mutant = next(m for m in ctx.mutants if m.operator == "aor:*->+")
    runs = _count_runs(monkeypatch)
    first = TestCase(calls=(CallStmt("f", (3,)),))
    second = TestCase(calls=(CallStmt("f", (-1,)), CallStmt("f", (3,))))
    assert ctx.classify(mutant, (first,)) == MutantStatus.KILLED
    assert ctx.classify(mutant, (second,)) == MutantStatus.KILLED
    assert runs == [(program, (3,)), (mutant.mutated_program, (3,))]


def test_the_first_killing_call_ends_the_test(monkeypatch):
    program = parse(DOUBLE)
    ctx = FitnessContext(program)
    mutant = next(m for m in ctx.mutants if m.operator == "aor:*->+")
    runs = _count_runs(monkeypatch)
    test = TestCase(calls=(CallStmt("f", (-1,)), CallStmt("f", (3,)),
                           CallStmt("f", (2,)), CallStmt("f", (4,))))
    assert ctx.classify(mutant, (test,)) == MutantStatus.KILLED
    assert [args for prog, args in runs if prog is mutant.mutated_program] == [(3,)]


def test_a_call_record_keeps_its_schema_run_only_while_a_mutant_is_owed_a_run(monkeypatch):
    program = parse(DOUBLE)
    ctx = FitnessContext(program)
    runs = _count_runs(monkeypatch)
    test = TestCase(calls=(CallStmt("f", (3,)),))
    # a weak fold runs no mutant that the schema run shows infected: their kill runs stay owed
    ctx.fold((test,), MutantStatus.INFECTED)
    record = ctx._classifications[call_key("f", (3,))]
    owed = record.unrun
    assert owed and owed == record.infected
    assert record.schema is not None
    weak_runs = len(runs)
    # a strong fold that wants one of them leaves the others owed
    first = owed & -owed
    assert ctx.fold((test,), MutantStatus.KILLED, first)[2] == first
    assert record.unrun == owed & ~first
    assert record.schema is not None
    # one that wants them all runs the rest, and then no mutant needs the schema run
    ctx.fold((test,))
    assert record.unrun == 0
    assert record.schema is None
    # the call had one schema run, and each owed mutant one kill run, from the kept schema run
    assert [args for prog, args in runs if prog is program] == [(3,)]
    assert len(runs) - weak_runs == owed.bit_count()


def test_contexts_on_one_program_share_its_mutants_but_not_their_memos(monkeypatch):
    program = parse(DOUBLE)
    first, second = FitnessContext(program), FitnessContext(program)
    assert first.mutants is second.mutants
    mutant = next(m for m in first.mutants if m.operator == "aor:*->+")
    runs = _count_runs(monkeypatch)
    test = TestCase(calls=(CallStmt("f", (3,)),))
    for ctx in (first, second):
        assert ctx.classify(mutant, (test,)) == MutantStatus.KILLED
    # each context runs its own schema run and kill run
    assert runs == [(program, (3,)), (mutant.mutated_program, (3,))] * 2


def test_every_argument_of_an_interpreter_call_is_hashable(monkeypatch):
    # the benchmark's tracer keys each interpreter call by the program's
    # identity and every other argument's value
    sent = []

    def hashing(module):
        real_execute = module.execute

        def hashing_execute(program, *args, **kwargs):
            sent.append(hash((args, tuple(sorted(kwargs.items())))))
            return real_execute(program, *args, **kwargs)

        monkeypatch.setattr(module, "execute", hashing_execute)

    hashing(mutation)
    hashing(tracing)
    rng = random.Random(5)
    for program in PROGRAMS[::3]:
        ctx = FitnessContext(program)
        for test in [random_test_case(program, rng, GenConfig(max_calls_per_test=3))
                     for _ in range(3)]:
            for mutant in ctx.mutants:
                ctx.classify(mutant, (test,))
    assert len(sent) > 100


def test_bool_and_int_arguments_are_different_calls():
    program = parse("fn f(x:int){ return x; } fn g(b:bool){ if (b) { return 1; } return 0; }")
    assert call_key("f", (1,)) != call_key("f", (True,))
    assert call_key("g", (0,)) != call_key("g", (False,))
    ctx = FitnessContext(program)
    ctx.trace(TestCase(calls=(CallStmt("f", (1,)), CallStmt("g", (False,)))))
    for bad in (CallStmt("f", (True,)), CallStmt("g", (0,))):
        test = TestCase(calls=(bad,))
        with pytest.raises(ArityError):
            run_test(program, test)
        with pytest.raises(ArityError):
            ctx.trace(test)


def test_tests_whose_calls_differ_only_in_alias_bits_are_one_test_to_every_memo():
    program = parse("fn f(x:int, s:str){ if (x > 2) { return 1; } return 0; }")
    direct = TestCase(calls=(CallStmt("f", (3, "a")), CallStmt("f", (0, "b"))))
    aliased = TestCase(calls=(CallStmt("f", (3, "a"), aliased=0b11), CallStmt("f", (0, "b"), 1)))
    assert aliased == direct and hash(aliased) == hash(direct)
    assert render_lines(aliased) == render_lines(direct)
    ctx = FitnessContext(program)
    assert ctx.trace(aliased) is ctx.trace(direct)
    assert ctx.render_id(aliased) == ctx.render_id(direct)
    for fn in FitnessFunctionId:
        assert eval_fitness(fn, (aliased,), ctx) == eval_fitness(fn, (direct,), ctx)
    assert len(ctx._traces) == len(ctx._renders) == 1
    assert len(ctx._suite_scores) == len(FitnessFunctionId)


# --- whole searches with every memo wiped -----------------------------------------


# every memo of a ``FitnessContext``; ``discovered_exceptions`` is search
# state, not a memo, and stays
MEMOS = ("_traces", "_renders", "_lines", "_classifications", "_pair_distance",
         "_suite_scores")


def _searches() -> dict:
    """Every corpus pair's fixed program under every goal and the strategies
    ucb, sarsa and default: each search's ``to_json(omit_timing=True)``."""
    config = EngineConfig(population_size=10, skip_iter=1, budget=Budget(generations=10))
    return {(pair.fault_id, goal, strategy):
            run_search(pair.fixed_program, goal, make_strategy(strategy, goal), config, 7)
            .to_json(omit_timing=True)
            for pair in PAIRS for goal in Goal for strategy in ("ucb", "sarsa", "default")}


def test_wiping_every_memo_before_each_generation_changes_no_result(monkeypatch):
    kept = _searches()
    real = engine.evolve_one_generation
    wiped_entries = []

    def wiping(population, functions, program, ctx, *rest):
        for name in MEMOS:
            memo = getattr(ctx, name)
            wiped_entries.append(len(memo))
            memo.clear()
        return real(population, functions, program, ctx, *rest)

    monkeypatch.setattr(engine, "evolve_one_generation", wiping)
    wiped = _searches()
    assert len(wiped) == 108
    assert len(wiped_entries) == 108 * 10 * len(MEMOS) and sum(wiped_entries)
    assert wiped == kept
