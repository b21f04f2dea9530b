"""Execution of whole test cases and the per-test summaries fitness consumes.

``run_test``'s memo holds one ``CallRecord`` per distinct call, which every
trace that makes the call shares."""

from __future__ import annotations

from affsgen.minilang.interpreter import (
    ExecutionResult,
    InterpConfig,
    Raised,
    Returned,
    execute,
    kind_of,
    merge_best,
)
from affsgen.minilang.nodes import Program
from affsgen.testmodel import TestCase


class CallRecord:
    """One distinct call of a base program: ``function``, ``args`` and their
    ``result``, and what the call tells about the mutants, as bit masks over
    mutant ids, which only ``FitnessContext.fold`` and its mutant runs write.

    ``reach`` has the mutants whose site the call hits; it is None until
    the first fold sees the call. Once the call's schema run is in,
    ``infected`` has the reached mutants that it, or their own run on the
    call, shows infected or killed, ``killed`` those their run killed, and
    ``unrun`` those still owed a run: the schema run's infected and drifted
    mutants and every deleted assignment, until they run. ``infected`` is
    None before the schema run. ``schema`` holds the schema run (see
    ``mutation.schema_run``) while ``unrun`` is not 0, for the mutant runs
    still owed, and None before and after."""

    __slots__ = ("function", "args", "result", "reach", "infected", "killed", "unrun", "schema")

    def __init__(self, function: str, args: tuple, result: ExecutionResult):
        self.function = function
        self.args = args
        self.result = result
        self.reach = self.infected = self.schema = None
        self.killed = self.unrun = 0


class TestTrace:
    """Everything observed while running one test case against a program,
    built from ``calls``, the record of each of its calls in test order.

    ``exceptions`` and ``functions_called`` are built with the trace, since
    every search reads them. ``lines_hit``, the branch tables and
    ``returns`` are each built on first read and kept: a fitness function
    that never reads one never pays for it. ``branch_best`` maps each branch
    to its least distances ``[best_true, best_false]`` over all frames, and
    ``branch_best_direct`` over the entry frames, the same dict when every
    call's result has one table for both (a program without calls); their
    lists are copies, so the records' results are never written.
    ``returns`` maps each function to the tuple of values its direct calls
    returned, so its keys are the functions that completed a direct call
    without raising."""

    __slots__ = ("calls", "exceptions", "functions_called",
                 "lines_hit", "branch_best", "branch_best_direct", "returns")

    def __init__(self, calls: tuple[CallRecord, ...]):
        self.calls = calls
        self.exceptions = frozenset([record.result.outcome.record.identity for record in calls
                                     if type(record.result.outcome) is Raised])
        self.functions_called = frozenset().union(
            *[record.result.called_functions for record in calls])

    def __getattr__(self, name: str):
        # only a lazy field's slot that is not filled yet gets here
        build = _LAZY_FIELDS.get(name)
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = build(self)
        setattr(self, name, value)
        return value


def _lines_hit(trace: TestTrace) -> frozenset[int]:
    return frozenset().union(*[record.result.lines_hit for record in trace.calls])


def _branch_table(calls: tuple[CallRecord, ...], direct: bool) -> dict:
    table: dict[int, list[float]] = {}
    for record in calls:
        result = record.result
        for branch_id, (dt, df) in (result.branch_best_direct if direct
                                    else result.branch_best).items():
            merge_best(table, branch_id, dt, df)
    return table


def _branch_best_direct(trace: TestTrace) -> dict:
    if all(record.result.branch_best is record.result.branch_best_direct
           for record in trace.calls):
        return trace.branch_best
    return _branch_table(trace.calls, True)


def _returns(trace: TestTrace) -> dict:
    returns: dict[str, list] = {}
    for record in trace.calls:
        outcome = record.result.outcome
        if type(outcome) is Returned:
            returns.setdefault(record.function, []).append(outcome.value)
    return {f: tuple(v) for f, v in returns.items()}


_LAZY_FIELDS = {
    "lines_hit": _lines_hit,
    "branch_best": lambda trace: _branch_table(trace.calls, False),
    "branch_best_direct": _branch_best_direct,
    "returns": _returns,
}


def behavior_of(result: ExecutionResult) -> tuple:
    """Observable identity of one call: return value or exception identity.

    The value is tagged with its kind, since ``True == 1``: returning ``1``
    where the base returns ``true`` is a different behaviour.
    """
    if isinstance(result.outcome, Returned):
        value = result.outcome.value
        return ("return", kind_of(value), value)
    return ("raise",) + result.outcome.record.identity


def call_key(function: str, args: tuple) -> tuple:
    """Memo key of one entry call: the function, its arguments, their types.

    The types tag each argument with its kind: ``True == 1`` and both hash
    alike, yet ``f(True)`` and ``f(1)`` are different calls. The key's
    length fixes the argument count, so the flat layout is unambiguous.
    """
    return (function, *args, *map(type, args))


def run_test(program: Program, test: TestCase, config: InterpConfig = InterpConfig(),
             memo: dict | None = None) -> TestTrace:
    """Execute every call of a test case and aggregate the results.

    Calls share no state, so a call's result depends only on the program,
    the config and the call itself. ``memo`` maps ``call_key`` to the
    ``CallRecord`` of that call; passing one dict to every test run on the
    same program and config runs each distinct call once, and gives each
    distinct call one record. Entry calls that do not match a signature
    raise and are not memoized.
    """
    if memo is None:
        memo = {}
    records = []
    for call in test.calls:
        key = call_key(call.function, call.args)
        record = memo.get(key)
        if record is None:
            record = memo[key] = CallRecord(call.function, call.args,
                                            execute(program, call.function, call.args, config))
        records.append(record)
    return TestTrace(tuple(records))
