"""Execution of whole test cases and the per-test summaries fitness consumes.

``run_test``'s memo holds one ``CallRecord`` per distinct call, which every
trace that makes the call shares."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class TestTrace:
    """Everything observed while running one test case against a program."""

    # the record of each call, in test order
    calls: tuple[CallRecord, ...]
    lines_hit: frozenset[int]
    # branch_id -> [best distance_true, best distance_false], over all frames or the entry frame
    branch_best: dict
    branch_best_direct: dict
    functions_called: frozenset[str]
    exceptions: frozenset[tuple[str, str]]
    # function -> tuple of the values its direct calls returned, so its keys
    # are the functions that completed a direct call without raising
    returns: dict


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
    lines: set[int] = set()
    branch_best: dict[int, list[float]] = {}
    branch_best_direct: dict[int, list[float]] = {}
    called: set[str] = set()
    exceptions: set[tuple[str, str]] = set()
    returns: dict[str, list] = {}
    for call, args in zip(test.calls, test.args):
        key = call_key(call.function, args)
        record = memo.get(key)
        if record is None:
            result = execute(program, call.function, args, config)
            record = memo[key] = CallRecord(call.function, args, result)
        records.append(record)
        result = record.result
        lines |= result.lines_hit
        called |= result.called_functions
        # merge_best copies the distances: the memoized result's lists stay as they are
        for branch_id, (dt, df) in result.branch_best.items():
            merge_best(branch_best, branch_id, dt, df)
        for branch_id, (dt, df) in result.branch_best_direct.items():
            merge_best(branch_best_direct, branch_id, dt, df)
        if isinstance(result.outcome, Raised):
            exceptions.add(result.outcome.record.identity)
        else:
            returns.setdefault(call.function, []).append(result.outcome.value)
    return TestTrace(
        calls=tuple(records),
        lines_hit=frozenset(lines),
        branch_best=branch_best,
        branch_best_direct=branch_best_direct,
        functions_called=frozenset(called),
        exceptions=frozenset(exceptions),
        returns={f: tuple(v) for f, v in returns.items()},
    )
