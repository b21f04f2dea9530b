"""Execution of whole test cases and the per-test summaries fitness consumes."""

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


@dataclass(frozen=True, slots=True)
class TestTrace:
    """Everything observed while running one test case against a program."""

    # per call, in test order: its ``call_key`` and its result
    call_keys: tuple[tuple, ...]
    call_results: tuple[ExecutionResult, ...]
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


def call_of(key: tuple) -> tuple[str, tuple]:
    """The function and arguments of a ``call_key``."""
    return key[0], key[1:(len(key) + 1) // 2]


def run_test(program: Program, test: TestCase, config: InterpConfig = InterpConfig(),
             memo: dict | None = None) -> TestTrace:
    """Execute every call of a test case and aggregate the results.

    Calls share no state, so a call's result depends only on the program,
    the config and the call itself. ``memo`` maps ``call_key`` to the
    ``ExecutionResult`` of that call; passing one dict to every test run on
    the same program and config runs each distinct call once. Entry calls
    that do not match a signature raise and are not memoized.
    """
    if memo is None:
        memo = {}
    keys = []
    results = []
    lines: set[int] = set()
    branch_best: dict[int, list[float]] = {}
    branch_best_direct: dict[int, list[float]] = {}
    called: set[str] = set()
    exceptions: set[tuple[str, str]] = set()
    returns: dict[str, list] = {}
    for call in test.calls:
        args = tuple(test.resolve(a) for a in call.args)
        key = call_key(call.function, args)
        result = memo.get(key)
        if result is None:
            result = memo[key] = execute(program, call.function, args, config)
        keys.append(key)
        results.append(result)
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
        call_keys=tuple(keys),
        call_results=tuple(results),
        lines_hit=frozenset(lines),
        branch_best=branch_best,
        branch_best_direct=branch_best_direct,
        functions_called=frozenset(called),
        exceptions=frozenset(exceptions),
        returns={f: tuple(v) for f, v in returns.items()},
    )
