"""Test case and suite representation plus the genetic variation operators.

A test case is a sequence of calls with literal arguments. An argument may
also be a reference to a named binding, possibly chained through further
references. A test resolves each reference to its origin literal once, when
built (``TestCase.args``), so that alias-only differences disappear from the
canonical text; an unknown name or a cyclic chain raises ValueError.

A suite is a plain tuple of test cases. Both are values that nothing writes
after construction, hashed and compared by content, so a suite can be shared
between generations and used as a cache key as it is; every operator builds a
new tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Union

from affsgen.minilang.nodes import IntLit, Program, StrLit, statement_expressions, walk_expressions, walk_statements
from affsgen.minilang.parser import string_source

Literal = Union[int, bool, str]


# built once per alias; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class Ref:
    """Reference to a named binding inside the same test case."""

    name: str


Arg = Union[int, bool, str, Ref]


# built once per call; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class CallStmt:
    function: str
    args: tuple[Arg, ...]


# built once per test; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, eq=False)
class TestCase:
    __test__ = False  # stop pytest from collecting this domain type

    calls: tuple[CallStmt, ...]
    # binding name -> literal or reference to an earlier binding
    bindings: tuple[tuple[str, Arg], ...] = ()
    # content hash, precomputed: tests are hashed constantly as cache keys
    content_hash: int = field(init=False, repr=False)
    # per call, its arguments with every reference followed to its literal
    args: tuple[tuple[Literal, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.content_hash = hash((self.calls, self.bindings))
        mapping = dict(self.bindings)
        # a call with no reference shares its own tuple: tests live as long as the memos
        self.args = tuple([
            tuple([_follow(a, mapping) for a in call.args])
            if Ref in map(type, call.args) else call.args
            for call in self.calls])

    def __hash__(self) -> int:
        return self.content_hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TestCase)
            and self.content_hash == other.content_hash
            and self.calls == other.calls
            and self.bindings == other.bindings
        )


def _follow(arg: Arg, mapping: dict[str, Arg]) -> Literal:
    """Trace a reference through the binding chain to the origin literal."""
    seen = 0
    while isinstance(arg, Ref):
        if arg.name not in mapping:
            raise ValueError(f"reference to unknown binding {arg.name!r}")
        arg = mapping[arg.name]
        seen += 1
        if seen > len(mapping):
            raise ValueError("cyclic binding chain")
    return arg


# a suite: an ordered tuple of tests (an alias for annotations, never called)
TestSuite = tuple[TestCase, ...]


# --- goals ----------------------------------------------------------------


# built per goal hit; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class ExceptionGoal:
    kind: str
    function: str


# built per goal hit; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class MethodGoal:
    function: str


# built per goal hit; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class MutantGoal:
    mutant_id: int


GoalId = Union[ExceptionGoal, MethodGoal, MutantGoal]


def goal_sort_key(goal: GoalId):
    if isinstance(goal, ExceptionGoal):
        return (0, goal.kind, goal.function)
    if isinstance(goal, MethodGoal):
        return (1, goal.function, "")
    return (2, str(goal.mutant_id), "")


def goal_label(goal: GoalId) -> str:
    if isinstance(goal, ExceptionGoal):
        return f"exception:{goal.kind}@{goal.function}"
    if isinstance(goal, MethodGoal):
        return f"method:{goal.function}"
    return f"mutant:{goal.mutant_id}"


# --- generation configuration ----------------------------------------------

INT_MIN = -1000  # range of ints drawn outside the literal pool
INT_MAX = 1000
POOL_PROB = 0.5  # probability that a literal comes from the program's literal pool
ALIAS_PROB = 0.1  # probability that an argument is passed through a named binding
STR_ALPHABET = "abc"  # characters of strings drawn outside the literal pool
STR_MAX_LEN = 4
MAX_INITIAL_TESTS = 10  # tests in a random suite, at most
# suite-level mutation probabilities
ADD_TEST_PROB = 0.3
REMOVE_TEST_PROB = 0.2
# per-test probability of receiving one change (insert/delete call,
# or literal tweak); literal tweaks nudge ints by +-1/+-10 or redraw
TEST_CHANGE_PROB = 0.5


@dataclass(frozen=True, slots=True)
class GenConfig:
    max_calls_per_test: int = 8
    max_suite_size: int = 30

    def __post_init__(self):
        for name in ("max_calls_per_test", "max_suite_size"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        if self.max_calls_per_test < 1 or self.max_suite_size < 1:
            raise ValueError("max_calls_per_test and max_suite_size must be at least 1")


def literal_pool(program: Program) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Constants harvested from the program text, with +-1 neighbours."""
    ints: set[int] = {0, 1, -1}
    strs: set[str] = {""}
    for fn in program.functions:
        for stmt in walk_statements(fn.body):
            for root in statement_expressions(stmt):
                for expr in walk_expressions(root):
                    if isinstance(expr, IntLit):
                        ints.update((expr.value - 1, expr.value, expr.value + 1))
                    elif isinstance(expr, StrLit):
                        strs.add(expr.value)
    return tuple(sorted(ints)), tuple(sorted(strs))


def _random_literal(kind: str, pool, rng: random.Random) -> Literal:
    int_pool, str_pool = pool
    if kind == "int":
        if rng.random() < POOL_PROB:
            return rng.choice(int_pool)
        return rng.randint(INT_MIN, INT_MAX)
    if kind == "bool":
        return rng.random() < 0.5
    if rng.random() < POOL_PROB and str_pool:
        return rng.choice(str_pool)
    length = rng.randint(0, STR_MAX_LEN)
    return "".join(rng.choice(STR_ALPHABET) for _ in range(length))


def _random_call(program: Program, pool, rng: random.Random,
                 bindings: list[tuple[str, Arg]]) -> CallStmt:
    fn = program.functions[rng.randrange(len(program.functions))]
    args: list[Arg] = []
    for _, kind in fn.params:
        value = _random_literal(kind, pool, rng)
        if rng.random() < ALIAS_PROB:
            name = f"v{len(bindings)}"
            bindings.append((name, value))
            if rng.random() < 0.5:
                # occasionally chain through an alias of the alias
                alias = f"v{len(bindings)}"
                bindings.append((alias, Ref(name)))
                args.append(Ref(alias))
            else:
                args.append(Ref(name))
        else:
            args.append(value)
    return CallStmt(function=fn.name, args=tuple(args))


def random_test_case(program: Program, rng: random.Random, cfg: GenConfig = GenConfig(),
                     pool=None) -> TestCase:
    """Draw 1..max_calls_per_test calls to uniformly chosen functions."""
    if not program.functions:
        raise ValueError("cannot generate tests for a program with no functions")
    if pool is None:
        pool = literal_pool(program)
    bindings: list[tuple[str, Arg]] = []
    n_calls = rng.randint(1, cfg.max_calls_per_test)
    calls = tuple(_random_call(program, pool, rng, bindings) for _ in range(n_calls))
    return TestCase(calls=calls, bindings=tuple(bindings))


def random_suite(program: Program, rng: random.Random, cfg: GenConfig = GenConfig(),
                 pool=None) -> TestSuite:
    size = rng.randint(1, min(MAX_INITIAL_TESTS, cfg.max_suite_size))
    return tuple(random_test_case(program, rng, cfg, pool) for _ in range(size))


# --- genetic operators ------------------------------------------------------


def crossover_at(parent_a: TestSuite, parent_b: TestSuite, cut: int,
                 max_suite_size: int) -> tuple[TestSuite, TestSuite]:
    child_a = parent_a[:cut] + parent_b[cut:]
    child_b = parent_b[:cut] + parent_a[cut:]
    return child_a[:max_suite_size], child_b[:max_suite_size]


def crossover(parent_a: TestSuite, parent_b: TestSuite, rng: random.Random,
              cfg: GenConfig = GenConfig()) -> tuple[TestSuite, TestSuite]:
    """Single-point crossover at test granularity."""
    if not parent_a or not parent_b:
        raise ValueError("crossover requires nonempty parents")
    cut = rng.randint(0, min(len(parent_a), len(parent_b)))
    return crossover_at(parent_a, parent_b, cut, cfg.max_suite_size)


def _tweak_literal(value: Literal, pool, rng: random.Random) -> Literal:
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        roll = rng.random()
        if roll < 0.4:
            return value + rng.choice((-1, 1))
        if roll < 0.8:
            return value + rng.choice((-10, 10))
        return _random_literal("int", pool, rng)
    return _random_literal("str", pool, rng)


def _mutate_test(test: TestCase, program: Program, pool, rng: random.Random,
                 cfg: GenConfig) -> TestCase:
    calls = list(test.calls)
    bindings = list(test.bindings)
    choice = rng.random()
    if choice < 0.25 and len(calls) < cfg.max_calls_per_test:
        idx = rng.randint(0, len(calls))
        calls.insert(idx, _random_call(program, pool, rng, bindings))
    elif choice < 0.45 and len(calls) > 1:
        del calls[rng.randrange(len(calls))]
    else:
        # replace one literal argument somewhere in the test
        slots = [
            (ci, ai)
            for ci, call in enumerate(calls)
            for ai, arg in enumerate(call.args)
            if not isinstance(arg, Ref)
        ]
        if slots:
            ci, ai = slots[rng.randrange(len(slots))]
            args = list(calls[ci].args)
            args[ai] = _tweak_literal(args[ai], pool, rng)  # type: ignore[arg-type]
            calls[ci] = replace(calls[ci], args=tuple(args))
    return TestCase(calls=tuple(calls), bindings=tuple(bindings))


def mutate_suite(suite: TestSuite, program: Program, rng: random.Random,
                 cfg: GenConfig = GenConfig(), pool=None) -> TestSuite:
    """Apply add/remove-test and per-test changes with fixed probabilities."""
    if pool is None:
        pool = literal_pool(program)
    tests = list(suite)
    if tests and rng.random() < REMOVE_TEST_PROB:
        del tests[rng.randrange(len(tests))]
    mutated = [
        _mutate_test(t, program, pool, rng, cfg)
        if rng.random() < TEST_CHANGE_PROB
        else t
        for t in tests
    ]
    if len(mutated) < cfg.max_suite_size and rng.random() < ADD_TEST_PROB:
        mutated.append(random_test_case(program, rng, cfg, pool))
    return tuple(mutated)


# --- canonical rendering ----------------------------------------------------


def _render_literal(value: Literal) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return string_source(value)


def render_lines(test: TestCase) -> tuple[str, ...]:
    """One line per call, references replaced by their origin literals."""
    return tuple([f"{call.function}({','.join(map(_render_literal, args))})"
                  for call, args in zip(test.calls, test.args)])


def render_test(test: TestCase) -> str:
    """``render_lines`` joined by newlines."""
    return "\n".join(render_lines(test))


# --- archive, minimization, augmentation ------------------------------------


class Archive:
    """Run-wide store of the first (shortest on ties) test covering each goal."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[GoalId, TestCase] = {}

    def offer(self, goal: GoalId, test: TestCase) -> None:
        held = self.entries.get(goal)
        if held is None or len(test.calls) < len(held.calls):
            self.entries[goal] = test

    def __len__(self) -> int:
        return len(self.entries)


def minimize(suite: TestSuite, goals: set[GoalId],
             coverage_of: Callable[[TestCase], set[GoalId]]) -> TestSuite:
    """Greedy backward pass dropping tests whose goals the rest already cover."""
    relevant = [set(coverage_of(t)) & goals for t in suite]
    retained = list(range(len(suite)))
    for i in reversed(range(len(suite))):
        rest: set[GoalId] = set()
        for j in retained:
            if j != i:
                rest |= relevant[j]
        if relevant[i] <= rest:
            retained.remove(i)
    return tuple(suite[i] for i in retained)


def augment_from_archive(suite: TestSuite, archive: Archive, goals: set[GoalId],
                         coverage_of: Callable[[TestCase], set[GoalId]]) -> TestSuite:
    """Append archived tests for goals the suite misses; never duplicates."""
    covered: set[GoalId] = set()
    for t in suite:
        covered |= coverage_of(t) & goals
    result = list(suite)
    present = set(suite)
    for goal in sorted(goals - covered, key=goal_sort_key):
        test = archive.entries.get(goal)
        if test is not None and test not in present:
            result.append(test)
            present.add(test)
            covered |= coverage_of(test) & goals
    return tuple(result)
