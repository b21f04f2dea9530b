"""Test case and suite representation plus the genetic variation operators.

A test case is a sequence of calls with literal arguments. An argument may
also be a reference to a named binding, possibly chained through further
references; rendering resolves every reference back to its origin literal so
that alias-only differences disappear from the canonical text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Union

from affsgen.minilang.nodes import IntLit, Program, StrLit, statement_expressions, walk_expressions, walk_statements
from affsgen.minilang.parser import string_source

Literal = Union[int, bool, str]


@dataclass(frozen=True, slots=True)
class Ref:
    """Reference to a named binding inside the same test case."""

    name: str


Arg = Union[int, bool, str, Ref]


@dataclass(frozen=True, slots=True)
class CallStmt:
    function: str
    args: tuple[Arg, ...]


@dataclass(frozen=True, slots=True, eq=False)
class TestCase:
    __test__ = False  # stop pytest from collecting this domain type

    calls: tuple[CallStmt, ...]
    # binding name -> literal or reference to an earlier binding
    bindings: tuple[tuple[str, Arg], ...] = ()
    # content hash, precomputed: tests are hashed constantly as cache keys
    content_hash: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "content_hash", hash((self.calls, self.bindings)))

    def __hash__(self) -> int:
        return self.content_hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TestCase)
            and self.content_hash == other.content_hash
            and self.calls == other.calls
            and self.bindings == other.bindings
        )

    def binding_map(self) -> dict[str, Arg]:
        return dict(self.bindings)

    def resolve(self, arg: Arg) -> Literal:
        """Trace references through the binding chain to the origin literal."""
        seen = 0
        mapping = self.binding_map()
        while isinstance(arg, Ref):
            arg = mapping[arg.name]
            seen += 1
            if seen > len(mapping):
                raise ValueError("cyclic binding chain")
        return arg


class TestSuite:
    """Ordered collection of test cases; `FitnessContext` caches scores by content."""

    __test__ = False  # stop pytest from collecting this domain type
    __slots__ = ("tests",)

    def __init__(self, tests: Iterable[TestCase] = ()):
        self.tests: list[TestCase] = list(tests)

    def clone(self) -> "TestSuite":
        return TestSuite(self.tests)

    def key(self) -> tuple[TestCase, ...]:
        return tuple(self.tests)

    def __len__(self) -> int:
        return len(self.tests)

    def __eq__(self, other) -> bool:
        return isinstance(other, TestSuite) and self.tests == other.tests

    def __repr__(self) -> str:
        return f"TestSuite({len(self.tests)} tests)"


# --- goals ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExceptionGoal:
    kind: str
    function: str


@dataclass(frozen=True, slots=True)
class MethodGoal:
    function: str


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class GenConfig:
    max_calls_per_test: int = 8
    max_suite_size: int = 30
    int_min: int = -1000
    int_max: int = 1000
    pool_prob: float = 0.5
    alias_prob: float = 0.1
    str_alphabet: str = "abc"
    str_max_len: int = 4
    # suite-level mutation probabilities
    add_test_prob: float = 0.3
    remove_test_prob: float = 0.2
    # per-test probability of receiving one change (insert/delete call,
    # or literal tweak); literal tweaks nudge ints by +-1/+-10 or redraw
    test_change_prob: float = 0.5

    def __post_init__(self):
        for name in ("max_calls_per_test", "max_suite_size", "int_min", "int_max", "str_max_len"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        if self.max_calls_per_test < 1 or self.max_suite_size < 1:
            raise ValueError("max_calls_per_test and max_suite_size must be at least 1")
        if self.int_min > self.int_max:
            raise ValueError(f"int_min {self.int_min} exceeds int_max {self.int_max}")
        if self.str_max_len < 0:
            raise ValueError(f"str_max_len must be at least 0, not {self.str_max_len}")
        if type(self.str_alphabet) is not str or not self.str_alphabet:
            raise ValueError(f"str_alphabet must be a non-empty str, not {self.str_alphabet!r}")
        for name in ("pool_prob", "alias_prob", "add_test_prob", "remove_test_prob",
                     "test_change_prob"):
            check_probability(name, getattr(self, name))


def check_probability(name: str, value) -> None:
    """Raise ``ValueError`` naming the setting unless ``value`` is an int or
    float in [0, 1]; a bool is not one."""
    if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a number in [0, 1], not {value!r}")


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


def _random_literal(kind: str, pool, rng: random.Random, cfg: GenConfig) -> Literal:
    int_pool, str_pool = pool
    if kind == "int":
        if rng.random() < cfg.pool_prob:
            return rng.choice(int_pool)
        return rng.randint(cfg.int_min, cfg.int_max)
    if kind == "bool":
        return rng.random() < 0.5
    if rng.random() < cfg.pool_prob and str_pool:
        return rng.choice(str_pool)
    length = rng.randint(0, cfg.str_max_len)
    return "".join(rng.choice(cfg.str_alphabet) for _ in range(length))


def _random_call(program: Program, pool, rng: random.Random, cfg: GenConfig,
                 bindings: list[tuple[str, Arg]]) -> CallStmt:
    fn = program.functions[rng.randrange(len(program.functions))]
    args: list[Arg] = []
    for _, kind in fn.params:
        value = _random_literal(kind, pool, rng, cfg)
        if rng.random() < cfg.alias_prob:
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
    calls = tuple(_random_call(program, pool, rng, cfg, bindings) for _ in range(n_calls))
    return TestCase(calls=calls, bindings=tuple(bindings))


def random_suite(program: Program, rng: random.Random, cfg: GenConfig = GenConfig(),
                 pool=None, max_tests: int = 10) -> TestSuite:
    size = rng.randint(1, min(max_tests, cfg.max_suite_size))
    return TestSuite(random_test_case(program, rng, cfg, pool) for _ in range(size))


# --- genetic operators ------------------------------------------------------


def crossover_at(parent_a: TestSuite, parent_b: TestSuite, cut: int,
                 max_suite_size: int) -> tuple[TestSuite, TestSuite]:
    child_a = TestSuite(parent_a.tests[:cut] + parent_b.tests[cut:])
    child_b = TestSuite(parent_b.tests[:cut] + parent_a.tests[cut:])
    del child_a.tests[max_suite_size:]
    del child_b.tests[max_suite_size:]
    return child_a, child_b


def crossover(parent_a: TestSuite, parent_b: TestSuite, rng: random.Random,
              cfg: GenConfig = GenConfig()) -> tuple[TestSuite, TestSuite]:
    """Single-point crossover at test granularity."""
    if not parent_a.tests or not parent_b.tests:
        raise ValueError("crossover requires nonempty parents")
    cut = rng.randint(0, min(len(parent_a.tests), len(parent_b.tests)))
    return crossover_at(parent_a, parent_b, cut, cfg.max_suite_size)


def _tweak_literal(value: Literal, pool, rng: random.Random, cfg: GenConfig) -> Literal:
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        roll = rng.random()
        if roll < 0.4:
            return value + rng.choice((-1, 1))
        if roll < 0.8:
            return value + rng.choice((-10, 10))
        return _random_literal("int", pool, rng, cfg)
    return _random_literal("str", pool, rng, cfg)


def _mutate_test(test: TestCase, program: Program, pool, rng: random.Random,
                 cfg: GenConfig) -> TestCase:
    calls = list(test.calls)
    bindings = list(test.bindings)
    choice = rng.random()
    if choice < 0.25 and len(calls) < cfg.max_calls_per_test:
        idx = rng.randint(0, len(calls))
        calls.insert(idx, _random_call(program, pool, rng, cfg, bindings))
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
            args[ai] = _tweak_literal(args[ai], pool, rng, cfg)  # type: ignore[arg-type]
            calls[ci] = replace(calls[ci], args=tuple(args))
    return TestCase(calls=tuple(calls), bindings=tuple(bindings))


def mutate_suite(suite: TestSuite, program: Program, rng: random.Random,
                 cfg: GenConfig = GenConfig(), pool=None) -> TestSuite:
    """Apply add/remove-test and per-test changes with configured probabilities."""
    if pool is None:
        pool = literal_pool(program)
    tests = list(suite.tests)
    if tests and rng.random() < cfg.remove_test_prob:
        del tests[rng.randrange(len(tests))]
    mutated = [
        _mutate_test(t, program, pool, rng, cfg)
        if rng.random() < cfg.test_change_prob
        else t
        for t in tests
    ]
    if len(mutated) < cfg.max_suite_size and rng.random() < cfg.add_test_prob:
        mutated.append(random_test_case(program, rng, cfg, pool))
    return TestSuite(mutated)


# --- canonical rendering ----------------------------------------------------


def _render_literal(value: Literal) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return string_source(value)


def render_test(test: TestCase) -> str:
    """One line per call, references replaced by their origin literals."""
    lines = []
    for call in test.calls:
        rendered = ",".join(_render_literal(test.resolve(a)) for a in call.args)
        lines.append(f"{call.function}({rendered})")
    return "\n".join(lines)


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
    relevant = [set(coverage_of(t)) & goals for t in suite.tests]
    retained = list(range(len(suite.tests)))
    for i in reversed(range(len(suite.tests))):
        rest: set[GoalId] = set()
        for j in retained:
            if j != i:
                rest |= relevant[j]
        if relevant[i] <= rest:
            retained.remove(i)
    return TestSuite(suite.tests[i] for i in retained)


def augment_from_archive(suite: TestSuite, archive: Archive, goals: set[GoalId],
                         coverage_of: Callable[[TestCase], set[GoalId]]) -> TestSuite:
    """Append archived tests for goals the suite misses; never duplicates."""
    covered: set[GoalId] = set()
    for t in suite.tests:
        covered |= coverage_of(t) & goals
    result = TestSuite(suite.tests)
    present = set(suite.tests)
    for goal in sorted(goals - covered, key=goal_sort_key):
        test = archive.entries.get(goal)
        if test is not None and test not in present:
            result.tests.append(test)
            present.add(test)
            covered |= coverage_of(test) & goals
    return result
