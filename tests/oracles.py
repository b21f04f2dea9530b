"""Independent brute-force oracles used by the test suite.

These deliberately re-implement behavior through separate, simpler code
paths: a plain recursive Levenshtein and a full-matrix one, naive pair
counting for the effect
size, a bare tree-walking evaluator that re-executes base and mutant
programs while snapshotting the whole variable store after every statement,
the mutant-by-mutant fold of statuses over a suite that
``FitnessContext.fold`` replaced, the pair-by-pair suite diversity
that the batched ``suite_diversity`` replaced, and fault detection that
runs both versions of a pair again on every test, which
``harness.fault_detected`` replaced by taking the fixed version's behaviours
from the search.
"""

from __future__ import annotations

from affsgen.minilang.nodes import (
    Assign,
    Binary,
    BoolLit,
    Call,
    If,
    Index,
    IntLit,
    Len,
    Let,
    Program,
    Return,
    StrLit,
    Throw,
    Unary,
    Var,
    While,
)
from affsgen.minilang.interpreter import InterpConfig
from affsgen.mutation import (
    DELETE_ASSIGNMENT,
    Mutant,
    MutantStatus,
    classify_against_mutant,
    mutants_of,
    schema_run,
)
from affsgen.testmodel import MutantGoal, TestCase, render_test
from affsgen.tracing import behavior_of, call_key, run_test


def naive_levenshtein(a: str, b: str) -> int:
    """Exponential-time textbook recursion; only usable on short strings."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[-1] == b[-1] else 1
    return min(
        naive_levenshtein(a[:-1], b) + 1,
        naive_levenshtein(a, b[:-1]) + 1,
        naive_levenshtein(a[:-1], b[:-1]) + cost,
    )


def dp_levenshtein(a: str, b: str) -> int:
    """Textbook Wagner-Fischer: fill the whole (len(a)+1) x (len(b)+1) matrix."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[len(a)][len(b)]


def brute_force_a_measure(xs, ys) -> float:
    bigger = sum(1 for x in xs for y in ys if x > y)
    equal = sum(1 for x in xs for y in ys if x == y)
    return (bigger + 0.5 * equal) / (len(xs) * len(ys))


# --- bare re-execution interpreter ------------------------------------------------


class _Abort(Exception):
    def __init__(self, label: str, fn: str):
        self.label = label
        self.fn = fn


class _Ret(Exception):
    def __init__(self, value):
        self.value = value


_STEP_BUDGET = 200_000


def _ev(expr, env, fn, program, steps, events):
    steps[0] -= 1
    if steps[0] <= 0:
        raise _Abort("StepLimitExceeded", fn)
    if isinstance(expr, (IntLit, BoolLit, StrLit)):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise _Abort("TypeError", fn)
        return env[expr.name]
    if isinstance(expr, Len):
        v = _ev(expr.operand, env, fn, program, steps, events)
        if not isinstance(v, str):
            raise _Abort("TypeError", fn)
        return len(v)
    if isinstance(expr, Index):
        base = _ev(expr.base, env, fn, program, steps, events)
        idx = _ev(expr.index, env, fn, program, steps, events)
        if not isinstance(base, str) or isinstance(idx, bool) or not isinstance(idx, int):
            raise _Abort("TypeError", fn)
        if idx < 0 or idx >= len(base):
            raise _Abort("IndexOutOfBounds", fn)
        return base[idx]
    if isinstance(expr, Unary):
        if expr.op == "not":
            v = _ev(expr.operand, env, fn, program, steps, events)
            if not isinstance(v, bool):
                raise _Abort("TypeError", fn)
            return not v
        v = _ev(expr.operand, env, fn, program, steps, events)
        if isinstance(v, bool) or not isinstance(v, int):
            raise _Abort("TypeError", fn)
        return -v
    if isinstance(expr, Call):
        args = [_ev(a, env, fn, program, steps, events) for a in expr.args]
        return _call(expr.name, args, fn, program, steps, events)
    if isinstance(expr, Binary):
        op = expr.op
        if op == "and":
            left = _ev(expr.lhs, env, fn, program, steps, events)
            if not isinstance(left, bool):
                raise _Abort("TypeError", fn)
            if not left:
                return False
            right = _ev(expr.rhs, env, fn, program, steps, events)
            if not isinstance(right, bool):
                raise _Abort("TypeError", fn)
            return right
        if op == "or":
            left = _ev(expr.lhs, env, fn, program, steps, events)
            if not isinstance(left, bool):
                raise _Abort("TypeError", fn)
            if left:
                return True
            right = _ev(expr.rhs, env, fn, program, steps, events)
            if not isinstance(right, bool):
                raise _Abort("TypeError", fn)
            return right
        left = _ev(expr.lhs, env, fn, program, steps, events)
        right = _ev(expr.rhs, env, fn, program, steps, events)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if isinstance(left, str) or isinstance(right, str):
                if not (isinstance(left, str) and isinstance(right, str)) or op not in ("==", "!="):
                    raise _Abort("TypeError", fn)
                return left == right if op == "==" else left != right
            l, r = int(left), int(right)
            return {"==": l == r, "!=": l != r, "<": l < r,
                    "<=": l <= r, ">": l > r, ">=": l >= r}[op]
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if (isinstance(left, bool) or not isinstance(left, int)
                or isinstance(right, bool) or not isinstance(right, int)):
            raise _Abort("TypeError", fn)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            raise _Abort("DivByZero", fn)
        q = abs(left) // abs(right)
        return q if (left >= 0) == (right >= 0) else -q
    raise TypeError(f"unexpected node {expr!r}")


def _snapshot(env):
    return tuple(sorted((k, type(v).__name__, v) for k, v in env.items()))


def _exec(body, env, fn, program, steps, events):
    for stmt in body:
        steps[0] -= 1
        if steps[0] <= 0:
            raise _Abort("StepLimitExceeded", fn)
        if isinstance(stmt, Let):
            env[stmt.name] = _ev(stmt.expr, env, fn, program, steps, events)
            events.append((stmt.line_id, _snapshot(env)))
        elif isinstance(stmt, Assign):
            if stmt.name not in env:
                raise _Abort("TypeError", fn)
            env[stmt.name] = _ev(stmt.expr, env, fn, program, steps, events)
            events.append((stmt.line_id, _snapshot(env)))
        elif isinstance(stmt, Return):
            value = _ev(stmt.expr, env, fn, program, steps, events)
            events.append((stmt.line_id, _snapshot(env)))
            raise _Ret(value)
        elif isinstance(stmt, Throw):
            events.append((stmt.line_id, _snapshot(env)))
            raise _Abort(f"ExplicitThrow:{stmt.tag}", fn)
        elif isinstance(stmt, If):
            cond = _ev(stmt.cond, env, fn, program, steps, events)
            if not isinstance(cond, bool):
                raise _Abort("TypeError", fn)
            events.append((stmt.line_id, _snapshot(env)))
            _exec(stmt.then_body if cond else stmt.else_body, env, fn, program, steps, events)
        elif isinstance(stmt, While):
            while True:
                cond = _ev(stmt.cond, env, fn, program, steps, events)
                if not isinstance(cond, bool):
                    raise _Abort("TypeError", fn)
                events.append((stmt.line_id, _snapshot(env)))
                if not cond:
                    break
                _exec(stmt.body, env, fn, program, steps, events)
        else:
            raise TypeError(f"unexpected statement {stmt!r}")


def _kind(value) -> str:
    return "bool" if isinstance(value, bool) else ("int" if isinstance(value, int) else "str")


def _call(name, args, caller, program: Program, steps, events):
    fn = program.function(name)
    env = {}
    for (pname, pkind), value in zip(fn.params, args):
        if _kind(value) != pkind:
            raise _Abort("TypeError", caller)
        env[pname] = value
    try:
        _exec(fn.body, env, name, program, steps, events)
    except _Ret as ret:
        events.append(("exit", name, _snapshot(env)))
        return ret.value
    events.append(("exit", name, _snapshot(env)))
    return 0


def oracle_run(program: Program, test: TestCase):
    """Per-call outcomes and the full (line, store) event stream with exits."""
    outcomes = []
    events: list = []
    for call in test.calls:
        steps = [_STEP_BUDGET]
        call_events: list = []
        try:
            value = _call(call.function, list(call.args), call.function, program, steps, call_events)
            # tagged with its kind, since True == 1
            outcomes.append(("return", _kind(value), value))
        except _Abort as abort:
            outcomes.append(("raise", abort.label, abort.fn))
        events.extend(call_events)
    return tuple(outcomes), events


def full_reexecution_status(mutant: Mutant, test: TestCase) -> MutantStatus:
    """Status by diffing complete state snapshots of base and mutant runs."""
    base_outcomes, base_events = oracle_run(mutant.base_program, test)
    executed = {e[0] for e in base_events}
    if mutant.site not in executed:
        return MutantStatus.NOT_REACHED
    mutant_outcomes, mutant_events = oracle_run(mutant.mutated_program, test)
    if base_outcomes != mutant_outcomes:
        return MutantStatus.KILLED
    if mutant.operator == DELETE_ASSIGNMENT:
        # a deleted statement emits no event; align the streams by dropping
        # the site's events on both sides
        base_events = [e for e in base_events if e[0] != mutant.site]
        mutant_events = [e for e in mutant_events if e[0] != mutant.site]
    if base_events != mutant_events:
        return MutantStatus.INFECTED
    return MutantStatus.REACHED_NOT_INFECTED


# a ``_classifications`` entry for a call whose schema run shows the mutant
# infected, before any fold asks whether the call kills it
_INFECTED_NOT_RUN = object()


class MutantMajorFold:
    """The reference fold: each mutant's status folded on its own over a
    suite's tests and calls, with one memo entry per (mutant id, call key).

    ``classify``, ``stage_sum``, ``mutation_score`` and ``killed_goals`` are
    the ``FitnessContext`` methods and ``engine._killed_goals`` as they were
    before the test-major mask fold, on memos of their own. Its runs go
    through ``mutation``'s ``execute`` as the context's do, so a test can
    count both sides' schema runs and mutant runs.
    """

    def __init__(self, program: Program, interp: InterpConfig = InterpConfig()):
        self.program = program
        self.interp = interp
        self._records: dict = {}
        self._traces: dict = {}
        self._schema_runs: dict = {}
        self._classifications: dict = {}

    @property
    def mutants(self) -> list[Mutant]:
        return mutants_of(self.program)

    def trace(self, test: TestCase):
        trace = self._traces.get(test)
        if trace is None:
            trace = self._traces[test] = run_test(self.program, test, self.interp, self._records)
        return trace

    def classify(self, mutant: Mutant, tests, stop: MutantStatus = MutantStatus.KILLED) -> MutantStatus:
        site = mutant.site
        mutant_id = mutant.mutant_id
        lazy = stop < MutantStatus.KILLED
        best = MutantStatus.NOT_REACHED
        for test in tests:
            trace = self.trace(test)
            if site not in trace.lines_hit:
                continue
            for record in trace.calls:
                base = record.result
                if site not in base.lines_hit:
                    continue
                call = record.function, record.args
                key = call_key(*call)
                ckey = (mutant_id, key)
                status = self._classifications.get(ckey)
                if status is None or status is _INFECTED_NOT_RUN and not lazy:
                    schema = self._schema_runs.get(key)
                    if schema is None:
                        schema = self._schema_runs[key] = schema_run(
                            self.program, *call, self.interp)
                    if lazy and mutant_id in schema.infected:
                        status = _INFECTED_NOT_RUN
                    else:
                        status = classify_against_mutant(
                            mutant, *call, base, self.interp, schema).status
                    self._classifications[ckey] = status
                if status is _INFECTED_NOT_RUN:
                    status = MutantStatus.INFECTED
                if status > best:
                    best = status
                    if best >= stop:
                        return best
        return best

    def stage_sum(self, suite, stages: dict, stop: MutantStatus) -> float:
        mutants = self.mutants
        if not mutants:
            raise ValueError("mutation score is undefined for an empty mutant list")
        total = 0
        for mutant in mutants:
            total += stages[self.classify(mutant, suite, stop)]
        return total

    def mutation_score(self, suite, mode: str) -> float:
        stop, detected = {"weak": (MutantStatus.INFECTED, _WEAK_DETECTED),
                          "strong": (MutantStatus.KILLED, _STRONG_DETECTED)}[mode]
        return 100.0 * self.stage_sum(suite, detected, stop) / len(self.mutants)

    def killed_goals(self, test: TestCase, mutants) -> list[MutantGoal]:
        tests = (test,)
        return [MutantGoal(m.mutant_id) for m in mutants
                if self.classify(m, tests) == MutantStatus.KILLED]


_WEAK_DETECTED = {status: int(status >= MutantStatus.INFECTED) for status in MutantStatus}
_STRONG_DETECTED = {status: int(status >= MutantStatus.KILLED) for status in MutantStatus}


def reference_pack_side_by_side(tests):
    """``fitness.pack_side_by_side`` one character at a time: the tests'
    non-empty lines as lanes of one pattern, low bits first, each lane
    followed by one clear guard bit, and each test's (lane bits, line
    count) block. Returns ``(peq, lows, mask, count), blocks``."""
    peq: dict[str, int] = {}
    lows = mask = count = 0
    low = 1
    blocks = []
    for lines in tests:
        below = mask
        for line in lines:
            if not line:
                continue
            bit = low
            for c in line:
                peq[c] = peq.get(c, 0) | bit
                bit <<= 1
            lows |= low
            mask |= bit - low
            low = bit << 1  # skip the guard bit
        count += len(lines)
        blocks.append((mask ^ below, len(lines)))
    return (peq, lows, mask, count), blocks


class PairwiseDiversity:
    """The reference suite diversity: every pair of a suite's tests scored
    on its own, each line pair by the full-matrix ``dp_levenshtein``, so
    that nothing of the bit-vector kernel in ``fitness`` is used.

    ``rendered_lines`` is the ``FitnessContext`` method. Test-pair
    distances are memoized as the context memoizes them, and line-pair
    distances by unordered line pair.
    """

    def __init__(self):
        self._renders: dict = {}
        self._pair_distance: dict = {}
        self._line_distance: dict = {}

    def rendered_lines(self, test: TestCase) -> tuple[str, ...]:
        lines = self._renders.get(test)
        if lines is None:
            text = render_test(test)
            lines = tuple(text.split("\n")) if text else ()
            self._renders[test] = lines
        return lines

    def test_pair_distance(self, a: TestCase, b: TestCase) -> int:
        lines_a = self.rendered_lines(a)
        lines_b = self.rendered_lines(b)
        key = (lines_a, lines_b) if lines_a <= lines_b else (lines_b, lines_a)
        cached = self._pair_distance.get(key)
        if cached is not None:
            return cached
        total = 0
        for x in lines_a:
            for y in lines_b:
                lkey = (x, y) if x <= y else (y, x)
                d = self._line_distance.get(lkey)
                if d is None:
                    d = self._line_distance[lkey] = dp_levenshtein(x, y)
                total += d
        self._pair_distance[key] = total
        return total

    def suite_diversity(self, suite) -> tuple[int, float]:
        div = 0
        for i in range(len(suite)):
            for j in range(i + 1, len(suite)):
                div += self.test_pair_distance(suite[i], suite[j])
        return div, 1.0 / (1.0 + div)


def rerun_fault_detected(suite, pair, interp: InterpConfig = InterpConfig()) -> bool:
    """True when any call of any test behaves differently on the faulty
    version, with both versions run again on each test, each with a fresh memo."""
    for test in suite:
        fixed = run_test(pair.fixed_program, test, interp).calls
        faulty = run_test(pair.faulty_program, test, interp).calls
        if any(behavior_of(a.result) != behavior_of(b.result) for a, b in zip(fixed, faulty)):
            return True
    return False
