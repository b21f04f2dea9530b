"""The ten suite-level fitness functions, all normalized to [0,1], lower better.

The composite the search minimizes is the plain sum of the active functions'
scores; it deliberately is not a Pareto combination, so a large improvement
on one function can outweigh losses on others.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple

from affsgen.minilang.interpreter import ExecutionResult, InterpConfig, Sides, merge_best
from affsgen.minilang.nodes import (
    Binary,
    BoolLit,
    Call,
    FunctionDef,
    Index,
    IntLit,
    Len,
    Program,
    Return,
    StrLit,
    Unary,
    Var,
    walk_statements,
)
from affsgen.mutation import Mutant, MutantStatus, classify_against_mutant, mutants_of, schema_run
from affsgen.testmodel import TestCase, TestSuite, render_test
from affsgen.tracing import TestTrace, call_of, run_test

INF = math.inf


class FitnessFunctionId(enum.IntEnum):
    """Stable ordinals; feature vectors and reports rely on this order."""

    EX = 0
    BRANCH = 1
    DIRECT_BRANCH = 2
    LINE = 3
    METHOD = 4
    MNEC = 5
    OUTPUT = 6
    WEAK_MUT = 7
    STRONG_MUT = 8
    DIVERSITY = 9


FN_NAMES = {f: f.name.lower() for f in FitnessFunctionId}
FN_BY_NAME = {name: f for f, name in FN_NAMES.items()}


def nu(x: float) -> float:
    """Normalization x / (x + 1), with nu(inf) == 1. An int ``x`` of any size
    divides exactly, correctly rounded, without overflow."""
    if x == INF:
        return 1.0
    return x / (x + 1)


# --- output-coverage buckets -------------------------------------------------

_INT_BUCKETS = ("negative", "zero", "positive")
_BOOL_BUCKETS = ("true", "false")
_STR_BUCKETS = ("empty", "nonempty")


def _infer_return_kinds(program: Program) -> dict[str, set[str]]:
    """Fixpoint inference of the kinds each function's returns can produce.

    A function with no return statement (or one that can fall off the end)
    yields int 0, so int is included for those.
    """

    kinds: dict[str, set[str]] = {fn.name: set() for fn in program.functions}

    def expr_kind(expr, fn: FunctionDef) -> set[str]:
        if isinstance(expr, IntLit):
            return {"int"}
        if isinstance(expr, BoolLit):
            return {"bool"}
        if isinstance(expr, StrLit):
            return {"str"}
        if isinstance(expr, Var):
            for pname, pkind in fn.params:
                if pname == expr.name:
                    return {pkind}
            return {"int", "bool", "str"}  # local; not tracked statically
        if isinstance(expr, Len):
            return {"int"}
        if isinstance(expr, Index):
            return {"str"}
        if isinstance(expr, Unary):
            return {"int"} if expr.op == "neg" else {"bool"}
        if isinstance(expr, Binary):
            if expr.op in ("and", "or") or expr.op in ("==", "!=", "<", "<=", ">", ">="):
                return {"bool"}
            if expr.op == "+":
                sub = expr_kind(expr.lhs, fn) | expr_kind(expr.rhs, fn)
                return sub & {"int", "str"} or {"int"}
            return {"int"}
        if isinstance(expr, Call):
            return set(kinds.get(expr.name, set()))
        return {"int"}

    changed = True
    while changed:
        changed = False
        for fn in program.functions:
            inferred: set[str] = set()
            for stmt in walk_statements(fn.body):
                if isinstance(stmt, Return):
                    inferred |= expr_kind(stmt.expr, fn)
            ends_with_return = bool(fn.body) and isinstance(fn.body[-1], Return)
            if not ends_with_return:
                inferred.add("int")  # may fall off the end, which yields 0
            if inferred - kinds[fn.name]:
                kinds[fn.name] |= inferred
                changed = True
    return kinds


def output_buckets(program: Program) -> list[tuple[str, str]]:
    """(function, abstract value) pairs the suite should cover."""
    buckets: list[tuple[str, str]] = []
    for fname, kinds in sorted(_infer_return_kinds(program).items()):
        for kind in sorted(kinds):
            names = {"int": _INT_BUCKETS, "bool": _BOOL_BUCKETS, "str": _STR_BUCKETS}[kind]
            buckets.extend((fname, b) for b in names)
    return buckets


def _bucket_of(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return "negative" if value < 0 else ("zero" if value == 0 else "positive")
    return "empty" if value == "" else "nonempty"


def _int_bucket_distance(bucket: str, values: Iterable[int]) -> int:
    """The least distance of the values to the bucket, an int however large
    they are (``nu`` takes it exactly)."""
    best = INF
    for v in values:
        if bucket == "negative":
            d = v + 1 if v >= 0 else 0
        elif bucket == "zero":
            d = abs(v)
        else:
            d = 1 - v if v <= 0 else 0
        best = min(best, d)
    return best


# --- levenshtein and diversity -----------------------------------------------


class PackedLines(NamedTuple):
    """Several patterns packed as lanes of one integer, for ``packed_distance``.

    Lane by lane, low bits first, each non-empty line takes as many bits as
    it has characters, followed by one zero guard bit. Bit i of ``peq[c]``
    is set where lane position i holds character c; ``lows`` has the lowest
    bit of every lane set; ``mask`` has every lane bit set and every guard
    bit clear. ``count`` is the number of lines, empty ones included.
    """

    peq: dict[str, int]
    lows: int
    mask: int
    count: int


def pack_lines(lines: tuple[str, ...]) -> PackedLines:
    """Pack every line as one lane of a single bit-vector pattern."""
    peq: dict[str, int] = {}
    lows = mask = 0
    low = 1
    for line in lines:
        if not line:
            continue  # an empty line is all insertions: count * len(text) covers it
        bit = low
        for c in line:
            peq[c] = peq.get(c, 0) | bit
            bit <<= 1
        lows |= low
        mask |= bit - low
        low = bit << 1  # skip the guard bit
    return PackedLines(peq, lows, mask, len(lines))


def packed_distance(packed: PackedLines, text: str) -> int:
    """Edit distance from ``text`` to every packed line, summed over the lines.

    Myers' bit-vector algorithm in Hyyrö's global-distance form (JACM 1999;
    "A bit-vector algorithm for computing Levenshtein and Damerau edit
    distances", 2003), run on all lanes at once as in Hyyrö, Fredriksson
    and Navarro, "Increased bit-parallelism for approximate and multiple
    string matching" (JEA 2005). One column of each lane's
    dynamic-programming matrix is held as two bitmasks of vertical +1 and -1
    deltas, ``pv`` and ``mv``, and each character of ``text`` advances every
    column in a fixed number of integer operations.

    Lanes stay independent: the guard bit above each lane is clear in
    ``eq`` and ``pv``, so it absorbs the carry out of ``(eq & pv) + pv``
    and nothing carries on into the next lane. After the shift, ``lows``
    sets every lane's lowest bit of ``ph`` to row 0's +1 horizontal delta,
    whatever came up from the guard bit below, and ``mask`` clears the guard
    bits of ``pv``, which keeps them clear in ``mh`` and ``mv`` too.

    No lane keeps a score. The last row of a lane's column is
    ``D[m][n] = n + Σ`` of the column's vertical deltas, because
    ``D[0][n] = n``; summed over the lanes that is
    ``count·n + popcount(pv) − popcount(mv)``, with ``n = len(text)``. An
    empty line has no lane and adds its ``n`` through ``count``.
    """
    peq, lows, mask, count = packed
    pv = mask  # vertical deltas of column 0 are all +1
    mv = 0
    for c in text:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (xh | pv) ^ mask  # ~(xh | pv) on the lane bits
        mh = pv & xh
        ph = (ph << 1) | lows
        pv = ((mh << 1) | (xv | ph) ^ mask) & mask
        mv = ph & xv
    return count * len(text) + pv.bit_count() - mv.bit_count()


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute): ``packed_distance`` of one lane."""
    return packed_distance(pack_lines((a,)), b)


# --- evaluation context --------------------------------------------------------


class FitnessContext:
    """Program-wide caches shared by every fitness evaluation in a run.

    The program's mutants, which are also its schema, are kept on the
    program (``mutation.mutants_of``), and the compiled schema shape of its
    schema runs in its plan, so every context on it shares them; an experiment
    builds them before its pool starts. Everything else below is per
    context.

    Traces, renderings, pairwise test distances, and mutant classifications
    are memoized for the lifetime of a search run; test cases are value-like,
    so cached results stay valid. Below the traces, every distinct call of
    the base program runs once: ``_calls`` maps each ``call_key`` to its
    plain run, from which each test's trace is aggregated, and
    ``_schema_runs`` maps it to its one schema run, which tells every
    mutant's infection on that call (see ``mutation.schema_run``).
    ``_classifications`` maps (mutant id, ``call_key``) to the status of one
    call that reaches the mutant's site, and ``classify`` folds them over
    a suite's tests. All three belong to this context's one program and
    interpreter config. A mutant program runs only on calls the schema run
    cannot settle, and those runs are not kept.

    Diversity is memoized on rendered lines at three levels:
    ``_pair_distance`` maps an ordered pair of two tests' lines to their
    summed line-pair distance; ``_packed`` maps one test's lines to their
    ``pack_lines`` table; and ``_line_distance`` maps (packed lines, line)
    to that line's distance summed over all the packed lines, one
    ``packed_distance`` pass. A pair packs the side with more characters
    and steps through the other side's lines.
    """

    def __init__(self, program: Program, interp: InterpConfig = InterpConfig()):
        self.program = program
        self.interp = interp
        self.total_lines = program.line_count
        self.total_branches = program.branch_count
        self.function_names = tuple(program.function_names)
        self.buckets = output_buckets(program)
        self.discovered_exceptions: set[tuple[str, str]] = set()
        self._calls: dict[tuple, ExecutionResult] = {}
        self._schema_runs: dict[tuple, Sides] = {}
        self._traces: dict[TestCase, TestTrace] = {}
        self._renders: dict[TestCase, tuple[str, ...]] = {}
        self._classifications: dict[tuple[int, tuple], MutantStatus] = {}
        self._pair_distance: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}
        self._packed: dict[tuple[str, ...], PackedLines] = {}
        self._line_distance: dict[tuple[tuple[str, ...], str], int] = {}
        self._suite_scores: dict[tuple[FitnessFunctionId, TestSuite], float] = {}

    @property
    def mutants(self) -> list[Mutant]:
        return mutants_of(self.program)

    def trace(self, test: TestCase) -> TestTrace:
        trace = self._traces.get(test)
        if trace is None:
            trace = run_test(self.program, test, self.interp, self._calls)
            self._traces[test] = trace
            self.discovered_exceptions |= trace.exceptions
        return trace

    def covered(self, suite: TestSuite, field: str) -> set:
        """The union of one set-valued ``TestTrace`` field over the suite's tests."""
        found: set = set()
        for test in suite:
            found |= getattr(self.trace(test), field)
        return found

    def suite_exceptions(self, suite: TestSuite) -> set[tuple[str, str]]:
        """The distinct (kind, function) exceptions the suite's tests raise."""
        return self.covered(suite, "exceptions")

    def rendered_lines(self, test: TestCase) -> tuple[str, ...]:
        lines = self._renders.get(test)
        if lines is None:
            text = render_test(test)
            lines = tuple(text.split("\n")) if text else ()
            self._renders[test] = lines
        return lines

    def classify(self, mutant: Mutant, tests: Iterable[TestCase],
                 stop: MutantStatus = MutantStatus.KILLED) -> MutantStatus:
        """Highest status the tests' calls reach on a mutant, in order, skipping
        calls that miss its site. Returns at the first KILLED, and otherwise
        after the first test that raises the status to ``stop``."""
        site = mutant.site
        best = MutantStatus.NOT_REACHED
        for test in tests:
            trace = self.trace(test)
            if site not in trace.lines_hit:
                continue
            for key, base in zip(trace.call_keys, trace.call_results):
                if site not in base.lines_hit:
                    continue
                ckey = (mutant.mutant_id, key)
                status = self._classifications.get(ckey)
                if status is None:
                    schema = self._schema_runs.get(key)
                    if schema is None:
                        schema = self._schema_runs[key] = schema_run(
                            self.program, *call_of(key), self.interp)
                    status = self._classifications[ckey] = classify_against_mutant(
                        mutant, *call_of(key), base, self.interp, schema).status
                if status > best:
                    best = status
                    if best == MutantStatus.KILLED:
                        return best
            if best >= stop:
                break
        return best

    def stage_sum(self, suite: TestSuite, stages: dict, stop: MutantStatus) -> float:
        """Sum of ``stages`` at each mutant's ``classify`` status, in mutant order."""
        mutants = self.mutants
        if not mutants:
            raise ValueError("mutation score is undefined for an empty mutant list")
        total = 0
        for mutant in mutants:
            total += stages[self.classify(mutant, suite, stop)]
        return total

    def mutation_score(self, suite: TestSuite, mode: str) -> float:
        """Percentage of mutants detected: infected-or-killed (weak) or killed (strong)."""
        if mode not in _DETECTED:
            raise ValueError(f"unknown mutation mode {mode!r}")
        stop, detected = _DETECTED[mode]
        return 100.0 * self.stage_sum(suite, detected, stop) / len(self.mutants)

    def test_pair_distance(self, a: TestCase, b: TestCase) -> int:
        lines_a = self.rendered_lines(a)
        lines_b = self.rendered_lines(b)
        key = (lines_a, lines_b) if lines_a <= lines_b else (lines_b, lines_a)
        cached = self._pair_distance.get(key)
        if cached is not None:
            return cached
        # pack the side with more characters, so fewer characters are stepped
        packed_lines, other = key
        if sum(map(len, packed_lines)) < sum(map(len, other)):
            packed_lines, other = other, packed_lines
        packed = self._packed.get(packed_lines)
        if packed is None:
            packed = self._packed[packed_lines] = pack_lines(packed_lines)
        total = 0
        for line in other:
            lkey = (packed_lines, line)
            d = self._line_distance.get(lkey)
            if d is None:
                d = self._line_distance[lkey] = packed_distance(packed, line)
            total += d
        self._pair_distance[key] = total
        return total


def suite_diversity(suite: TestSuite, ctx: FitnessContext) -> tuple[int, float]:
    """Pairwise rendered-statement distance summed over unordered test pairs.

    Returns (diversity, fitness) with fitness = 1 / (1 + diversity); a suite
    with at most one test has no pairs and scores fitness 1.0.
    """
    div = 0
    for i in range(len(suite)):
        for j in range(i + 1, len(suite)):
            div += ctx.test_pair_distance(suite[i], suite[j])
    return div, 1.0 / (1.0 + div)


# --- the fitness functions -----------------------------------------------------


def _fit_ex(suite: TestSuite, ctx: FitnessContext) -> float:
    return 1.0 / (1.0 + len(ctx.suite_exceptions(suite)))


def _branch_score(suite: TestSuite, ctx: FitnessContext, direct: bool) -> float:
    if ctx.total_branches == 0:
        return 0.0
    best: dict[int, list[float]] = {}
    for test in suite:
        trace = ctx.trace(test)
        table = trace.branch_best_direct if direct else trace.branch_best
        for bid, (dt, df) in table.items():
            merge_best(best, bid, dt, df)
    total = 0.0
    for bid in range(ctx.total_branches):
        dt, df = best.get(bid, (INF, INF))
        total += nu(dt) + nu(df)
    return total / (2.0 * ctx.total_branches)


def _fit_branch(suite: TestSuite, ctx: FitnessContext) -> float:
    return _branch_score(suite, ctx, direct=False)


def _fit_direct_branch(suite: TestSuite, ctx: FitnessContext) -> float:
    return _branch_score(suite, ctx, direct=True)


def _uncovered(suite: TestSuite, ctx: FitnessContext, field: str, total: int) -> float:
    """Share of ``total`` goals that no test's trace lists in ``field``."""
    if total == 0:
        return 0.0
    return (total - len(ctx.covered(suite, field))) / total


def _fit_line(suite: TestSuite, ctx: FitnessContext) -> float:
    return _uncovered(suite, ctx, "lines_hit", ctx.total_lines)


def _fit_method(suite: TestSuite, ctx: FitnessContext) -> float:
    return _uncovered(suite, ctx, "functions_called", len(ctx.function_names))


def _fit_mnec(suite: TestSuite, ctx: FitnessContext) -> float:
    return _uncovered(suite, ctx, "clean_direct", len(ctx.function_names))


def _fit_output(suite: TestSuite, ctx: FitnessContext) -> float:
    if not ctx.buckets:
        return 0.0
    observed: dict[str, list] = {}
    for test in suite:
        for fname, values in ctx.trace(test).returns.items():
            observed.setdefault(fname, []).extend(values)
    total = 0.0
    for fname, bucket in ctx.buckets:
        values = observed.get(fname, ())
        hit = any(_bucket_of(v) == bucket for v in values)
        if hit:
            continue
        if bucket in _INT_BUCKETS:
            ints = [v for v in values if not isinstance(v, bool) and isinstance(v, int)]
            total += nu(_int_bucket_distance(bucket, ints)) if ints else 1.0
        else:
            total += 1.0
    return total / len(ctx.buckets)


# stage of a mutant by the best status a suite reaches on it
_WEAK_STAGES = {MutantStatus.NOT_REACHED: 1.0, MutantStatus.REACHED_NOT_INFECTED: 0.5,
                MutantStatus.INFECTED: 0.0, MutantStatus.KILLED: 0.0}
_STRONG_STAGES = {MutantStatus.NOT_REACHED: 1.0, MutantStatus.REACHED_NOT_INFECTED: 0.75,
                  MutantStatus.INFECTED: 0.25, MutantStatus.KILLED: 0.0}
# a mutation score counts the mutants a suite brings to its mode's status
_DETECTED = {mode: (stop, {status: int(status >= stop) for status in MutantStatus})
             for mode, stop in (("weak", MutantStatus.INFECTED), ("strong", MutantStatus.KILLED))}


def _fit_weak_mut(suite: TestSuite, ctx: FitnessContext) -> float:
    return ctx.stage_sum(suite, _WEAK_STAGES, MutantStatus.INFECTED) / len(ctx.mutants)


def _fit_strong_mut(suite: TestSuite, ctx: FitnessContext) -> float:
    return ctx.stage_sum(suite, _STRONG_STAGES, MutantStatus.KILLED) / len(ctx.mutants)


def _fit_diversity(suite: TestSuite, ctx: FitnessContext) -> float:
    return suite_diversity(suite, ctx)[1]


_EVALUATORS = {
    FitnessFunctionId.EX: _fit_ex,
    FitnessFunctionId.BRANCH: _fit_branch,
    FitnessFunctionId.DIRECT_BRANCH: _fit_direct_branch,
    FitnessFunctionId.LINE: _fit_line,
    FitnessFunctionId.METHOD: _fit_method,
    FitnessFunctionId.MNEC: _fit_mnec,
    FitnessFunctionId.OUTPUT: _fit_output,
    FitnessFunctionId.WEAK_MUT: _fit_weak_mut,
    FitnessFunctionId.STRONG_MUT: _fit_strong_mut,
    FitnessFunctionId.DIVERSITY: _fit_diversity,
}


def eval_fitness(fn: FitnessFunctionId, suite: TestSuite, ctx: FitnessContext) -> float:
    """Evaluate one fitness function on a suite; results are memoized per suite."""
    key = (fn, suite)
    score = ctx._suite_scores.get(key)
    if score is None:
        score = _EVALUATORS[fn](suite, ctx)
        ctx._suite_scores[key] = score
    return score


def composite_fitness(scores: dict[FitnessFunctionId, float]) -> float:
    """Plain sum of the active functions' scores; lower is better.

    Summed in function-ordinal order so permuting the map cannot change the
    floating-point total.
    """
    if not scores:
        raise ValueError("composite fitness of an empty score map is undefined")
    return sum(scores[fn] for fn in sorted(scores))


def evaluate_suite(suite: TestSuite, functions: Iterable[FitnessFunctionId],
                   ctx: FitnessContext) -> float:
    """Composite fitness of a suite under the given active functions."""
    return composite_fitness({fn: eval_fitness(fn, suite, ctx) for fn in functions})
