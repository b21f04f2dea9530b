"""The ten suite-level fitness functions, all normalized to [0,1], lower better.

The composite the search minimizes is the plain sum of the active functions'
scores; it deliberately is not a Pareto combination, so a large improvement
on one function can outweigh losses on others.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from typing import Iterable, NamedTuple

from affsgen.minilang.interpreter import InterpConfig, merge_best, module_of
from affsgen.minilang.nodes import Program
from affsgen.mutation import (
    DELETE_ASSIGNMENT,
    Mutant,
    MutantStatus,
    classify_against_mutant,
    mutants_of,
    schema_run,
)
from affsgen.testmodel import TestCase, TestSuite, render_lines
from affsgen.tracing import CallRecord, TestTrace, run_test

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

_BUCKETS = {"int": ("negative", "zero", "positive"), "bool": ("true", "false"),
            "str": ("empty", "nonempty")}


def output_buckets(program: Program) -> list[tuple[str, str]]:
    """(function, abstract value) pairs the suite should cover: every
    abstract value of each kind a function may return, by function name and
    then kind. The kinds are ``Analysis.returns`` of the program's compiled
    module (``interpreter.module_of``), the analysis its runs already use,
    so a function whose every path ends in a ``throw`` has none."""
    return [(fname, bucket)
            for fname, kinds in sorted(module_of(program).analysis().returns.items())
            for kind in sorted(kinds)
            for bucket in _BUCKETS[kind]]


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
    """Several patterns packed as lanes of one integer, for ``end_columns``.

    Lane by lane, low bits first, each non-empty line takes as many bits as
    it has characters, followed by one zero guard bit. Bit i of ``peq[c]``
    is set where lane position i holds character c; ``lows`` has the lowest
    bit of every lane set; ``mask`` has every lane bit set and every guard
    bit clear. ``count`` is the number of lines, empty ones included.

    ``pack_side_by_side`` lays several tests' tables side by side as the
    blocks of one such pattern: each block is one test's lanes, shifted to
    start just above the guard bit of the block below, so a block is a run
    of whole lanes. Lanes stay independent, so a column's bits masked to
    one block are the column a sweep over that block's table alone would
    reach. One stepped character costs about 530 ns at up to 150 bits,
    650–680 ns at 300–600 bits, 800 ns at 1 200 bits and 950 ns at 2 400
    bits (CPython 3.11.7), so a wide pattern is cheaper than a sweep per
    block but not free: a batch stays the pairs of one suite.
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


def end_columns(packed: PackedLines, texts: Iterable[str]) -> dict[str, tuple[int, int]]:
    """The column every packed lane reaches at the end of each text, as its
    ``(pv, mv)`` deltas (see ``packed_distance``), by distinct text.

    A column depends only on the pattern and the characters stepped so far,
    so the texts are stepped in sorted order and each resumes from the
    column kept at the longest prefix it shares with the text before it,
    which is the longest it shares with any text before it: a walk of the
    texts' trie, as in Shang and Merrett, "Tries for approximate string
    matching" (IEEE TKDE 1996). Every character of a shared prefix is
    stepped once per call.
    """
    peq, lows, mask, _ = packed
    # the columns after each prefix of the last text stepped; in column 0
    # every vertical delta is +1
    pvs, mvs = [mask], [0]
    last = ""
    ends = {}
    for text in sorted(texts):
        shared = 0
        for c, d in zip(text, last):
            if c != d:
                break
            shared += 1
        del pvs[shared + 1:], mvs[shared + 1:]
        pv, mv = pvs[shared], mvs[shared]
        for c in text[shared:]:
            eq = peq.get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (xh | pv) ^ mask  # ~(xh | pv) on the lane bits
            mh = pv & xh
            ph = (ph << 1) | lows
            pv = ((mh << 1) | (xv | ph) ^ mask) & mask
            mv = ph & xv
            pvs.append(pv)
            mvs.append(mv)
        ends[text] = pv, mv
        last = text
    return ends


def packed_distance(packed: PackedLines, text: str) -> int:
    """Edit distance from ``text`` to every packed line, summed over the lines.

    Myers' bit-vector algorithm in Hyyrö's global-distance form (JACM 1999;
    "A bit-vector algorithm for computing Levenshtein and Damerau edit
    distances", 2003), run on all lanes at once as in Hyyrö, Fredriksson
    and Navarro, "Increased bit-parallelism for approximate and multiple
    string matching" (JEA 2005). One column of each lane's
    dynamic-programming matrix is held as two bitmasks of vertical +1 and -1
    deltas, ``pv`` and ``mv``, and each character of ``text`` advances every
    column in a fixed number of integer operations (``end_columns``).

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
    empty line has no lane and adds its ``n`` through ``count``. Masked to
    one block's lane bits, with that block's line count, the same two
    popcounts give the block's sum. Both fit one AND and one popcount:
    with ``W = mask.bit_length()``, ``c = (pv << W) | (mask ^ mv)`` and a
    block's ``both = (bits << W) | bits``, ``popcount(c & both)`` is
    ``popcount(pv & bits) + popcount(bits) − popcount(mv & bits)``, since
    ``mv`` and ``bits`` lie within ``mask``; ``FitnessContext.diversity``
    reads each block so.
    """
    pv, mv = end_columns(packed, (text,))[text]
    return packed.count * len(text) + pv.bit_count() - mv.bit_count()


def pack_side_by_side(tables: Iterable[PackedLines]) -> tuple[PackedLines, list[tuple[int, int]]]:
    """The tables laid side by side as the blocks of one pattern (see
    ``PackedLines``), and each table's (lane bits, line count) block, in
    order, for reading ``end_columns``. Each table's ``peq`` is merged once."""
    peq: dict[str, int] = {}
    lows = mask = count = offset = 0
    blocks = []
    for table in tables:
        for c, bits in table.peq.items():
            peq[c] = peq.get(c, 0) | bits << offset
        bits = table.mask << offset
        lows |= table.lows << offset
        mask |= bits
        count += table.count
        blocks.append((bits, table.count))
        offset += table.mask.bit_length() + 1  # the top guard bit
    return PackedLines(peq, lows, mask, count), blocks


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute): ``packed_distance`` of one lane."""
    return packed_distance(pack_lines((a,)), b)


# --- evaluation context --------------------------------------------------------


def bit_positions(mask: int) -> Iterable[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FitnessContext:
    """Program-wide caches shared by every fitness evaluation in a run.

    The program's mutants, which are also its schema, and the compiled
    schema shape of its schema runs are kept on the compiled module of its
    text (``mutation.mutants_of``), so every context on a program of that
    text shares them; an experiment builds them before its pool starts.
    Everything else below is per context and freed with it when its search
    returns.

    Traces, renderings, pairwise test distances, and mutant classifications
    are memoized for the lifetime of a search run; test cases are value-like,
    so cached results stay valid. Below the traces, every distinct call of
    the base program runs once: ``_classifications`` is ``run_test``'s memo,
    which maps each ``call_key`` to the call's one ``tracing.CallRecord``.
    The record holds the call's plain run, from which each test's trace is
    aggregated, and the call's one schema run, which tells every mutant's
    infection on that call, until no mutant is owed a run on it. All of
    them belong to this context's one program and interpreter config.

    Mutant statuses are bit masks over mutant ids, which are the mutants'
    positions in ``mutants``. A call's record keeps the masks of what the
    call tells about every mutant, and ``fold`` folds the records of a
    suite's calls test by test, for all the mutants it wants at once.
    A mutant program runs on a call only when the schema run cannot settle
    the status a fold needs: a drifted mutant or a deleted assignment on
    the first fold that reaches the call while it still wants the mutant,
    and an infected one on the first fold that asks whether the call kills
    it. Those runs are not kept.

    Diversity is memoized on rendered lines at two levels:
    ``_pair_distance`` maps an unordered pair of two tests' lines, as an
    ordered key, to their summed line-pair distance, and ``_packed`` maps
    one test's lines to their ``pack_lines`` table. ``diversity`` first
    covers the pairs the memo lacks: it picks the test in the most missing
    pairs to step against all its missing partners, and repeats until none
    is missing. It then lays side by side, as the blocks of one pattern,
    the tables of the tests some picked test is read against, so a test
    that is only stepped is never packed. One ``end_columns`` sweep over
    that pattern steps the distinct lines of every picked test, each prefix
    they share once, and each pair's sum is read from its stepped test's
    end columns with one AND and one popcount per line against the other
    test's block (see ``packed_distance``).

    The output buckets (``buckets``) are found on first use, from the kinds
    the program's ``Analysis`` proves its functions may return, so a
    context that never scores output coverage never asks for them.
    """

    def __init__(self, program: Program, interp: InterpConfig = InterpConfig()):
        self.program = program
        self.interp = interp
        self.total_lines = program.line_count
        self.total_branches = program.branch_count
        self.function_names = tuple(program.function_names)
        self.discovered_exceptions: set[tuple[str, str]] = set()
        self._traces: dict[TestCase, TestTrace] = {}
        self._renders: dict[TestCase, tuple[str, ...]] = {}
        self._classifications: dict[tuple, CallRecord] = {}
        # (site -> mask of its mutants, deleted assignments' mask), built on
        # the first fold
        self._sites: tuple[dict[int, int], int] | None = None
        self._pair_distance: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}
        self._packed: dict[tuple[str, ...], PackedLines] = {}
        self._line_distance: dict = {}  # unused; the perfbench tracer reads its size
        self._suite_scores: dict[tuple[FitnessFunctionId, TestSuite], float] = {}

    @cached_property
    def buckets(self) -> list[tuple[str, str]]:
        """The program's ``output_buckets``, found on first use."""
        return output_buckets(self.program)

    @property
    def mutants(self) -> list[Mutant]:
        return mutants_of(self.program)

    def trace(self, test: TestCase) -> TestTrace:
        trace = self._traces.get(test)
        if trace is None:
            trace = run_test(self.program, test, self.interp, self._classifications)
            self._traces[test] = trace
            self.discovered_exceptions |= trace.exceptions
        return trace

    def covered(self, suite: TestSuite, field: str) -> set:
        """The union of one ``TestTrace`` field over the suite's tests: of
        its members, or of its keys for a dict."""
        found: set = set()
        for test in suite:
            found.update(getattr(self.trace(test), field))
        return found

    def suite_exceptions(self, suite: TestSuite) -> set[tuple[str, str]]:
        """The distinct (kind, function) exceptions the suite's tests raise."""
        return self.covered(suite, "exceptions")

    def rendered_lines(self, test: TestCase) -> tuple[str, ...]:
        lines = self._renders.get(test)
        if lines is None:
            lines = self._renders[test] = render_lines(test)
        return lines

    def _site_tables(self) -> tuple[dict[int, int], int]:
        sites: dict[int, int] = {}
        deletions = 0
        for mutant in self.mutants:
            bit = 1 << mutant.mutant_id
            sites[mutant.site] = sites.get(mutant.site, 0) | bit
            if mutant.operator == DELETE_ASSIGNMENT:
                deletions |= bit
        self._sites = sites, deletions
        return self._sites

    def fold(self, tests: Iterable[TestCase], stop: MutantStatus = MutantStatus.KILLED,
             wanted: int | None = None) -> tuple[int, int, int]:
        """The masks of the ``wanted`` mutants (all when None) that the tests'
        calls, in order, reach, infect and kill, each mutant's fold ending
        at the first call that brings it to ``stop``.

        The fold walks the tests and their calls once. At each call it takes
        the wanted mutants still below ``stop`` whose site the call hits,
        runs the call's schema run if none of them has needed it yet, and
        runs each of them that the call still owes a run, except, when
        ``stop`` is below KILLED, one the schema run shows infected: that
        kill run waits for the first fold with ``stop`` KILLED that reaches
        the call. It traces no test once no wanted mutant is open."""
        sites, deletions = self._sites or self._site_tables()
        if wanted is None:
            wanted = (1 << len(self.mutants)) - 1
        lazy = stop < MutantStatus.KILLED
        reached = infected = killed = 0
        open_ = wanted
        for test in tests:
            if not open_:
                break
            for record in self.trace(test).calls:
                reach = record.reach
                if reach is None:
                    reach = 0
                    for line in record.result.lines_hit:
                        reach |= sites.get(line, 0)
                    record.reach = reach
                candidates = reach & open_
                if not candidates:
                    continue
                if record.infected is None:
                    schema = schema_run(self.program, record.function, record.args, self.interp)
                    shown = sum(1 << m for m in schema.infected) & reach
                    drifted = sum(1 << m for m in schema.drifted)
                    record.infected = shown
                    record.unrun = (shown | drifted | deletions) & reach
                    if record.unrun:
                        record.schema = schema
                runs = candidates & record.unrun
                if lazy:
                    runs &= ~record.infected
                if runs:
                    self._run_mutants(record, runs)
                reached |= candidates
                infected |= candidates & record.infected
                killed |= candidates & record.killed
                if not lazy:
                    open_ &= ~killed
                elif stop == MutantStatus.INFECTED:
                    open_ &= ~infected
                else:
                    open_ &= ~reached
        return reached, infected, killed

    def _run_mutants(self, record: CallRecord, runs: int) -> None:
        """Run the mutants whose ids are the positions in ``runs`` on one
        call and record their outcomes."""
        mutants = self.mutants
        for position in bit_positions(runs):
            status = classify_against_mutant(mutants[position], record.function, record.args,
                                             record.result, self.interp, record.schema).status
            if status >= MutantStatus.INFECTED:
                record.infected |= 1 << position
                if status is MutantStatus.KILLED:
                    record.killed |= 1 << position
        record.unrun &= ~runs
        if not record.unrun:
            record.schema = None

    def classify(self, mutant: Mutant, tests: Iterable[TestCase],
                 stop: MutantStatus = MutantStatus.KILLED) -> MutantStatus:
        """Highest status the tests' calls reach on one mutant of this
        context's list, as ``fold`` finds it: a fold with ``stop`` below
        KILLED may so return INFECTED for a mutant that a later call kills."""
        reached, infected, killed = self.fold(tests, stop, 1 << mutant.mutant_id)
        if killed:
            return MutantStatus.KILLED
        if infected:
            return MutantStatus.INFECTED
        return MutantStatus.REACHED_NOT_INFECTED if reached else MutantStatus.NOT_REACHED

    def stage_sum(self, suite: TestSuite, stages: dict, stop: MutantStatus) -> float:
        """Sum of ``stages`` at each mutant's ``fold`` status: one weight
        times a count per status, exact because every weight is a multiple
        of 0.25."""
        mutants = self.mutants
        if not mutants:
            raise ValueError("mutation score is undefined for an empty mutant list")
        reached, infected, killed = (mask.bit_count() for mask in self.fold(suite, stop))
        return (stages[MutantStatus.NOT_REACHED] * (len(mutants) - reached)
                + stages[MutantStatus.REACHED_NOT_INFECTED] * (reached - infected)
                + stages[MutantStatus.INFECTED] * (infected - killed)
                + stages[MutantStatus.KILLED] * killed)

    def mutation_score(self, suite: TestSuite, mode: str) -> float:
        """Percentage of mutants detected: infected-or-killed (weak) or killed (strong)."""
        if mode not in _DETECTED:
            raise ValueError(f"unknown mutation mode {mode!r}")
        stop, detected = _DETECTED[mode]
        return 100.0 * self.stage_sum(suite, detected, stop) / len(self.mutants)

    def test_pair_distance(self, a: TestCase, b: TestCase) -> int:
        return self.diversity((a, b))

    def diversity(self, suite: TestSuite) -> int:
        """The summed distance of every unordered pair of the suite's tests."""
        lines = [self.rendered_lines(test) for test in suite]
        keys = [_pair_key(a, b) for i, a in enumerate(lines) for b in lines[i + 1:]]
        memo = self._pair_distance
        # each test's partners in the pairs the memo lacks, in first-seen order
        partners: dict[tuple[str, ...], dict[tuple[str, ...], None]] = {}
        for a, b in keys:
            if (a, b) not in memo:
                partners.setdefault(a, {})[b] = None
                partners.setdefault(b, {})[a] = None
        if partners:
            steps = []  # (stepped test, its missing partners), in cover order
            read: dict[tuple[str, ...], None] = {}  # every missing partner, in first-read order
            while partners:
                stepped = max(partners, key=lambda test: len(partners[test]))
                missing = partners.pop(stepped)
                for other in missing:
                    rest = partners.get(other)  # None for ``stepped`` itself
                    if rest is not None:
                        del rest[stepped]
                        if not rest:
                            del partners[other]
                steps.append((stepped, missing))
                read.update(missing)
            tables = []
            for test in read:
                table = self._packed.get(test)
                if table is None:
                    table = self._packed[test] = pack_lines(test)
                tables.append(table)
            packed, blocks = pack_side_by_side(tables)
            mask = packed.mask
            width = mask.bit_length()
            # a block's lane bits twice, to read pv in the upper half and mv in the lower
            block_of = {test: ((bits << width) | bits, count, bits.bit_count())
                        for test, (bits, count) in zip(read, blocks)}
            texts = {line for stepped, _ in steps for line in stepped}
            ends = {line: (pv << width) | (mask ^ mv)
                    for line, (pv, mv) in end_columns(packed, texts).items()}
            for stepped, missing in steps:
                length = sum(map(len, stepped))
                columns = [ends[line] for line in stepped]
                rows = len(columns)
                for other in missing:
                    both, count, ones = block_of[other]
                    total = count * length - rows * ones
                    for column in columns:
                        total += (column & both).bit_count()
                    memo[_pair_key(stepped, other)] = total
        return sum(map(memo.__getitem__, keys))


def _pair_key(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (a, b) if a <= b else (b, a)


def suite_diversity(suite: TestSuite, ctx: FitnessContext) -> tuple[int, float]:
    """Pairwise rendered-statement distance summed over unordered test pairs.

    Returns (diversity, fitness) with fitness = 1 / (1 + diversity); a suite
    with at most one test has no pairs and scores fitness 1.0.

    Each unordered pair of rendered tests is scored once per context. The
    pairs the context lacks are scored in one batch: a greedy cover picks
    the tests to step, the tables of the tests they are read against are
    packed side by side once, as blocks of one pattern, and one
    ``end_columns`` sweep over it steps the distinct lines of the picked
    tests (see ``FitnessContext``).
    """
    div = ctx.diversity(suite)
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
    return _uncovered(suite, ctx, "returns", len(ctx.function_names))


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
        if bucket in _BUCKETS["int"]:
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
