"""Suite diversity scored in batches: against the pair-by-pair reference,
the block pass against the full-matrix edit distance, and the work done."""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from affsgen import fitness
from affsgen.fitness import (
    FitnessContext,
    pack_lines,
    pack_side_by_side,
    packed_distance,
    suite_diversity,
)
from affsgen.harness import load_corpus
from affsgen.minilang import parse
from affsgen.testmodel import CallStmt, GenConfig, TestCase, random_test_case
from oracles import PairwiseDiversity, dp_levenshtein

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
EMPTY = TestCase(calls=())  # renders to no lines


def _summed_dp(lines, other_lines):
    return sum(dp_levenshtein(x, y) for x in lines for y in other_lines)


# --- against the pair-by-pair reference -------------------------------------------


@pytest.mark.parametrize("index", range(12))
def test_batched_diversity_equals_the_pairwise_reference_on_the_corpus(index):
    program = load_corpus(CORPUS)[index].fixed_program
    rng = random.Random(index)
    tests = [random_test_case(program, rng, GenConfig(max_calls_per_test=4)) for _ in range(10)]
    suites = [
        tuple(tests[:2]),
        tuple(tests[:4]),
        (tests[3], tests[3], tests[5], EMPTY, tests[3]),  # duplicates and an empty test
        tuple(tests[2:8]),
        (EMPTY, EMPTY),
        tuple(tests),
        tuple(tests[6:]) + (tests[0], tests[0], EMPTY),
        tuple(tests[:4]),  # every pair already scored
        tuple(reversed(tests)) + (EMPTY,),
    ]
    ctx, reference = FitnessContext(program), PairwiseDiversity()
    for suite in suites:
        assert suite_diversity(suite, ctx) == reference.suite_diversity(suite)
        assert ctx._pair_distance == reference._pair_distance, program.source_id
        # a few pairs scored on their own in between, some of them new
        for _ in range(3):
            a = rng.choice(tests + [EMPTY])
            b = random_test_case(program, rng) if rng.random() < 0.5 else rng.choice(tests)
            assert ctx.test_pair_distance(a, b) == reference.test_pair_distance(a, b)
            assert ctx._pair_distance == reference._pair_distance, program.source_id
    assert not ctx._line_distance


# --- the block pass ---------------------------------------------------------------


# empty lines, runs of one character, non-ASCII text, and lines longer than
# a 64-bit word, so that a block spans more than one word
_LINE = st.one_of(
    st.just(""),
    st.text(alphabet="ab(,é中", max_size=70),
    st.builds(lambda c, n: c * n, st.sampled_from("aé"), st.integers(0, 70)),
    st.text(max_size=20),
)
_TEST = st.lists(_LINE, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(_TEST, st.lists(st.tuples(_TEST, st.booleans()), min_size=1, max_size=12))
@example(("ab", "a" * 65), [((), True), (("a" * 70,), False), (("", ""), True),
                            (("中é", "b" * 64), True)])
@example(("",), [(("a" * 130, "", "ba" * 40), True)])
@example((), [((), True), (("",), True), (("ab",), False)])  # no line to step: no pass
@example(("ab",), [(("a" * 70,), False), (("ab", "b"), False)])  # no block read
def test_the_block_pass_matches_the_dp_oracle(lines, partners):
    # the partners are packed once; a pass reads the flagged blocks only
    packed, blocks = pack_side_by_side(pack_lines(partner) for partner, _ in partners)
    read = [block for block, (_, flagged) in zip(blocks, partners) if flagged]
    totals = [0] * len(read)
    for line in lines:
        totals = [t + d for t, d in zip(totals, packed_distance(packed, line, read))]
    assert totals == [_summed_dp(lines, partner) for partner, flagged in partners if flagged]
    assert len(blocks) == len(partners)


# --- the work done ----------------------------------------------------------------


PROGRAM = parse("""
fn f(a:int, b:int) { return a + b; }
fn g(s:str) { return s; }
""", "div")


def _test(*calls):
    return TestCase(calls=tuple(CallStmt(name, args) for name, args in calls))


SUITE = (
    _test(("f", (1, 2)), ("g", ("ab",))),
    _test(("g", ("a",))),
    _test(("f", (30, 4)), ("f", (5, 6)), ("g", ("",))),
    EMPTY,
)


@pytest.fixture
def passes(monkeypatch):
    """Every ``packed_distance`` pass, as the line it steps."""
    stepped = []
    real = fitness.packed_distance

    def counting(packed, text, *rest):
        stepped.append(text)
        return real(packed, text, *rest)

    monkeypatch.setattr(fitness, "packed_distance", counting)
    return stepped


def test_a_scored_suite_makes_no_pass(passes):
    ctx = FitnessContext(PROGRAM)
    first = suite_diversity(SUITE, ctx)
    assert passes
    passes.clear()
    assert suite_diversity(SUITE, ctx) == first
    assert suite_diversity(tuple(reversed(SUITE[:3])), ctx)[0] == ctx.diversity(SUITE[:3])
    assert passes == []


def test_one_new_test_makes_one_pass_per_line_of_it(passes):
    ctx = FitnessContext(PROGRAM)
    suite_diversity(SUITE, ctx)
    new = _test(("f", (7, 8)), ("g", ("zz",)), ("f", (9, 9)))
    passes.clear()
    suite_diversity(SUITE + (new,), ctx)
    assert passes == list(ctx.rendered_lines(new))


@pytest.fixture
def packings(monkeypatch):
    """Every ``pack_side_by_side`` call, as the list of the tables it merges
    and the blocks it returns."""
    packed = []
    real = fitness.pack_side_by_side

    def recording(tables):
        tables = list(tables)
        pattern, blocks = real(tables)
        packed.append((tables, blocks))
        return pattern, blocks

    monkeypatch.setattr(fitness, "pack_side_by_side", recording)
    return packed


def _random_suites(rng, tests, count=20):
    return [tuple(rng.choice(tests) for _ in range(rng.randint(0, 7))) for _ in range(count)]


def test_each_unordered_pair_is_scored_once_per_context(monkeypatch, packings):
    ctx = FitnessContext(PROGRAM)
    passes = []  # (stepped line, the blocks list it reads, the partners of those blocks)
    real = fitness.packed_distance

    def recording(packed, text, blocks):
        tables, pattern_blocks = packings[-1]
        lines_of = {id(table): lines for lines, table in ctx._packed.items()}
        partner_of = {block: lines_of[id(table)] for table, block in zip(tables, pattern_blocks)}
        passes.append((text, blocks, [partner_of[block] for block in blocks]))
        return real(packed, text, blocks)

    monkeypatch.setattr(fitness, "packed_distance", recording)
    rng = random.Random(4)
    tests = [random_test_case(PROGRAM, rng) for _ in range(8)] + [EMPTY, SUITE[0]]
    for suite in _random_suites(rng, tests):
        suite_diversity(suite, ctx)
        ctx.test_pair_distance(rng.choice(tests), rng.choice(tests))
    # a stepped test's passes come one after another and read one blocks list;
    # their lines are the stepped test's lines
    steps: list[tuple[list[str], list, list]] = []
    for text, blocks, partners in passes:
        if steps and steps[-1][1] is blocks:
            steps[-1][0].append(text)
        else:
            steps.append(([text], blocks, partners))
    scored = [fitness._pair_key(tuple(lines), partner)
              for lines, _, partners in steps for partner in partners]
    assert len(scored) == len(set(scored))
    # an empty test makes no pass when it is the stepped one
    assert all(key[0] == () for key in ctx._pair_distance.keys() - set(scored))
    assert set(scored) <= ctx._pair_distance.keys()


def test_each_diversity_call_merges_each_table_at_most_once(packings):
    ctx = FitnessContext(PROGRAM)
    rng = random.Random(9)
    tests = [random_test_case(PROGRAM, rng) for _ in range(8)] + [EMPTY, SUITE[0], SUITE[0]]
    for suite in _random_suites(rng, tests, 30):
        keys = {fitness._pair_key(ctx.rendered_lines(a), ctx.rendered_lines(b))
                for i, a in enumerate(suite) for b in suite[i + 1:]}
        missing = keys - ctx._pair_distance.keys()
        packings.clear()
        ctx.diversity(suite)
        if not missing:
            assert packings == []
            continue
        [(tables, _)] = packings  # one pattern per call
        assert len({id(table) for table in tables}) == len(tables)
        # the tables merged are those of the tests in the missing pairs, cached
        assert {id(table) for table in tables} == {
            id(ctx._packed[test]) for key in missing for test in key}
