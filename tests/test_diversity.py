"""Suite diversity scored in batches: against the pair-by-pair reference,
the prefix-sharing sweep against the full-matrix edit distance, and the
work done."""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from affsgen import fitness
from affsgen.fitness import (
    FitnessContext,
    end_columns,
    pack_lines,
    pack_side_by_side,
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


# --- the prefix-sharing sweep ---------------------------------------------------


# empty lines, runs of one character, non-ASCII text, and lines longer than
# a 64-bit word, so that a block spans more than one word
_LINE = st.one_of(
    st.just(""),
    st.text(alphabet="ab(,é中", max_size=70),
    st.builds(lambda c, n: c * n, st.sampled_from("aé"), st.integers(0, 70)),
    st.text(max_size=20),
)
_TEST = st.lists(_LINE, max_size=6).map(tuple)


@st.composite
def _texts(draw):
    """Lines, with some cut short and some extended, so that texts share
    prefixes, one is a prefix of another, and some come twice."""
    texts = draw(st.lists(_LINE, max_size=6))
    for text in list(texts):
        if draw(st.booleans()):
            texts.append(text[:draw(st.integers(0, len(text)))])
        if draw(st.booleans()):
            texts.append(text + draw(_LINE))
    return tuple(draw(st.permutations(texts)))


_SHARED = ("f(1, 2)", "f(1", "", "f(1, 2)", "f(1, 23)", "中" * 70 + "é", "中" * 70, "g(\"é\")")


@settings(max_examples=200, deadline=None)
@given(_texts(), st.lists(_TEST, min_size=1, max_size=12))
@example(("ab", "a" * 65), [(), ("a" * 70,), ("", ""), ("中é", "b" * 64)])
@example(("",), [("a" * 130, "", "ba" * 40)])
@example((), [(), ("",), ("ab",)])  # no text to step
@example(("ab",), [("a" * 70,), ("ab", "b")])
@example(_SHARED, [_SHARED, ("f(1, 2)",), (), ("中" * 64,)])
def test_the_prefix_sharing_sweep_matches_the_dp_oracle(texts, partners):
    # the partners are packed once; each block is read from the end columns
    packed, blocks = pack_side_by_side(pack_lines(partner) for partner in partners)
    assert len(blocks) == len(partners)
    ends = end_columns(packed, texts)
    assert ends.keys() == set(texts)
    for text, (pv, mv) in ends.items():
        reads = [count * len(text) + (pv & bits).bit_count() - (mv & bits).bit_count()
                 for bits, count in blocks]
        assert reads == [_summed_dp((text,), partner) for partner in partners]
        assert end_columns(packed, (text,)) == {text: (pv, mv)}


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
def sweeps(monkeypatch):
    """Every ``end_columns`` call, as the list of texts it steps."""
    stepped = []
    real = fitness.end_columns

    def recording(packed, texts):
        texts = list(texts)
        stepped.append(texts)
        return real(packed, texts)

    monkeypatch.setattr(fitness, "end_columns", recording)
    return stepped


def test_a_scored_suite_makes_no_pass(sweeps):
    ctx = FitnessContext(PROGRAM)
    first = suite_diversity(SUITE, ctx)
    assert sweeps
    sweeps.clear()
    assert suite_diversity(SUITE, ctx) == first
    assert suite_diversity(tuple(reversed(SUITE[:3])), ctx)[0] == ctx.diversity(SUITE[:3])
    assert sweeps == []


def test_one_new_test_makes_one_sweep_over_its_distinct_lines(sweeps):
    ctx = FitnessContext(PROGRAM)
    suite_diversity(SUITE, ctx)
    new = _test(("f", (7, 8)), ("g", ("zz",)), ("f", (7, 8)))  # one line twice
    sweeps.clear()
    suite_diversity(SUITE + (new,), ctx)
    [texts] = sweeps
    assert sorted(texts) == sorted(set(ctx.rendered_lines(new)))
    assert len(texts) == 2


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


class _WriteLog(dict):
    """A pair memo that logs every key written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


def test_each_unordered_pair_is_scored_once_per_context(sweeps):
    ctx = FitnessContext(PROGRAM)
    ctx._pair_distance = memo = _WriteLog()
    rng = random.Random(4)
    tests = [random_test_case(PROGRAM, rng) for _ in range(8)] + [EMPTY, SUITE[0]]
    for suite in _random_suites(rng, tests):
        a, b = rng.choice(tests), rng.choice(tests)
        for score in (lambda: suite_diversity(suite, ctx), lambda: ctx.test_pair_distance(a, b)):
            sweeps.clear()
            written = len(memo.writes)
            score()
            scored = memo.writes[written:]
            if not scored:
                assert sweeps == []
                continue
            # one sweep per call, over the lines of one side of each pair it scores
            [texts] = sweeps
            assert all(set(x) <= set(texts) or set(y) <= set(texts) for x, y in scored)
    assert len(memo.writes) == len(set(memo.writes))
    assert memo.keys() == set(memo.writes)


def _cover_reads(missing):
    """The tests that ``FitnessContext.diversity``'s greedy cover of the
    ``missing`` pairs reads against a stepped test: those in its missing lists."""
    partners = {}
    for a, b in missing:
        partners.setdefault(a, {})[b] = None
        partners.setdefault(b, {})[a] = None
    read = set()
    while partners:
        stepped = max(partners, key=lambda test: len(partners[test]))
        for other in partners.pop(stepped):
            read.add(other)
            rest = partners.get(other)
            if rest is not None:
                del rest[stepped]
                if not rest:
                    del partners[other]
    return read


def test_each_diversity_call_merges_each_table_at_most_once(packings):
    ctx = FitnessContext(PROGRAM)
    rng = random.Random(9)
    tests = [random_test_case(PROGRAM, rng) for _ in range(8)] + [EMPTY, SUITE[0], SUITE[0]]
    for suite in _random_suites(rng, tests, 30):
        lines = [ctx.rendered_lines(test) for test in suite]
        # the missing pairs in the order the call meets them
        missing = list(dict.fromkeys(
            key for i, a in enumerate(lines) for b in lines[i + 1:]
            if (key := fitness._pair_key(a, b)) not in ctx._pair_distance))
        packings.clear()
        ctx.diversity(suite)
        if not missing:
            assert packings == []
            continue
        [(tables, _)] = packings  # one pattern per call
        assert len({id(table) for table in tables}) == len(tables)
        # the tables merged are those of the tests in the cover's missing
        # lists, cached, and no stepped test's unless it is read too
        assert {id(table) for table in tables} == {
            id(ctx._packed[test]) for test in _cover_reads(missing)}


def test_a_new_test_that_is_only_stepped_is_never_packed():
    ctx = FitnessContext(PROGRAM)
    suite_diversity(SUITE, ctx)
    new = _test(("f", (7, 8)), ("g", ("zz",)))
    suite_diversity(SUITE + (new,), ctx)  # the new test is in every missing pair
    assert ctx.rendered_lines(new) not in ctx._packed
    assert ctx._packed.keys() == {ctx.rendered_lines(test) for test in SUITE}


def _two_popcount_read(stepped, other):
    """The summed distance of two tests' lines, read as ``packed_distance``
    reads a block: the stepped lines' end columns over ``other``'s table,
    one popcount of ``pv`` and one of ``mv`` per line."""
    packed, [(bits, count)] = pack_side_by_side([pack_lines(other)])
    ends = end_columns(packed, stepped)
    return sum(count * len(line) + (ends[line][0] & bits).bit_count()
               - (ends[line][1] & bits).bit_count() for line in stepped)


@settings(max_examples=150, deadline=None)
@given(st.lists(_TEST, min_size=2, max_size=7))
@example([(), ("a" * 70,), ("", "")])  # empty tests, and a read block of empty lines
@example([("ab",), ("",), ("b" * 64 + "a",)])  # a long line in the top lane
@example([("a" * 130, "", "ba" * 40), ("中é", "b" * 64), ("a",), ("a",)])
def test_the_one_mask_read_equals_the_two_popcount_read(tests):
    # a context whose tests render to the drawn lines
    ctx = FitnessContext(PROGRAM)
    suite = tuple(_test(("f", (i, 0))) for i in range(len(tests)))
    ctx._renders.update(zip(suite, tests))
    total = ctx.diversity(suite)
    assert ctx._pair_distance
    for (a, b), distance in ctx._pair_distance.items():
        assert distance == _two_popcount_read(a, b) == _two_popcount_read(b, a)
        assert distance == _summed_dp(a, b)
    assert total == sum(_summed_dp(a, b) for i, a in enumerate(tests) for b in tests[i + 1:])
