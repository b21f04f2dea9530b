"""Suite diversity scored in batches: against the pair-by-pair reference,
the prefix-sharing sweep against the full-matrix edit distance, the byte
packer against the per-character reference, and the work done."""

import random
import sys
from pathlib import Path
from unittest import mock

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
from oracles import PairwiseDiversity, dp_levenshtein, reference_pack_side_by_side

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
EMPTY = TestCase(calls=())  # renders to no lines


def _summed_dp(lines, other_lines):
    return sum(dp_levenshtein(x, y) for x in lines for y in other_lines)


def _ids_of(key):
    """The two render ids of a ``_pair_distance`` key ``lo << 32 | hi``."""
    return key >> 32, key & 0xFFFFFFFF


def _lines_of(ctx, key):
    """The two renderings a ``_pair_distance`` key names, lower id first."""
    a, b = _ids_of(key)
    return ctx._lines[a], ctx._lines[b]


def _by_lines(ctx):
    """The context's pair memo keyed as ``PairwiseDiversity`` keys its own:
    by the two renderings, in string order."""
    view = {}
    for key, distance in ctx._pair_distance.items():
        a, b = _lines_of(ctx, key)
        view[min(a, b), max(a, b)] = distance
    assert len(view) == len(ctx._pair_distance)  # one entry per pair of renderings
    return view


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
        assert _by_lines(ctx) == reference._pair_distance, program.source_id
        # a few pairs scored on their own in between, some of them new
        for _ in range(3):
            a = rng.choice(tests + [EMPTY])
            b = random_test_case(program, rng) if rng.random() < 0.5 else rng.choice(tests)
            assert ctx.test_pair_distance(a, b) == reference.test_pair_distance(a, b)
            assert _by_lines(ctx) == reference._pair_distance, program.source_id
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
    packed, blocks = pack_side_by_side(partners)
    assert len(blocks) == len(partners)
    ends = end_columns(packed, texts)
    assert ends.keys() == set(texts)
    for text, (pv, mv) in ends.items():
        reads = [count * len(text) + (pv & bits).bit_count() - (mv & bits).bit_count()
                 for bits, count in blocks]
        assert reads == [_summed_dp((text,), partner) for partner in partners]
        assert end_columns(packed, (text,)) == {text: (pv, mv)}


# --- the byte packer -------------------------------------------------------------


def _assert_packs_like_the_reference(tests):
    packed, blocks = pack_side_by_side(tests)
    (peq, lows, mask, count), want = reference_pack_side_by_side(tests)
    assert list(packed.peq.items()) == list(peq.items())  # first-occurrence order too
    assert (packed.lows, packed.mask, packed.count) == (lows, mask, count)
    assert blocks == want


# empty lines, NUL (the first guard candidate), Latin-1 and wider characters
_PACKED_LINE = st.one_of(
    st.just(""),
    st.text(alphabet="ab(\x00\x01é\xff中", max_size=40),
    st.text(max_size=30),
)
_EVERY_BYTE = tuple(map(chr, range(256)))  # no byte left for the guard
_MANY = "".join(map(chr, range(0x4E00, 0x4E00 + 600)))  # 600 distinct characters


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_PACKED_LINE, max_size=5).map(tuple), max_size=8))
@example([])
@example([(), ("",), ()])  # no lane at all
@example([("ab",), (), ("", "ba")])
@example([("a\x00b",), ("\x01",)])  # the guard skips NUL and \x01
@example([_EVERY_BYTE, ("ab",)])
@example([_EVERY_BYTE[128:] + ("中",), _EVERY_BYTE[:128]])
@example([(_MANY, "ab"), ("\x00", _MANY[::-3])])  # more than 255 distinct characters
def test_the_byte_packer_equals_the_per_character_reference(tests):
    _assert_packs_like_the_reference(tests)


def test_a_batch_wider_than_the_int_digit_limit_packs_exactly():
    # far wider than the 4 300 digits ``int`` parses by default in base 10,
    # packed under a lower limit of 640 where the interpreter has one
    wide = [("f(" + "ab" * 2200 + ")", "g(1)"), ("", "x" * 900), (_MANY + "é" * 700,)]
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(640)
    try:
        assert pack_side_by_side(wide[:2])[0].mask.bit_length() > 4300
        _assert_packs_like_the_reference(wide[:2])  # byte-sized characters
        _assert_packs_like_the_reference(wide)  # and remapped ones
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


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
    """Every ``pack_side_by_side`` call, as the list of the renderings it
    packs and the blocks it returns."""
    packed = []
    real = fitness.pack_side_by_side

    def recording(tests):
        tests = list(tests)
        pattern, blocks = real(tests)
        packed.append((tests, blocks))
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
            scored = [_lines_of(ctx, key) for key in memo.writes[written:]]
            if not scored:
                assert sweeps == []
                continue
            # one sweep per call, over the lines of one side of each pair it scores
            [texts] = sweeps
            assert all(set(x) <= set(texts) or set(y) <= set(texts) for x, y in scored)
    assert len(memo.writes) == len(set(memo.writes))
    assert memo.keys() == set(memo.writes)
    # every key is an ordered pair of render ids
    assert all(lo <= hi < len(ctx._lines) for lo, hi in map(_ids_of, memo))


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


def test_each_diversity_call_packs_the_lines_of_each_read_test_once(packings):
    ctx = FitnessContext(PROGRAM)
    rng = random.Random(9)
    tests = [random_test_case(PROGRAM, rng) for _ in range(8)] + [EMPTY, SUITE[0], SUITE[0]]
    for suite in _random_suites(rng, tests, 30):
        ids = sorted(ctx.render_id(test) for test in suite)
        # the missing pairs in the order the call meets them
        missing = list(dict.fromkeys(
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
            if a << 32 | b not in ctx._pair_distance))
        packings.clear()
        ctx.diversity(suite)
        if not missing:
            assert packings == []
            continue
        [(packed, _)] = packings  # one pattern per call
        # the lines packed are those of the tests in the cover's missing
        # lists, each once, and no stepped test's unless it is read too
        assert sorted(packed) == sorted(ctx._lines[test] for test in _cover_reads(missing))


def test_a_new_test_that_is_only_stepped_is_never_packed(packings):
    ctx = FitnessContext(PROGRAM)
    suite_diversity(SUITE, ctx)
    new = _test(("f", (7, 8)), ("g", ("zz",)))
    packings.clear()
    suite_diversity(SUITE + (new,), ctx)  # the new test is in every missing pair
    [(packed, _)] = packings
    assert ctx.rendered_lines(new) not in packed
    assert sorted(packed) == sorted(ctx.rendered_lines(test) for test in SUITE)


def test_tests_that_render_alike_share_one_id_and_one_pair_entry():
    direct = _test(("f", (1, 2)))
    # the same call with its first argument drawn as an alias: the same test
    aliased = TestCase(calls=(CallStmt("f", (1, 2), aliased=1),))
    assert aliased == direct
    ctx = FitnessContext(PROGRAM)
    assert ctx.render_id(aliased) == ctx.render_id(direct)
    assert ctx.rendered_lines(aliased) is ctx.rendered_lines(direct)
    assert len(ctx._renders) == 1 and len(ctx._lines) == 1
    assert ctx.test_pair_distance(direct, aliased) == 0
    other = SUITE[1]
    total = suite_diversity((direct, aliased, other), ctx)[0]
    # the alike pair and the two pairs with ``other`` share two entries
    assert len(ctx._pair_distance) == 2
    assert total == 2 * ctx.test_pair_distance(direct, other)
    assert ctx.test_pair_distance(aliased, other) == ctx.test_pair_distance(direct, other)


def _two_popcount_read(stepped, other):
    """The summed distance of two tests' lines, read as ``packed_distance``
    reads a block: the stepped lines' end columns over ``other``'s pattern,
    one popcount of ``pv`` and one of ``mv`` per line."""
    packed, [(bits, count)] = pack_side_by_side([other])
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
    suite = tuple(_test(("f", (i, 0))) for i in range(len(tests)))
    drawn = dict(zip(suite, tests))
    ctx = FitnessContext(PROGRAM)
    with mock.patch.object(fitness, "render_lines", drawn.__getitem__):
        total = ctx.diversity(suite)
    assert ctx._pair_distance
    for key, distance in ctx._pair_distance.items():
        a, b = _lines_of(ctx, key)
        assert distance == _two_popcount_read(a, b) == _two_popcount_read(b, a)
        assert distance == _summed_dp(a, b)
    assert total == sum(_summed_dp(a, b) for i, a in enumerate(tests) for b in tests[i + 1:])
