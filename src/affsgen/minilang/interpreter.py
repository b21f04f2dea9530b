"""Compiled, instrumented execution of MiniJ programs.

Each base program is compiled once, lazily on its first run, into a Python
module (``codegen``) that serves every run of the program and of its
mutants. A static analysis of the program (``analysis``), found once with
the module, proves the kinds its variables and returns hold in it and in
every mutant, so the module checks no kind it proves. A traced run, one of
a base program without side evaluations, runs the instrumented variant:
one function per MiniJ function, recording as it goes. Every other run
takes the lean variant, with a guard at every statement root, in the form
of mutant schemata (Untch, Offutt and Harrold, ISSTA 1993): a mutated
program runs its base's lean code with a hook at its root, which evaluates
a small, separately compiled alternative there, or skips the whole
statement of a deleted assignment. A run with sides redoes its program's
own schema (see ``Sides``). A base program's run takes the program's
schema shape, generated from the lean variant and the program's mutant
list: it evaluates every root inline, and at each root a mutant replaces
it counts the evaluation and calls the alternatives of the mutants still
pending there in the run. A mutated program's run takes the lean variant
with a hook, built for the run, that counts the evaluations of its own
root, and its loops are never cut. A compiled module is the one home of
all that depends on a base program's text alone: its code, its analysis,
its alternatives, its mutants and the one schema shape built from them.
Every program of that text shares it, through a plan that holds no
program, so reference counting frees a caller's program (``module_of``).
Modules are cached, keyed by the source text, and the cache holds a
bounded number of them. ``precompile`` compiles ahead what a program's
runs, and its mutants' runs, would compile on first use, so that forked
worker processes inherit it.

A traced run records the statements reached, each branch's least distances
toward both outcomes (over all frames, and over the entry frame alone), the
names of the functions called, the step count and the final outcome.
Every other run, a kill run of a mutated program or a run with side
evaluations, records only the step count and the outcome. Execution is
deterministic and bounded by a step limit.

Runs are cut short, exactly, where a loop's passes follow in closed form
(see ``codegen``). A loop that moves each variable of its condition, a
comparison of affine ints, by a fixed amount per pass raises the run's
``StepLimitExceeded`` at once when the condition provably holds on every
pass up to the limit, and goes to the head of the pass on which it first
fails, if it can tell the variables there, when that pass is within the
limit: a jump (``analysis.Jump``). A kill run jumps as the
loop starts, by the jump each mutated program builds for its own version
of the loop. Traced and schema runs take the base program's own jumps,
which ``execute`` passes in their contexts, and jump at the head of the
loop's second pass, recording what the skipped passes would have: a traced
run their least branch distance, and a schema run their evaluations and
infections at its mutation sites, when every alternative pending there has
a closed form. And past ``codegen.CYCLE_CHECK_AFTER`` steps of a kill run,
or of a redo inside a run with sides, a loop whose control slice repeats
its state jumps by whole periods to just below the limit. Either way the
run ends as it would have. A mutated program's run with sides counts each
evaluation of its root and is never cut.

Semantics worth knowing:
  * Every expression node and every statement takes one step.
  * Arithmetic is integer-only; division truncates toward zero and raises
    ``DivByZero`` on a zero divisor.
  * ``+`` concatenates two strings; all other operand mixes are a
    ``TypeError`` (the in-language kind, not Python's). A bool is not an
    int.
  * Ordering comparisons require numeric operands (bools count as 0/1);
    ``==``/``!=`` additionally accept two strings. Numbers compare
    exactly, at any size.
  * ``s[i]`` raises ``IndexOutOfBounds`` outside ``0 <= i < len(s)``.
  * A function body that ends without ``return`` yields the int 0.
  * Exceeding the step limit or ``MAX_CALL_DEPTH`` nested calls raises
    ``StepLimitExceeded``. One MiniJ activation takes at most a few Python
    frames, so the deepest recursion ends that way well before Python's
    recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from affsgen.minilang.nodes import Expr, Program
from affsgen.minilang.parser import expr_source, to_source

__all__ = [
    "DIV_BY_ZERO", "EXPLICIT_THROW", "INDEX_OUT_OF_BOUNDS", "STEP_LIMIT_EXCEEDED",
    "TYPE_ERROR", "MAX_CALL_DEPTH", "ArityError", "ExceptionRecord", "ExecutionResult",
    "InterpConfig", "MiniJError", "Raised", "Returned", "Sides",
    "UnknownFunctionError", "execute", "kind_of", "merge_best", "module_of", "precompile",
    "string_eq_distance",
]

DIV_BY_ZERO = "DivByZero"
INDEX_OUT_OF_BOUNDS = "IndexOutOfBounds"
EXPLICIT_THROW = "ExplicitThrow"
STEP_LIMIT_EXCEEDED = "StepLimitExceeded"
TYPE_ERROR = "TypeError"

Value = Union[int, bool, str]

# Deepest MiniJ call depth: a call made at depth MAX_CALL_DEPTH - 1 raises
# StepLimitExceeded. A MiniJ activation stacks one Python frame, plus two per
# hooked root it is inside (the hook and the alternative it calls), so the
# deepest recursion stacks about 150 frames and stays below Python's default
# recursion limit of 1000 even when execute is called from 700 frames deep.
# Everything a run calls is compiled before it starts, so code generation
# never adds to that stack; but a run that compiles first stacks codegen's
# frames at its own depth: compiling the deepest nesting the parser admits
# takes up to about 260 frames, so ``precompile`` such a program from a
# shallow depth before calling execute from a deep one.
MAX_CALL_DEPTH = 50

# compiled base texts kept, the one least recently looked up evicted first. A
# program keeps its own module once it has run, so the bound only decides
# what a freshly parsed copy of the same source finds already built. An
# experiment builds every corpus program before its pool starts (see
# ``harness``), so 64 entries let a process that runs several experiments
# over one corpus, each parsing it anew, generate each program's mutants and
# compile its code once: on a 2-vCPU Xeon, preparing the 24 freshly parsed
# programs of the corpus (their mutants, and all that ``precompile``
# compiles) took a median of 0.0007 s with their modules kept, against
# 0.13 s cold (9 repeats each); the static analysis, which shrank the
# generated source from 237 155 to 186 081 characters, cut the cold time
# from 0.15 s.
_MODULE_CACHE = 64


class UnknownFunctionError(ValueError):
    """Entry call names a function that does not exist in the program."""


class ArityError(ValueError):
    """Entry call argument count or kinds do not match the signature."""


# built once per raise; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class ExceptionRecord:
    kind: str
    raising_function: str
    tag: str | None = None

    @property
    def identity(self) -> tuple[str, str]:
        """(kind label, raising function) pair; the tag is part of the label."""
        label = self.kind if self.tag is None else f"{self.kind}:{self.tag}"
        return (label, self.raising_function)


class MiniJError(Exception):
    """In-language exception, with the step count it was raised at; caught
    at the entry boundary."""

    def __init__(self, kind: str, raising_function: str, steps: int, tag: str | None = None):
        super().__init__(kind)
        self.record = ExceptionRecord(kind=kind, raising_function=raising_function, tag=tag)
        self.steps = steps


# built once per run; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class Returned:
    value: Value


# built once per run; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True, unsafe_hash=True)
class Raised:
    record: ExceptionRecord


Outcome = Union[Returned, Raised]


# built once per run; not frozen, which saves 0.1–0.2 µs a field per build on 3.11; never written
@dataclass(slots=True)
class ExecutionResult:
    """What one entry call did.

    A traced run, one of a base program without side evaluations, fills
    every field. Every other run (a kill run, of a mutated program, or any
    run with sides) fills only ``outcome`` and ``steps``, and the rest is
    empty. ``branch_best`` maps each branch evaluated to its least distances
    toward true and false, ``[best_true, best_false]``, over all frames and
    ``branch_best_direct`` over the entry frame; memos share them, so they
    are never written. A program without calls runs only in its entry
    frame, so its traced runs give both fields one dict.
    """

    lines_hit: frozenset[int]
    branch_best: dict[int, list[float]]
    branch_best_direct: dict[int, list[float]]
    called_functions: frozenset[str]
    outcome: Outcome
    steps: int


@dataclass(frozen=True, slots=True)
class InterpConfig:
    step_limit: int = 10_000

    def __post_init__(self):
        if type(self.step_limit) is not int or self.step_limit < 1:
            raise ValueError(f"step_limit must be an int of at least 1, not {self.step_limit!r}")


# the MiniJ kind of each Python type an entry call may pass; a value of any
# other type, a subclass of these included, is rejected
_ENTRY_KINDS = {int: "int", bool: "bool", str: "str"}


def kind_of(value: Value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    return "str"


# --- string distance -------------------------------------------------------


def string_eq_distance(a: str, b: str) -> float:
    """Character-wise distance for string equality: 0 iff the strings match."""
    common = min(len(a), len(b))
    mismatches = sum(1 for i in range(common) if a[i] != b[i])
    return float(abs(len(a) - len(b)) + mismatches)


def merge_best(table: dict, branch_id: int, distance_true: float, distance_false: float):
    """Lower ``table[branch_id]``, a ``[best_true, best_false]`` list, to the given
    distances where they are less; a branch not in the table gets a new list."""
    best = table.get(branch_id)
    if best is None:
        table[branch_id] = [distance_true, distance_false]
        return
    if distance_true < best[0]:
        best[0] = distance_true
    if distance_false < best[1]:
        best[1] = distance_false


# --- compiled programs -------------------------------------------------------


class _Unbound:
    """The value of a MiniJ variable that no statement has bound yet."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unbound>"


def _crossed(record, limit: int, start: int, line: int, fname: str) -> MiniJError:
    """The error of a group of ticks from ``start`` that crosses ``limit``,
    after recording its statement's line if that first tick lies within it."""
    if start < limit:
        record(line)
    return MiniJError(STEP_LIMIT_EXCEEDED, fname, limit + 1)


class _Compiled:
    """Everything that depends on one base program's text alone, shared by
    every program of that text: its functions, in the instrumented and the
    lean variant, and the lean alternatives compiled into it, each on first
    use (``roots`` holds the lean variant's hook information); the
    ``mutants`` that ``mutation.mutants_of`` generates from its own copy of
    the program, and the ``schema`` built from them; and the program's
    static ``analysis``, found on first use, which fills ``jumps``."""

    __slots__ = ("program", "namespace", "roots", "index", "jumps", "mutants",
                 "_functions", "_alternatives", "_schema", "_analysis")

    def __init__(self, program: Program):
        # a copy: the caller's program keeps this module in its plan, and
        # this must not keep the caller's program
        self.program = replace(program, _compiled=None)
        self.namespace = dict(_RUNTIME)
        self.roots: dict = {}
        self.index = {fn.name: i for i, fn in enumerate(program.functions)}
        self.jumps: dict = {}  # the program's own loops' jumps
        # the plan of every program of the text, the copy's included (see ``_plan``)
        self.program._compiled = [self, _NO_HOOKS, self.jumps]
        self.mutants: list | None = None
        self._functions: list = [None, None]  # lean, instrumented
        self._alternatives: dict[tuple[int, str], object] = {}
        self._schema: tuple | None = None
        self._analysis = None

    def _exec(self, source: str, name: str) -> None:
        exec(compile(source, f"<minij {self.program.source_id} {name}>", "exec"), self.namespace)

    def analysis(self):
        """The program's ``analysis.Analysis``, sound for every mutant of it."""
        found = self._analysis
        if found is None:
            from affsgen.minilang import analysis  # imported on the first run, as codegen is

            found = self._analysis = analysis.Analysis(self.program)
            self.jumps.update(found.own_jumps)
        return found

    def functions(self, instrumented: bool) -> list:
        """The program's functions in one variant, in program order."""
        functions = self._functions[instrumented]
        if functions is None:
            from affsgen.minilang import codegen  # imported on the first run, not with the package

            prefix = "I" if instrumented else "K"
            source, roots = codegen.program_source(self.program, prefix, self.analysis())
            if not instrumented:
                self.roots = roots
            self._exec(source, prefix)
            functions = self._functions[instrumented] = [
                self.namespace[f"{prefix}{i}"] for i in range(len(self.program.functions))]
        return functions

    def alternative(self, node_id: int, expr: Expr):
        """``expr`` evaluated in place of root ``node_id``, as a lean function."""
        key = (node_id, expr_source(expr))
        fn = self._alternatives.get(key)
        if fn is None:
            from affsgen.minilang import codegen

            self.functions(False)  # what the root's code may call, and its hook information
            name = f"A{len(self._alternatives)}"
            self._exec(codegen.root_source(name, self.roots[node_id], expr, self.program,
                                           self.analysis()), name)
            fn = self._alternatives[key] = self.namespace[name]
        return fn

    def schema(self) -> tuple:
        """How the program's runs with sides run, built on the first such
        run, or by ``precompile``; every alternative they call is compiled
        then, before any run starts.

        They take its schema shape (see ``codegen``): ``(functions, roots,
        redos)``, its functions in that shape, the node id of each of its
        mutation sites, by index, and for each site the ``(mutant id,
        alternative, hooks)`` of the mutants there, in mutant order; a
        deleted assignment's alternative is None, and each mutant's own
        hooks are its plan's. Each alternative at a root of a loop that may
        jump leaves its closed form with that loop's jump
        (``analysis.Jump.learn``)."""
        built = self._schema
        if built is not None:
            return built
        if self.mutants is None:
            raise ValueError(f"{self.program.source_id}: a run with sides redoes the program's "
                             "mutants, which mutation.mutants_of generates")
        from affsgen.minilang import codegen

        owners = self.analysis().owners
        redos: dict[int, list[tuple]] = {}
        for mutant in self.mutants:
            mutated = mutant.mutated_program
            own = _plan(mutated)[1]  # a deleted assignment's alternative is None
            alternative = own[mutated.root_id]
            redos.setdefault(mutated.root_id, []).append((mutant.mutant_id, alternative, own))
            jump = self.jumps.get(owners.get(mutated.root_id))
            if jump is not None:  # in a loop that may jump: the alternative's closed form
                jump.learn(mutated.root_id, mutated.alt_root, alternative)
        roots = tuple(redos)
        source, _ = codegen.program_source(self.program, "Q", self.analysis(), roots)
        self._exec(source, "Q")
        functions = [self.namespace[f"Q{i}"] for i in range(len(self.program.functions))]
        built = self._schema = (functions, roots, tuple(tuple(redo) for redo in redos.values()))
        return built


_MODULES: dict[str, _Compiled] = {}
_NO_HOOKS: dict = {}  # shared by every base program's plan; never written
_NO_JUMPS: dict = {}  # the jumps of a redo; never written


def module_of(program: Program) -> _Compiled:
    """The compiled module of ``program``'s base text: the one its plan
    holds, or the cached one of its text, made now if there is none. It
    compiles nothing and finds no analysis, and it sets no plan."""
    plan = program._compiled
    if plan is not None:
        return plan[0]
    if program.base is not None:
        return module_of(program.base)
    key = to_source(program)
    module = _MODULES.pop(key, None)
    if module is None:
        module = _Compiled(program)
        while len(_MODULES) >= _MODULE_CACHE:
            del _MODULES[next(iter(_MODULES))]
    _MODULES[key] = module
    return module


def _plan(program: Program) -> list:
    """The compiled module a program runs on, its hooks and its loops'
    jumps (branch id to ``analysis.Jump``), found once per program and kept
    on it. A base program shares its module's plan. A mutated program
    shares its base's jumps, but for the loop its root is in, which it
    builds from its own AST. A copy of the program drops it."""
    plan = program._compiled
    if plan is not None:
        return plan
    if program.base is None:
        plan = program._compiled = module_of(program).program._compiled
        return plan
    # the base may itself be mutated: keep its hooks and jumps under this one
    module, hooks, jumps = _plan(program.base)
    alternative = (None if program.alt_root is None
                   else module.alternative(program.root_id, program.alt_root))
    plan = program._compiled = [module, {**hooks, program.root_id: alternative},
                                module.analysis().jumps(program, jumps)]
    return plan


# --- side evaluations --------------------------------------------------------


class Sides:
    """What one run with sides finds at the roots of its program's own schema.

    A base program's schema is the mutant list of its text, which
    ``mutation.mutants_of`` keeps on its compiled module: each mutant is one
    alternative, keyed by its ``mutant_id``, its position in the list, at
    the statement root its ``mutated_program`` replaces, in mutant order.
    A mutated program's
    schema is its own root, with no alternative. At every evaluation of a
    listed root the run counts the evaluation in ``evals`` (root id to
    ``[values, raises]``) and then, for each alternative whose key is not
    yet ``infected``, redoes the root as the mutated program would, in the
    same environment and from the root's step count, so the run's outcome
    and step count are untouched; like a kill run, the run fills only those
    two. The key becomes ``infected`` when the redo's kinded value or raise
    identity differs from the root's, and ``drifted`` when only the step
    count after it does. A deleted assignment's redo takes the old value of
    its variable, without a step. A base program's run fills ``evals`` as
    it ends, and a mutated program's as it goes, through a hook that the
    run builds around its own root's. Instances hash by identity, so a
    call's arguments stay hashable.
    """

    __slots__ = ("evals", "infected", "drifted")

    def __init__(self):
        self.evals: dict[int, list[int]] = {}
        self.infected: set = set()
        self.drifted: set = set()


def _redo_raise(err: MiniJError, site: int, start: int, C, D: int, *env) -> None:
    """Count a raise at mutation site ``site`` of a schema run with context
    ``C``, whose root's evaluation from step ``start`` raised ``err``, and
    redo the alternatives pending there on the root's variables ``env``, as
    the schema shape does after a value (see ``codegen``): only one that
    raises the same error stays pending. An ``err`` of the step limit with
    ``start`` past it came from the statement's own tick before the root,
    which then was not evaluated."""
    limit, pending, counts, sides, _ = C
    if start > limit:
        return
    counts[2 * site + 1] += 1
    identity = err.record.identity
    kept = []
    for item in pending[site]:
        key, alternative, own = item
        if alternative is not None:
            try:
                alternative((limit, own, _NO_JUMPS), start, D, *env)
            except MiniJError as other:
                if other.record.identity == identity:
                    kept.append(item)
                    continue
        sides.infected.add(key)
    pending[site] = kept


# the names generated code reads besides its own functions (see ``codegen``)
_RUNTIME = {"E": MiniJError, "X": _crossed, "U": _Unbound(), "SD": string_eq_distance,
            "MB": merge_best, "RE": _redo_raise, "NJ": _NO_JUMPS}


def _counting_hook(node_id: int, inner, evals: dict):
    """A mutated program's own root, evaluated through ``inner`` and
    counted in ``evals``, its run's ``Sides.evals``."""

    def hook(C, S, D, *env):
        counts = evals.get(node_id)
        if counts is None:
            counts = evals[node_id] = [0, 0]
        try:
            result = inner(C, S, D, *env)
        except MiniJError:
            counts[1] += 1
            raise
        counts[0] += 1
        return result

    return hook


def precompile(program: Program) -> None:
    """Compile now what later runs of ``program`` would compile on their
    first use: a mutated program's alternative, or a base program's traced
    variant and, once ``mutation.mutants_of`` has generated its mutants, the
    lean variant their kill runs run, even when every one is a deleted
    assignment, and its schema with every alternative. Nothing runs."""
    module = _plan(program)[0]
    if program.base is None:
        module.functions(True)
        if module.mutants is not None:
            module.functions(False)  # what its mutants' kill runs run
            module.schema()


# --- execution -------------------------------------------------------------------


_EMPTY: frozenset = frozenset()
_NO_BRANCHES: dict = {}  # the branch tables of every run that is not traced; never written


def execute(
    program: Program,
    entry: str,
    args: tuple[Value, ...] | list[Value],
    config: InterpConfig = InterpConfig(),
    sides: Sides | None = None,
) -> ExecutionResult:
    """Run one entry call and return its result.

    A base program's run without ``sides`` is traced; every other run fills
    only ``outcome`` and ``steps`` (see ``ExecutionResult``). With
    ``sides``, the run also evaluates its program's own schema at its roots
    and records what it finds there in ``sides`` (see ``Sides``); its
    outcome and step count are the same as without. A base program's run
    with sides takes its schema shape (see ``_Compiled.schema``), a mutated
    program's the lean variant with its own root counted and no loop cut.

    Raises UnknownFunctionError / ArityError for malformed entry calls, and
    ValueError for a run with sides of a base program whose mutants are
    not generated yet; every in-language failure is captured as a Raised
    outcome instead.
    """
    fn = program.function(entry)
    if fn is None:
        raise UnknownFunctionError(f"no function named {entry!r}")
    if len(args) != len(fn.params):
        raise ArityError(f"{entry} expects {len(fn.params)} args, got {len(args)}")
    for (pname, pkind), value in zip(fn.params, args):
        kind = _ENTRY_KINDS.get(type(value))
        if kind != pkind:
            got = kind or f"Python {type(value).__name__}"
            raise ArityError(f"{entry} parameter {pname!r} expects {pkind}, got {got}")

    module, hooks, jumps = program._compiled or _plan(program)
    limit = config.step_limit
    index = module.index[entry]
    traced = program.base is None and sides is None
    counts = None
    if traced:
        function = module.functions(True)[index]
        lines: set[int] = set()
        best: dict[int, list[float]] = {}
        # without calls every frame is the entry frame
        best_direct: dict[int, list[float]] = {} if module.analysis().calls else best
        called = {entry}
        context = (limit, lines.add, best, best_direct, called.add, jumps)
    elif program.base is not None:
        function = module.functions(False)[index]
        if sides is None:
            context = (limit, hooks, jumps)
        else:
            # its own root counted, and the loops never cut (see ``codegen``); a
            # deleted statement never runs
            inner = hooks[program.root_id]
            if inner is not None:
                hooks = {**hooks, program.root_id: _counting_hook(program.root_id, inner,
                                                                  sides.evals)}
            context = (limit, hooks, None)
    else:
        functions, roots, redos = module._schema or module.schema()
        function = functions[index]
        infected = sides.infected
        # every run shares the sites' tuples; it replaces one by a list of
        # the mutants still pending there once one of them is infected
        pending = list(redos) if not infected else [
            [item for item in redo if item[0] not in infected] for redo in redos]
        counts = [0] * (2 * len(roots))
        context = (limit, pending, counts, sides, jumps)
    outcome: Outcome
    try:
        value, steps = function(context, 0, 0, *args)
        outcome = Returned(value)
    except MiniJError as err:
        outcome, steps = Raised(err.record), err.steps
    finally:
        if counts is not None:
            for node, values, raises in zip(roots, counts[::2], counts[1::2]):
                if values or raises:
                    total = sides.evals.setdefault(node, [0, 0])
                    total[0] += values
                    total[1] += raises
    if not traced:
        return ExecutionResult(_EMPTY, _NO_BRANCHES, _NO_BRANCHES, _EMPTY, outcome, steps)
    return ExecutionResult(frozenset(lines), best, best_direct, frozenset(called), outcome, steps)
