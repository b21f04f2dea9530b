"""Replay generated suites through the independent oracle in ``tests/oracles.py``.

For one successful trial this confirms, from ``SearchResult.to_dict``:

- the ``fault_detected`` flag, by running every test on the fixed and the
  faulty program and comparing per-call outcomes;
- each test's claimed exception goals, against the exceptions its calls
  raise under the oracle;
- each test's claimed method goals, against the functions the oracle
  enters (the entry function, and every callee whose parameters
  type-check, which is when the interpreter records the call);
- each claimed killed mutant, with ``full_reexecution_status``.

The oracle records a statement only once it completes, so when the mutated
statement raises in the base run (``return s[2]`` on a short string) it
reports ``NOT_REACHED`` although the interpreter reached the line. A claimed
kill therefore also stands when the oracle reports ``NOT_REACHED`` and its
per-call outcomes of the base and the mutant differ, which is the oracle's
own kill criterion without its reachability gate.

The oracle's step budget is set to the interpreter's step limit, so that a
call stopped by the limit stops at the same tick in both (the oracle ticks
once per statement and once per expression node, as the interpreter does).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from affsgen.minilang.interpreter import InterpConfig, kind_of
from affsgen.mutation import MutantStatus, generate_mutants
from affsgen.testmodel import CallStmt, TestCase


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` by path; the tests directory is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class OracleChecker:
    def __init__(self, oracles, interp: InterpConfig):
        self.oracles = oracles
        oracles._STEP_BUDGET = interp.step_limit + 1
        self._entered: set[str] | None = None
        self._mutants: dict[str, list] = {}
        self._memo: dict = {}
        self._oracle_run = oracles.oracle_run
        original_call = oracles._call

        def recording_call(name, args, caller, program, steps, events):
            if self._entered is not None:
                fn = program.function(name)
                if all(kind_of(v) == kind for (_, kind), v in zip(fn.params, args)):
                    self._entered.add(name)
            return original_call(name, args, caller, program, steps, events)

        # the oracle looks both up as module globals, so nested calls are
        # recorded and full_reexecution_status reuses memoized base runs
        oracles._call = recording_call
        oracles.oracle_run = lambda program, test: self._run(program, test)[:2]

    def _run(self, program, test: TestCase):
        """(outcomes, events, entered functions), memoized within one trial."""
        key = (id(program), test)
        hit = self._memo.get(key)
        if hit is None:
            self._entered = set()
            try:
                outcomes, events = self._oracle_run(program, test)
                hit = self._memo[key] = (outcomes, events, self._entered)
            finally:
                self._entered = None
        return hit

    def mutants_of(self, pair) -> list:
        mutants = self._mutants.get(pair.fault_id)
        if mutants is None:
            mutants = self._mutants[pair.fault_id] = generate_mutants(pair.fixed_program)
        return mutants

    def check(self, pair, result: dict, detected: bool) -> list[str]:
        """Mismatches between a trial's claims and the oracle; empty when all hold."""
        problems: list[str] = []
        oracle_detected = False
        self._memo.clear()
        for idx, entry in enumerate(result["tests"]):
            test = TestCase(tuple(CallStmt(c["function"], tuple(c["args"]))
                                  for c in entry["calls"]))
            fixed_outcomes, _, entered = self._run(pair.fixed_program, test)
            faulty_outcomes = self._run(pair.faulty_program, test)[0]
            oracle_detected |= fixed_outcomes != faulty_outcomes

            claimed = set(entry["covered_goals"])
            if result["goal"] == "exceptions":
                oracle = {f"exception:{o[1]}@{o[2]}" for o in fixed_outcomes if o[0] == "raise"}
            elif result["goal"] == "diversity":
                oracle = {f"method:{name}" for name in entered}
            else:
                oracle = claimed
                for label in sorted(claimed):
                    mutant = self.mutants_of(pair)[int(label.split(":", 1)[1])]
                    status = self.oracles.full_reexecution_status(mutant, test)
                    if status == MutantStatus.NOT_REACHED and (
                            self._run(mutant.mutated_program, test)[0] != fixed_outcomes):
                        status = MutantStatus.KILLED
                    if status != MutantStatus.KILLED:
                        problems.append(f"test {idx}: claims {label} killed, "
                                        f"oracle says {status.name}")
            if claimed != oracle:
                problems.append(f"test {idx}: claims {sorted(claimed)}, oracle {sorted(oracle)}")
        if oracle_detected != detected:
            problems.append(f"fault_detected={detected}, oracle replay says {oracle_detected}")
        return problems
