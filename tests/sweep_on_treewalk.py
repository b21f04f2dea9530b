"""Replay the ``sweep`` benchmark matrix on compiled code and on the tree walker.

    python tests/sweep_on_treewalk.py

The matrix is the ``sweep`` workload of ``perfbench/workloads.py`` at the
benchmark's seed, 2024: every corpus pair, under each of its goals and
strategies, for its trials and generation budget. Each goal runs serially
through ``harness.run_experiment`` twice: once on compiled code, and once
with the reference tree walker (``tests/treewalk.py``) patched into
``mutation.execute`` and ``tracing.execute``, which every traced, schema
and kill run of a search goes through. The script exits 1 unless each
goal's two trials.csv files agree row for row, apart from
``mean_seconds_per_generation``, and every error row is p06's known
``OverflowError`` (see the interpreter's docstring). The walked replay
takes about ten times as long as the compiled one. pytest does not collect
this file.
"""

from __future__ import annotations

import csv
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import treewalk  # noqa: E402  (next to this file)
from workloads import WORKLOADS  # noqa: E402

from affsgen import mutation, tracing  # noqa: E402
from affsgen.affs import Goal  # noqa: E402
from affsgen.engine import Budget, EngineConfig  # noqa: E402
from affsgen.harness import ExperimentConfig, run_experiment  # noqa: E402
from affsgen.testmodel import GenConfig  # noqa: E402

SEED = 2024


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: v for k, v in row.items() if k != "mean_seconds_per_generation"}
                for row in csv.DictReader(fh)]


def _replay(goal: str, out: Path) -> tuple[list[dict], float]:
    """One goal of the matrix, run serially into ``out``: its rows and seconds."""
    workload = WORKLOADS["sweep"]
    cfg = ExperimentConfig(
        goal=Goal(goal), strategies=list(workload.strategies),
        trials_per_fault=workload.trials, corpus_path=str(ROOT / "corpus"), master_seed=SEED,
        engine=EngineConfig(population_size=workload.population, skip_iter=workload.skip_iter,
                            budget=Budget(generations=workload.generations)),
        generation=GenConfig(max_suite_size=workload.max_suite_size,
                             max_calls_per_test=workload.max_calls_per_test),
        workers=1)
    start = time.perf_counter()
    run_experiment(cfg, out)
    return _rows(out / "trials.csv"), time.perf_counter() - start


def main() -> int:
    equal = errors = 0
    seconds = {"compiled": 0.0, "walked": 0.0}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for goal in WORKLOADS["sweep"].goals:
            compiled, took = _replay(goal, Path(tmp) / "compiled" / goal)
            seconds["compiled"] += took
            with mock.patch.object(mutation, "execute", treewalk.execute), \
                    mock.patch.object(tracing, "execute", treewalk.execute):
                walked, took = _replay(goal, Path(tmp) / "walked" / goal)
            seconds["walked"] += took
            if len(compiled) != len(walked):
                print(f"{goal}: {len(compiled)} compiled rows, {len(walked)} walked rows")
                ok = False
            for row in compiled + walked:
                if row["error"] and not (row["fault_id"] == "p06_loop_boundary"
                                         and row["error"].startswith("OverflowError: ")):
                    print(f"{goal}: an error other than p06's OverflowError:\n  {row}")
                    ok = False
            for ours, theirs in zip(compiled, walked):
                if ours == theirs:
                    equal += 1
                    errors += bool(ours["error"])
                else:
                    print(f"{goal}: rows differ:\n  compiled {ours}\n  walked   {theirs}")
                    ok = False
    print(f"{equal} rows equal ({errors} error rows); compiled {seconds['compiled']:.1f} s, "
          f"walked {seconds['walked']:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
