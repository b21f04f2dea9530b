"""The benchmark's workloads.

``BENCHMARK.json`` lists ``diversity`` and ``sweep``. Each is sized so that
one pass takes 30-45 s of wall time on the reference host in its slow
state, about 20 s in reference seconds (``hostspeed.py``). ``mutation``
and ``loops`` run by hand (see README.md).

Every workload is a fixed list of trials under generation budgets. Each
trial's seed comes from ``harness.derive_seed(bench_seed, fault_id,
strategy, trial)``, the derivation ``run_experiment`` uses, so a workload
trial and the matching sweep row of an experiment get the same seed.

This module imports nothing from affsgen, so the set-up probe can time the
first import of the package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    goals: tuple[str, ...]
    programs: tuple[str, ...]  # fault-id prefixes; empty means every pair
    strategies: tuple[str, ...]
    trials: int  # per (program, goal, strategy)
    population: int
    generations: int
    max_suite_size: int
    max_calls_per_test: int
    skip_iter: int = 3  # generations between the agent's action choices
    workers: int = 1  # above 1: run through run_experiment with a process pool

    def selects(self, fault_id: str) -> bool:
        return not self.programs or fault_id.startswith(self.programs)


WORKLOADS = {
    w.name: w
    for w in (
        # bound by mutation analysis: mutant runs and classification
        Workload("mutation", goals=("strong-mutation",),
                 programs=("p05", "p08", "p09", "p10"), strategies=("ucb", "sarsa"),
                 trials=2, population=8, generations=6,
                 max_suite_size=30, max_calls_per_test=8),
        # bound by the interpreter on long loop calls, many of them repeated
        Workload("loops", goals=("exceptions",),
                 programs=("p11", "p12"), strategies=("ucb", "sarsa"),
                 trials=1, population=10, generations=6,
                 max_suite_size=30, max_calls_per_test=8),
        # bound by the fitness layer: levenshtein and pair distances
        Workload("diversity", goals=("diversity",),
                 programs=("p07", "p08", "p09", "p10"), strategies=("ucb",),
                 trials=15, population=10, generations=6,
                 max_suite_size=30, max_calls_per_test=8),
        # the full matrix through run_experiment: per-trial set-up,
        # finalization at scale, pool tail imbalance, the p06 failures;
        # 4 trials per cell so p11's tenfold per-trial cost range averages out.
        # skip_iter 1: with 3 generations and the default of 3 the agent would
        # never choose again, and one random first action (with or without
        # weak-mutation fitness) would set each trial's cost
        Workload("sweep", goals=("exceptions", "diversity", "strong-mutation"),
                 programs=(), strategies=("ucb", "sarsa", "default"),
                 trials=4, population=4, generations=3,
                 max_suite_size=3, max_calls_per_test=2, skip_iter=1, workers=2),
    )
}
