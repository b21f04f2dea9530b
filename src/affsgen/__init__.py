"""Search-based unit test generation for MiniJ with adaptive fitness function selection."""

from affsgen.affs import Action, Goal, action_space, make_strategy
from affsgen.engine import Budget, EngineConfig, SearchResult, run_search
from affsgen.fitness import (
    FitnessContext,
    FitnessFunctionId,
    composite_fitness,
    eval_fitness,
    suite_diversity,
)
from affsgen.harness import (
    ExperimentConfig,
    FaultPair,
    fault_detected,
    load_corpus,
    run_experiment,
    vargha_delaney_a,
)
from affsgen.minilang import execute, parse
from affsgen.mutation import classify_against_mutant, generate_mutants
from affsgen.testmodel import (
    Archive,
    GenConfig,
    TestCase,
    TestSuite,
    augment_from_archive,
    crossover,
    minimize,
    mutate_suite,
    random_test_case,
    render_test,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Archive",
    "Budget",
    "EngineConfig",
    "ExperimentConfig",
    "FaultPair",
    "FitnessContext",
    "FitnessFunctionId",
    "GenConfig",
    "Goal",
    "SearchResult",
    "TestCase",
    "TestSuite",
    "action_space",
    "augment_from_archive",
    "classify_against_mutant",
    "composite_fitness",
    "crossover",
    "eval_fitness",
    "execute",
    "fault_detected",
    "generate_mutants",
    "load_corpus",
    "make_strategy",
    "minimize",
    "mutate_suite",
    "parse",
    "random_test_case",
    "render_test",
    "run_experiment",
    "run_search",
    "suite_diversity",
    "vargha_delaney_a",
]
